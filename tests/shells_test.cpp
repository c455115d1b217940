// Integration tests of the NI shells (paper Figs. 3-6) on a full SoC:
// master/slave transaction round trips, narrowcast address decode with
// in-order responses (a master shell over two connections), multicast
// fan-out with merged acknowledgments (the same shell decoding every write
// to all its connections), and multi-connection arbitration
// with response routing (a slave shell over two connections).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "ip/memory_slave.h"
#include "shells/master_shell.h"
#include "shells/slave_shell.h"
#include "soc/soc.h"
#include "topology/builders.h"

namespace aethereal::shells {
namespace {

using config::ChannelQos;
using tdm::GlobalChannel;
using transaction::ResponseError;

core::NiKernelParams NiWithChannels(int channels) {
  core::NiKernelParams params;
  core::PortParams port;
  port.channels.assign(static_cast<std::size_t>(channels),
                       core::ChannelParams{});
  params.ports.push_back(port);
  return params;
}

std::unique_ptr<soc::Soc> MakeStarSoc(
    const std::vector<int>& channels,
    sim::EngineKind engine = sim::EngineKind::kSoa) {
  auto star = topology::BuildStar(static_cast<int>(channels.size()));
  std::vector<core::NiKernelParams> params;
  for (int c : channels) params.push_back(NiWithChannels(c));
  soc::SocOptions options;
  options.engine = engine;
  return std::make_unique<soc::Soc>(std::move(star.topology),
                                    std::move(params), options);
}

void RunUntil(soc::Soc& soc, const std::function<bool()>& done,
              Cycle max_cycles = 5000) {
  Cycle spent = 0;
  while (!done() && spent < max_cycles) {
    soc.RunCycles(10);
    spent += 10;
  }
  ASSERT_TRUE(done()) << "condition not reached in " << max_cycles
                      << " cycles";
}

TEST(MasterSlaveShell, WriteReadRoundTrip) {
  auto soc = MakeStarSoc({1, 1});
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());

  MasterShell master("master", soc->port(0, 0), 0);
  SlaveShell slave("slave", soc->port(1, 0), 0);
  ip::MemorySlave memory("memory", &slave, 0x1000, 256);
  soc->RegisterOnPort(&master, 0, 0);
  soc->RegisterOnPort(&slave, 1, 0);
  soc->RegisterOnPort(&memory, 1, 0);
  soc->RunCycles(2);

  master.IssueWrite(0x1010, {11, 22, 33}, /*needs_ack=*/true, /*tid=*/1);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  auto ack = master.PopResponse();
  EXPECT_TRUE(ack.is_write_ack);
  EXPECT_EQ(ack.error, ResponseError::kOk);
  EXPECT_EQ(ack.transaction_id, 1);
  EXPECT_EQ(memory.Load(0x1010), 11u);
  EXPECT_EQ(memory.Load(0x1012), 33u);

  master.IssueRead(0x1010, 3, /*tid=*/2);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  auto rsp = master.PopResponse();
  EXPECT_FALSE(rsp.is_write_ack);
  EXPECT_EQ(rsp.transaction_id, 2);
  EXPECT_EQ(rsp.data, (std::vector<Word>{11, 22, 33}));
}

TEST(MasterSlaveShell, PostedWriteHasNoResponse) {
  auto soc = MakeStarSoc({1, 1});
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  MasterShell master("master", soc->port(0, 0), 0);
  SlaveShell slave("slave", soc->port(1, 0), 0);
  ip::MemorySlave memory("memory", &slave, 0, 64);
  soc->RegisterOnPort(&master, 0, 0);
  soc->RegisterOnPort(&slave, 1, 0);
  soc->RegisterOnPort(&memory, 1, 0);
  soc->RunCycles(2);

  master.IssueWrite(0x8, {99}, /*needs_ack=*/false, /*tid=*/7);
  RunUntil(*soc, [&] { return memory.writes_served() == 1; });
  EXPECT_EQ(memory.Load(0x8), 99u);
  soc->RunCycles(100);
  EXPECT_FALSE(master.HasResponse());
  EXPECT_EQ(master.OutstandingResponses(), 0);
}

TEST(MasterSlaveShell, OutOfRangeAddressReturnsError) {
  auto soc = MakeStarSoc({1, 1});
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  MasterShell master("master", soc->port(0, 0), 0);
  SlaveShell slave("slave", soc->port(1, 0), 0);
  ip::MemorySlave memory("memory", &slave, 0x100, 16);
  soc->RegisterOnPort(&master, 0, 0);
  soc->RegisterOnPort(&slave, 1, 0);
  soc->RegisterOnPort(&memory, 1, 0);
  soc->RunCycles(2);

  master.IssueRead(0x500, 1, /*tid=*/3);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  EXPECT_EQ(master.PopResponse().error, ResponseError::kUnmappedAddress);
}

TEST(MasterSlaveShell, ReadLinkedWriteConditional) {
  auto soc = MakeStarSoc({1, 1});
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  MasterShell master("master", soc->port(0, 0), 0);
  SlaveShell slave("slave", soc->port(1, 0), 0);
  ip::MemorySlave memory("memory", &slave, 0, 64);
  soc->RegisterOnPort(&master, 0, 0);
  soc->RegisterOnPort(&slave, 1, 0);
  soc->RegisterOnPort(&memory, 1, 0);
  soc->RunCycles(2);
  memory.Store(0x10, 5);

  // Successful LL/SC pair.
  master.IssueReadLinked(0x10, 1, /*tid=*/1);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  EXPECT_EQ(master.PopResponse().data, (std::vector<Word>{5}));
  master.IssueWriteConditional(0x10, {6}, /*tid=*/2);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  EXPECT_EQ(master.PopResponse().error, ResponseError::kOk);
  EXPECT_EQ(memory.Load(0x10), 6u);

  // A plain write in between breaks the reservation.
  master.IssueReadLinked(0x10, 1, /*tid=*/3);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  (void)master.PopResponse();
  master.IssueWrite(0x10, {77}, /*needs_ack=*/true, /*tid=*/4);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  (void)master.PopResponse();
  master.IssueWriteConditional(0x10, {88}, /*tid=*/5);
  RunUntil(*soc, [&] { return master.HasResponse(); });
  EXPECT_EQ(master.PopResponse().error, ResponseError::kConditionalFail);
  EXPECT_EQ(memory.Load(0x10), 77u);
}

// Narrowcast fixture: NI0 master with 2 channels; memories on NI1 and NI2.
class NarrowcastFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    soc_ = MakeStarSoc({2, 1, 1});
    ASSERT_TRUE(
        soc_->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    ASSERT_TRUE(
        soc_->OpenConnection(GlobalChannel{0, 1}, GlobalChannel{2, 0}).ok());
    shell_ = std::make_unique<MasterShell>("narrowcast", soc_->port(0, 0),
                                           std::vector<int>{0, 1});
    ASSERT_TRUE(shell_->MapRange(0x0000, 0x100, 0).ok());
    ASSERT_TRUE(shell_->MapRange(0x1000, 0x100, 1).ok());
    slave1_ = std::make_unique<SlaveShell>("slave1", soc_->port(1, 0), 0);
    slave2_ = std::make_unique<SlaveShell>("slave2", soc_->port(2, 0), 0);
    // The second memory is slower: exercises in-order response delivery.
    mem1_ = std::make_unique<ip::MemorySlave>("mem1", slave1_.get(), 0x0000,
                                              0x100, /*latency=*/1);
    mem2_ = std::make_unique<ip::MemorySlave>("mem2", slave2_.get(), 0x1000,
                                              0x100, /*latency=*/40);
    soc_->RegisterOnPort(shell_.get(), 0, 0);
    soc_->RegisterOnPort(slave1_.get(), 1, 0);
    soc_->RegisterOnPort(slave2_.get(), 2, 0);
    soc_->RegisterOnPort(mem1_.get(), 1, 0);
    soc_->RegisterOnPort(mem2_.get(), 2, 0);
    soc_->RunCycles(2);
  }

  std::unique_ptr<soc::Soc> soc_;
  std::unique_ptr<MasterShell> shell_;
  std::unique_ptr<SlaveShell> slave1_, slave2_;
  std::unique_ptr<ip::MemorySlave> mem1_, mem2_;
};

TEST_F(NarrowcastFixture, AddressDecodeRoutesToRightSlave) {
  shell_->IssueWrite(0x0010, {111}, /*needs_ack=*/false, 1);
  shell_->IssueWrite(0x1020, {222}, /*needs_ack=*/false, 2);
  RunUntil(*soc_, [&] {
    return mem1_->writes_served() == 1 && mem2_->writes_served() == 1;
  });
  EXPECT_EQ(mem1_->Load(0x0010), 111u);
  EXPECT_EQ(mem2_->Load(0x1020), 222u);
}

TEST_F(NarrowcastFixture, InOrderDespiteSlaveLatencySkew) {
  mem1_->Store(0x0000, 0xAA);
  mem2_->Store(0x1000, 0xBB);
  shell_->IssueRead(0x1000, 1, /*tid=*/10);  // slow slave
  shell_->IssueRead(0x0000, 1, /*tid=*/11);  // fast slave
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  auto first = shell_->PopResponse();
  EXPECT_EQ(first.transaction_id, 10) << "responses must be in issue order";
  EXPECT_EQ(first.data, (std::vector<Word>{0xBB}));
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  auto second = shell_->PopResponse();
  EXPECT_EQ(second.transaction_id, 11);
  EXPECT_EQ(second.data, (std::vector<Word>{0xAA}));
}

TEST_F(NarrowcastFixture, UnmappedAddressSynthesizesInOrderError) {
  shell_->IssueRead(0x1000, 1, /*tid=*/20);   // slow slave
  shell_->IssueRead(0x9999, 1, /*tid=*/21);   // unmapped
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  EXPECT_EQ(shell_->PopResponse().transaction_id, 20);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  auto err = shell_->PopResponse();
  EXPECT_EQ(err.transaction_id, 21);
  EXPECT_EQ(err.error, ResponseError::kUnmappedAddress);
}

TEST(MulticastMasterShell, WriteReachesAllSlavesWithMergedAck) {
  auto soc = MakeStarSoc({2, 1, 1});
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 1}, GlobalChannel{2, 0}).ok());
  MasterShell shell("multicast", soc->port(0, 0), {0, 1},
                    MasterShell::Decode::kAll);
  SlaveShell slave1("slave1", soc->port(1, 0), 0);
  SlaveShell slave2("slave2", soc->port(2, 0), 0);
  ip::MemorySlave mem1("mem1", &slave1, 0, 64);
  ip::MemorySlave mem2("mem2", &slave2, 0, 64);
  soc->RegisterOnPort(&shell, 0, 0);
  soc->RegisterOnPort(&slave1, 1, 0);
  soc->RegisterOnPort(&slave2, 2, 0);
  soc->RegisterOnPort(&mem1, 1, 0);
  soc->RegisterOnPort(&mem2, 2, 0);
  soc->RunCycles(2);

  shell.IssueWrite(0x20, {0xCAFE}, /*needs_ack=*/true, /*tid=*/5);
  RunUntil(*soc, [&] { return shell.HasResponse(); });
  auto ack = shell.PopResponse();
  EXPECT_TRUE(ack.is_write_ack);
  EXPECT_EQ(ack.error, ResponseError::kOk);
  EXPECT_EQ(mem1.Load(0x20), 0xCAFEu);
  EXPECT_EQ(mem2.Load(0x20), 0xCAFEu);
  shell.IssueRead(0x20, 1, 6);
  ASSERT_TRUE(shell.HasResponse());
  EXPECT_EQ(shell.PopResponse().error, ResponseError::kBadCommand);
}

TEST(MulticastMasterShell, MergedAckReportsError) {
  auto soc = MakeStarSoc({2, 1, 1});
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 1}, GlobalChannel{2, 0}).ok());
  MasterShell shell("multicast", soc->port(0, 0), {0, 1},
                    MasterShell::Decode::kAll);
  SlaveShell slave1("slave1", soc->port(1, 0), 0);
  SlaveShell slave2("slave2", soc->port(2, 0), 0);
  ip::MemorySlave mem1("mem1", &slave1, 0, 64);
  // The second memory covers a smaller range: the write misses it.
  ip::MemorySlave mem2("mem2", &slave2, 0, 16);
  soc->RegisterOnPort(&shell, 0, 0);
  soc->RegisterOnPort(&slave1, 1, 0);
  soc->RegisterOnPort(&slave2, 2, 0);
  soc->RegisterOnPort(&mem1, 1, 0);
  soc->RegisterOnPort(&mem2, 2, 0);
  soc->RunCycles(2);

  shell.IssueWrite(0x30, {1}, /*needs_ack=*/true, /*tid=*/1);
  RunUntil(*soc, [&] { return shell.HasResponse(); });
  EXPECT_EQ(shell.PopResponse().error, ResponseError::kUnmappedAddress);
}

TEST(MultiConnectionSlaveShell, ServesTwoMastersAndRoutesResponses) {
  // NI0 and NI1 masters -> NI2 port with two connections and one memory.
  auto soc = MakeStarSoc({1, 1, 2});
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{2, 0}).ok());
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{1, 0}, GlobalChannel{2, 1}).ok());
  MasterShell master0("master0", soc->port(0, 0), 0);
  MasterShell master1("master1", soc->port(1, 0), 0);
  SlaveShell shell("multiconn", soc->port(2, 0), std::vector<int>{0, 1});
  ip::MemorySlave memory("memory", &shell, 0, 256);
  soc->RegisterOnPort(&master0, 0, 0);
  soc->RegisterOnPort(&master1, 1, 0);
  soc->RegisterOnPort(&shell, 2, 0);
  soc->RegisterOnPort(&memory, 2, 0);
  soc->RunCycles(2);

  master0.IssueWrite(0x10, {0xA0}, /*needs_ack=*/true, /*tid=*/1);
  master1.IssueWrite(0x20, {0xB0}, /*needs_ack=*/true, /*tid=*/2);
  RunUntil(*soc, [&] { return master0.HasResponse() && master1.HasResponse(); });
  EXPECT_EQ(master0.PopResponse().transaction_id, 1);
  EXPECT_EQ(master1.PopResponse().transaction_id, 2);
  EXPECT_EQ(memory.Load(0x10), 0xA0u);
  EXPECT_EQ(memory.Load(0x20), 0xB0u);

  // Cross reads: each master sees the other's data.
  master0.IssueRead(0x20, 1, /*tid=*/3);
  master1.IssueRead(0x10, 1, /*tid=*/4);
  RunUntil(*soc, [&] { return master0.HasResponse() && master1.HasResponse(); });
  EXPECT_EQ(master0.PopResponse().data, (std::vector<Word>{0xB0}));
  EXPECT_EQ(master1.PopResponse().data, (std::vector<Word>{0xA0}));
}

// ---------------------------------------------------------------------------
// Per-cycle schedules of the N-connection shells. A scripted master IP
// issues a fixed list of transactions and hashes every response with the
// cycle it pops it; the digests pin those cycles on both engines.
// ---------------------------------------------------------------------------

std::uint64_t Mix(std::uint64_t hash, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash = (hash ^ ((value >> (8 * b)) & 0xFF)) * 0x100000001B3ull;
  }
  return hash;
}

struct ScriptOp {
  Cycle at;       // earliest issue cycle
  bool read;
  bool acked;     // writes only
  Word address;
  int tid;
};

/// A master IP that issues `ops` in order (each no earlier than its cycle,
/// and only when the endpoint has room) and hashes each response it pops.
/// It never parks, so its schedule shows only the shell's timing.
class ScriptedMaster : public sim::Module {
 public:
  ScriptedMaster(std::string name, MasterEndpoint* endpoint,
                 std::vector<ScriptOp> ops)
      : sim::Module(std::move(name)),
        endpoint_(endpoint),
        ops_(std::move(ops)) {
    endpoint->BindIp(this);
  }

  std::uint64_t digest() const { return digest_; }
  int responses() const { return responses_; }
  bool issued_all() const { return next_ == ops_.size(); }

  void Evaluate() override {
    while (endpoint_->HasResponse()) {
      const auto rsp = endpoint_->PopResponse();
      digest_ = Mix(digest_, static_cast<std::uint64_t>(CycleCount()));
      digest_ = Mix(digest_, static_cast<std::uint64_t>(rsp.transaction_id));
      digest_ = Mix(digest_, static_cast<std::uint64_t>(rsp.error));
      digest_ = Mix(digest_, rsp.is_write_ack ? 1 : 0);
      for (Word w : rsp.data) digest_ = Mix(digest_, w);
      ++responses_;
    }
    while (next_ < ops_.size() && ops_[next_].at <= CycleCount()) {
      const ScriptOp& op = ops_[next_];
      if (!endpoint_->CanIssue(op.read ? 0 : 2)) break;
      if (op.read) {
        endpoint_->IssueRead(op.address, 2, op.tid);
      } else {
        const Word base = static_cast<Word>(op.tid) * 16;
        endpoint_->IssueWrite(op.address, {base + 1, base + 2}, op.acked,
                              op.tid);
      }
      ++next_;
    }
  }

 private:
  MasterEndpoint* endpoint_;
  std::vector<ScriptOp> ops_;
  std::size_t next_ = 0;
  std::uint64_t digest_ = 0xCBF29CE484222325ull;
  int responses_ = 0;
};

/// NI0 runs a two-slave narrowcast master: a fast memory on NI1 maps
/// [0, 0x100), a slow one on NI2 maps [0x1000, 0x1100). The script mixes
/// reads, acknowledged and posted writes, and unmapped addresses.
struct NarrowcastRig {
  explicit NarrowcastRig(sim::EngineKind engine) {
    soc = MakeStarSoc({2, 1, 1}, engine);
    AETHEREAL_CHECK(
        soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    AETHEREAL_CHECK(
        soc->OpenConnection(GlobalChannel{0, 1}, GlobalChannel{2, 0}).ok());
    shell = std::make_unique<MasterShell>("narrowcast", soc->port(0, 0),
                                               std::vector<int>{0, 1});
    AETHEREAL_CHECK(shell->MapRange(0x0000, 0x100, 0).ok());
    AETHEREAL_CHECK(shell->MapRange(0x1000, 0x100, 1).ok());
    slave1 = std::make_unique<SlaveShell>("slave1", soc->port(1, 0), 0);
    slave2 = std::make_unique<SlaveShell>("slave2", soc->port(2, 0), 0);
    mem1 = std::make_unique<ip::MemorySlave>("mem1", slave1.get(), 0x0000,
                                             0x100, /*latency=*/1);
    mem2 = std::make_unique<ip::MemorySlave>("mem2", slave2.get(), 0x1000,
                                             0x100, /*latency=*/30);
    std::vector<ScriptOp> ops;
    int tid = 0;
    for (int round = 0; round < 6; ++round) {
      const Cycle at = 10 + 90 * round;
      const Word offset = static_cast<Word>(4 * round);
      ops.push_back({at, false, false, 0x1000 + offset, tid++});  // posted
      ops.push_back({at, true, false, 0x1000 + offset, tid++});   // slow
      ops.push_back({at, false, true, 0x0000 + offset, tid++});   // fast
      ops.push_back({at, true, false, 0x0000 + offset, tid++});   // fast
      ops.push_back({at + 3, true, false, 0x4000 + offset, tid++});  // unmapped
      ops.push_back({at + 3, false, false, 0x5000, tid++});  // unmapped posted
      ops.push_back({at + 5, false, true, 0x1002 + offset, tid++});  // slow
      ops.push_back({at + 5, false, true, 0x6000, tid++});  // unmapped acked
      ops.push_back({at + 7, false, false, 0x0002 + offset, tid++});  // posted
      ops.push_back({at + 7, true, false, 0x1002 + offset, tid++});   // slow
    }
    master = std::make_unique<ScriptedMaster>("cpu", shell.get(), ops);
    soc->RegisterOnPort(shell.get(), 0, 0);
    soc->RegisterOnPort(master.get(), 0, 0);
    soc->RegisterOnPort(slave1.get(), 1, 0);
    soc->RegisterOnPort(slave2.get(), 2, 0);
    soc->RegisterOnPort(mem1.get(), 1, 0);
    soc->RegisterOnPort(mem2.get(), 2, 0);
  }

  std::unique_ptr<soc::Soc> soc;
  std::unique_ptr<MasterShell> shell;
  std::unique_ptr<SlaveShell> slave1, slave2;
  std::unique_ptr<ip::MemorySlave> mem1, mem2;
  std::unique_ptr<ScriptedMaster> master;
};

/// Two masters on NI0 and NI1 share the memory behind a two-connection
/// multi-connection slave on NI2. Both issue bursts on the same cycles, so
/// the queue-filling selector and its round-robin tie-break decide the
/// service order.
struct MultiConnectionRig {
  explicit MultiConnectionRig(sim::EngineKind engine) {
    soc = MakeStarSoc({1, 1, 2}, engine);
    AETHEREAL_CHECK(
        soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{2, 0}).ok());
    AETHEREAL_CHECK(
        soc->OpenConnection(GlobalChannel{1, 0}, GlobalChannel{2, 1}).ok());
    shell0 = std::make_unique<MasterShell>("master0", soc->port(0, 0), 0);
    shell1 = std::make_unique<MasterShell>("master1", soc->port(1, 0), 0);
    slave = std::make_unique<SlaveShell>(
        "multiconn", soc->port(2, 0), std::vector<int>{0, 1});
    memory = std::make_unique<ip::MemorySlave>("memory", slave.get(), 0, 0x100,
                                               /*latency=*/12);
    std::vector<ScriptOp> ops0, ops1;
    int tid = 0;
    for (int round = 0; round < 5; ++round) {
      const Cycle at = 10 + 120 * round;
      const Word a = static_cast<Word>(8 * round);
      // Master 0 sends a burst of three, master 1 one more on the same
      // cycle and a second after a short gap: fills differ, then tie.
      ops0.push_back({at, false, true, a, tid++});
      ops0.push_back({at, true, false, a + 0x80, tid++});
      ops0.push_back({at, false, false, a + 2, tid++});
      ops0.push_back({at + 20, true, false, a, tid++});
      ops1.push_back({at, true, false, a, tid++});
      ops1.push_back({at, false, true, a + 0x80, tid++});
      ops1.push_back({at + 4, true, false, a + 2, tid++});
      ops1.push_back({at + 20, false, true, a + 0x400, tid++});  // unmapped
    }
    master0 = std::make_unique<ScriptedMaster>("cpu0", shell0.get(), ops0);
    master1 = std::make_unique<ScriptedMaster>("cpu1", shell1.get(), ops1);
    soc->RegisterOnPort(shell0.get(), 0, 0);
    soc->RegisterOnPort(master0.get(), 0, 0);
    soc->RegisterOnPort(shell1.get(), 1, 0);
    soc->RegisterOnPort(master1.get(), 1, 0);
    soc->RegisterOnPort(slave.get(), 2, 0);
    soc->RegisterOnPort(memory.get(), 2, 0);
  }

  std::unique_ptr<soc::Soc> soc;
  std::unique_ptr<MasterShell> shell0, shell1;
  std::unique_ptr<SlaveShell> slave;
  std::unique_ptr<ip::MemorySlave> memory;
  std::unique_ptr<ScriptedMaster> master0, master1;
};

/// NI0 multicasts to a fast memory on NI1 mapping [0, 0x100) and a slow
/// one on NI2 mapping only [0, 0x40). Writes in [0x40, 0x100) miss the
/// second memory, so their merged acknowledgment carries kUnmappedAddress;
/// writes above 0x100 miss both. No write can draw two kinds of error.
struct MulticastRig {
  explicit MulticastRig(sim::EngineKind engine) {
    soc = MakeStarSoc({2, 1, 1}, engine);
    AETHEREAL_CHECK(
        soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    AETHEREAL_CHECK(
        soc->OpenConnection(GlobalChannel{0, 1}, GlobalChannel{2, 0}).ok());
    shell = std::make_unique<MasterShell>("multicast", soc->port(0, 0),
                                          std::vector<int>{0, 1},
                                          MasterShell::Decode::kAll);
    slave1 = std::make_unique<SlaveShell>("slave1", soc->port(1, 0), 0);
    slave2 = std::make_unique<SlaveShell>("slave2", soc->port(2, 0), 0);
    mem1 = std::make_unique<ip::MemorySlave>("mem1", slave1.get(), 0, 0x100,
                                             /*latency=*/1);
    mem2 = std::make_unique<ip::MemorySlave>("mem2", slave2.get(), 0, 0x40,
                                             /*latency=*/30);
    std::vector<ScriptOp> ops;
    int tid = 0;
    for (int round = 0; round < 6; ++round) {
      const Cycle at = 10 + 90 * round;
      const Word offset = static_cast<Word>(2 * round);
      ops.push_back({at, false, true, 0x00 + offset, tid++});      // both
      ops.push_back({at, false, false, 0x10 + offset, tid++});     // posted
      ops.push_back({at, false, true, 0x80 + offset, tid++});      // mem1 only
      ops.push_back({at + 3, false, false, 0x90 + offset, tid++}); // posted
      ops.push_back({at + 5, false, true, 0x20 + offset, tid++});  // both
      ops.push_back({at + 5, false, true, 0x200, tid++});          // neither
      ops.push_back({at + 7, false, false, 0x30 + offset, tid++}); // posted
      ops.push_back({at + 7, false, true, 0xC0 + offset, tid++});  // mem1 only
    }
    master = std::make_unique<ScriptedMaster>("cpu", shell.get(), ops);
    soc->RegisterOnPort(shell.get(), 0, 0);
    soc->RegisterOnPort(master.get(), 0, 0);
    soc->RegisterOnPort(slave1.get(), 1, 0);
    soc->RegisterOnPort(slave2.get(), 2, 0);
    soc->RegisterOnPort(mem1.get(), 1, 0);
    soc->RegisterOnPort(mem2.get(), 2, 0);
  }

  /// The writer's response digest mixed with both memories' contents.
  std::uint64_t Digest() const {
    std::uint64_t digest = master->digest();
    for (Word a = 0; a < 0x100; ++a) digest = Mix(digest, mem1->Load(a));
    for (Word a = 0; a < 0x40; ++a) digest = Mix(digest, mem2->Load(a));
    return digest;
  }

  std::unique_ptr<soc::Soc> soc;
  std::unique_ptr<MasterShell> shell;
  std::unique_ptr<SlaveShell> slave1, slave2;
  std::unique_ptr<ip::MemorySlave> mem1, mem2;
  std::unique_ptr<ScriptedMaster> master;
};

class ShellSchedule : public ::testing::TestWithParam<sim::EngineKind> {};

// Every response reaches the narrowcast master's IP on the same cycle on
// both engines, and in issue order: 6 rounds x 7 responses (posted writes
// expect none).
TEST_P(ShellSchedule, MasterShellDigest) {
  NarrowcastRig rig(GetParam());
  rig.soc->RunCycles(1500);
  EXPECT_TRUE(rig.master->issued_all());
  EXPECT_EQ(rig.master->responses(), 6 * 7);
  EXPECT_EQ(rig.mem1->writes_served(), 12);
  EXPECT_EQ(rig.mem2->writes_served(), 12);
  EXPECT_EQ(rig.master->digest(), 0xae980f0ab1132b27ull)
      << "schedule changed: digest 0x" << std::hex << rig.master->digest();
}

// Both masters' responses arrive on the same cycles on both engines.
TEST_P(ShellSchedule, MultiConnectionSlaveDigest) {
  MultiConnectionRig rig(GetParam());
  rig.soc->RunCycles(1500);
  EXPECT_TRUE(rig.master0->issued_all() && rig.master1->issued_all());
  EXPECT_EQ(rig.master0->responses(), 5 * 3);
  EXPECT_EQ(rig.master1->responses(), 5 * 4);
  const std::uint64_t digest =
      Mix(rig.master0->digest(), rig.master1->digest());
  EXPECT_EQ(digest, 0x7e113dc4e1b72821ull)
      << "schedule changed: digest 0x" << std::hex << digest;
}

// Every merged acknowledgment reaches the multicast master's IP on the same
// cycle on both engines: 6 rounds x 5 acknowledged writes.
TEST_P(ShellSchedule, MulticastMasterDigest) {
  MulticastRig rig(GetParam());
  rig.soc->RunCycles(1500);
  EXPECT_TRUE(rig.master->issued_all());
  EXPECT_EQ(rig.master->responses(), 6 * 5);
  EXPECT_EQ(rig.mem1->writes_served(), 6 * 7);
  EXPECT_EQ(rig.mem2->writes_served(), 6 * 4);
  EXPECT_EQ(rig.Digest(), 0xc5e3625e3d70d7dfull)
      << "schedule changed: digest 0x" << std::hex << rig.Digest();
}

// Once the traffic has drained, the N-connection shells park like their
// one-connection peers (soa; the naive engine never parks).
TEST_P(ShellSchedule, NConnectionShellsParkOnceDrained) {
  const bool parks = GetParam() == sim::EngineKind::kSoa;
  NarrowcastRig narrowcast(GetParam());
  narrowcast.soc->RunCycles(1500);
  ASSERT_EQ(narrowcast.master->responses(), 6 * 7);
  EXPECT_EQ(narrowcast.shell->parked(), parks);
  EXPECT_EQ(narrowcast.slave1->parked(), parks);
  EXPECT_EQ(narrowcast.slave2->parked(), parks);

  MultiConnectionRig multi(GetParam());
  multi.soc->RunCycles(1500);
  ASSERT_EQ(multi.master1->responses(), 5 * 4);
  EXPECT_EQ(multi.slave->parked(), parks);
  EXPECT_EQ(multi.shell0->parked(), parks);
  EXPECT_EQ(multi.shell1->parked(), parks);

  MulticastRig multicast(GetParam());
  multicast.soc->RunCycles(1500);
  ASSERT_EQ(multicast.master->responses(), 6 * 5);
  EXPECT_EQ(multicast.shell->parked(), parks);
  EXPECT_EQ(multicast.slave1->parked(), parks);
  EXPECT_EQ(multicast.slave2->parked(), parks);
}

INSTANTIATE_TEST_SUITE_P(Engines, ShellSchedule,
                         ::testing::Values(sim::EngineKind::kNaive,
                                           sim::EngineKind::kSoa),
                         [](const auto& info) {
                           return std::string(sim::EngineKindName(info.param));
                         });

}  // namespace
}  // namespace aethereal::shells
