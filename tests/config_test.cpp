// Integration tests of run-time NoC configuration through the NoC itself
// (paper §3, §4.3, Figs. 8-9): the connection manager opens and closes
// connections by writing NI registers over configuration connections, with
// the Fig. 9 register counts (5 at the master NI, 3 at the slave NI).
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "config/connection_manager.h"
#include "config/script.h"
#include "core/registers.h"
#include "fault/injector.h"
#include "fault/spec.h"
#include "ip/memory_slave.h"
#include "shells/master_shell.h"
#include "shells/slave_shell.h"
#include "soc/soc.h"
#include "tdm/allocator.h"
#include "topology/builders.h"

namespace aethereal::config {
namespace {

using shells::MasterShell;
using shells::SlaveShell;
using tdm::GlobalChannel;

// Star of 3 NIs. NI0 = Cfg (2 config channels, one per remote NI).
// NI1: channel 0 = CNIP, channel 1 = data (master). NI2: likewise (slave).
// `data_channels` > 1 adds further data channels (connids 2, 3, ...) at
// NI1/NI2 for the slot-reuse regressions.
struct ConfigRig {
  std::unique_ptr<soc::Soc> soc;
  ConnectionManager* manager = nullptr;

  explicit ConfigRig(int stu_slots = 8, int data_channels = 1,
                     soc::SocOptions options = {}) {
    auto star = topology::BuildStar(3);
    std::vector<core::NiKernelParams> params(3);
    auto make_ni = [&](int channels) {
      core::NiKernelParams p;
      p.stu_slots = stu_slots;
      core::PortParams port;
      port.channels.assign(static_cast<std::size_t>(channels),
                           core::ChannelParams{});
      p.ports.push_back(port);
      return p;
    };
    params[0] = make_ni(2);  // Cfg: config connections to NI1, NI2
    params[1] = make_ni(1 + data_channels);  // CNIP + data channel(s)
    params[2] = make_ni(1 + data_channels);
    options.stu_slots = stu_slots;
    soc = std::make_unique<soc::Soc>(std::move(star.topology),
                                     std::move(params), options);
    soc::ConfigSetup setup;
    setup.cfg_ni = 0;
    setup.cfg_port = 0;
    setup.cfg_connid_of_ni = {{1, 0}, {2, 1}};
    setup.cnip_of_ni = {{1, {0, 0}}, {2, {0, 0}}};
    manager = soc->EnableConfig(setup);
  }

  void RunUntilIdle(Cycle max_cycles = 20000) {
    Cycle spent = 0;
    while (!manager->Idle() && spent < max_cycles) {
      soc->RunCycles(10);
      spent += 10;
    }
    ASSERT_TRUE(manager->Idle()) << "manager did not go idle";
  }
};

ConnectionSpec DataConnection(bool gt = false, int slots = 2) {
  ConnectionSpec spec;
  spec.master = GlobalChannel{1, 1};
  spec.slave = GlobalChannel{2, 1};
  if (gt) {
    spec.request.gt = true;
    spec.request.gt_slots = slots;
  }
  return spec;
}

TEST(ConnectionManager, OpensConnectionViaTheNoc) {
  ConfigRig rig;
  const int handle = rig.manager->RequestOpen(DataConnection());
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen)
      << rig.manager->ErrorOf(handle);
  EXPECT_TRUE(rig.manager->ConfigConnectionLive(1));
  EXPECT_TRUE(rig.manager->ConfigConnectionLive(2));
  // Both data channels enabled.
  EXPECT_TRUE(rig.soc->ni(1)->ChannelEnabled(1));
  EXPECT_TRUE(rig.soc->ni(2)->ChannelEnabled(1));
}

TEST(ConnectionManager, OpenedConnectionCarriesTransactions) {
  ConfigRig rig;
  MasterShell master("master", rig.soc->port(1, 0), 1);
  SlaveShell slave("slave", rig.soc->port(2, 0), 1);
  ip::MemorySlave memory("memory", &slave, 0, 128);
  rig.soc->RegisterOnPort(&master, 1, 0);
  rig.soc->RegisterOnPort(&slave, 2, 0);
  rig.soc->RegisterOnPort(&memory, 2, 0);

  const int handle = rig.manager->RequestOpen(DataConnection());
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);

  master.IssueWrite(0x40, {0xF00D}, /*needs_ack=*/true, /*tid=*/9);
  Cycle spent = 0;
  while (!master.HasResponse() && spent < 5000) {
    rig.soc->RunCycles(10);
    spent += 10;
  }
  ASSERT_TRUE(master.HasResponse());
  EXPECT_EQ(master.PopResponse().error, transaction::ResponseError::kOk);
  EXPECT_EQ(memory.Load(0x40), 0xF00Du);
}

// The configuration schedule: the cycles on which the connection manager
// issues register writes (local and over the NoC), each CNIP agent executes
// them, and operations complete, stepped one network cycle at a time on
// both engines. One string per counter, one character per cycle. Covers the
// Fig. 9 bootstrap (local writes at the Cfg NI, acknowledged remote ones),
// a GT open, its close and a BE reopen, with a quarter of the CNIP requests
// held back by a config-delay fault.
constexpr int kConfigSteps = 1500;

struct ConfigSchedule {
  std::vector<std::string> counters;
  std::vector<std::int64_t> totals;
};

ConfigSchedule RecordConfigSchedule(sim::EngineKind engine) {
  fault::FaultSpec faults;
  faults.seed = 3;
  faults.config_delay_rate = 0.25;
  faults.config_delay_cycles = 40;
  soc::SocOptions options;
  options.engine = engine;
  options.fault = &faults;
  ConfigRig rig(/*stu_slots=*/8, /*data_channels=*/1, options);
  const shells::ConfigShell* shell = rig.soc->config_shell();
  const CnipAgent* cnip1 = rig.soc->cnip_agent(1);
  const CnipAgent* cnip2 = rig.soc->cnip_agent(2);
  EXPECT_NE(cnip1, nullptr);
  EXPECT_NE(cnip2, nullptr);
  auto counters = [&] {
    return std::vector<std::int64_t>{
        shell->local_writes(),         shell->remote_writes(),
        cnip1->writes_executed(),      cnip2->writes_executed(),
        rig.manager->operations_completed()};
  };
  ConfigSchedule schedule;
  schedule.counters.resize(counters().size());
  int gt = -1;
  int be = -1;
  for (int step = 0; step < kConfigSteps; ++step) {
    if (step == 0) gt = rig.manager->RequestOpen(DataConnection(true, 2));
    if (step == 700) {
      EXPECT_TRUE(rig.manager->RequestClose(gt).ok());
    }
    if (step == 760) be = rig.manager->RequestOpen(DataConnection());
    const std::vector<std::int64_t> before = counters();
    rig.soc->RunCycles(1);
    const std::vector<std::int64_t> after = counters();
    for (std::size_t i = 0; i < after.size(); ++i) {
      schedule.counters[i] += static_cast<char>('0' + (after[i] - before[i]));
    }
  }
  EXPECT_TRUE(rig.manager->Idle());
  EXPECT_EQ(rig.manager->StateOf(gt), ConnectionState::kClosed);
  EXPECT_EQ(rig.manager->StateOf(be), ConnectionState::kOpen);
  schedule.totals = counters();
  schedule.totals.push_back(rig.manager->CompletionCycleOf(gt));
  schedule.totals.push_back(rig.manager->CompletionCycleOf(be));
  schedule.totals.push_back(
      rig.soc->fault_injector()->config_requests_delayed());
  return schedule;
}

TEST(ConnectionManager, ConfigurationKeepsItsSchedule) {
  const ConfigSchedule naive = RecordConfigSchedule(sim::EngineKind::kNaive);
  const ConfigSchedule soa = RecordConfigSchedule(sim::EngineKind::kSoa);
  ASSERT_EQ(naive.counters.size(), soa.counters.size());
  for (std::size_t i = 0; i < naive.counters.size(); ++i) {
    EXPECT_EQ(soa.counters[i], naive.counters[i]) << "counter " << i;
  }
  // Local and remote writes issued, writes executed at NI1 and NI2,
  // operations completed; the close's and the reopen's completion cycles;
  // CNIP requests the fault delayed.
  const std::vector<std::int64_t> expected = {8, 25, 15, 10, 5, 855, 1074, 7};
  EXPECT_EQ(naive.totals, expected);
  EXPECT_EQ(soa.totals, expected);
}

TEST(ConnectionManager, RegisterWriteCountsMatchThePaper) {
  ConfigRig rig;
  const int handle = rig.manager->RequestOpen(DataConnection());
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);
  // Fig. 9 / §3 accounting for this topology (both master and slave remote):
  //  * two config connections: each 4 local writes + 3 remote CNIP writes;
  //  * the data connection: 5 writes at the master NI + 3 at the slave NI
  //    (all remote).
  EXPECT_EQ(rig.soc->config_shell()->local_writes(), 8);
  EXPECT_EQ(rig.soc->config_shell()->remote_writes(), 3 + 3 + 5 + 3);
}

TEST(ConnectionManager, SecondOpenReusesConfigConnections) {
  ConfigRig rig;
  const int h1 = rig.manager->RequestOpen(DataConnection());
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(h1), ConnectionState::kOpen);
  const auto local_before = rig.soc->config_shell()->local_writes();
  const auto remote_before = rig.soc->config_shell()->remote_writes();

  // Open the reverse-role connection on the same channels? Channels are in
  // use; instead, close and reopen: the config connections must be reused.
  ASSERT_TRUE(rig.manager->RequestClose(h1).ok());
  rig.RunUntilIdle();
  const int h2 = rig.manager->RequestOpen(DataConnection());
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(h2), ConnectionState::kOpen);
  // Close = 2 writes; reopen = 5 + 3 writes; no new config-connection setup.
  EXPECT_EQ(rig.soc->config_shell()->local_writes(), local_before);
  EXPECT_EQ(rig.soc->config_shell()->remote_writes(), remote_before + 2 + 8);
}

TEST(ConnectionManager, GtOpenReservesAndCloseFreesSlots) {
  ConfigRig rig;
  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 3));
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);

  // The master NI's injection link carries 3 reserved slots.
  const auto& table = rig.soc->allocator().TableOf(
      topology::LinkId{true, 1, 0});
  EXPECT_EQ(table.Reserved(), 3);
  // The NI's own STU was programmed consistently with the allocator.
  int stu_slots_owned = 0;
  for (SlotIndex s = 0; s < 8; ++s) {
    if (rig.soc->ni(1)->SlotOwner(s) == 1) ++stu_slots_owned;
  }
  EXPECT_EQ(stu_slots_owned, 3);

  ASSERT_TRUE(rig.manager->RequestClose(handle).ok());
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kClosed);
  EXPECT_EQ(table.Reserved(), 0);
  EXPECT_FALSE(rig.soc->ni(1)->ChannelEnabled(1));
}

TEST(ConnectionManager, GtExhaustionFailsTheOpen) {
  ConfigRig rig;
  // 9 slots on an 8-slot table can never fit.
  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 9));
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kFailed);
  EXPECT_EQ(rig.manager->ErrorOf(handle).code(),
            StatusCode::kResourceExhausted);
  // Nothing leaked: a feasible request still succeeds.
  const int h2 = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 8));
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(h2), ConnectionState::kOpen);
}

// ---------------------------------------------------------------------------
// Close-path hardening (regressions)
// ---------------------------------------------------------------------------

TEST(ConnectionManager, CloseAfterFailedOpenReturnsCleanStatus) {
  ConfigRig rig;
  // 9 slots on an 8-slot table: the open fails.
  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 9));
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kFailed);

  // Closing the failed handle must be rejected cleanly — no abort, and the
  // record keeps its kFailed state and original error.
  const Status close = rig.manager->RequestClose(handle);
  EXPECT_EQ(close.code(), StatusCode::kFailedPrecondition) << close;
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kFailed);
  EXPECT_EQ(rig.manager->ErrorOf(handle).code(),
            StatusCode::kResourceExhausted);
}

TEST(ConnectionManager, DoubleCloseReturnsCleanStatus) {
  ConfigRig rig;
  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 2));
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);
  ASSERT_TRUE(rig.manager->RequestClose(handle).ok());
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kClosed);

  // The second close is rejected up front and must NOT clobber kClosed.
  const Status again = rig.manager->RequestClose(handle);
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition) << again;
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kClosed);
}

TEST(ConnectionManager, DuplicateCloseWhileStillOpenIsRejected) {
  ConfigRig rig;
  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 2));
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);
  // Two closes queued back-to-back BEFORE the first executes: the second
  // must be rejected at request time (it would otherwise no-op "cleanly"
  // and double-count teardown metrics downstream).
  ASSERT_TRUE(rig.manager->RequestClose(handle).ok());
  const Status dup = rig.manager->RequestClose(handle);
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition) << dup;
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kClosed);
}

TEST(ConnectionManager, CloseQueuedBehindFailingOpenCompletesAsNoop) {
  ConfigRig rig;
  // The open will fail (9 > 8 slots), but at RequestClose time it is still
  // merely queued (kPending), so the close is legitimately accepted.
  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 9));
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kPending);
  ASSERT_TRUE(rig.manager->RequestClose(handle).ok());
  rig.RunUntilIdle();
  // The close completed as a no-op; the open's failure survives.
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kFailed);
  EXPECT_EQ(rig.manager->ErrorOf(handle).code(),
            StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Fig. 9 phase ordering and slot reclamation
// ---------------------------------------------------------------------------

TEST(ConnectionManager, AckBarriersOrderTheFigNinePhases) {
  // Fig. 9 step 3 (slave response channel) carries an acknowledged write;
  // step 4 (master request channel) must never outrun that barrier. The
  // observable consequence, checked every single cycle of the open: the
  // master's data channel is never enabled while the slave's is still
  // disabled, and no data channel is enabled before both configuration
  // connections are live.
  ConfigRig rig;
  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 2));
  for (Cycle spent = 0; !rig.manager->Idle() && spent < 20000; ++spent) {
    rig.soc->RunCycles(1);
    const bool master_enabled = rig.soc->ni(1)->ChannelEnabled(1);
    const bool slave_enabled = rig.soc->ni(2)->ChannelEnabled(1);
    ASSERT_FALSE(master_enabled && !slave_enabled)
        << "master channel enabled before the slave's ack barrier";
    ASSERT_FALSE((master_enabled || slave_enabled) &&
                 !(rig.manager->ConfigConnectionLive(1) &&
                   rig.manager->ConfigConnectionLive(2)))
        << "data channel enabled before the config connections were live";
  }
  ASSERT_TRUE(rig.manager->Idle());
  EXPECT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);
}

TEST(ConnectionManager, CloseReturnsAllocatorToPreOpenSnapshot) {
  ConfigRig rig;
  const std::int64_t occupancy0 = rig.soc->allocator().TotalReserved();

  const int handle = rig.manager->RequestOpen(DataConnection(/*gt=*/true, 3));
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);
  // 3 injection-link slots, each reserved on every link of the 2-hop
  // route: occupancy grew by exactly 3 * hops.
  const std::int64_t occupancy_open = rig.soc->allocator().TotalReserved();
  EXPECT_GT(occupancy_open, occupancy0);
  EXPECT_EQ(rig.manager->SlotsHeldOf(handle), 3);

  ASSERT_TRUE(rig.manager->RequestClose(handle).ok());
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kClosed);
  // Exact return to the pre-open snapshot — nothing leaked, nothing
  // double-freed.
  EXPECT_EQ(rig.soc->allocator().TotalReserved(), occupancy0);
  EXPECT_EQ(rig.manager->SlotsHeldOf(handle), 0);
  // And the NI's own STU released the ownership (the kSlots clear).
  for (SlotIndex s = 0; s < 8; ++s) {
    EXPECT_EQ(rig.soc->ni(1)->SlotOwner(s), kInvalidId) << "slot " << s;
  }
}

TEST(ConnectionManager, FreedSlotsAreReusableByAnotherChannel) {
  // Before the close path cleared the SLOTS register, re-reserving the
  // freed slots for a DIFFERENT channel of the same NI aborted inside the
  // NI kernel ("STU slot already owned").
  ConfigRig rig(/*stu_slots=*/8, /*data_channels=*/2);
  ConnectionSpec first = DataConnection(/*gt=*/true, 6);
  const int h1 = rig.manager->RequestOpen(first);
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(h1), ConnectionState::kOpen);
  ASSERT_TRUE(rig.manager->RequestClose(h1).ok());
  rig.RunUntilIdle();

  // 6 of 8 slots were just freed; the second connection (different
  // channels: connid 2) needs 6 — it can only succeed if the STU released
  // them.
  ConnectionSpec second = first;
  second.master = GlobalChannel{1, 2};
  second.slave = GlobalChannel{2, 2};
  const int h2 = rig.manager->RequestOpen(second);
  rig.RunUntilIdle();
  EXPECT_EQ(rig.manager->StateOf(h2), ConnectionState::kOpen)
      << rig.manager->ErrorOf(h2);
}

// Both ways of opening a connection run one register program: opened over
// the NoC by the manager on one SoC and by Soc::OpenConnection on an
// identical second one, every register of both endpoint channels reads the
// same, and each close clears CTRL and SLOTS and returns the allocator to
// its occupancy before the open.
TEST(ConnectionProgram, ManagerAndDirectOpenProgramTheSameRegisters) {
  ConfigRig runtime;
  ConfigRig direct;
  ConnectionSpec spec = DataConnection(/*gt=*/true, 2);
  spec.request.data_threshold = 5;
  spec.response.gt = true;
  spec.response.gt_slots = 3;
  const std::int64_t reserved0 = runtime.soc->allocator().TotalReserved();
  ASSERT_EQ(direct.soc->allocator().TotalReserved(), reserved0);
  const auto read = [](ConfigRig& rig, const GlobalChannel& at,
                       core::regs::ChannelReg reg) {
    auto value = rig.soc->ni(at.ni)->ReadRegister(
        core::regs::ChannelRegAddr(at.channel, reg));
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? *value : ~Word{0};
  };
  const core::regs::ChannelReg all[] = {
      core::regs::ChannelReg::kCtrl, core::regs::ChannelReg::kSpace,
      core::regs::ChannelReg::kPathRqid, core::regs::ChannelReg::kThresholds,
      core::regs::ChannelReg::kSlots};

  const int handle = runtime.manager->RequestOpen(spec);
  runtime.RunUntilIdle();
  ASSERT_EQ(runtime.manager->StateOf(handle), ConnectionState::kOpen)
      << runtime.manager->ErrorOf(handle);
  auto direct_handle = direct.soc->OpenConnection(spec.master, spec.slave,
                                                  spec.request, spec.response);
  ASSERT_TRUE(direct_handle.ok()) << direct_handle.status();
  direct.soc->RunCycles(10);  // the writes land after the next edge
  for (const GlobalChannel& at : {spec.master, spec.slave}) {
    for (core::regs::ChannelReg reg : all) {
      EXPECT_EQ(read(runtime, at, reg), read(direct, at, reg))
          << "NI " << at.ni << " register " << static_cast<Word>(reg);
    }
    EXPECT_NE(read(direct, at, core::regs::ChannelReg::kSlots), 0u);
  }
  EXPECT_EQ(core::regs::UnpackDataThreshold(read(
                direct, spec.master, core::regs::ChannelReg::kThresholds)),
            5);

  ASSERT_TRUE(runtime.manager->RequestClose(handle).ok());
  runtime.RunUntilIdle();
  ASSERT_TRUE(direct.soc->CloseConnection(*direct_handle).ok());
  direct.soc->RunCycles(10);
  for (ConfigRig* rig : {&runtime, &direct}) {
    for (const GlobalChannel& at : {spec.master, spec.slave}) {
      EXPECT_EQ(read(*rig, at, core::regs::ChannelReg::kCtrl), 0u);
      EXPECT_EQ(read(*rig, at, core::regs::ChannelReg::kSlots), 0u);
    }
    EXPECT_EQ(rig->soc->allocator().TotalReserved(), reserved0);
  }
}

// ---------------------------------------------------------------------------
// Scripted configuration driver
// ---------------------------------------------------------------------------

TEST(ScriptedConfigDriver, SequencesScheduledOpsAndSurfacesLatency) {
  ConfigRig rig(/*stu_slots=*/8, /*data_channels=*/2);
  ScriptedConfigDriver driver("driver", rig.manager);
  rig.soc->RegisterOnPort(&driver, 0, 0);

  // Open at cycle 0; at cycle 500, close it and reopen on another channel
  // right after.
  const int open1 = driver.PushOpen(DataConnection(/*gt=*/true, 2));
  rig.soc->RunCycles(500);
  const int close1 = driver.PushClose(open1);
  ConnectionSpec second = DataConnection(/*gt=*/true, 2);
  second.master = GlobalChannel{1, 2};
  second.slave = GlobalChannel{2, 2};
  const int open2 = driver.PushOpen(second);

  for (Cycle spent = 0; !driver.Done() && spent < 40000; spent += 10) {
    rig.soc->RunCycles(10);
  }
  ASSERT_TRUE(driver.Done());
  EXPECT_EQ(driver.ops_succeeded(), 3);
  EXPECT_EQ(driver.ops_failed(), 0);

  const ScriptedOp& op_open = driver.op(static_cast<std::size_t>(open1));
  EXPECT_EQ(op_open.final_state, ConnectionState::kOpen);
  EXPECT_GT(op_open.Latency(), 0);
  // Fig. 9 register count for this topology: 2 config connections (4
  // local + 3 remote writes each) are EnsureConfig traffic, not this op's;
  // the data connection itself is 5 master + 3 slave writes.
  EXPECT_EQ(op_open.config_writes, 8);
  EXPECT_EQ(op_open.slots_delta, 2);

  const ScriptedOp& op_close = driver.op(static_cast<std::size_t>(close1));
  EXPECT_GE(op_close.issued_at, 500);
  EXPECT_EQ(op_close.final_state, ConnectionState::kClosed);
  EXPECT_GT(op_close.Latency(), 0);
  EXPECT_EQ(op_close.slots_delta, 2);
  // Close of a GT master: CTRL + SLOTS at the master, CTRL at the slave.
  EXPECT_EQ(op_close.config_writes, 3);

  const ScriptedOp& op_reopen = driver.op(static_cast<std::size_t>(open2));
  EXPECT_EQ(op_reopen.final_state, ConnectionState::kOpen);
  // Script order is completion order: the reopen finished after the close.
  EXPECT_GE(op_reopen.completed_at, op_close.completed_at);
}

TEST(ScriptedConfigDriver, CloseOfFailedOpenReportsFailureCleanly) {
  ConfigRig rig;
  ScriptedConfigDriver driver("driver", rig.manager);
  rig.soc->RegisterOnPort(&driver, 0, 0);
  const int open = driver.PushOpen(DataConnection(/*gt=*/true, 9));
  const int close = driver.PushClose(open);
  for (Cycle spent = 0; !driver.Done() && spent < 40000; spent += 10) {
    rig.soc->RunCycles(10);
  }
  ASSERT_TRUE(driver.Done());
  EXPECT_EQ(driver.ops_failed(), 2);
  EXPECT_EQ(driver.op(static_cast<std::size_t>(open)).final_state,
            ConnectionState::kFailed);
  EXPECT_FALSE(driver.op(static_cast<std::size_t>(close)).error.ok());
}

TEST(ConnectionManager, CnipRegistersReadableOverTheNoc) {
  ConfigRig rig;
  const int handle = rig.manager->RequestOpen(DataConnection());
  rig.RunUntilIdle();
  ASSERT_EQ(rig.manager->StateOf(handle), ConnectionState::kOpen);

  // Read NI1's STU-size register remotely through the config shell.
  rig.soc->config_shell()->ReadRegister(1, core::regs::kStuSize);
  Cycle spent = 0;
  while (!rig.soc->config_shell()->HasResponse() && spent < 5000) {
    rig.soc->RunCycles(10);
    spent += 10;
  }
  ASSERT_TRUE(rig.soc->config_shell()->HasResponse());
  const auto rsp = rig.soc->config_shell()->PopResponse();
  EXPECT_EQ(rsp.error, transaction::ResponseError::kOk);
  ASSERT_EQ(rsp.data.size(), 1u);
  EXPECT_EQ(rsp.data[0], 8u);
}

}  // namespace
}  // namespace aethereal::config
