// Direct ordering-semantics tests for the multicast master shell (paper §2;
// a MasterShell under Decode::kAll): an acknowledged write completes only
// when EVERY slave has acknowledged, the merged acknowledgments surface in
// issue order across outstanding writes, the first non-OK slave error wins
// the merge, and reads get an in-order kBadCommand response.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "ip/memory_slave.h"
#include "shells/master_shell.h"
#include "shells/slave_shell.h"
#include "soc/soc.h"
#include "topology/builders.h"

namespace aethereal::shells {
namespace {

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

std::unique_ptr<soc::Soc> MakeStarSoc(const std::vector<int>& channels) {
  auto star = topology::BuildStar(static_cast<int>(channels.size()));
  std::vector<core::NiKernelParams> params;
  for (int c : channels) params.push_back(NiWithChannels(c));
  return std::make_unique<soc::Soc>(std::move(star.topology),
                                    std::move(params));
}

void RunUntil(soc::Soc& soc, const std::function<bool()>& done,
              Cycle max_cycles = 20000) {
  Cycle spent = 0;
  while (!done() && spent < max_cycles) {
    soc.RunCycles(10);
    spent += 10;
  }
  ASSERT_TRUE(done()) << "condition not reached in " << max_cycles
                      << " cycles";
}

/// NI0 master; both slaves map [0, 0x40); the second one is slow.
class MulticastOrdering : public ::testing::Test {
 protected:
  void Wire(int slow_latency) {
    soc_ = MakeStarSoc({2, 1, 1});
    ASSERT_TRUE(
        soc_->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    ASSERT_TRUE(
        soc_->OpenConnection(GlobalChannel{0, 1}, GlobalChannel{2, 0}).ok());
    shell_ = std::make_unique<MasterShell>("multicast", soc_->port(0, 0),
                                           std::vector<int>{0, 1},
                                           MasterShell::Decode::kAll);
    slave1_ = std::make_unique<SlaveShell>("slave1", soc_->port(1, 0), 0);
    slave2_ = std::make_unique<SlaveShell>("slave2", soc_->port(2, 0), 0);
    mem1_ = std::make_unique<ip::MemorySlave>("mem1", slave1_.get(), 0, 0x40,
                                              /*latency=*/1);
    mem2_ = std::make_unique<ip::MemorySlave>("mem2", slave2_.get(), 0, 0x40,
                                              slow_latency);
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

TEST_F(MulticastOrdering, MergedAckWaitsForTheSlowestSlave) {
  Wire(/*slow_latency=*/400);
  shell_->IssueWrite(0x10, {42}, /*needs_ack=*/true, /*tid=*/1);
  // The fast slave executes and acknowledges long before the slow one;
  // the merged acknowledgment must stay invisible until both are in.
  RunUntil(*soc_, [&] { return mem1_->writes_served() == 1; });
  soc_->RunCycles(60);
  EXPECT_FALSE(shell_->HasResponse())
      << "merged ack surfaced before every slave acknowledged";
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  const auto ack = shell_->PopResponse();
  EXPECT_TRUE(ack.is_write_ack);
  EXPECT_EQ(ack.transaction_id, 1);
  EXPECT_EQ(ack.error, ResponseError::kOk);
  EXPECT_EQ(mem1_->Load(0x10), 42u);
  EXPECT_EQ(mem2_->Load(0x10), 42u);
}

TEST_F(MulticastOrdering, OutstandingAcksSurfaceInIssueOrder) {
  Wire(/*slow_latency=*/25);
  shell_->IssueWrite(0x00, {1}, /*needs_ack=*/true, /*tid=*/1);
  shell_->IssueWrite(0x04, {2}, /*needs_ack=*/true, /*tid=*/2);
  shell_->IssueWrite(0x08, {3}, /*needs_ack=*/true, /*tid=*/3);
  for (int tid = 1; tid <= 3; ++tid) {
    RunUntil(*soc_, [&] { return shell_->HasResponse(); });
    const auto ack = shell_->PopResponse();
    EXPECT_EQ(ack.transaction_id, tid);
    EXPECT_EQ(ack.error, ResponseError::kOk);
  }
  EXPECT_EQ(mem1_->Load(0x08), 3u);
  EXPECT_EQ(mem2_->Load(0x08), 3u);
}

TEST_F(MulticastOrdering, PostedWritesExecuteEverywhereWithoutAck) {
  Wire(/*slow_latency=*/10);
  shell_->IssueWrite(0x20, {5}, /*needs_ack=*/false, /*tid=*/1);
  shell_->IssueWrite(0x24, {6}, /*needs_ack=*/true, /*tid=*/2);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  // Only the acked write produces a response, even though both executed.
  EXPECT_EQ(shell_->PopResponse().transaction_id, 2);
  EXPECT_FALSE(shell_->HasResponse());
  EXPECT_EQ(mem1_->writes_served(), 2);
  EXPECT_EQ(mem2_->writes_served(), 2);
  EXPECT_EQ(mem1_->Load(0x20), 5u);
  EXPECT_EQ(mem2_->Load(0x20), 5u);
}

TEST_F(MulticastOrdering, FirstSlaveErrorWinsTheMergeInOrder) {
  Wire(/*slow_latency=*/15);
  // 0x38 is inside both memories; 0x50 is outside both ranges, so every
  // slave reports kUnmappedAddress and the merge carries it — while the
  // surrounding OK writes keep their order.
  shell_->IssueWrite(0x38, {1}, /*needs_ack=*/true, /*tid=*/1);
  shell_->IssueWrite(0x50, {2}, /*needs_ack=*/true, /*tid=*/2);
  shell_->IssueWrite(0x3C, {3}, /*needs_ack=*/true, /*tid=*/3);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  EXPECT_EQ(shell_->PopResponse().error, ResponseError::kOk);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  const auto failed = shell_->PopResponse();
  EXPECT_EQ(failed.transaction_id, 2);
  EXPECT_NE(failed.error, ResponseError::kOk);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  const auto last = shell_->PopResponse();
  EXPECT_EQ(last.transaction_id, 3);
  EXPECT_EQ(last.error, ResponseError::kOk);
}

TEST_F(MulticastOrdering, ReadsAreRejected) {
  Wire(/*slow_latency=*/25);
  shell_->IssueWrite(0x10, {7}, /*needs_ack=*/true, /*tid=*/8);
  shell_->IssueRead(0x10, 1, /*tid=*/9);
  shell_->IssueReadLinked(0x10, 1, /*tid=*/10);
  shell_->IssueWriteConditional(0x10, {1}, /*tid=*/11);
  // The rejections are synthesized at issue, but surface only after the
  // older write's merged acknowledgment.
  EXPECT_FALSE(shell_->HasResponse());
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  const auto ack = shell_->PopResponse();
  EXPECT_EQ(ack.transaction_id, 8);
  EXPECT_EQ(ack.error, ResponseError::kOk);
  for (int tid = 9; tid <= 11; ++tid) {
    ASSERT_TRUE(shell_->HasResponse());
    const auto rsp = shell_->PopResponse();
    EXPECT_EQ(rsp.transaction_id, tid);
    EXPECT_EQ(rsp.error, ResponseError::kBadCommand);
    EXPECT_EQ(rsp.is_write_ack, tid == 11);
    EXPECT_TRUE(rsp.data.empty());
  }
  EXPECT_FALSE(shell_->HasResponse());
  // Only the write reached the slaves.
  soc_->RunCycles(100);
  EXPECT_EQ(mem1_->reads_served(), 0);
  EXPECT_EQ(mem2_->reads_served(), 0);
  EXPECT_EQ(mem1_->writes_served(), 1);
  EXPECT_EQ(mem2_->writes_served(), 1);
  EXPECT_EQ(mem2_->Load(0x10), 7u);
}

TEST_F(MulticastOrdering, HasNoAddressRangesToMap) {
  Wire(/*slow_latency=*/1);
  EXPECT_EQ(shell_->MapRange(0, 0x40, 0).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace aethereal::shells
