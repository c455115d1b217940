// Direct ordering-semantics tests for the narrowcast shell (paper Fig. 3),
// a master shell over several connections: responses are delivered to the
// master strictly in transaction-issue order, regardless of slave latency
// skew, posted (response-less) writes, and locally synthesized error
// responses. shells_test.cpp exercises the shell incidentally; this file
// pins the ordering contract itself.
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

/// NI0 master; fast memory on NI1 (range 0x0000), slow memory on NI2
/// (range 0x1000, configurable latency).
class NarrowcastOrdering : public ::testing::Test {
 protected:
  void Wire(int slow_latency) {
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
    mem1_ = std::make_unique<ip::MemorySlave>("mem1", slave1_.get(), 0x0000,
                                              0x100, /*latency=*/1);
    mem2_ = std::make_unique<ip::MemorySlave>("mem2", slave2_.get(), 0x1000,
                                              0x100, slow_latency);
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

TEST_F(NarrowcastOrdering, PipelinedMixStaysInIssueOrder) {
  Wire(/*slow_latency=*/30);
  mem1_->Store(0x0001, 0xA1);
  mem2_->Store(0x1001, 0xB1);
  // Alternate slow/fast slaves with reads and acknowledged writes; every
  // response must surface in exactly this issue order.
  shell_->IssueRead(0x1001, 1, /*tid=*/1);                        // slow
  shell_->IssueRead(0x0001, 1, /*tid=*/2);                        // fast
  shell_->IssueWrite(0x0002, {7}, /*needs_ack=*/true, /*tid=*/3); // fast
  shell_->IssueRead(0x1001, 1, /*tid=*/4);                        // slow
  shell_->IssueWrite(0x1002, {9}, /*needs_ack=*/true, /*tid=*/5); // slow
  shell_->IssueRead(0x0002, 1, /*tid=*/6);                        // fast
  for (int expected_tid = 1; expected_tid <= 6; ++expected_tid) {
    RunUntil(*soc_, [&] { return shell_->HasResponse(); });
    const auto response = shell_->PopResponse();
    EXPECT_EQ(response.transaction_id, expected_tid);
    EXPECT_EQ(response.error, ResponseError::kOk);
  }
  EXPECT_EQ(mem1_->Load(0x0002), 7u);
  EXPECT_EQ(mem2_->Load(0x1002), 9u);
}

TEST_F(NarrowcastOrdering, PostedWritesAreSkippedInTheResponseStream) {
  Wire(/*slow_latency=*/20);
  // Posted writes expect no response; the response stream must deliver
  // only the read/acked-write responses, still in order.
  shell_->IssueWrite(0x1003, {1}, /*needs_ack=*/false, /*tid=*/1);  // posted
  shell_->IssueRead(0x1003, 1, /*tid=*/2);                          // slow
  shell_->IssueWrite(0x0003, {2}, /*needs_ack=*/false, /*tid=*/3);  // posted
  shell_->IssueWrite(0x0004, {3}, /*needs_ack=*/true, /*tid=*/4);   // fast
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  EXPECT_EQ(shell_->PopResponse().transaction_id, 2);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  EXPECT_EQ(shell_->PopResponse().transaction_id, 4);
  EXPECT_FALSE(shell_->HasResponse());
  RunUntil(*soc_, [&] {
    return mem1_->writes_served() == 2 && mem2_->writes_served() == 1;
  });
}

TEST_F(NarrowcastOrdering, NewerFastResponseIsHeldBehindOlderSlowOne) {
  Wire(/*slow_latency=*/400);
  mem1_->Store(0x0005, 0xAA);
  mem2_->Store(0x1005, 0xBB);
  shell_->IssueRead(0x1005, 1, /*tid=*/1);  // slow: ~400 cycles
  shell_->IssueRead(0x0005, 1, /*tid=*/2);  // fast: tens of cycles
  // The fast slave answers long before the slow one, but the in-order
  // contract must keep its response invisible.
  RunUntil(*soc_, [&] { return mem1_->reads_served() == 1; });
  soc_->RunCycles(60);  // fast response has certainly reached the shell
  EXPECT_FALSE(shell_->HasResponse())
      << "newer response leaked past an older outstanding transaction";
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  EXPECT_EQ(shell_->PopResponse().transaction_id, 1);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  EXPECT_EQ(shell_->PopResponse().transaction_id, 2);
}

TEST_F(NarrowcastOrdering, SynthesizedErrorsInterleaveInOrder) {
  Wire(/*slow_latency=*/25);
  mem2_->Store(0x1006, 0xCC);
  shell_->IssueRead(0x1006, 1, /*tid=*/1);   // slow, mapped
  shell_->IssueRead(0x4000, 1, /*tid=*/2);   // unmapped -> synthesized
  shell_->IssueWrite(0x5000, {1}, /*needs_ack=*/true, /*tid=*/3);  // unmapped
  shell_->IssueRead(0x1006, 1, /*tid=*/4);   // slow, mapped
  const ResponseError expected_errors[] = {
      ResponseError::kOk, ResponseError::kUnmappedAddress,
      ResponseError::kUnmappedAddress, ResponseError::kOk};
  for (int tid = 1; tid <= 4; ++tid) {
    RunUntil(*soc_, [&] { return shell_->HasResponse(); });
    const auto response = shell_->PopResponse();
    EXPECT_EQ(response.transaction_id, tid);
    EXPECT_EQ(response.error, expected_errors[tid - 1]);
  }
  // Unmapped posted writes vanish without a trace (no response expected).
  shell_->IssueWrite(0x5000, {1}, /*needs_ack=*/false, /*tid=*/5);
  shell_->IssueRead(0x1006, 1, /*tid=*/6);
  RunUntil(*soc_, [&] { return shell_->HasResponse(); });
  EXPECT_EQ(shell_->PopResponse().transaction_id, 6);
}

}  // namespace
}  // namespace aethereal::shells
