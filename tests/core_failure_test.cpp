// Failure injection at the NI-kernel level: misconfiguration and protocol
// corruption must be caught by the fatal hardware invariants, never
// silently mis-delivered.
#include <gtest/gtest.h>

#include <memory>

#include "core/ni_kernel.h"
#include "core/registers.h"
#include "ip/stream.h"
#include "link/wire.h"
#include "soc/soc.h"
#include "topology/builders.h"

#include "poll.h"

namespace aethereal::core {
namespace {

namespace regs = core::regs;
using tdm::GlobalChannel;

NiKernelParams TwoChannelNi() {
  NiKernelParams params;
  PortParams port;
  port.channels.assign(2, ChannelParams{});
  params.ports.push_back(port);
  return params;
}

std::unique_ptr<soc::Soc> MakeSoc() {
  auto star = topology::BuildStar(2);
  std::vector<NiKernelParams> params(2, TwoChannelNi());
  return std::make_unique<soc::Soc>(std::move(star.topology),
                                    std::move(params));
}

TEST(KernelFailure, StuSlotConflictIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        auto soc = MakeSoc();
        // Channel 0 takes slot 3...
        ASSERT_TRUE(soc->ni(0)
                        ->WriteRegister(regs::ChannelRegAddr(
                                            0, regs::ChannelReg::kSlots),
                                        1u << 3)
                        .ok());
        soc->RunCycles(1);
        // ...then channel 1 claims the same slot.
        ASSERT_TRUE(soc->ni(0)
                        ->WriteRegister(regs::ChannelRegAddr(
                                            1, regs::ChannelReg::kSlots),
                                        1u << 3)
                        .ok());
        soc->RunCycles(1);
      },
      "already owned");
}

TEST(KernelFailure, BeChannelOwningSlotsIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        auto soc = MakeSoc();
        auto* ni = soc->ni(0);
        // Configure a best-effort channel but hand it a TDM slot anyway.
        ASSERT_TRUE(ni->WriteRegister(
                          regs::ChannelRegAddr(0, regs::ChannelReg::kSpace), 8)
                        .ok());
        ASSERT_TRUE(
            ni->WriteRegister(
                  regs::ChannelRegAddr(0, regs::ChannelReg::kPathRqid),
                  regs::PackPathRqid(link::SourcePath::FromHops({1}), 0))
                .ok());
        ASSERT_TRUE(ni->WriteRegister(
                          regs::ChannelRegAddr(0, regs::ChannelReg::kSlots),
                          1u << 0)
                        .ok());
        ASSERT_TRUE(ni->WriteRegister(
                          regs::ChannelRegAddr(0, regs::ChannelReg::kCtrl),
                          regs::kCtrlEnable)  // enable without the GT bit
                        .ok());
        soc->RunCycles(60);
      },
      "owned by best-effort channel");
}

TEST(KernelFailure, DisableMidPacketIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        auto soc = MakeSoc();
        ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0},
                                        GlobalChannel{1, 0})
                        .ok());
        soc->RunCycles(2);
        // Raise the threshold so a long message accumulates, then let a
        // packet start and disable the channel mid-flight.
        auto* port = soc->port(0, 0);
        for (int i = 0; i < 8; ++i) {
          if (port->CanWrite(0)) port->Write(0, static_cast<Word>(i));
          soc->RunCycles(1);
        }
        // A multi-flit packet is now draining; disable the channel.
        ASSERT_TRUE(soc->ni(0)
                        ->WriteRegister(regs::ChannelRegAddr(
                                            0, regs::ChannelReg::kCtrl),
                                        0)
                        .ok());
        soc->RunCycles(30);
      },
      "disabled mid-packet");
}

TEST(KernelFailure, CreditOverflowIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        auto soc = MakeSoc();
        ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0},
                                        GlobalChannel{1, 0})
                        .ok());
        soc->RunCycles(4);
        // Fill the full 8-word window first...
        auto* src = soc->port(0, 0);
        auto* dst = soc->port(1, 0);
        for (int i = 0; i < 8; ++i) {
          ASSERT_TRUE(PollUntil([&] { return src->CanWrite(0); },
                                [&](Cycle n) { soc->RunCycles(n); }, 3));
          src->Write(0, static_cast<Word>(i));
          soc->RunCycles(1);
        }
        soc->RunCycles(100);
        // ...then corrupt NI0's window mid-flight: shrink SPACE below the
        // credits the remote side is about to return.
        ASSERT_TRUE(soc->ni(0)
                        ->WriteRegister(regs::ChannelRegAddr(
                                            0, regs::ChannelReg::kSpace),
                                        2)
                        .ok());
        soc->RunCycles(2);
        for (int i = 0; i < 30; ++i) {
          while (dst->ReadAvailable(0) > 0) (void)dst->Read(0);
          soc->RunCycles(6);
        }
      },
      "credit overflow");
}

TEST(KernelFailure, PacketForOutOfRangeQueueIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        auto soc = MakeSoc();
        // Point channel 0 of NI0 at a queue id NI1 does not have.
        auto* ni = soc->ni(0);
        ASSERT_TRUE(ni->WriteRegister(
                          regs::ChannelRegAddr(0, regs::ChannelReg::kSpace), 8)
                        .ok());
        ASSERT_TRUE(
            ni->WriteRegister(
                  regs::ChannelRegAddr(0, regs::ChannelReg::kPathRqid),
                  regs::PackPathRqid(link::SourcePath::FromHops({1}), 17))
                .ok());
        ASSERT_TRUE(ni->WriteRegister(
                          regs::ChannelRegAddr(0, regs::ChannelReg::kCtrl),
                          regs::kCtrlEnable)
                        .ok());
        soc->RunCycles(2);
        soc->port(0, 0)->Write(0, 0xBAD);
        soc->RunCycles(60);
      },
      "addresses queue");
}

TEST(KernelFailure, SourceQueueOverflowIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        auto soc = MakeSoc();
        // Channel never enabled: writes pile up in the 8-word source queue
        // and the ninth push violates the port contract.
        auto* port = soc->port(0, 0);
        for (int i = 0; i < 9; ++i) {
          port->Write(0, static_cast<Word>(i));
          soc->RunCycles(1);
        }
      },
      "source queue overflow");
}

// Negative-control: the same scenarios with correct configuration do not
// trip any invariant (guards against over-eager checks).
TEST(KernelFailure, CleanRunTripsNothing) {
  auto soc = MakeSoc();
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0},
                                  config::ChannelQos{}, config::ChannelQos{})
                  .ok());
  config::ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 2;
  ASSERT_TRUE(soc->OpenConnection(GlobalChannel{0, 1}, GlobalChannel{1, 1},
                                  gt, config::ChannelQos{})
                  .ok());
  soc->RunCycles(2);
  auto* port = soc->port(0, 0);
  auto* dst = soc->port(1, 0);
  for (int i = 0; i < 100; ++i) {
    if (port->CanWrite(0)) port->Write(0, static_cast<Word>(i));
    if (port->CanWrite(1)) port->Write(1, static_cast<Word>(i));
    soc->RunCycles(3);
    while (dst->ReadAvailable(0) > 0) (void)dst->Read(0);
    while (dst->ReadAvailable(1) > 0) (void)dst->Read(1);
  }
  soc->RunCycles(200);
  EXPECT_GT(soc->ni(1)->stats().payload_words_received, 0);
}

}  // namespace
}  // namespace aethereal::core
