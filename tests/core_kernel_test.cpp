// Integration tests of the NI kernel: two kernels connected through one
// Æthereal router (star topology), exercising packetization, credit-based
// end-to-end flow control, GT slot scheduling, BE arbitration, thresholds,
// and flush — the full Fig. 2 datapath.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ni_kernel.h"
#include "core/registers.h"
#include "link/flit.h"
#include "link/header.h"
#include "link/wire.h"
#include "router/router.h"
#include "sim/engine.h"
#include "sim/kernel.h"

#include "park_watcher.h"
#include "poll.h"

namespace aethereal::core {
namespace {

using link::SourcePath;

NiKernelParams OneChannelNi(int channels = 1, int queue_words = 8) {
  NiKernelParams params;
  PortParams port;
  port.name = "p0";
  port.channels.assign(static_cast<std::size_t>(channels),
                       ChannelParams{queue_words, queue_words, 1});
  params.ports.push_back(port);
  return params;
}

/// Two NIs on one router: NI0 at router port 0, NI1 at router port 1.
class TwoNiFixture {
 public:
  TwoNiFixture(const NiKernelParams& p0, const NiKernelParams& p1,
               double port_mhz = 500.0) {
    net_ = sim.AddClockMhz("net", 500.0);
    port_clk_ = (port_mhz == 500.0) ? net_ : sim.AddClockMhz("port", port_mhz);
    router = std::make_unique<router::Router>(
        "router", 0, router::RouterConfig{2, 8});
    ni0 = std::make_unique<NiKernel>("ni0", 0, p0);
    ni1 = std::make_unique<NiKernel>("ni1", 1, p1);
    for (auto& l : links_) l = std::make_unique<link::LinkWires>(net_);

    ni0->ConnectToRouter(links_[0].get(), links_[1].get(), 8);
    router->ConnectInput(0, links_[0].get());
    router->ConnectOutput(0, links_[1].get(), 8);
    ni1->ConnectToRouter(links_[2].get(), links_[3].get(), 8);
    router->ConnectInput(1, links_[2].get());
    router->ConnectOutput(1, links_[3].get(), 8);

    net_->Register(router.get());
    net_->Register(ni0.get());
    net_->Register(ni1.get());
    ni0->BindPortClock(0, port_clk_);
    ni1->BindPortClock(0, port_clk_);
  }

  /// Opens a symmetric channel pair: NI0 channel `c0` <-> NI1 channel `c1`.
  void OpenPair(ChannelId c0, ChannelId c1, bool gt0 = false, bool gt1 = false,
                Word slots0 = 0, Word slots1 = 0) {
    ConfigureChannel(*ni0, c0, SourcePath::FromHops({1}), c1, gt0, slots0);
    ConfigureChannel(*ni1, c1, SourcePath::FromHops({0}), c0, gt1, slots1);
    Run(2);  // let the register writes commit
  }

  static void ConfigureChannel(NiKernel& ni, ChannelId ch,
                               const SourcePath& path, int remote_qid,
                               bool gt, Word slots, int data_thr = 1,
                               int credit_thr = 1) {
    const int remote_space = 8;  // all test queues are 8 words deep
    ASSERT_TRUE(ni.WriteRegister(
                      regs::ChannelRegAddr(ch, regs::ChannelReg::kSpace),
                      static_cast<Word>(remote_space))
                    .ok());
    ASSERT_TRUE(ni.WriteRegister(
                      regs::ChannelRegAddr(ch, regs::ChannelReg::kPathRqid),
                      regs::PackPathRqid(path, remote_qid))
                    .ok());
    ASSERT_TRUE(ni.WriteRegister(
                      regs::ChannelRegAddr(ch, regs::ChannelReg::kThresholds),
                      regs::PackThresholds(data_thr, credit_thr))
                    .ok());
    if (slots != 0) {
      ASSERT_TRUE(ni.WriteRegister(
                        regs::ChannelRegAddr(ch, regs::ChannelReg::kSlots),
                        slots)
                      .ok());
    }
    ASSERT_TRUE(ni.WriteRegister(
                      regs::ChannelRegAddr(ch, regs::ChannelReg::kCtrl),
                      regs::kCtrlEnable | (gt ? regs::kCtrlGt : 0))
                    .ok());
  }

  void Run(Cycle cycles) { sim.RunCycles(net_, cycles); }

  /// Drains all readable words from an NI port channel.
  std::vector<Word> DrainReads(NiKernel& ni, int connid) {
    std::vector<Word> words;
    NiPort* port = ni.port(0);
    while (port->ReadAvailable(connid) > 0) {
      words.push_back(port->Read(connid));
      Run(1);  // commit the pop so credits flow
    }
    return words;
  }

  /// Link 0: NI0 -> router, 1: router -> NI0, 2: NI1 -> router,
  /// 3: router -> NI1.
  link::LinkWires& link(int i) { return *links_[static_cast<std::size_t>(i)]; }

  sim::Kernel sim;
  std::unique_ptr<router::Router> router;
  std::unique_ptr<NiKernel> ni0;
  std::unique_ptr<NiKernel> ni1;

 private:
  sim::Clock* net_ = nullptr;
  sim::Clock* port_clk_ = nullptr;
  std::array<std::unique_ptr<link::LinkWires>, 4> links_;
};

TEST(NiKernelRegisters, InfoRegistersReadOnly) {
  NiKernel ni("ni", 0, NiKernelParams::PaperReferenceInstance());
  auto stu = ni.ReadRegister(regs::kStuSize);
  ASSERT_TRUE(stu.ok());
  EXPECT_EQ(*stu, 8u);
  auto nch = ni.ReadRegister(regs::kNumChannels);
  ASSERT_TRUE(nch.ok());
  EXPECT_EQ(*nch, 8u);  // 1+1+2+4
  auto nports = ni.ReadRegister(regs::kNumPorts);
  ASSERT_TRUE(nports.ok());
  EXPECT_EQ(*nports, 4u);
  EXPECT_EQ(ni.WriteRegister(regs::kStuSize, 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(NiKernelRegisters, UnknownAddressesRejected) {
  NiKernel ni("ni", 0, OneChannelNi());
  EXPECT_EQ(ni.ReadRegister(0x5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ni.WriteRegister(regs::ChannelRegAddr(7, regs::ChannelReg::kCtrl), 1)
                .code(),
            StatusCode::kNotFound);
  // Register 5..7 within a channel block are unmapped.
  EXPECT_EQ(ni.WriteRegister(regs::kChannelBase + 5, 1).code(),
            StatusCode::kNotFound);
}

TEST(NiKernelRegisters, WritesApplyAtNextEdge) {
  sim::Kernel sim;
  sim::Clock* clk = sim.AddClockMhz("net", 500.0);
  NiKernel ni("ni", 0, OneChannelNi());
  clk->Register(&ni);
  const Word addr = regs::ChannelRegAddr(0, regs::ChannelReg::kThresholds);
  ASSERT_TRUE(ni.WriteRegister(addr, regs::PackThresholds(5, 7)).ok());
  // Not yet applied.
  auto before = ni.ReadRegister(addr);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, regs::PackThresholds(1, 1));
  sim.RunCycles(clk, 1);
  auto after = ni.ReadRegister(addr);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(regs::UnpackDataThreshold(*after), 5);
  EXPECT_EQ(regs::UnpackCreditThreshold(*after), 7);
}

TEST(NiKernelTraffic, BeSingleWordDelivery) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  f.OpenPair(0, 0);
  f.ni0->port(0)->Write(0, 0xDEADBEEF);
  f.Run(60);
  ASSERT_EQ(f.ni1->port(0)->ReadAvailable(0), 1);
  EXPECT_EQ(f.ni1->port(0)->Read(0), 0xDEADBEEFu);
}

// The slot that emits a kernel's last flit leaves it nothing to send, so
// it parks in that slot (soa; the naive engine never parks). The link
// credit the router returns for the flit does not wake it: the credit
// waits on the wire for the kernel's next BE flit.
TEST(NiKernelTraffic, KernelParksInTheSlotOfItsLastFlit) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    const bool soa = engine == sim::EngineKind::kSoa;
    TwoNiFixture f(OneChannelNi(), OneChannelNi());
    f.sim.set_engine(engine);
    f.OpenPair(0, 0);
    f.ni0->port(0)->Write(0, 0xDEADBEEF);
    ASSERT_TRUE(PollUntil([&] { return f.ni0->stats().be_flits == 1; },
                          [&](Cycle n) { f.Run(n); }, 1, 60));
    EXPECT_EQ(f.ni0->parked(), soa);
    const link::CreditWire& credits = f.link(0).credit_return;
    ASSERT_TRUE(PollUntil([&] { return credits.PeekDriven() == 1; },
                          [&](Cycle n) { f.Run(n); }, 1, 60));
    EXPECT_EQ(f.ni0->parked(), soa);
    f.Run(60);
    EXPECT_EQ(f.ni0->parked(), soa);
    EXPECT_EQ(credits.PeekDriven(), 1);
    ASSERT_EQ(f.ni1->port(0)->ReadAvailable(0), 1);
    EXPECT_EQ(f.ni1->port(0)->Read(0), 0xDEADBEEFu);
  }
}

/// One NI kernel whose injection and delivery links end in the test: the
/// test plays the router, returning link credits by driving the injection
/// link's credit wire. Channel 0 is open as a BE channel.
class LoneNiFixture {
 public:
  LoneNiFixture(sim::EngineKind engine, int router_be_capacity) {
    sim.set_engine(engine);
    net_ = sim.AddClockMhz("net", 500.0);
    to_router = std::make_unique<link::LinkWires>(net_);
    from_router = std::make_unique<link::LinkWires>(net_);
    ni = std::make_unique<NiKernel>("ni", 0, OneChannelNi());
    ni->ConnectToRouter(to_router.get(), from_router.get(),
                        router_be_capacity);
    net_->Register(ni.get());
    ni->BindPortClock(0, net_);
    TwoNiFixture::ConfigureChannel(*ni, 0, SourcePath::FromHops({1}), 0,
                                   /*gt=*/false, /*slots=*/0);
    Run(2);
  }

  void Run(Cycle cycles) { sim.RunCycles(net_, cycles); }
  Cycle Slot() const { return net_->cycles() / kFlitWords; }

  sim::Kernel sim;
  std::unique_ptr<link::LinkWires> to_router;
  std::unique_ptr<link::LinkWires> from_router;
  std::unique_ptr<NiKernel> ni;

 private:
  sim::Clock* net_ = nullptr;
};

// A kernel out of link credits stalls its BE flit and leaves in the slot
// after the credit pulse, on both engines.
TEST(NiKernelTraffic, BlockedBeFlitLeavesInTheSlotAfterThePulse) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    LoneNiFixture f(engine, /*router_be_capacity=*/1);
    const auto run = [&](Cycle n) { f.Run(n); };
    f.ni->port(0)->Write(0, 0xA);
    ASSERT_TRUE(
        PollUntil([&] { return f.ni->stats().be_flits == 1; }, run, 1, 60));
    f.ni->port(0)->Write(0, 0xB);
    ASSERT_TRUE(PollUntil([&] { return f.ni->stats().be_link_stalls > 0; },
                          run, 1, 60));
    // Stalled: drive the credit in the current slot, between steps.
    const Cycle pulse_slot = f.Slot();
    f.to_router->credit_return.Drive(1);
    ASSERT_TRUE(
        PollUntil([&] { return f.ni->stats().be_flits == 2; }, run, 1, 60));
    EXPECT_EQ(f.Slot(), pulse_slot + 1);  // emitted on the slot's first edge
    f.Run(kFlitWords);
    const link::Flit& flit = f.to_router->data.Sample();
    ASSERT_EQ(flit.kind, link::FlitKind::kHeader);
    EXPECT_EQ(flit.words[1], 0xBu);
  }
}

// The kernel's link credits never exceed the router's BE buffer: one
// credit pulse too many, taken once the legitimate return is back, is
// fatal.
TEST(NiKernelTrafficDeathTest, LinkCreditsOverRouterCapacityAreFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    EXPECT_DEATH(
        {
          LoneNiFixture f(engine, /*router_be_capacity=*/1);
          f.ni->port(0)->Write(0, 0xA);
          f.Run(30);
          f.to_router->credit_return.Drive(1);  // the return for 0xA
          f.Run(kFlitWords);
          f.to_router->credit_return.Drive(1);  // one too many
          f.Run(kFlitWords);
          f.ni->port(0)->Write(0, 0xB);
          f.Run(30);
        },
        "holds 2 link credits, over the router's BE buffer of 1");
  }
}

TEST(NiKernelTraffic, BeOrderPreserved) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  f.OpenPair(0, 0);
  std::vector<Word> sent;
  for (Word i = 0; i < 30; ++i) {
    ASSERT_TRUE(PollUntil([&] { return f.ni0->port(0)->CanWrite(0); },
                          [&](Cycle n) { f.Run(n); }, 3));
    f.ni0->port(0)->Write(0, 0x100 + i);
    sent.push_back(0x100 + i);
    f.Run(1);
    // Keep draining so end-to-end credits recirculate.
    while (f.ni1->port(0)->ReadAvailable(0) > 0) {
      static std::vector<Word>* received = nullptr;
      (void)received;
      break;
    }
    if (f.ni1->port(0)->ReadAvailable(0) > 2) {
      (void)f.ni1->port(0)->Read(0);
    }
  }
  f.Run(200);
  // NOTE: some words were read above to free credits; re-send a clean burst.
  // This test only asserts ordering of what remains readable.
  std::vector<Word> tail;
  while (f.ni1->port(0)->ReadAvailable(0) > 0) {
    tail.push_back(f.ni1->port(0)->Read(0));
    f.Run(1);
  }
  ASSERT_FALSE(tail.empty());
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], tail[i - 1] + 1) << "words reordered";
  }
}

TEST(NiKernelTraffic, EndToEndFlowControlBlocks) {
  TwoNiFixture f(OneChannelNi(1, 8), OneChannelNi(1, 8));
  f.OpenPair(0, 0);
  // Fill the 8-word source queue, run, refill: 16 words total offered, but
  // the destination queue holds 8 and nobody consumes.
  int written = 0;
  for (int round = 0; round < 8 && written < 16; ++round) {
    while (written < 16 && f.ni0->port(0)->CanWrite(0)) {
      f.ni0->port(0)->Write(0, static_cast<Word>(written++));
      f.Run(1);
    }
    f.Run(30);
  }
  f.Run(100);
  EXPECT_EQ(f.ni1->port(0)->ReadAvailable(0), 8);
  EXPECT_EQ(f.ni0->SpaceOf(0), 0);  // all remote space consumed
  // Consume everything; credits return and the rest flows.
  std::vector<Word> got;
  for (int i = 0; i < 8; ++i) {
    got.push_back(f.ni1->port(0)->Read(0));
    f.Run(1);
  }
  f.Run(200);
  while (f.ni1->port(0)->ReadAvailable(0) > 0) {
    got.push_back(f.ni1->port(0)->Read(0));
    f.Run(1);
  }
  f.Run(50);
  while (f.ni1->port(0)->ReadAvailable(0) > 0) {
    got.push_back(f.ni1->port(0)->Read(0));
    f.Run(1);
  }
  ASSERT_EQ(got.size(), 16u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<Word>(i));
  }
  // Credits were recycled: space returns to its initial value.
  f.Run(100);
  EXPECT_EQ(f.ni0->SpaceOf(0), 8);
}

TEST(NiKernelTraffic, CreditOnlyPacketsReturnSpace) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  f.OpenPair(0, 0);
  // Send 8 words (exhausts space), consume them at NI1; with no reverse
  // data, credits must come back as credit-only (header-only) packets.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(PollUntil([&] { return f.ni0->port(0)->CanWrite(0); },
                          [&](Cycle n) { f.Run(n); }, 3));
    f.ni0->port(0)->Write(0, static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(100);
  EXPECT_EQ(f.ni0->SpaceOf(0), 0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_GT(f.ni1->port(0)->ReadAvailable(0), 0);
    (void)f.ni1->port(0)->Read(0);
    f.Run(1);
  }
  f.Run(100);
  EXPECT_EQ(f.ni0->SpaceOf(0), 8);
  EXPECT_GT(f.ni1->stats().credit_only_packets, 0);
}

TEST(NiKernelTraffic, GtDeliveryOnReservedSlots) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  // GT request channel with slots {1, 5}; BE response channel for credits.
  f.OpenPair(0, 0, /*gt0=*/true, /*gt1=*/false, /*slots0=*/(1u << 1) | (1u << 5));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(PollUntil([&] { return f.ni0->port(0)->CanWrite(0); },
                          [&](Cycle n) { f.Run(n); }, 3));
    f.ni0->port(0)->Write(0, 0xA0 + static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(200);
  std::vector<Word> got = f.DrainReads(*f.ni1, 0);
  ASSERT_EQ(got.size(), 6u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], 0xA0 + static_cast<Word>(i));
  }
  EXPECT_GT(f.ni0->stats().gt_packets, 0);
  EXPECT_EQ(f.ni0->stats().be_packets, 0);
  EXPECT_GT(f.router->stats().gt_flits, 0);
}

TEST(NiKernelTraffic, GtNeverUsesForeignSlots) {
  TwoNiFixture f(OneChannelNi(2), OneChannelNi(2));
  // Channel 0 GT with slot 2 only; channel 1 BE, both NI0 -> NI1.
  f.ConfigureChannel(*f.ni0, 0, SourcePath::FromHops({1}), 0, true, 1u << 2);
  f.ConfigureChannel(*f.ni1, 0, SourcePath::FromHops({0}), 0, false, 0);
  f.ConfigureChannel(*f.ni0, 1, SourcePath::FromHops({1}), 1, false, 0);
  f.ConfigureChannel(*f.ni1, 1, SourcePath::FromHops({0}), 1, false, 0);
  f.Run(2);
  // Saturate both channels.
  for (int i = 0; i < 24; ++i) {
    if (f.ni0->port(0)->CanWrite(0)) f.ni0->port(0)->Write(0, 0x10);
    if (f.ni0->port(0)->CanWrite(1)) f.ni0->port(0)->Write(1, 0x20);
    f.Run(6);
    (void)f.DrainReads(*f.ni1, 0);
    (void)f.DrainReads(*f.ni1, 1);
  }
  // With one of 8 slots reserved and every packet having to restart in its
  // single slot (run of 1 => 2 payload words max), GT throughput is capped;
  // what matters here is that both classes made progress.
  EXPECT_GT(f.ni0->channel_stats(0).words_sent, 0);
  EXPECT_GT(f.ni0->channel_stats(1).words_sent, 0);
}

TEST(NiKernelTraffic, ThresholdDefersUntilEnoughData) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  f.ConfigureChannel(*f.ni0, 0, SourcePath::FromHops({1}), 0, false, 0,
                     /*data_thr=*/6, /*credit_thr=*/1);
  f.ConfigureChannel(*f.ni1, 0, SourcePath::FromHops({0}), 0, false, 0);
  f.Run(2);
  for (int i = 0; i < 3; ++i) {
    f.ni0->port(0)->Write(0, static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(120);
  EXPECT_EQ(f.ni1->port(0)->ReadAvailable(0), 0)
      << "data below threshold must not be sent";
  for (int i = 3; i < 6; ++i) {
    f.ni0->port(0)->Write(0, static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(120);
  EXPECT_EQ(f.ni1->port(0)->ReadAvailable(0), 6);
}

TEST(NiKernelTraffic, FlushOverridesThreshold) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  f.ConfigureChannel(*f.ni0, 0, SourcePath::FromHops({1}), 0, false, 0,
                     /*data_thr=*/6, /*credit_thr=*/1);
  f.ConfigureChannel(*f.ni1, 0, SourcePath::FromHops({0}), 0, false, 0);
  f.Run(2);
  for (int i = 0; i < 3; ++i) {
    f.ni0->port(0)->Write(0, 0x30 + static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(60);
  ASSERT_EQ(f.ni1->port(0)->ReadAvailable(0), 0);
  f.ni0->port(0)->FlushData(0);
  f.Run(60);
  EXPECT_EQ(f.ni1->port(0)->ReadAvailable(0), 3)
      << "flush must bypass the send threshold";
}

TEST(NiKernelTraffic, CreditThresholdBatchesCredits) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  // NI1's reverse channel has credit threshold 4: credits for NI0's data
  // are only sent once 4 words have been consumed.
  f.ConfigureChannel(*f.ni0, 0, SourcePath::FromHops({1}), 0, false, 0);
  f.ConfigureChannel(*f.ni1, 0, SourcePath::FromHops({0}), 0, false, 0,
                     /*data_thr=*/1, /*credit_thr=*/4);
  f.Run(2);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(PollUntil([&] { return f.ni0->port(0)->CanWrite(0); },
                          [&](Cycle n) { f.Run(n); }, 3));
    f.ni0->port(0)->Write(0, static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(150);
  ASSERT_EQ(f.ni0->SpaceOf(0), 0);
  // Consume 3 words: below the credit threshold, no credits move.
  for (int i = 0; i < 3; ++i) {
    (void)f.ni1->port(0)->Read(0);
    f.Run(1);
  }
  f.Run(150);
  EXPECT_EQ(f.ni0->SpaceOf(0), 0);
  // A fourth consumption crosses the threshold.
  (void)f.ni1->port(0)->Read(0);
  f.Run(150);
  EXPECT_EQ(f.ni0->SpaceOf(0), 4);
}

TEST(NiKernelTraffic, CreditFlushForcesCredits) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  f.ConfigureChannel(*f.ni0, 0, SourcePath::FromHops({1}), 0, false, 0);
  f.ConfigureChannel(*f.ni1, 0, SourcePath::FromHops({0}), 0, false, 0,
                     /*data_thr=*/1, /*credit_thr=*/4);
  f.Run(2);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(PollUntil([&] { return f.ni0->port(0)->CanWrite(0); },
                          [&](Cycle n) { f.Run(n); }, 3));
    f.ni0->port(0)->Write(0, static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(150);
  for (int i = 0; i < 2; ++i) {
    (void)f.ni1->port(0)->Read(0);
    f.Run(1);
  }
  f.Run(100);
  ASSERT_EQ(f.ni0->SpaceOf(0), 0);
  f.ni1->port(0)->FlushCredits(0);
  f.Run(100);
  EXPECT_EQ(f.ni0->SpaceOf(0), 2)
      << "credit flush must bypass the credit threshold";
}

TEST(NiKernelTraffic, MaxPacketLengthRespected) {
  NiKernelParams p = OneChannelNi(1, 32);
  p.max_packet_flits = 2;  // header + at most 5 payload words
  TwoNiFixture f(p, OneChannelNi(1, 32));
  f.ConfigureChannel(*f.ni0, 0, SourcePath::FromHops({1}), 0, false, 0);
  f.ConfigureChannel(*f.ni1, 0, SourcePath::FromHops({0}), 0, false, 0);
  // Patch NI0's view of remote space to the bigger queue.
  ASSERT_TRUE(f.ni0->WriteRegister(
                    regs::ChannelRegAddr(0, regs::ChannelReg::kSpace), 32)
                  .ok());
  f.Run(2);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(PollUntil([&] { return f.ni0->port(0)->CanWrite(0); },
                          [&](Cycle n) { f.Run(n); }, 3));
    f.ni0->port(0)->Write(0, static_cast<Word>(i));
    f.Run(1);
  }
  f.Run(300);
  (void)f.DrainReads(*f.ni1, 0);
  const auto& stats = f.ni0->stats();
  // 20 words / 5 payload words per packet -> at least 4 packets.
  EXPECT_GE(stats.be_packets, 4);
  EXPECT_EQ(stats.header_words_sent, stats.be_packets);
}

TEST(NiKernelTraffic, CrossClockDomainDelivery) {
  // IP ports at 125 MHz, network at 500 MHz: the queues are the CDC.
  TwoNiFixture f(OneChannelNi(), OneChannelNi(), /*port_mhz=*/125.0);
  f.OpenPair(0, 0);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(PollUntil([&] { return f.ni0->port(0)->CanWrite(0); },
                          [&](Cycle n) { f.Run(n); }, 12));
    f.ni0->port(0)->Write(0, 0x700 + static_cast<Word>(i));
    f.Run(4);
    if (f.ni1->port(0)->ReadAvailable(0) > 4) {
      (void)f.ni1->port(0)->Read(0);
    }
  }
  f.Run(800);
  std::vector<Word> tail;
  while (f.ni1->port(0)->ReadAvailable(0) > 0) {
    tail.push_back(f.ni1->port(0)->Read(0));
    f.Run(4);
  }
  ASSERT_FALSE(tail.empty());
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], tail[i - 1] + 1);
  }
}

TEST(NiKernelTraffic, StatsConserveWords) {
  TwoNiFixture f(OneChannelNi(), OneChannelNi());
  f.OpenPair(0, 0);
  int sent = 0;
  for (int i = 0; i < 20; ++i) {
    if (f.ni0->port(0)->CanWrite(0)) {
      f.ni0->port(0)->Write(0, static_cast<Word>(i));
      ++sent;
    }
    f.Run(5);
    (void)f.DrainReads(*f.ni1, 0);
  }
  f.Run(300);
  (void)f.DrainReads(*f.ni1, 0);
  EXPECT_EQ(f.ni0->stats().payload_words_sent,
            f.ni1->stats().payload_words_received);
  EXPECT_EQ(f.ni0->stats().payload_words_sent, sent);
}

// ---------------------------------------------------------------------------
// Wide-NI schedule contract: two 32-channel NIs on one router, stepped one
// network cycle at a time. Each slot appends to a trace the flit each NI
// injected (channel, kind, credits, words) and its kernel and per-channel
// counters. The trace must be the same on both engines and hash to a pinned
// digest per BE policy, so any change in which channel is served in which
// slot fails here.
// ---------------------------------------------------------------------------

constexpr int kWideChannels = 32;  // every qid the header can address
constexpr int kFastChannels = 24;  // 0..23 on the network clock, rest slow

NiKernelParams WideNi(BeArbitration policy) {
  NiKernelParams params;
  params.be_arbitration = policy;
  PortParams fast{"fast", {}};
  PortParams slow{"slow", {}};
  for (int c = 0; c < kWideChannels; ++c) {
    (c < kFastChannels ? fast : slow)
        .channels.push_back(ChannelParams{8, 8, 1 + c % 3});  // weights 1..3
  }
  params.ports = {fast, slow};
  return params;
}

std::uint64_t Mix(std::uint64_t x) {  // SplitMix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// True with probability 1/`one_in`, a fixed function of its arguments.
bool Chance(Cycle t, int ch, int salt, int one_in) {
  const auto key = (static_cast<std::uint64_t>(t) << 8) |
                   static_cast<std::uint64_t>(ch * 4 + salt);
  return Mix(key) % static_cast<std::uint64_t>(one_in) == 0;
}

class WideNiRig {
 public:
  WideNiRig(BeArbitration policy, sim::EngineKind engine) {
    sim_.set_engine(engine);
    net_ = sim_.AddClockMhz("net", 500.0);
    slow_ = sim_.AddClockMhz("slow", 200.0);
    router_ = std::make_unique<router::Router>("router", 0,
                                               router::RouterConfig{2, 8});
    for (auto& l : links_) l = std::make_unique<link::LinkWires>(net_);
    for (int n = 0; n < 2; ++n) {
      ni_[n] = std::make_unique<NiKernel>("ni" + std::to_string(n), n,
                                          WideNi(policy));
      ni_[n]->ConnectToRouter(links_[2 * n].get(), links_[2 * n + 1].get(), 8);
      router_->ConnectInput(n, links_[2 * n].get());
      router_->ConnectOutput(n, links_[2 * n + 1].get(), 8);
    }
    net_->Register(router_.get());
    for (auto& ni : ni_) net_->Register(ni.get());
    for (auto& ni : ni_) {
      ni->BindPortClock(0, net_);
      ni->BindPortClock(1, slow_);
    }
  }

  NiKernel& ni(int n) { return *ni_[n]; }
  NiPort& PortOf(int n, ChannelId ch) {
    return *ni_[n]->port(ch < kFastChannels ? 0 : 1);
  }
  static int ConnidOf(ChannelId ch) {
    return ch < kFastChannels ? ch : ch - kFastChannels;
  }

  /// Opens NI `n`'s channel `ch` toward the same channel of the other NI.
  void Open(int n, ChannelId ch, bool gt = false, Word slots = 0,
            int data_thr = 1, int credit_thr = 1) {
    const auto path = SourcePath::FromHops({n == 0 ? 1 : 0});
    SetReg(n, ch, regs::ChannelReg::kSpace, 8);
    SetReg(n, ch, regs::ChannelReg::kPathRqid, regs::PackPathRqid(path, ch));
    SetReg(n, ch, regs::ChannelReg::kThresholds,
           regs::PackThresholds(data_thr, credit_thr));
    if (slots != 0) SetReg(n, ch, regs::ChannelReg::kSlots, slots);
    SetReg(n, ch, regs::ChannelReg::kCtrl,
           regs::kCtrlEnable | (gt ? regs::kCtrlGt : 0));
  }
  void Close(int n, ChannelId ch) {
    SetReg(n, ch, regs::ChannelReg::kCtrl, 0);
  }

  /// Writes one word to `ch`'s source queue if it fits.
  void Offer(int n, ChannelId ch) {
    NiPort& port = PortOf(n, ch);
    if (!port.CanWrite(ConnidOf(ch))) return;
    port.Write(ConnidOf(ch), (static_cast<Word>(n) << 24) |
                                 (static_cast<Word>(ch) << 16) |
                                 static_cast<Word>(next_word_++ & 0xFFFF));
  }
  /// Pops one word of `ch`'s destination queue if one is readable.
  void Consume(int n, ChannelId ch) {
    NiPort& port = PortOf(n, ch);
    if (port.ReadAvailable(ConnidOf(ch)) > 0) (void)port.Read(ConnidOf(ch));
  }

  Cycle now() const { return net_->cycles(); }

  /// Steps one network cycle; after a slot boundary, appends each NI's
  /// injected flit and counters to the trace.
  void Step() {
    const Cycle t = now();
    sim_.RunCycles(net_, 1);
    if (t % kFlitWords != 0) return;
    const Cycle slot = t / kFlitWords;
    for (int n = 0; n < 2; ++n) {
      const link::Flit& f = links_[2 * n]->data.SampleDrivenIn(slot);
      std::ostringstream line;
      line << slot << " ni" << n;
      if (!f.IsIdle()) {
        int& open = open_[n][f.gt ? 1 : 0];
        int credits = -1;
        if (f.kind == link::FlitKind::kHeader) {
          const auto header = link::PacketHeader::Decode(f.words[0]);
          open = header.remote_qid;  // channels pair with equal ids
          credits = header.credits;
        }
        line << " ch" << open << " k" << static_cast<int>(f.kind) << " gt"
             << f.gt << " eop" << f.eop << " cr" << credits << " w";
        for (int i = 0; i < f.valid_words; ++i) {
          line << ' ' << f.words[static_cast<std::size_t>(i)];
        }
        if (f.eop) open = kInvalidId;
      }
      const NiKernelStats& s = ni_[n]->stats();
      line << " |";
      for (std::int64_t v :
           {s.gt_packets, s.be_packets, s.credit_only_packets, s.gt_flits,
            s.be_flits, s.payload_words_sent, s.header_words_sent,
            s.payload_words_received, s.packets_received,
            s.credits_piggybacked, s.credits_in_credit_only, s.idle_slots,
            s.be_link_stalls, s.gt_slots_unused}) {
        line << ' ' << v;
      }
      for (ChannelId c = 0; c < kWideChannels; ++c) {
        const ChannelStats& cs = ni_[n]->channel_stats(c);
        line << " /" << cs.words_sent << ' ' << cs.words_received << ' '
             << cs.packets_sent << ' ' << cs.credit_only_packets;
      }
      trace.push_back(line.str());
    }
  }

  std::vector<std::string> trace;

 private:
  void SetReg(int n, ChannelId ch, regs::ChannelReg reg, Word value) {
    ASSERT_TRUE(
        ni_[n]->WriteRegister(regs::ChannelRegAddr(ch, reg), value).ok());
  }

  sim::Kernel sim_;
  sim::Clock* net_ = nullptr;
  sim::Clock* slow_ = nullptr;
  std::unique_ptr<router::Router> router_;
  std::array<std::unique_ptr<NiKernel>, 2> ni_;
  std::array<std::unique_ptr<link::LinkWires>, 4> links_;
  int open_[2][2] = {{kInvalidId, kInvalidId}, {kInvalidId, kInvalidId}};
  Word next_word_ = 0;
};

// Channel roles, NI0 channel c paired with NI1 channel c:
//  * GT NI0 -> NI1 (NI1 side BE, returning credits): 2 (slots 1-2),
//    9 (slot 5), 26 (slot 7, slow port). Offered sparsely, so the kernel
//    waits for the reserved slot.
//  * BE NI0 -> NI1: 0, 5, 13 (data threshold 3, data flush), 17 (NI1 credit
//    threshold 4, credit flush), 23 (idle from 800, closed at 1000,
//    reopened at 1150),
//    27 (slow, data threshold 4, data flush from the slow port), 31 (slow).
//  * BE NI1 -> NI0 until cycle 700: 0 and 31, so credits also ride on data
//    headers.
//  * NI1 closes 5 at cycle 600 and keeps popping it: its space returns
//    land on a disabled channel. Every other channel stays disabled.
constexpr ChannelId kForward[] = {0, 2, 5, 9, 13, 17, 23, 26, 27, 31};
constexpr ChannelId kBackward[] = {0, 31};

std::vector<std::string> RunWideSchedule(BeArbitration policy,
                                         sim::EngineKind engine) {
  WideNiRig rig(policy, engine);
  rig.Open(0, 0);
  rig.Open(1, 0);
  rig.Open(0, 2, /*gt=*/true, (1u << 1) | (1u << 2));
  rig.Open(1, 2);
  rig.Open(0, 5);
  rig.Open(1, 5);
  rig.Open(0, 9, /*gt=*/true, 1u << 5);
  rig.Open(1, 9);
  rig.Open(0, 13, false, 0, /*data_thr=*/3);
  rig.Open(1, 13);
  rig.Open(0, 17);
  rig.Open(1, 17, false, 0, /*data_thr=*/1, /*credit_thr=*/4);
  rig.Open(0, 23);
  rig.Open(1, 23);
  rig.Open(0, 26, /*gt=*/true, 1u << 7);
  rig.Open(1, 26);
  rig.Open(0, 27, false, 0, /*data_thr=*/4);
  rig.Open(1, 27);
  rig.Open(0, 31);
  rig.Open(1, 31);

  for (Cycle t = rig.now(); t < 1800; t = rig.now()) {
    // Saturating load until 500 (every BE queue contends), lighter after.
    const bool offering = t >= 10 && t < 1400;
    const bool heavy = t < 500;
    const bool ch23_open = t < 800 || t >= 1160;
    if (offering) {
      for (ChannelId ch : kForward) {
        const bool gt = ch == 2 || ch == 9 || ch == 26;
        if (ch == 23 && !ch23_open) continue;
        if (Chance(t, ch, 0, gt ? (heavy ? 9 : 16) : (heavy ? 3 : 12))) {
          rig.Offer(0, ch);
        }
      }
      // Reverse data only until 700: under queue-fill, a channel with data
      // always beats one that owes only credits.
      for (ChannelId ch : kBackward) {
        if (t < 700 && Chance(t, ch, 1, 8)) rig.Offer(1, ch);
      }
    }
    for (ChannelId ch : kForward) {
      if (Chance(t, ch, 2, 2)) rig.Consume(1, ch);
    }
    for (ChannelId ch : kBackward) {
      if (Chance(t, ch, 3, 2)) rig.Consume(0, ch);
    }
    if (t % 97 == 50) rig.PortOf(0, 13).FlushData(WideNiRig::ConnidOf(13));
    if (t % 89 == 40) rig.PortOf(0, 27).FlushData(WideNiRig::ConnidOf(27));
    if (t % 131 == 70) {
      rig.PortOf(1, 17).FlushCredits(WideNiRig::ConnidOf(17));
    }
    if (t == 600) rig.Close(1, 5);
    if (t == 1000) {
      EXPECT_EQ(rig.ni(0).SourceQueueWords(23), 0);
      rig.Close(0, 23);
      rig.Close(1, 23);
    }
    if (t == 1150) {
      EXPECT_EQ(rig.ni(1).DestQueueWords(23), 0);
      rig.Open(0, 23);
      rig.Open(1, 23);
    }
    rig.Step();
  }

  // The scenario reached the corners it is meant to cover.
  EXPECT_GT(rig.ni(0).channel_stats(31).words_sent, 0);
  EXPECT_GT(rig.ni(1).channel_stats(31).words_sent, 0);
  EXPECT_GT(rig.ni(0).channel_stats(26).words_sent, 0);
  EXPECT_FALSE(rig.ni(1).ChannelEnabled(5));
  EXPECT_GT(rig.ni(1).CreditsOwedOf(5), 0)
      << "space returns on the disabled channel were not harvested";
  EXPECT_GT(rig.ni(0).stats().gt_packets, 0);
  EXPECT_GT(rig.ni(1).stats().credit_only_packets, 0);
  return std::move(rig.trace);
}

std::uint64_t Fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::string& line : lines) {
    for (char c : line) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    }
    h = (h ^ '\n') * 0x100000001B3ull;
  }
  return h;
}

void ExpectWideSchedule(BeArbitration policy, std::uint64_t digest) {
  const auto soa = RunWideSchedule(policy, sim::EngineKind::kSoa);
  const auto naive = RunWideSchedule(policy, sim::EngineKind::kNaive);
  ASSERT_EQ(soa.size(), naive.size());
  for (std::size_t i = 0; i < soa.size(); ++i) {
    ASSERT_EQ(soa[i], naive[i]) << "engines diverge at trace line " << i;
  }
  EXPECT_EQ(Fnv1a(soa), digest)
      << "schedule changed: digest 0x" << std::hex << Fnv1a(soa);
}

TEST(NiKernelWideSchedule, RoundRobin) {
  ExpectWideSchedule(BeArbitration::kRoundRobin, 0x3cbc2b9c4cc96ff2ull);
}

TEST(NiKernelWideSchedule, WeightedRoundRobin) {
  ExpectWideSchedule(BeArbitration::kWeightedRoundRobin,
                     0x7ebe44b18d5c7c78ull);
}

TEST(NiKernelWideSchedule, QueueFill) {
  ExpectWideSchedule(BeArbitration::kQueueFill, 0x84f7d2c996944089ull);
}

// ---------------------------------------------------------------------------
// GT hand-off wakes: one NI kernel whose links end in the test, behind a
// ParkWatcher on the network clock, so on soa the watcher lists the edges
// the kernel woke for. Channel 0 is a GT channel; each slot's injected
// flit goes to a trace.
// ---------------------------------------------------------------------------

class GtHandOffRig {
 public:
  static constexpr Cycle kRotation = 8 * kFlitWords;  // 8-slot STU

  GtHandOffRig(sim::EngineKind engine, Word slots) {
    sim_.set_engine(engine);
    net_ = sim_.AddClockMhz("net", 500.0);
    to_router_ = std::make_unique<link::LinkWires>(net_);
    from_router_ = std::make_unique<link::LinkWires>(net_);
    ni = std::make_unique<NiKernel>("ni", 0, OneChannelNi());
    ni->ConnectToRouter(to_router_.get(), from_router_.get(), 8);
    watcher = std::make_unique<ParkWatcher>(ni.get());
    net_->Register(watcher.get());
    net_->Register(ni.get());
    ni->BindPortClock(0, net_);
    TwoNiFixture::ConfigureChannel(*ni, 0, SourcePath::FromHops({1}), 0,
                                   /*gt=*/true, slots);
    // Idle until the second edge of a later rotation.
    while (now() < 2 * kRotation + 1) Step();
    trace.clear();
  }

  Cycle now() const { return net_->cycles(); }

  /// Steps one edge; after a slot boundary, traces the slot's flit.
  void Step() {
    const Cycle t = now();
    sim_.RunCycles(net_, 1);
    if (t % kFlitWords != 0) return;
    const link::Flit& f = to_router_->data.SampleDrivenIn(t / kFlitWords);
    std::ostringstream line;
    line << t / kFlitWords;
    if (!f.IsIdle()) {
      line << " k" << static_cast<int>(f.kind) << " gt" << f.gt << " w";
      for (int i = 0; i < f.valid_words; ++i) {
        line << ' ' << f.words[static_cast<std::size_t>(i)];
      }
    }
    trace.push_back(line.str());
  }

  std::unique_ptr<NiKernel> ni;
  std::unique_ptr<ParkWatcher> watcher;
  std::vector<std::string> trace;

 private:
  sim::Kernel sim_;
  sim::Clock* net_ = nullptr;
  std::unique_ptr<link::LinkWires> to_router_;
  std::unique_ptr<link::LinkWires> from_router_;
};

// A word written at rotation edge 1 is readable from edge 4 (slot 2). The
// channel owns slot 6 only, so a parked kernel first evaluates at slot 6's
// boundary, edge 18, and sends the word there; both engines send the same.
TEST(NiKernelGtHandOff, ParkedKernelWakesInTheOwnedSlot) {
  std::vector<std::string> traces[2];
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    const bool soa = engine == sim::EngineKind::kSoa;
    GtHandOffRig rig(engine, 1u << 6);
    const Cycle base = rig.now() - 1;  // a rotation start
    EXPECT_EQ(rig.ni->parked(), soa);
    rig.watcher->awake.clear();
    rig.ni->port(0)->Write(0, 0xC0FFEE);
    while (rig.now() < base + 2 * GtHandOffRig::kRotation) rig.Step();
    EXPECT_EQ(rig.ni->stats().gt_flits, 1);
    if (soa) {
      EXPECT_EQ(rig.watcher->awake, (std::vector<Cycle>{base + 18}));
      EXPECT_TRUE(rig.ni->parked());
    }
    traces[soa ? 1 : 0] = std::move(rig.trace);
  }
  EXPECT_EQ(traces[0], traces[1]);
}

// The same word, and a SLOTS write staged behind it while it is still in
// the CDC that moves the channel from slot 6 to slot 2. The kernel applies
// the write at edge 3 and parks before the word is readable, so only a
// wake at the word's own stamp lets soa send it in slot 2, as naive does.
TEST(NiKernelGtHandOff, SlotsWriteWithAWordInFlightKeepsTheSchedule) {
  std::vector<std::string> traces[2];
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    const bool soa = engine == sim::EngineKind::kSoa;
    GtHandOffRig rig(engine, 1u << 6);
    const Cycle base = rig.now() - 1;
    EXPECT_EQ(rig.ni->parked(), soa);
    rig.ni->port(0)->Write(0, 0xC0FFEE);
    ASSERT_TRUE(rig.ni
                    ->WriteRegister(
                        regs::ChannelRegAddr(0, regs::ChannelReg::kSlots),
                        1u << 2)
                    .ok());
    while (rig.now() < base + 3 * GtHandOffRig::kRotation) rig.Step();
    EXPECT_EQ(rig.ni->stats().gt_flits, 1);
    traces[soa ? 1 : 0] = std::move(rig.trace);
  }
  EXPECT_EQ(Fnv1a(traces[1]), Fnv1a(traces[0]))
      << "soa's per-slot schedule differs from naive's";
  // Naive sends the word in the first slot 2 after it is readable: the
  // trace starts at the rotation's slot 1.
  ASSERT_GE(traces[0].size(), 2u);
  EXPECT_NE(traces[0][1].find(" gt1 "), std::string::npos) << traces[0][1];
}

}  // namespace
}  // namespace aethereal::core
