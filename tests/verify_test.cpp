// The guarantee-verification layer: analytical bound model unit tests,
// non-invasiveness of the runtime monitor (verified runs are byte-identical
// to unverified ones), a clean verified run on a canonical scenario on both
// engines, the analytical latency/throughput checks on a GT flow, and the
// negative test: a deliberately corrupted slot table is caught.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/registers.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "soc/soc.h"
#include "verify/bounds.h"
#include "verify/fuzz.h"
#include "verify/monitor.h"

namespace aethereal::verify {
namespace {

namespace regs = core::regs;

/// FNV-1a over everything a verified run's monitor recorded: each
/// violation's cycle, check, message and fault flag, then the flit and
/// word ledgers. Equal digests mean the same reports at the same cycles.
class MonitorDigest {
 public:
  explicit MonitorDigest(const Monitor& monitor) {
    for (const Violation& v : monitor.violations()) {
      Mix(v.cycle);
      Mix(v.check);
      Mix(v.message);
      Mix(v.fault_induced ? 1 : 0);
    }
    Mix(monitor.total_violations());
    Mix(monitor.flits_checked());
    Mix(monitor.gt_words_sent());
    Mix(monitor.gt_words_delivered());
    Mix(monitor.fault_lost_flits());
    Mix(monitor.fault_lost_words());
    Mix(monitor.fault_corrupted_flits());
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Mix(std::int64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void Mix(const std::string& s) {
    Mix(static_cast<std::int64_t>(s.size()));
    for (char c : s) Byte(static_cast<std::uint8_t>(c));
  }
  void Byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The cycles of the recorded violations of `check`, in report order.
std::vector<Cycle> ReportCycles(const Monitor& monitor,
                                const std::string& check) {
  std::vector<Cycle> cycles;
  for (const Violation& v : monitor.violations()) {
    if (v.check == check) cycles.push_back(v.cycle);
  }
  return cycles;
}

// ---------------------------------------------------------------------------
// Analytical bound model
// ---------------------------------------------------------------------------

TEST(GtBounds, SpreadSlots) {
  // Two spread slots of 8: two runs of one slot, each carrying one
  // header + 2 payload words per rotation.
  const GtBound bound = ComputeGtBound({0, 4}, 8, /*hops=*/1,
                                       /*max_packet_flits=*/4);
  EXPECT_EQ(bound.slots, 2);
  EXPECT_EQ(bound.max_gap_slots, 4);
  EXPECT_EQ(bound.words_per_rotation, 4);
  EXPECT_DOUBLE_EQ(bound.min_throughput_wpc, 4.0 / 24.0);
  EXPECT_EQ(bound.worst_case_latency, (4 + 1 + 3) * kFlitWords);
}

TEST(GtBounds, ContiguousRunSharesOneHeader) {
  // Three consecutive slots: one packet of 3 flits = 8 payload words.
  const GtBound bound = ComputeGtBound({2, 3, 4}, 8, 2, 4);
  EXPECT_EQ(bound.max_gap_slots, 6);
  EXPECT_EQ(bound.words_per_rotation, 3 * kFlitWords - 1);
}

TEST(GtBounds, RunWrapsAroundTheTable) {
  // {7, 0, 1} is a single circular run of 3, not runs of 2 and 1.
  const GtBound bound = ComputeGtBound({0, 1, 7}, 8, 1, 4);
  EXPECT_EQ(bound.max_gap_slots, 6);
  EXPECT_EQ(bound.words_per_rotation, 3 * kFlitWords - 1);
}

TEST(GtBounds, LongRunSplitsAtMaxPacketLength) {
  // Six consecutive slots with 4-flit packets: 4 + 2 flits = two headers.
  const GtBound bound = ComputeGtBound({0, 1, 2, 3, 4, 5}, 8, 1, 4);
  EXPECT_EQ(bound.words_per_rotation, 6 * kFlitWords - 2);
}

TEST(GtBounds, WholeTableOwned) {
  const GtBound bound = ComputeGtBound({0, 1, 2, 3}, 4, 1, 4);
  EXPECT_EQ(bound.max_gap_slots, 1);
  EXPECT_EQ(bound.words_per_rotation, 4 * kFlitWords - 1);
  EXPECT_DOUBLE_EQ(bound.min_throughput_wpc, 11.0 / 12.0);
}

TEST(GtBounds, EmptySlotSetIsDegenerate) {
  const GtBound bound = ComputeGtBound({}, 8, 1, 4);
  EXPECT_EQ(bound.slots, 0);
  EXPECT_EQ(bound.words_per_rotation, 0);
  EXPECT_DOUBLE_EQ(bound.min_throughput_wpc, 0.0);
  EXPECT_EQ(bound.max_gap_slots, 8);
}

// ---------------------------------------------------------------------------
// Verified scenario runs
// ---------------------------------------------------------------------------

scenario::ScenarioSpec GtPairSpec() {
  auto spec = scenario::ParseScenario(
      "scenario verify_gt\n"
      "noc star 3\n"
      "stu 8\n"
      "queues 16\n"
      "seed 5\n"
      "warmup 300\n"
      "duration 4000\n"
      "traffic pairs 0 1 inject periodic 6 qos gt 2\n"
      "traffic uniform inject bernoulli 0.03 qos be\n");
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

TEST(VerifiedRun, MonitorIsNonInvasive) {
  // The verified run must produce the byte-identical result document on
  // every engine — arming the monitor cannot perturb the simulation.
  scenario::ScenarioSpec plain = GtPairSpec();
  scenario::ScenarioRunner baseline(plain);
  auto expected = baseline.Run();
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    scenario::ScenarioSpec spec = GtPairSpec();
    spec.verify = true;
    spec.engine = engine;
    scenario::ScenarioRunner runner(spec);
    auto verified = runner.Run();
    ASSERT_TRUE(verified.ok()) << verified.status();
    EXPECT_EQ(verified->ToJson(), expected->ToJson());
    ASSERT_NE(runner.soc()->monitor(), nullptr);
    EXPECT_GT(runner.soc()->monitor()->flits_checked(), 0);
    EXPECT_EQ(runner.soc()->monitor()->total_violations(), 0);
  }
}

TEST(VerifiedRun, VerifyDirectiveParses) {
  auto spec = scenario::ParseScenario(
      "scenario v\nnoc star 2\nverify on\n"
      "traffic pairs 0 1 inject periodic 8\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(spec->verify);
  auto bad = scenario::ParseScenario(
      "scenario v\nnoc star 2\nverify yes\n"
      "traffic pairs 0 1 inject periodic 8\n");
  EXPECT_FALSE(bad.ok());
}

TEST(VerifiedRun, LatencyBoundArmsForSlowPeriodicGtFlow) {
  // One word per table rotation, all directives GT: every word finds an
  // empty queue with full credit, so the analytical worst-case latency
  // applies and must hold (a BE directive would disarm the check — BE
  // traffic may legitimately delay the best-effort credit returns).
  auto spec = scenario::ParseScenario(
      "scenario verify_latency\n"
      "noc star 3\n"
      "stu 8\n"
      "queues 16\n"
      "seed 3\n"
      "warmup 200\n"
      "duration 5000\n"
      "verify on\n"
      "traffic pairs 0 1 inject periodic 30 qos gt 1\n"
      "traffic pairs 2 0 inject periodic 25 qos gt 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  scenario::ScenarioRunner runner(*spec);
  auto bounds = runner.ComputeGtBounds();
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  ASSERT_EQ(bounds->size(), 2u);
  EXPECT_EQ((*bounds)[0].bound.slots, 1);
  EXPECT_EQ((*bounds)[0].bound.max_gap_slots, 8);
  EXPECT_EQ((*bounds)[0].bound.hops, 1);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  // In this uncongested all-GT star the measured worst case should sit
  // under even the raw network bound (no credit-jitter margin needed).
  ASSERT_EQ(result->flows.size(), 2u);
  for (std::size_t i = 0; i < result->flows.size(); ++i) {
    EXPECT_LE(result->flows[i].latency.max,
              static_cast<double>((*bounds)[i].bound.worst_case_latency))
        << "flow " << i;
  }
}

TEST(VerifiedRun, LatencyCheckStaysOffWhereCreditReturnsCanCongest) {
  // Twelve slow GT streams around a 2x3 mesh, one credit-only packet per
  // word. The credits of 5->0 and 2->3 cross links where the credit
  // packets the flows may owe in one rotation outnumber the slots left
  // free of GT reservations, so they queue for GT-idle slots and the
  // 8-word queues of those flows run out of credit: their word latency is
  // not the slot tables' to bound, and the check must not fire on them.
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    auto spec = scenario::ParseScenario(
        "noc mesh 2 3 1\n"
        "stu 4\n"
        "queues 8\n"
        "seed 8\n"
        "warmup 303\n"
        "duration 2680\n"
        "verify on\n"
        "traffic neighbor inject periodic 21 qos gt 1\n"
        "traffic neighbor inject periodic 15 qos gt 1\n");
    ASSERT_TRUE(spec.ok()) << spec.status();
    spec->engine = engine;
    scenario::ScenarioRunner runner(*spec);
    auto result = runner.Run();
    ASSERT_TRUE(result.ok()) << result.status();
  }
}

TEST(VerifiedRun, ComputeGtBoundsCoversVideoChains) {
  auto spec = scenario::ParseScenario(
      "scenario verify_video\n"
      "noc mesh 2 2 1\n"
      "stu 8\n"
      "duration 3000\n"
      "verify on\n"
      "traffic video 0 1 3 inject periodic 8 qos gt 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  scenario::ScenarioRunner runner(*spec);
  auto bounds = runner.ComputeGtBounds();
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->size(), 2u);  // one per chain hop
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();
}

// ---------------------------------------------------------------------------
// Negative: a corrupted slot table must be caught
// ---------------------------------------------------------------------------

TEST(VerifiedRun, BrokenSlotTableIsCaught) {
  scenario::ScenarioSpec spec = GtPairSpec();
  spec.verify = true;
  scenario::ScenarioRunner runner(spec);
  ASSERT_TRUE(runner.Build().ok());
  // Let the staged configuration writes commit so the SLOTS register
  // reads back the allocator-backed mask.
  runner.soc()->RunCycles(2);

  // The GT channel of the pair lives at NI 0, connid 0. Grant it an STU
  // slot the allocator never reserved — exactly the corruption a buggy
  // configuration flow would produce.
  core::NiKernel* kernel = runner.soc()->ni(0);
  const ChannelId channel = runner.soc()->port(0, 0)->GlobalChannelOf(0);
  auto mask = kernel->ReadRegister(
      regs::ChannelRegAddr(channel, regs::ChannelReg::kSlots));
  ASSERT_TRUE(mask.ok());
  ASSERT_NE(*mask, 0u);
  SlotIndex stolen = -1;
  for (SlotIndex s = 0; s < spec.stu_slots; ++s) {
    if ((*mask & (1u << s)) == 0) {
      stolen = s;
      break;
    }
  }
  ASSERT_GE(stolen, 0);
  ASSERT_TRUE(kernel
                  ->WriteRegister(
                      regs::ChannelRegAddr(channel, regs::ChannelReg::kSlots),
                      *mask | (1u << stolen))
                  .ok());

  auto result = runner.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kVerificationFailed);
  EXPECT_NE(result.status().message().find("slot"), std::string::npos)
      << result.status();
  EXPECT_EQ(ReportCycles(*runner.soc()->monitor(), "stu-allocator-conformance"),
            (std::vector<Cycle>{27}));
}

// The stu-allocator-conformance check itself: a slot granted in the STU
// but never reserved is reported once, for its NI and slot, however many
// rotations it persists; a stray SLOTS write undone within one rotation
// is the window a legitimate update opens and is not reported.
class StuConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = GtPairSpec();
    spec_.verify = true;
    runner_ = std::make_unique<scenario::ScenarioRunner>(spec_);
    ASSERT_TRUE(runner_->Build().ok());
    runner_->soc()->RunCycles(2);
    kernel_ = runner_->soc()->ni(0);
    channel_ = runner_->soc()->port(0, 0)->GlobalChannelOf(0);
    auto mask = kernel_->ReadRegister(SlotsAddr());
    ASSERT_TRUE(mask.ok());
    ASSERT_NE(*mask, 0u);
    mask_ = *mask;
    for (SlotIndex s = 0; s < spec_.stu_slots; ++s) {
      if ((mask_ & (1u << s)) == 0) {
        stolen_ = s;
        break;
      }
    }
    ASSERT_GE(stolen_, 0);
  }

  Word SlotsAddr() const {
    return regs::ChannelRegAddr(channel_, regs::ChannelReg::kSlots);
  }

  void WriteSlots(Word mask) {
    ASSERT_TRUE(kernel_->WriteRegister(SlotsAddr(), mask).ok());
  }

  // Runs `rotations` full STU table rotations.
  void RunRotations(int rotations) {
    runner_->soc()->RunCycles(static_cast<Cycle>(rotations) *
                              spec_.stu_slots * kFlitWords);
  }

  // The recorded stu-allocator-conformance violations; fails the test if
  // the recorded list was capped, since then one could be missing.
  std::vector<Violation> StuViolations() const {
    const Monitor* monitor = runner_->soc()->monitor();
    EXPECT_EQ(monitor->total_violations(),
              static_cast<std::int64_t>(monitor->violations().size()))
        << "violation list capped";
    std::vector<Violation> stu;
    for (const Violation& v : monitor->violations()) {
      if (v.check == "stu-allocator-conformance") stu.push_back(v);
    }
    return stu;
  }

  scenario::ScenarioSpec spec_;
  std::unique_ptr<scenario::ScenarioRunner> runner_;
  core::NiKernel* kernel_ = nullptr;
  ChannelId channel_ = kInvalidId;
  Word mask_ = 0;
  SlotIndex stolen_ = -1;
};

TEST_F(StuConformance, StolenSlotIsReportedOnce) {
  WriteSlots(mask_ | (1u << stolen_));
  RunRotations(20);
  const std::vector<Violation> stu = StuViolations();
  ASSERT_EQ(stu.size(), 1u);
  // The write lands at cycle 3, where the check first sees the stolen
  // slot; it reports at the second sighting, one rotation later.
  EXPECT_EQ(stu[0].cycle, 27);
  EXPECT_FALSE(stu[0].fault_induced);
  EXPECT_EQ(stu[0].message.rfind("ni0 STU slot " + std::to_string(stolen_) +
                                     " owned by enabled channel " +
                                     std::to_string(channel_),
                                 0),
            0u)
      << stu[0].message;
}

TEST_F(StuConformance, StrayWriteUndoneWithinARotationIsNotReported) {
  // Set for exactly one rotation: the check sees the stolen slot once.
  WriteSlots(mask_ | (1u << stolen_));
  RunRotations(1);
  WriteSlots(mask_);
  RunRotations(20);
  EXPECT_TRUE(StuViolations().empty());
  // Stolen again, for good: the streak restarted with the undo, so the
  // report comes two observations of the slot after this write.
  WriteSlots(mask_ | (1u << stolen_));
  RunRotations(20);
  const std::vector<Violation> stu = StuViolations();
  ASSERT_EQ(stu.size(), 1u);
  EXPECT_EQ(stu[0].cycle, 531);
}

TEST_F(StuConformance, LateSlotStolenLongAfterSetUpIsReported) {
  // Long after the last table write, the last free slot of the table is
  // stolen: the check must still look at it when the rotation reaches it,
  // and report it at its second sighting.
  RunRotations(20);
  SlotIndex late = -1;
  for (SlotIndex s = 0; s < spec_.stu_slots; ++s) {
    if ((mask_ & (1u << s)) == 0) late = s;
  }
  ASSERT_GT(late, stolen_);
  WriteSlots(mask_ | (1u << late));
  RunRotations(20);
  const std::vector<Violation> stu = StuViolations();
  ASSERT_EQ(stu.size(), 1u);
  EXPECT_EQ(stu[0].cycle, 525);
  EXPECT_EQ(stu[0].message.rfind("ni0 STU slot " + std::to_string(late), 0),
            0u)
      << stu[0].message;
}

// gt-route-conformance: right after a GT channel emits a header, its
// PATH_RQID is rewritten to a valid route to another NI, and restored once
// the monitor has observed that header (one slot later, before the
// channel's next header). The header disagrees with the register the
// monitor reads then; every report is pinned.
TEST(VerifiedRun, RewrittenGtRouteReportsArePinned) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    scenario::ScenarioSpec spec = GtPairSpec();
    spec.verify = true;
    spec.engine = engine;
    scenario::ScenarioRunner runner(spec);
    ASSERT_TRUE(runner.Build().ok());
    soc::Soc* soc = runner.soc();
    core::NiKernel* kernel = soc->ni(0);
    const ChannelId channel = soc->port(0, 0)->GlobalChannelOf(0);
    const Word addr =
        regs::ChannelRegAddr(channel, regs::ChannelReg::kPathRqid);
    const auto packets = [&] {
      return kernel->channel_stats(channel).packets_sent;
    };
    // The port of NI 0's router that leads to NI 2.
    const topology::Topology& topo = soc->topology();
    const RouterId router = topo.NiRouter(0);
    int to_ni2 = -1;
    for (int p = 0; p < topo.RouterPorts(router); ++p) {
      const topology::Endpoint& peer = topo.PortPeer(router, p);
      if (peer.kind == topology::EndpointKind::kNi && peer.id == 2) to_ni2 = p;
    }
    ASSERT_GE(to_ni2, 0);
    for (std::int64_t header : {3, 7}) {
      for (int i = 0; i < 2000 && packets() < header; ++i) soc->RunCycles(1);
      ASSERT_EQ(packets(), header);
      auto configured = kernel->ReadRegister(addr);
      ASSERT_TRUE(configured.ok());
      ASSERT_TRUE(
          kernel
              ->WriteRegister(addr, regs::PackPathRqid(
                                        link::SourcePath::FromHops({to_ni2}),
                                        regs::UnpackRqid(*configured)))
              .ok());
      soc->RunCycles(kFlitWords);
      ASSERT_TRUE(kernel->WriteRegister(addr, *configured).ok());
      ASSERT_EQ(packets(), header);
    }
    auto result = runner.Run();
    const Monitor& monitor = *soc->monitor();
    EXPECT_EQ(ReportCycles(monitor, "gt-route-conformance"),
              (std::vector<Cycle>{39, 87}));
    EXPECT_EQ(MonitorDigest(monitor).value(), 2587599149519070354u)
        << monitor.Describe();
  }
}

// The drive-time owners: right after a GT channel's header leaves, its
// SLOTS register drops that slot and is restored once the monitor has
// observed the flit. The flit is judged against the tables that governed
// its slot, so nothing is reported. The headers are picked long after any
// earlier table write, when the monitor keeps no per-slot snapshot of the
// NI and must take one as the write is staged.
TEST(VerifiedRun, SlotsRewrittenBehindAFlitAreJudgedAtDriveTime) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    scenario::ScenarioSpec spec = GtPairSpec();
    spec.verify = true;
    spec.engine = engine;
    scenario::ScenarioRunner runner(spec);
    ASSERT_TRUE(runner.Build().ok());
    soc::Soc* soc = runner.soc();
    core::NiKernel* kernel = soc->ni(0);
    const ChannelId channel = soc->port(0, 0)->GlobalChannelOf(0);
    const Word addr = regs::ChannelRegAddr(channel, regs::ChannelReg::kSlots);
    const auto packets = [&] {
      return kernel->channel_stats(channel).packets_sent;
    };
    for (std::int64_t header : {20, 40}) {
      for (int i = 0; i < 2000 && packets() < header; ++i) soc->RunCycles(1);
      ASSERT_EQ(packets(), header);
      // The slot the header was driven in.
      const SlotIndex slot = static_cast<SlotIndex>(
          (soc->net_clock()->cycles() - 1) / kFlitWords % spec.stu_slots);
      auto mask = kernel->ReadRegister(addr);
      ASSERT_TRUE(mask.ok());
      ASSERT_NE(*mask & (1u << slot), 0u);
      ASSERT_TRUE(kernel->WriteRegister(addr, *mask & ~(1u << slot)).ok());
      soc->RunCycles(kFlitWords);
      ASSERT_TRUE(kernel->WriteRegister(addr, *mask).ok());
    }
    auto result = runner.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(soc->monitor()->total_violations(), 0)
        << soc->monitor()->Describe();
  }
}

// Every report of the verified runs that reach the monitor's fault
// classification, lost-flit and reconfiguration paths, and of one random
// conformance configuration, pinned by digest on both engines.
class MonitorPins : public ::testing::TestWithParam<sim::EngineKind> {
 protected:
  std::uint64_t DigestOf(scenario::ScenarioSpec spec) {
    spec.verify = true;
    spec.engine = GetParam();
    scenario::ScenarioRunner runner(spec);
    auto result = runner.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    const Monitor& monitor = *runner.soc()->monitor();
    return MonitorDigest(monitor).value();
  }
  std::uint64_t DigestOfFile(const std::string& name) {
    auto spec = scenario::LoadScenarioFile(
        std::string(AETHEREAL_SCENARIO_DIR) + "/" + name);
    EXPECT_TRUE(spec.ok()) << spec.status();
    return spec.ok() ? DigestOf(*spec) : 0;
  }
};

TEST_P(MonitorPins, FaultStreamStar) {
  EXPECT_EQ(DigestOfFile("fault_stream_star.scn"), 10493761536218485689u);
}

TEST_P(MonitorPins, FaultRetryChurn) {
  EXPECT_EQ(DigestOfFile("fault_retry_churn.scn"), 10646453912024884831u);
}

TEST_P(MonitorPins, ConformanceFuzzCase) {
  EXPECT_EQ(DigestOf(RandomConformanceSpec(0xAE7E12EAu, 3)),
            11595020215893124742u);
}

INSTANTIATE_TEST_SUITE_P(Engines, MonitorPins,
                         ::testing::Values(sim::EngineKind::kNaive,
                                           sim::EngineKind::kSoa),
                         [](const auto& info) {
                           return std::string(
                               sim::EngineKindName(info.param));
                         });

}  // namespace
}  // namespace aethereal::verify
