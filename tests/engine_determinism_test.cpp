// Determinism cross-check of the cycle engines (DESIGN.md §7).
//
// Runs the same seeded mixed GT/BE workload on both engines — the naïve
// reference path and the gated structure-of-arrays engine — and asserts the
// simulations are bit-identical: full word-arrival traces at every
// consumer, every NI / channel / router counter, credit state, and the
// final configuration-register file. A 16x16-mesh scenario repeats the
// cross-check at the scale the SoA engine exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/registers.h"
#include "ip/stream.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "soc/soc.h"
#include "topology/builders.h"
#include "util/rng.h"

// Binary-wide allocation counter for the zero-allocation steady-state and
// build-allocation tests.
namespace {
std::int64_t g_heap_allocations = 0;

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++g_heap_allocations;
  const auto a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

// GCC pairs an inlined `new` with these free()-based replacements at -O2
// and reports mismatched-new-delete; the pairing is fine — every
// replacement here is malloc/free symmetric.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace aethereal::soc {
namespace {

using config::ChannelQos;
using tdm::GlobalChannel;

core::NiKernelParams NiWithChannels(int channels, int queue_words = 16) {
  core::NiKernelParams params;
  core::PortParams port;
  port.channels.assign(static_cast<std::size_t>(channels),
                       core::ChannelParams{queue_words, queue_words, 1});
  params.ports.push_back(port);
  return params;
}

/// Seeded Bernoulli word source: each cycle, with probability `rate`, stage
/// one word (a running sequence number) if the source queue has space.
/// Identical seeds produce identical traffic on both engines.
class RandomProducer : public sim::Module {
 public:
  RandomProducer(std::string name, core::NiPort* port, int connid,
                 double rate, std::uint64_t seed)
      : sim::Module(std::move(name)),
        port_(port),
        connid_(connid),
        rate_(rate),
        rng_(seed) {}

  void Evaluate() override {
    if (!active_) return;
    if (rng_.NextBool(rate_) && port_->CanWrite(connid_)) {
      port_->Write(connid_, seq_++);
    }
  }

  void Stop() { active_ = false; }

 private:
  core::NiPort* port_;
  int connid_;
  double rate_;
  Rng rng_;
  bool active_ = true;
  Word seq_ = 0;
};

/// Drains every available word each cycle and records (cycle, word): the
/// complete observable delivery trace of a channel.
class TraceConsumer : public sim::Module {
 public:
  TraceConsumer(std::string name, core::NiPort* port, int connid)
      : sim::Module(std::move(name)), port_(port), connid_(connid) {}

  void Evaluate() override {
    while (port_->ReadAvailable(connid_) > 0) {
      trace_.emplace_back(CycleCount(), port_->Read(connid_));
    }
  }

  const std::vector<std::pair<Cycle, Word>>& trace() const { return trace_; }

 private:
  core::NiPort* port_;
  int connid_;
  std::vector<std::pair<Cycle, Word>> trace_;
};

struct Workload {
  std::unique_ptr<Soc> soc;
  std::vector<std::unique_ptr<RandomProducer>> producers;
  std::vector<std::unique_ptr<TraceConsumer>> consumers;
  int gt_handle = -1;
};

constexpr int kNis = 4;
constexpr int kChannelsPerNi = 2;

/// 2x2 mesh, one NI per router, a GT connection NI0->NI3 (multi-hop), a BE
/// connection NI1->NI2, and a BE connection NI3->NI0 with a data threshold
/// (so words can sit below it while the kernel parks), all fed by seeded
/// Bernoulli producers at different rates. Two ports run on slower clocks
/// to exercise the CDC machinery, the multi-clock edge heap, and
/// cross-domain wakes with large clock ratios.
Workload MakeWorkload(sim::EngineKind engine) {
  Workload w;
  auto mesh = topology::BuildMesh(2, 2, 1);
  std::vector<core::NiKernelParams> params(
      kNis, NiWithChannels(kChannelsPerNi));
  SocOptions options;
  options.engine = engine;
  options.port_mhz[{1, 0}] = 200.0;  // NI1's port crosses clock domains
  options.port_mhz[{3, 0}] = 50.0;   // NI3's port is 10x slower than net
  w.soc = std::make_unique<Soc>(std::move(mesh.topology), std::move(params),
                                options);

  ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 2;
  auto gt_handle = w.soc->OpenConnection(GlobalChannel{0, 0},
                                         GlobalChannel{3, 0}, gt,
                                         ChannelQos{});
  EXPECT_TRUE(gt_handle.ok());
  w.gt_handle = gt_handle.ok() ? *gt_handle : -1;
  EXPECT_TRUE(w.soc
                  ->OpenConnection(GlobalChannel{1, 0}, GlobalChannel{2, 0},
                                   ChannelQos{}, ChannelQos{})
                  .ok());
  ChannelQos sparse_be;
  sparse_be.data_threshold = 6;  // words accumulate below it while parked
  EXPECT_TRUE(w.soc
                  ->OpenConnection(GlobalChannel{3, 1}, GlobalChannel{0, 1},
                                   sparse_be, ChannelQos{})
                  .ok());

  struct Feed {
    NiId src_ni;
    int src_conn;
    NiId dst_ni;
    int dst_conn;
    double rate;
    std::uint64_t seed;
  };
  const Feed feeds[] = {
      {0, 0, 3, 0, 0.30, 0xA11CE},   // GT stream
      {1, 0, 2, 0, 0.20, 0xB0B},     // BE stream across the CDC port
      {3, 1, 0, 1, 0.05, 0xC0FFEE},  // sparse BE stream (lots of idling)
  };
  for (const Feed& f : feeds) {
    w.producers.push_back(std::make_unique<RandomProducer>(
        "prod_ni" + std::to_string(f.src_ni), w.soc->port(f.src_ni, 0),
        f.src_conn, f.rate, f.seed));
    w.soc->RegisterOnPort(w.producers.back().get(), f.src_ni, 0);
    w.consumers.push_back(std::make_unique<TraceConsumer>(
        "cons_ni" + std::to_string(f.dst_ni), w.soc->port(f.dst_ni, 0),
        f.dst_conn));
    w.soc->RegisterOnPort(w.consumers.back().get(), f.dst_ni, 0);
  }
  return w;
}

void DriveWorkload(Workload& w) {
  // Phased run with mid-run flush and reconfiguration events, so wakes hit
  // kernels in every state (streaming, idle, parked) — including a flush
  // whose request register commits on a 10x-slower port clock, and CTRL
  // register writes landing while kernels may be parked.
  w.soc->RunCycles(500);
  w.soc->port(3, 0)->FlushData(1);     // sub-threshold flush via slow port
  w.soc->RunCycles(503);               // off-phase relative to the slot grid
  w.soc->port(0, 0)->FlushCredits(0);  // force a credit return on GT
  w.soc->port(3, 0)->FlushData(1);     // again, from a different phase
  w.soc->RunCycles(997);
  // Stop the GT stream, let it drain, then close the connection: the CTRL
  // disable writes hit NI0/NI3 in whatever state they are in (the STU
  // slots of NI0 are freed while its kernel is likely parked).
  w.producers[0]->Stop();
  w.soc->RunCycles(600);
  EXPECT_TRUE(w.soc->CloseConnection(w.gt_handle).ok());
  w.soc->RunCycles(1400);
}

struct Snapshot {
  std::vector<std::pair<Cycle, Word>> traces[3];
  core::NiKernelStats ni_stats[kNis];
  core::ChannelStats ch_stats[kNis][kChannelsPerNi];
  router::RouterStats router_stats[kNis];
  int space[kNis][kChannelsPerNi];
  int credits_owed[kNis][kChannelsPerNi];
  std::vector<Word> registers[kNis];
};

Snapshot Capture(Workload& w) {
  Snapshot s;
  for (int i = 0; i < 3; ++i) {
    s.traces[i] = w.consumers[static_cast<std::size_t>(i)]->trace();
  }
  for (NiId n = 0; n < kNis; ++n) {
    s.ni_stats[n] = w.soc->ni(n)->stats();
    s.router_stats[n] = w.soc->router(n)->stats();
    for (ChannelId c = 0; c < kChannelsPerNi; ++c) {
      s.ch_stats[n][c] = w.soc->ni(n)->channel_stats(c);
      s.space[n][c] = w.soc->ni(n)->SpaceOf(c);
      s.credits_owed[n][c] = w.soc->ni(n)->CreditsOwedOf(c);
      for (Word reg = 0;
           reg <= static_cast<Word>(core::regs::ChannelReg::kSlots); ++reg) {
        auto value = w.soc->ni(n)->ReadRegister(
            core::regs::kChannelBase +
            static_cast<Word>(c) * core::regs::kRegsPerChannel + reg);
        EXPECT_TRUE(value.ok()) << "register read failed";
        s.registers[n].push_back(value.ok() ? *value : 0);
      }
    }
  }
  return s;
}

#define EXPECT_FIELD_EQ(field) EXPECT_EQ(a.field, b.field) << #field

void ExpectNiStatsEq(const core::NiKernelStats& a,
                     const core::NiKernelStats& b) {
  EXPECT_FIELD_EQ(gt_packets);
  EXPECT_FIELD_EQ(be_packets);
  EXPECT_FIELD_EQ(credit_only_packets);
  EXPECT_FIELD_EQ(gt_flits);
  EXPECT_FIELD_EQ(be_flits);
  EXPECT_FIELD_EQ(payload_words_sent);
  EXPECT_FIELD_EQ(header_words_sent);
  EXPECT_FIELD_EQ(payload_words_received);
  EXPECT_FIELD_EQ(packets_received);
  EXPECT_FIELD_EQ(credits_piggybacked);
  EXPECT_FIELD_EQ(credits_in_credit_only);
  EXPECT_FIELD_EQ(idle_slots);
  EXPECT_FIELD_EQ(be_link_stalls);
  EXPECT_FIELD_EQ(gt_slots_unused);
}

void ExpectRouterStatsEq(const router::RouterStats& a,
                         const router::RouterStats& b) {
  EXPECT_FIELD_EQ(gt_flits);
  EXPECT_FIELD_EQ(be_flits);
  EXPECT_FIELD_EQ(be_packets);
  EXPECT_FIELD_EQ(be_blocked_credit);
  EXPECT_FIELD_EQ(be_blocked_gt);
  EXPECT_FIELD_EQ(be_max_occupancy);
}

void ExpectChannelStatsEq(const core::ChannelStats& a,
                          const core::ChannelStats& b) {
  EXPECT_FIELD_EQ(words_sent);
  EXPECT_FIELD_EQ(words_received);
  EXPECT_FIELD_EQ(packets_sent);
  EXPECT_FIELD_EQ(credit_only_packets);
}

#undef EXPECT_FIELD_EQ

TEST(EngineDeterminism, SoaMatchesNaiveBitExactly) {
  Workload naive = MakeWorkload(sim::EngineKind::kNaive);
  DriveWorkload(naive);
  const Snapshot b = Capture(naive);

  Workload soa = MakeWorkload(sim::EngineKind::kSoa);
  DriveWorkload(soa);
  const Snapshot a = Capture(soa);

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(a.traces[i].empty()) << "stream " << i << " delivered nothing";
    EXPECT_EQ(a.traces[i], b.traces[i]) << "delivery trace of stream " << i;
  }
  for (NiId n = 0; n < kNis; ++n) {
    SCOPED_TRACE("ni" + std::to_string(n));
    ExpectNiStatsEq(a.ni_stats[n], b.ni_stats[n]);
    ExpectRouterStatsEq(a.router_stats[n], b.router_stats[n]);
    EXPECT_EQ(a.registers[n], b.registers[n]);
    for (ChannelId c = 0; c < kChannelsPerNi; ++c) {
      SCOPED_TRACE("channel " + std::to_string(c));
      ExpectChannelStatsEq(a.ch_stats[n][c], b.ch_stats[n][c]);
      EXPECT_EQ(a.space[n][c], b.space[n][c]);
      EXPECT_EQ(a.credits_owed[n][c], b.credits_owed[n][c]);
    }
  }
}

// The SoA engine's reason to exist is large meshes, so the cross-check
// must also run at a scale where its flattened scheduling state (activity
// bitmaps spanning many words, the wire-pool slab, router pending masks)
// is actually exercised: a 16x16 mesh, 256 NIs, mixed uniform BE traffic
// plus a multi-hop GT flow, compared byte-for-byte across both engines
// via the scenario result JSON (which folds in every flow trace
// summary, latency percentile, and SoC counter).
TEST(EngineDeterminism, SixteenBySixteenMeshMatchesAcrossEngines) {
  // Flows stay within the kMaxPathHops source-route budget (the header
  // word encodes at most 7 ports), so they are scattered local pairs plus
  // two maximal-length GT routes, not a global permutation.
  const char* kSpec =
      "scenario det16\n"
      "noc mesh 16 16 1\n"
      "warmup 300\n"
      "duration 1200\n"
      "traffic pairs 0 1 17 16 35 34 120 121 250 249 67 83 140 156"
      " inject bernoulli 0.1\n"
      "traffic pairs 0 51 qos gt 2 inject periodic 6\n"
      "traffic pairs 255 204 qos gt 1 inject periodic 9\n";
  auto spec = scenario::ParseScenario(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();

  std::string reference;
  for (const sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    spec->engine = engine;
    scenario::ScenarioRunner runner(*spec);
    auto result = runner.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(result->words_in_window, 0);
    if (reference.empty()) {
      reference = result->ToJson();
    } else {
      EXPECT_EQ(result->ToJson(), reference)
          << "16x16 mesh diverged from the naive reference";
    }
  }
}

// The gated engine must actually park modules — otherwise the cross-check
// above proves nothing about gating. After the producers stop and the
// network drains, every NI kernel and router must be asleep.
TEST(EngineDeterminism, GatingActuallyParksIdleModules) {
  Workload w = MakeWorkload(sim::EngineKind::kSoa);
  w.soc->RunCycles(3000);
  for (auto& producer : w.producers) producer->Stop();
  w.soc->RunCycles(1000);  // drain in-flight packets and credit returns
  for (NiId n = 0; n < kNis; ++n) {
    EXPECT_TRUE(w.soc->ni(n)->parked()) << "ni" << n << " still awake";
    EXPECT_TRUE(w.soc->router(n)->parked()) << "router" << n << " still awake";
  }
}

TEST(EngineDeterminism, KillSwitchDisablesParking) {
  Workload w = MakeWorkload(sim::EngineKind::kNaive);
  w.soc->RunCycles(3000);
  for (NiId n = 0; n < kNis; ++n) {
    EXPECT_FALSE(w.soc->ni(n)->parked());
    EXPECT_FALSE(w.soc->router(n)->parked());
  }
}

/// Drains words without recording anything (the library StreamConsumer
/// accumulates latency samples, which allocates by design).
class SilentConsumer : public sim::Module {
 public:
  SilentConsumer(std::string name, core::NiPort* port, int connid)
      : sim::Module(std::move(name)), port_(port), connid_(connid) {}
  void Evaluate() override {
    while (port_->ReadAvailable(connid_) > 0) {
      total_ += port_->Read(connid_);
    }
  }

 private:
  core::NiPort* port_;
  int connid_;
  Word total_ = 0;  // defeat dead-code elimination
};

// The engine hot path — kernel scheduling, wires, routers, NI kernels, CDC
// queues, park/wake churn, timer wakes — makes ZERO heap allocations per
// slot once warmed up. (Guards against std::deque churn, per-slot scratch
// vectors, and similar regressions creeping back in.)
// Heap allocations made by 3000 steady-state cycles of GT and BE streams
// between NI pairs, after a 2000-cycle warm-up.
std::int64_t SteadyStateAllocations(SocOptions options) {
  auto mesh = topology::BuildMesh(2, 2, 1);
  std::vector<core::NiKernelParams> params(kNis, NiWithChannels(1, 32));
  Soc soc(std::move(mesh.topology), std::move(params), std::move(options));

  config::ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 2;
  gt.credit_threshold = 10;
  config::ChannelQos be;
  be.credit_threshold = 10;
  EXPECT_TRUE(
      soc.OpenConnection(tdm::GlobalChannel{0, 0}, tdm::GlobalChannel{3, 0},
                         gt, gt)
          .ok());
  EXPECT_TRUE(
      soc.OpenConnection(tdm::GlobalChannel{1, 0}, tdm::GlobalChannel{2, 0},
                         be, be)
          .ok());

  std::vector<std::unique_ptr<ip::StreamSource>> producers;
  std::vector<std::unique_ptr<SilentConsumer>> consumers;
  const std::pair<NiId, NiId> flows[] = {{0, 3}, {3, 0}, {1, 2}, {2, 1}};
  for (const auto& [src, dst] : flows) {
    producers.push_back(std::make_unique<ip::StreamSource>(
        "p", soc.port(src, 0), 0, ip::Injection{.period = 48, .words = 6}));
    soc.RegisterOnPort(producers.back().get(), src, 0);
    consumers.push_back(
        std::make_unique<SilentConsumer>("c", soc.port(dst, 0), 0));
    soc.RegisterOnPort(consumers.back().get(), dst, 0);
  }

  soc.RunCycles(2000);  // warm up: settle every vector capacity
  const std::int64_t before = g_heap_allocations;
  soc.RunCycles(3000);
  return g_heap_allocations - before;
}

TEST(EngineZeroAlloc, SteadyStateMakesNoHeapAllocations) {
  EXPECT_EQ(SteadyStateAllocations(SocOptions{}), 0);
}

// One IP port on its own 200 MHz clock: the multi-clock step path and the
// CDC maturity wakes toward a parked reader or writer stay allocation-free.
TEST(EngineZeroAlloc, MultiClockSteadyStateMakesNoHeapAllocations) {
  SocOptions options;
  options.port_mhz[{1, 0}] = 200.0;
  EXPECT_EQ(SteadyStateAllocations(std::move(options)), 0);
}

// The SoC draws its routers, NI kernels, wires, rings and slot tables from
// one block, routes and slot lists are inline, and the runner builds its
// IPs into per-class slabs: a build allocates a few times per NI (its
// parameters) instead of dozens. bench_build times this spec: every NI of
// a 16x16 mesh streams to its row neighbour on a 1-slot GT connection.
TEST(BuildAllocations, GtPairsMesh16x16StaysUnderAThousand) {
  constexpr int kSide = 16;
  std::string text =
      "scenario build_gt_pairs_16\nnoc mesh 16 16 1\nstu 8\nqueues 32\n"
      "seed 1\nwarmup 0\nduration 1000\ntraffic pairs";
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      const int peer = c + 1 < kSide ? c + 1 : c - 1;
      text += " " + std::to_string(r * kSide + c) + " " +
              std::to_string(r * kSide + peer);
    }
  }
  text += " inject periodic 200 qos gt 1\n";
  auto spec = scenario::ParseScenario(text);
  ASSERT_TRUE(spec.ok()) << spec.status();
  scenario::ScenarioRunner runner(std::move(*spec));
  const std::int64_t before = g_heap_allocations;
  ASSERT_TRUE(runner.Build().ok());
  EXPECT_LT(g_heap_allocations - before, 1000);
}

}  // namespace
}  // namespace aethereal::soc
