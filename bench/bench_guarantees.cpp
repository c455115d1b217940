// E4 (paper §2): guaranteed-service equations.
//
//   "Throughput guarantees are given by the number of slots reserved for a
//    connection ... reserving N slots results in a total bandwidth of N*B.
//    The latency bound is given by the waiting time until the reserved slot
//    arrives and the number of routers data passes to reach its
//    destination. Jitter is given by the maximum distance between two slot
//    reservations."
//
// Sweeps the reserved slot count and the reservation pattern (spread vs
// contiguous), measures achieved throughput / worst-case latency / jitter
// on the cycle-accurate model, and compares each against the analytic
// bound. A saturating BE background flow shares every link to demonstrate
// that the guarantees are unaffected (composability).
#include <iostream>

#include "bench/common.h"
#include "ip/stream.h"
#include "util/table.h"

using namespace aethereal;

namespace {

constexpr int kStuSlots = 8;

struct Measured {
  double words_per_cycle = 0;
  double latency_max = 0;
  double jitter_max = 0;   // max inter-arrival gap, cycles
  int slot_max_gap = 0;    // allocator jitter bound, slots
  std::vector<SlotIndex> slots;  // actual reservation pattern
};

// GT stream NI0 -> NI2 with `slots` reserved; BE noise NI1 -> NI2 saturates
// the shared router output.
Measured Measure(int slots, tdm::AllocPolicy policy, bool saturate_source) {
  auto soc = bench::MakeStarSoc({2, 2, 2}, /*queue_words=*/32);
  config::ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = slots;
  gt.policy = policy;
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                      tdm::GlobalChannel{2, 0}, gt,
                                      config::ChannelQos{})
                      .ok());
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{1, 1},
                                      tdm::GlobalChannel{2, 1})
                      .ok());

  // For throughput: saturate; for latency/jitter: pace below the guarantee
  // so queueing does not mask the per-word bound.
  const std::int64_t period =
      saturate_source ? 1 : std::max<std::int64_t>(1, 3 * kStuSlots / slots) + 3;
  ip::StreamSource gt_prod("gp", soc->port(0, 0), 0,
                           ip::Injection{.period = period});
  ip::StreamConsumer gt_cons("gc", soc->port(2, 0), 0, kFlitWords);
  ip::StreamSource be_prod("bp", soc->port(1, 0), 1,
                           ip::Injection{.period = 1});
  ip::StreamConsumer be_cons("bc", soc->port(2, 0), 1, kFlitWords);
  soc->RegisterOnPort(&gt_prod, 0, 0);
  soc->RegisterOnPort(&gt_cons, 2, 0);
  soc->RegisterOnPort(&be_prod, 1, 0);
  soc->RegisterOnPort(&be_cons, 2, 0);
  soc->RunCycles(500);  // warm up

  const auto words0 = gt_cons.words_read();
  constexpr Cycle kWindow = 24000;
  soc->RunCycles(kWindow);

  Measured m;
  m.words_per_cycle =
      static_cast<double>(gt_cons.words_read() - words0) / kWindow;
  m.latency_max = gt_cons.latency().Max();
  m.jitter_max = gt_cons.inter_arrival().Max();
  const auto& table = soc->allocator().TableOf(topology::LinkId{true, 0, 0});
  m.slot_max_gap = table.MaxGap(tdm::GlobalChannel{0, 0});
  m.slots = table.SlotsOf(tdm::GlobalChannel{0, 0});
  return m;
}

// Analytic payload bandwidth from the actual reservation pattern: a
// contiguous run of r slots carries packets of at most F flits, i.e.
// 3r - ceil(r/F) payload words per table revolution (one header word per
// packet). F is the NI's maximum packet length (4 flits by default).
double AnalyticWordsPerCycle(const std::vector<SlotIndex>& slots,
                             int max_packet_flits) {
  if (slots.empty()) return 0.0;
  std::vector<bool> owned(kStuSlots, false);
  for (SlotIndex s : slots) owned[static_cast<std::size_t>(s)] = true;
  // Find circular runs.
  double payload = 0;
  if (static_cast<int>(slots.size()) == kStuSlots) {
    const int r = kStuSlots;
    payload = 3.0 * r - (r + max_packet_flits - 1) / max_packet_flits;
  } else {
    for (int start = 0; start < kStuSlots; ++start) {
      const bool prev = owned[static_cast<std::size_t>(
          (start + kStuSlots - 1) % kStuSlots)];
      if (!owned[static_cast<std::size_t>(start)] || prev) continue;
      int run = 0;
      while (owned[static_cast<std::size_t>((start + run) % kStuSlots)]) ++run;
      payload += 3.0 * run - (run + max_packet_flits - 1) / max_packet_flits;
    }
  }
  return payload / (kStuSlots * kFlitWords);
}

}  // namespace

int main() {
  std::cout << "bench_guarantees — reproduces paper §2 GT service bounds "
               "(E4), with BE background saturating the shared links\n";

  bench::PrintHeader(
      "E4a: throughput = N * B_slot (spread reservation)",
      "B_slot for an isolated slot = 2 payload words / 24 cycles (one "
      "header per flit). Measured must be >= analytic.");
  Table tput({"N slots", "analytic words/cyc", "measured words/cyc",
              "measured/analytic"});
  for (int n : {1, 2, 4, 6, 8}) {
    const auto m = Measure(n, tdm::AllocPolicy::kSpread, true);
    const double analytic = AnalyticWordsPerCycle(m.slots, 4);
    tput.AddRow({Table::Fmt(static_cast<std::int64_t>(n)),
                 Table::Fmt(analytic, 3), Table::Fmt(m.words_per_cycle, 3),
                 Table::Fmt(m.words_per_cycle / analytic, 2)});
  }
  tput.Print(std::cout);

  bench::PrintHeader(
      "E4b: contiguous reservations carry more payload per header",
      "Contiguous runs amortize the packet header: (3N-1)/24 words/cycle.");
  Table cont({"N slots", "analytic words/cyc", "measured words/cyc"});
  for (int n : {2, 4, 8}) {
    const auto m = Measure(n, tdm::AllocPolicy::kContiguous, true);
    cont.AddRow({Table::Fmt(static_cast<std::int64_t>(n)),
                 Table::Fmt(AnalyticWordsPerCycle(m.slots, 4), 3),
                 Table::Fmt(m.words_per_cycle, 3)});
  }
  cont.Print(std::cout);

  bench::PrintHeader(
      "E4c: latency and jitter bounds (paced traffic, BE noise active)",
      "Latency bound = slot wait (<= max gap) + 1 slot/hop + NI overhead; "
      "jitter <= max slot gap.\nSpread reservations minimize both (the "
      "allocator's kSpread policy).");
  Table bounds({"N slots", "policy", "max gap (slots)",
                "latency bound (cyc)", "measured max latency",
                "jitter bound (cyc)", "measured max jitter"});
  for (int n : {1, 2, 4}) {
    for (auto policy : {tdm::AllocPolicy::kSpread,
                        tdm::AllocPolicy::kContiguous}) {
      // Latency is measured with a paced source (no queueing); jitter is
      // measured with a backlogged source, so the arrival process is the
      // slot schedule itself rather than the producer's pacing.
      const auto paced = Measure(n, policy, false);
      const auto saturated = Measure(n, policy, true);
      // 2 hops (injection + router output) + slot wait + NI overhead
      // (master-side pack + CDC both ends + depack ~ 12 cycles).
      const double lat_bound = 3.0 * (paced.slot_max_gap + 2) + 12;
      const double jit_bound = 3.0 * saturated.slot_max_gap + kFlitWords;
      bounds.AddRow(
          {Table::Fmt(static_cast<std::int64_t>(n)),
           policy == tdm::AllocPolicy::kSpread ? "spread" : "contiguous",
           Table::Fmt(static_cast<std::int64_t>(paced.slot_max_gap)),
           Table::Fmt(lat_bound, 0), Table::Fmt(paced.latency_max, 0),
           Table::Fmt(jit_bound, 0), Table::Fmt(saturated.jitter_max, 0)});
    }
  }
  bounds.Print(std::cout);
  std::cout << "\nAll measured values must sit at or below their bounds "
               "(guarantees hold under BE congestion).\n";
  return 0;
}
