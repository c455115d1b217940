// E7 (paper §2/§4.1, router context of ref [21]): composability of the
// combined GT/BE service.
//
// Sweeps the fraction of TDM slots reserved by a GT connection while a BE
// connection shares the same links, measuring:
//  * GT latency (must track its analytic bound, independent of BE load),
//  * BE throughput and latency (degrade as GT reservations grow — BE gets
//    only the slots GT leaves unused).
#include <iostream>

#include "bench/common.h"
#include "ip/stream.h"
#include "util/stats.h"
#include "util/table.h"

using namespace aethereal;

namespace {

struct MixResult {
  double gt_latency_max = 0;
  double gt_words_per_cycle = 0;
  double be_words_per_cycle = 0;
  double be_latency_mean = 0;
  double be_latency_p99 = 0;
};

MixResult Measure(int gt_slots, double be_load) {
  auto soc = bench::MakeStarSoc({2, 2, 2}, /*queue_words=*/32);
  config::ChannelQos gt;
  if (gt_slots > 0) {
    gt.gt = true;
    gt.gt_slots = gt_slots;
    gt.policy = tdm::AllocPolicy::kSpread;
  }
  // GT: NI0 -> NI2. BE: NI1 -> NI2. Shared link: router output to NI2.
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                      tdm::GlobalChannel{2, 0}, gt,
                                      config::ChannelQos{})
                      .ok());
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{1, 1},
                                      tdm::GlobalChannel{2, 1})
                      .ok());

  // GT paced at ~80% of its guarantee (isolation test, not saturation).
  const int gt_period =
      gt_slots > 0 ? std::max(1, (3 * 8) / (2 * gt_slots) + 1) : 6;
  ip::StreamSource gt_prod("gp", soc->port(0, 0), 0,
                           ip::Injection{.period = gt_period});
  ip::StreamConsumer gt_cons("gc", soc->port(2, 0), 0, kFlitWords);
  // BE offered load in words/cycle (period = 1/load).
  const auto be_period = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(1.0 / be_load));
  ip::StreamSource be_prod("bp", soc->port(1, 0), 1,
                           ip::Injection{.period = be_period});
  ip::StreamConsumer be_cons("bc", soc->port(2, 0), 1, kFlitWords);
  soc->RegisterOnPort(&gt_prod, 0, 0);
  soc->RegisterOnPort(&gt_cons, 2, 0);
  soc->RegisterOnPort(&be_prod, 1, 0);
  soc->RegisterOnPort(&be_cons, 2, 0);
  soc->RunCycles(1000);

  const auto gt0 = gt_cons.words_read();
  const auto be0 = be_cons.words_read();
  constexpr Cycle kWindow = 24000;
  soc->RunCycles(kWindow);

  MixResult r;
  r.gt_words_per_cycle =
      static_cast<double>(gt_cons.words_read() - gt0) / kWindow;
  r.be_words_per_cycle =
      static_cast<double>(be_cons.words_read() - be0) / kWindow;
  r.gt_latency_max = gt_cons.latency().Max();
  r.be_latency_mean = be_cons.latency().Mean();
  CycleCounts be_latency;
  be_latency.AddSamples(be_cons.latency().samples());
  r.be_latency_p99 = be_latency.Tail().p99;
  return r;
}

}  // namespace

int main() {
  std::cout << "bench_gt_be — GT/BE mix composability (E7)\n";

  bench::PrintHeader(
      "E7a: BE service vs GT slot reservation (BE offered load 0.25 w/cyc)",
      "As GT reserves more of the 8 slots, BE keeps only the leftovers: "
      "its latency climbs and, once the\nreservation exceeds the leftover "
      "capacity, its throughput collapses. GT latency stays bounded "
      "throughout.");
  Table table({"GT slots", "GT max lat (cyc)", "GT words/cyc",
               "BE words/cyc", "BE mean lat", "BE p99 lat"});
  for (int gt_slots : {0, 1, 2, 4, 6, 7}) {
    const auto r = Measure(gt_slots, 0.25);
    table.AddRow({Table::Fmt(static_cast<std::int64_t>(gt_slots)),
                  gt_slots > 0 ? Table::Fmt(r.gt_latency_max, 0) : "-",
                  Table::Fmt(r.gt_words_per_cycle, 3),
                  Table::Fmt(r.be_words_per_cycle, 3),
                  Table::Fmt(r.be_latency_mean, 1),
                  Table::Fmt(r.be_latency_p99, 0)});
  }
  table.Print(std::cout);

  bench::PrintHeader(
      "E7b: GT latency vs BE offered load (GT = 2/8 slots)",
      "The composability claim: the GT bound depends only on the slot "
      "reservation, never on BE load.");
  Table iso({"BE offered load (w/cyc)", "GT max lat (cyc)", "BE words/cyc",
             "BE p99 lat"});
  for (double load : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    const auto r = Measure(2, load);
    iso.AddRow({Table::Fmt(load, 2), Table::Fmt(r.gt_latency_max, 0),
                Table::Fmt(r.be_words_per_cycle, 3),
                Table::Fmt(r.be_latency_p99, 0)});
  }
  iso.Print(std::cout);
  std::cout << "\nGT max latency must stay flat across the BE-load sweep "
               "(crossover behaviour appears only on the BE side).\n";
  return 0;
}
