// Ablations of the design choices DESIGN.md §5 calls out:
//  A1 credit piggybacking on/off (paper §4.1 piggybacks to save bandwidth);
//  A2 BE arbitration policy (round-robin / weighted / queue-fill);
//  A3 slot-table size (allocation success and jitter bound vs STU slots);
//  A4 centralized allocation policy (first-fit / spread / contiguous)
//     effect on acceptance rate for random connection mixes.
#include <iostream>

#include "bench/common.h"
#include "ip/stream.h"
#include "tdm/allocator.h"
#include "util/rng.h"
#include "util/table.h"

using namespace aethereal;

namespace {

void PiggybackAblation() {
  bench::PrintHeader(
      "A1: credit piggybacking vs dedicated credit packets",
      "Bidirectional streams: with piggybacking, credits ride in data "
      "headers for free; without it, every\ncredit batch costs a header-"
      "only packet on the link (the paper piggybacks for exactly this "
      "reason).");
  Table table({"mode", "fwd words", "credit-only pkts", "total flits",
               "flits per payload word"});
  for (bool piggyback : {true, false}) {
    auto star = topology::BuildStar(2);
    std::vector<core::NiKernelParams> params(2, bench::NiWithChannels(1, 16));
    for (auto& p : params) p.piggyback_credits = piggyback;
    soc::Soc soc(std::move(star.topology), std::move(params));
    AETHEREAL_CHECK(soc.OpenConnection(tdm::GlobalChannel{0, 0},
                                       tdm::GlobalChannel{1, 0})
                        .ok());
    // Symmetric bidirectional traffic at full rate: the link is saturated,
    // so every credit-only packet displaces a data flit.
    ip::StreamSource p01("p01", soc.port(0, 0), 0, ip::Injection{.period = 1});
    ip::StreamConsumer c01("c01", soc.port(1, 0), 0, kFlitWords);
    ip::StreamSource p10("p10", soc.port(1, 0), 0, ip::Injection{.period = 1});
    ip::StreamConsumer c10("c10", soc.port(0, 0), 0, kFlitWords);
    soc.RegisterOnPort(&p01, 0, 0);
    soc.RegisterOnPort(&c01, 1, 0);
    soc.RegisterOnPort(&p10, 1, 0);
    soc.RegisterOnPort(&c10, 0, 0);
    soc.RunCycles(500);
    const auto& s0 = soc.ni(0)->stats();
    const auto words0 = c01.words_read();
    const auto credit0 = s0.credit_only_packets;
    const auto flits0 = s0.be_flits + s0.gt_flits;
    soc.RunCycles(24000);
    const auto words = c01.words_read() - words0;
    const auto flits = s0.be_flits + s0.gt_flits - flits0;
    table.AddRow({piggyback ? "piggyback (paper)" : "dedicated packets",
                  Table::Fmt(words),
                  Table::Fmt(s0.credit_only_packets - credit0),
                  Table::Fmt(flits),
                  Table::Fmt(static_cast<double>(flits) /
                                 static_cast<double>(words),
                             3)});
  }
  table.Print(std::cout);
}

void ArbitrationAblation() {
  bench::PrintHeader(
      "A2: BE arbitration policy under asymmetric load",
      "Three BE channels share one injection link: ch0 heavy, ch1 medium, "
      "ch2 light; ch1 has WRR weight 3.\nRound-robin splits evenly, "
      "weighted round-robin favours the weight, queue-fill favours the "
      "backlog.");
  Table table({"policy", "ch0 w/cyc", "ch1 w/cyc", "ch2 w/cyc"});
  for (auto policy : {core::BeArbitration::kRoundRobin,
                      core::BeArbitration::kWeightedRoundRobin,
                      core::BeArbitration::kQueueFill}) {
    auto star = topology::BuildStar(2);
    std::vector<core::NiKernelParams> params(2, bench::NiWithChannels(3, 16));
    params[0].be_arbitration = policy;
    params[0].ports[0].channels[1].weight = 3;
    soc::Soc soc(std::move(star.topology), std::move(params));
    for (int ch = 0; ch < 3; ++ch) {
      AETHEREAL_CHECK(soc.OpenConnection(tdm::GlobalChannel{0, ch},
                                         tdm::GlobalChannel{1, ch})
                          .ok());
    }
    ip::StreamSource p0("p0", soc.port(0, 0), 0, ip::Injection{.period = 1});
    ip::StreamSource p1("p1", soc.port(0, 0), 1, ip::Injection{.period = 2});
    ip::StreamSource p2("p2", soc.port(0, 0), 2, ip::Injection{.period = 8});
    ip::StreamConsumer c0("c0", soc.port(1, 0), 0, kFlitWords);
    ip::StreamConsumer c1("c1", soc.port(1, 0), 1, kFlitWords);
    ip::StreamConsumer c2("c2", soc.port(1, 0), 2, kFlitWords);
    soc.RegisterOnPort(&p0, 0, 0);
    soc.RegisterOnPort(&p1, 0, 0);
    soc.RegisterOnPort(&p2, 0, 0);
    soc.RegisterOnPort(&c0, 1, 0);
    soc.RegisterOnPort(&c1, 1, 0);
    soc.RegisterOnPort(&c2, 1, 0);
    soc.RunCycles(1000);
    const auto w0 = c0.words_read(), w1 = c1.words_read(), w2 = c2.words_read();
    constexpr Cycle kWindow = 24000;
    soc.RunCycles(kWindow);
    table.AddRow({core::BeArbitrationName(policy),
                  Table::Fmt(static_cast<double>(c0.words_read() - w0) / kWindow, 3),
                  Table::Fmt(static_cast<double>(c1.words_read() - w1) / kWindow, 3),
                  Table::Fmt(static_cast<double>(c2.words_read() - w2) / kWindow, 3)});
  }
  table.Print(std::cout);
}

void StuSizeAblation() {
  bench::PrintHeader(
      "A3: slot-table size vs allocation success and jitter bound",
      "Random GT connection mixes on a 3x3 mesh: a bigger STU accepts more "
      "connections and spreads them\nmore finely (smaller jitter bound), "
      "but costs area (see bench_area) and a longer revolution.");
  Table table({"STU slots", "requests", "accepted", "mean jitter bound "
               "(slots)", "mean link utilization %"});
  for (int stu : {4, 8, 16, 32}) {
    auto mesh = topology::BuildMesh(3, 3, 1);
    tdm::CentralizedAllocator alloc(&mesh.topology, stu);
    Rng rng(2026);
    int accepted = 0;
    double jitter_sum = 0;
    const int kRequests = 40;
    for (int k = 0; k < kRequests; ++k) {
      const NiId from = static_cast<NiId>(rng.NextBelow(9));
      NiId to = static_cast<NiId>(rng.NextBelow(9));
      if (to == from) to = static_cast<NiId>((to + 1) % 9);
      auto route = mesh.topology.Route(from, to);
      AETHEREAL_CHECK(route.ok());
      const int want = 1 + static_cast<int>(rng.NextBelow(
                               static_cast<std::uint64_t>(stu / 4)));
      const tdm::GlobalChannel ch{from, k};
      auto slots = alloc.Allocate(*route, ch, want,
                                  tdm::AllocPolicy::kSpread);
      if (!slots.ok()) continue;
      ++accepted;
      jitter_sum += alloc.TableOf(route->links[0]).MaxGap(ch);
    }
    table.AddRow({Table::Fmt(static_cast<std::int64_t>(stu)),
                  Table::Fmt(static_cast<std::int64_t>(kRequests)),
                  Table::Fmt(static_cast<std::int64_t>(accepted)),
                  accepted ? Table::Fmt(jitter_sum / accepted, 1) : "-",
                  Table::Fmt(100.0 * alloc.MeanUtilization(), 1)});
  }
  table.Print(std::cout);
}

void PolicyAcceptanceAblation() {
  bench::PrintHeader(
      "A4: allocation policy vs acceptance under fragmentation",
      "Sequential open/close churn fragments the slot space; spread "
      "placement keeps more multi-slot\nrequests admissible than contiguous "
      "placement needs.");
  Table table({"policy", "accepted of 60", "mean utilization %"});
  for (auto policy : {tdm::AllocPolicy::kFirstFit, tdm::AllocPolicy::kSpread,
                      tdm::AllocPolicy::kContiguous}) {
    auto mesh = topology::BuildMesh(3, 3, 1);
    tdm::CentralizedAllocator alloc(&mesh.topology, 16);
    Rng rng(7);
    struct Live {
      topology::ChannelRoute route;
      tdm::GlobalChannel ch;
      tdm::SlotList slots;
    };
    std::vector<Live> live;
    int accepted = 0;
    for (int k = 0; k < 60; ++k) {
      // Randomly close one in three alive connections (churn).
      if (!live.empty() && rng.NextBool(0.33)) {
        const auto victim = rng.NextBelow(live.size());
        AETHEREAL_CHECK(alloc.Free(live[victim].route, live[victim].ch,
                                   live[victim].slots)
                            .ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      const NiId from = static_cast<NiId>(rng.NextBelow(9));
      NiId to = static_cast<NiId>(rng.NextBelow(9));
      if (to == from) to = static_cast<NiId>((to + 1) % 9);
      auto route = mesh.topology.Route(from, to);
      AETHEREAL_CHECK(route.ok());
      const int want = 2 + static_cast<int>(rng.NextBelow(3));
      const tdm::GlobalChannel ch{from, 100 + k};
      auto slots = alloc.Allocate(*route, ch, want, policy);
      if (slots.ok()) {
        ++accepted;
        live.push_back(Live{*route, ch, *slots});
      }
    }
    const char* name = policy == tdm::AllocPolicy::kFirstFit ? "first-fit"
                       : policy == tdm::AllocPolicy::kSpread ? "spread"
                                                             : "contiguous";
    table.AddRow({name, Table::Fmt(static_cast<std::int64_t>(accepted)),
                  Table::Fmt(100.0 * alloc.MeanUtilization(), 1)});
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  std::cout << "bench_ablation — design-choice ablations (DESIGN.md §5)\n";
  PiggybackAblation();
  ArbitrationAblation();
  StuSizeAblation();
  PolicyAcceptanceAblation();
  return 0;
}
