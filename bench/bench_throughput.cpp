// E3 (paper §5): link bandwidth — "The router side of the NI kernel runs at
// a frequency of 500 MHz ... and delivers a bandwidth toward the router of
// 16 Gbit/s in each direction" (32 bits x 500 MHz).
//
// Saturates one connection with a full-table GT reservation (and, for
// comparison, a BE-only configuration) and reports achieved raw and payload
// bandwidth on the injection link, plus both directions at once.
#include <iostream>

#include "bench/common.h"
#include "ip/stream.h"
#include "util/table.h"

using namespace aethereal;

namespace {

struct Measured {
  double raw_gbit = 0;      // header+payload words on the link
  double payload_gbit = 0;  // payload words only
  double words_per_cycle = 0;
};

constexpr double kBitsPerWord = 32.0;
constexpr double kClockGhz = 0.5;  // 500 MHz

Measured MeasureOneWay(bool gt, int slots, Cycle cycles) {
  soc::SocOptions options;
  auto soc = bench::MakeStarSoc({1, 1}, /*queue_words=*/32, options);
  config::ChannelQos qos;
  if (gt) {
    qos.gt = true;
    qos.gt_slots = slots;
    qos.policy = tdm::AllocPolicy::kContiguous;
  }
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                      tdm::GlobalChannel{1, 0}, qos,
                                      config::ChannelQos{})
                      .ok());
  ip::StreamSource producer("p", soc->port(0, 0), 0,
                            ip::Injection{.period = 1});
  ip::StreamConsumer consumer("c", soc->port(1, 0), 0, kFlitWords);
  soc->RegisterOnPort(&producer, 0, 0);
  soc->RegisterOnPort(&consumer, 1, 0);
  soc->RunCycles(200);  // warm up
  const auto& stats = soc->ni(0)->stats();
  const auto payload0 = stats.payload_words_sent;
  const auto header0 = stats.header_words_sent;
  soc->RunCycles(cycles);
  const double payload =
      static_cast<double>(stats.payload_words_sent - payload0);
  const double header = static_cast<double>(stats.header_words_sent - header0);
  Measured m;
  m.words_per_cycle = (payload + header) / static_cast<double>(cycles);
  m.raw_gbit = m.words_per_cycle * kBitsPerWord * kClockGhz;
  m.payload_gbit =
      payload / static_cast<double>(cycles) * kBitsPerWord * kClockGhz;
  return m;
}

}  // namespace

int main() {
  std::cout << "bench_throughput — reproduces paper §5 bandwidth (E3)\n";
  bench::PrintHeader(
      "E3a: injection-link bandwidth toward the router",
      "Paper: 32-bit link at 500 MHz = 16 Gbit/s per direction (raw). A "
      "full-table contiguous GT reservation\nreaches the link rate minus "
      "one header word per max-length packet.");

  constexpr Cycle kWindow = 30000;
  Table table(
      {"configuration", "words/cycle", "raw Gbit/s", "payload Gbit/s",
       "% of 16 Gbit/s (raw)"});
  const Measured gt_full = MeasureOneWay(true, 8, kWindow);
  const Measured gt_half = MeasureOneWay(true, 4, kWindow);
  const Measured be = MeasureOneWay(false, 0, kWindow);
  auto add = [&](const char* label, const Measured& m) {
    table.AddRow({label, Table::Fmt(m.words_per_cycle, 3),
                  Table::Fmt(m.raw_gbit, 2), Table::Fmt(m.payload_gbit, 2),
                  Table::Fmt(100.0 * m.raw_gbit / 16.0, 1)});
  };
  add("GT, 8/8 slots (contiguous)", gt_full);
  add("GT, 4/8 slots (contiguous)", gt_half);
  add("BE, idle network", be);
  table.Print(std::cout);

  bench::PrintHeader(
      "E3b: both directions simultaneously",
      "16 Gbit/s 'in each direction': two saturated opposite GT streams do "
      "not steal from each other.");
  {
    soc::SocOptions options;
    auto soc = bench::MakeStarSoc({2, 2}, 32, options);
    config::ChannelQos gt;
    gt.gt = true;
    gt.gt_slots = 8;
    gt.policy = tdm::AllocPolicy::kContiguous;
    AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                        tdm::GlobalChannel{1, 0}, gt, gt)
                        .ok());
    ip::StreamSource p01("p01", soc->port(0, 0), 0, ip::Injection{.period = 1});
    ip::StreamConsumer c01("c01", soc->port(1, 0), 0, kFlitWords);
    ip::StreamSource p10("p10", soc->port(1, 0), 0, ip::Injection{.period = 1});
    ip::StreamConsumer c10("c10", soc->port(0, 0), 0, kFlitWords);
    soc->RegisterOnPort(&p01, 0, 0);
    soc->RegisterOnPort(&c01, 1, 0);
    soc->RegisterOnPort(&p10, 1, 0);
    soc->RegisterOnPort(&c10, 0, 0);
    soc->RunCycles(200);
    const auto w0 = c01.words_read();
    const auto w1 = c10.words_read();
    soc->RunCycles(kWindow);
    Table both({"direction", "payload words/cycle", "payload Gbit/s"});
    const double d0 =
        static_cast<double>(c01.words_read() - w0) / kWindow;
    const double d1 =
        static_cast<double>(c10.words_read() - w1) / kWindow;
    both.AddRow({"ni0 -> ni1", Table::Fmt(d0, 3),
                 Table::Fmt(d0 * kBitsPerWord * kClockGhz, 2)});
    both.AddRow({"ni1 -> ni0", Table::Fmt(d1, 3),
                 Table::Fmt(d1 * kBitsPerWord * kClockGhz, 2)});
    both.Print(std::cout);
  }

  std::cout << "\n(max payload efficiency with 4-flit packets = 11/12 = "
               "91.7% of the raw link rate)\n";
  return 0;
}
