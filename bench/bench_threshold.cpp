// E6 (paper §4.1): the threshold and flush mechanisms.
//
//  * data threshold: "To optimize the NoC utilization, it is preferable to
//    send longer packets ... a configurable threshold mechanism ... skips a
//    channel as long as the sendable data is below the threshold";
//  * flush: "To prevent starvation at user/application level (e.g., due to
//    write data being buffered indefinitely on which the IP module waits
//    for an acknowledge), we also provide a flush signal";
//  * credit threshold: "when there is no data on which the credits can be
//    piggybacked, the credits are sent as empty packets, thus consuming
//    extra bandwidth. To minimize the bandwidth consumed by credits, a
//    credit threshold is set".
#include <iostream>

#include "bench/common.h"
#include "core/registers.h"
#include "ip/stream.h"
#include "util/table.h"

using namespace aethereal;

namespace {

namespace regs = core::regs;

struct ThresholdResult {
  double avg_packet_payload = 0;
  double header_overhead_pct = 0;
  std::int64_t packets = 0;
  std::int64_t words = 0;
};

// Bursty producer (burst of `burst` words every `period` cycles) through a
// BE channel with the given send threshold.
ThresholdResult MeasureDataThreshold(int threshold, int burst, int period) {
  auto soc = bench::MakeStarSoc({1, 1}, /*queue_words=*/32);
  config::ChannelQos qos;
  qos.data_threshold = threshold;
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                      tdm::GlobalChannel{1, 0}, qos,
                                      config::ChannelQos{})
                      .ok());
  ip::StreamSource producer("p", soc->port(0, 0), 0,
                            ip::Injection{.period = period, .words = burst});
  ip::StreamConsumer consumer("c", soc->port(1, 0), 0, kFlitWords);
  soc->RegisterOnPort(&producer, 0, 0);
  soc->RegisterOnPort(&consumer, 1, 0);
  soc->RunCycles(500);
  const auto& stats = soc->ni(0)->stats();
  const auto packets0 = stats.be_packets;
  const auto words0 = stats.payload_words_sent;
  const auto headers0 = stats.header_words_sent;
  soc->RunCycles(30000);
  ThresholdResult r;
  r.packets = stats.be_packets - packets0;
  r.words = stats.payload_words_sent - words0;
  const auto headers = stats.header_words_sent - headers0;
  r.avg_packet_payload =
      r.packets > 0 ? static_cast<double>(r.words) / r.packets : 0.0;
  r.header_overhead_pct =
      100.0 * headers / std::max<std::int64_t>(1, headers + r.words);
  return r;
}

void DataThresholdSweep() {
  bench::PrintHeader(
      "E6a: send-threshold sweep (bursty producer: 4 words every 24 cycles)",
      "Higher thresholds batch data into longer packets, cutting header "
      "overhead at the cost of latency.");
  Table table({"threshold (words)", "avg packet payload", "packets",
               "header overhead %"});
  for (int threshold : {1, 2, 4, 8, 12}) {
    const auto r = MeasureDataThreshold(threshold, 4, 24);
    table.AddRow({Table::Fmt(static_cast<std::int64_t>(threshold)),
                  Table::Fmt(r.avg_packet_payload, 2), Table::Fmt(r.packets),
                  Table::Fmt(r.header_overhead_pct, 1)});
  }
  table.Print(std::cout);
}

void FlushStarvation() {
  bench::PrintHeader(
      "E6b: flush bounds starvation under a high threshold",
      "3 words sit below a threshold of 8. Without flush they are parked "
      "indefinitely; the flush signal\n(or the message-header flush bit the "
      "shells set on acknowledged writes) releases them.");
  Table table({"case", "words delivered after 2000 cycles",
               "delivery latency (cycles)"});
  for (bool flush : {false, true}) {
    auto soc = bench::MakeStarSoc({1, 1});
    config::ChannelQos qos;
    qos.data_threshold = 8;
    AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                        tdm::GlobalChannel{1, 0}, qos,
                                        config::ChannelQos{})
                        .ok());
    soc->RunCycles(2);
    for (int i = 0; i < 3; ++i) soc->port(0, 0)->Write(0, 0x10 + i);
    soc->RunCycles(1);
    if (flush) soc->port(0, 0)->FlushData(0);
    Cycle delivered_at = -1;
    for (Cycle t = 0; t < 2000; t += 5) {
      soc->RunCycles(5);
      if (delivered_at < 0 && soc->port(1, 0)->ReadAvailable(0) == 3) {
        delivered_at = t + 5;
      }
    }
    table.AddRow(
        {flush ? "flush raised" : "no flush",
         Table::Fmt(static_cast<std::int64_t>(soc->port(1, 0)->ReadAvailable(0))),
         delivered_at >= 0 ? Table::Fmt(delivered_at) : "never (starved)"});
  }
  table.Print(std::cout);
}

void CreditThresholdSweep() {
  bench::PrintHeader(
      "E6c: credit-threshold sweep (one-way stream, credits cannot "
      "piggyback)",
      "With no reverse data, credits return as empty (header-only) "
      "packets; the threshold batches them,\ntrading reverse-link bandwidth "
      "against how quickly the producer's Space counter refills.");
  Table table({"credit threshold", "credit-only packets",
               "credits per packet", "reverse-link flits",
               "forward words delivered"});
  for (int threshold : {1, 2, 4, 8}) {
    auto soc = bench::MakeStarSoc({1, 1});
    config::ChannelQos fwd;
    config::ChannelQos rev;
    rev.credit_threshold = threshold;
    AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                        tdm::GlobalChannel{1, 0}, fwd, rev)
                        .ok());
    ip::StreamSource producer("p", soc->port(0, 0), 0,
                              ip::Injection{.period = 3});
    ip::StreamConsumer consumer("c", soc->port(1, 0), 0, kFlitWords);
    soc->RegisterOnPort(&producer, 0, 0);
    soc->RegisterOnPort(&consumer, 1, 0);
    soc->RunCycles(500);
    const auto& rev_stats = soc->ni(1)->stats();
    const auto cr0 = rev_stats.credit_only_packets;
    const auto fl0 = rev_stats.be_flits + rev_stats.gt_flits;
    const auto cc0 = rev_stats.credits_in_credit_only;
    const auto words0 = consumer.words_read();
    soc->RunCycles(24000);
    const auto credit_packets = rev_stats.credit_only_packets - cr0;
    const auto credits = rev_stats.credits_in_credit_only - cc0;
    table.AddRow(
        {Table::Fmt(static_cast<std::int64_t>(threshold)),
         Table::Fmt(credit_packets),
         credit_packets > 0
             ? Table::Fmt(static_cast<double>(credits) / credit_packets, 2)
             : "-",
         Table::Fmt(rev_stats.be_flits + rev_stats.gt_flits - fl0),
         Table::Fmt(consumer.words_read() - words0)});
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  std::cout << "bench_threshold — reproduces paper §4.1 threshold/flush "
               "mechanisms (E6)\n";
  DataThresholdSweep();
  FlushStarvation();
  CreditThresholdSweep();
  return 0;
}
