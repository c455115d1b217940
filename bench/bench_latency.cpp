// E2 (paper §5): NI latency overhead decomposition.
//
// Paper claims: 2 cycles in the DTL master shell (sequentialization), 0-2
// in narrowcast/multicast shells, 1-3 in the NI kernel (3-word flit
// alignment), 2 for clock-domain crossing => 4-10 cycles total NI overhead,
// fully pipelined. This bench measures the stages on the cycle-accurate
// model: raw channel word latency (kernel + CDC), the flit-alignment spread
// as a function of message length mod 3, and the added master-shell cost.
#include <iostream>

#include "bench/common.h"
#include "ip/stream.h"
#include "shells/master_shell.h"
#include "shells/slave_shell.h"
#include "util/stats.h"
#include "util/table.h"

using namespace aethereal;

namespace {

// Transit cycles that are NOT NI overhead: the NI->router and router->NI
// links each take one TDM slot (kFlitWords word cycles); arbitration /
// transport would be paid on a bus as well (paper §5 excludes it).
constexpr int kTransitCycles = 2 * kFlitWords;

// Measures raw point-to-point word latency (no shells): port write ->
// remote port read, for messages of `burst` words.
Stats MeasureRawChannel(int burst) {
  auto soc = bench::MakeStarSoc({1, 1}, /*queue_words=*/32);
  auto handle = soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                    tdm::GlobalChannel{1, 0});
  AETHEREAL_CHECK(handle.ok());
  ip::StreamSource producer(
      "p", soc->port(0, 0), 0,
      ip::Injection{.period = 60, .words = burst, .total_words = 60 * burst});
  ip::StreamConsumer consumer("c", soc->port(1, 0), 0, kFlitWords);
  soc->RegisterOnPort(&producer, 0, 0);
  soc->RegisterOnPort(&consumer, 1, 0);
  soc->RunCycles(2);
  bench::RunUntil(*soc, [&] { return consumer.words_read() >= 60 * burst; },
                  30000);
  return consumer.latency();
}

// A master that issues one timestamped posted write every `period` cycles.
class TimedWriter : public sim::Module {
 public:
  TimedWriter(std::string name, shells::MasterEndpoint* endpoint, int words,
              std::int64_t period, std::int64_t total)
      : sim::Module(std::move(name)),
        endpoint_(endpoint),
        words_(words),
        period_(period),
        total_(total) {}

  void Evaluate() override {
    if (issued_ >= total_) return;
    if (CycleCount() < next_) return;
    if (!endpoint_->CanIssue(words_)) return;
    std::vector<Word> data(static_cast<std::size_t>(words_),
                           static_cast<Word>(CycleCount()));
    endpoint_->IssueWrite(0x40, data, /*needs_ack=*/false, 0);
    ++issued_;
    next_ = CycleCount() + period_;
  }

 private:
  shells::MasterEndpoint* endpoint_;
  int words_;
  std::int64_t period_, total_;
  std::int64_t issued_ = 0;
  std::int64_t next_ = 0;
};

// Polls a slave shell and records message-completion latency against the
// timestamp carried in the write data.
class TimedReceiver : public sim::Module {
 public:
  TimedReceiver(std::string name, shells::SlaveShell* shell)
      : sim::Module(std::move(name)), shell_(shell) {}

  const Stats& latency() const { return latency_; }
  std::int64_t received() const { return latency_.count(); }

  void Evaluate() override {
    while (shell_->HasRequest()) {
      const auto req = shell_->PopRequest();
      latency_.Add(static_cast<double>(CycleCount()) -
                   static_cast<double>(req.data.at(0)));
    }
  }

 private:
  shells::SlaveShell* shell_;
  Stats latency_;
};

// Latency through a master shell and a slave shell. With `narrowcast`, the
// master shell holds a second connection, to a slave NI that maps its own
// range, so every write passes the address decode of paper Fig. 3 (a
// one-connection shell sends every address to its one slave undecoded).
Stats MeasureThroughShells(int words, bool narrowcast) {
  auto soc = bench::MakeStarSoc(narrowcast ? std::vector<int>{2, 1, 1}
                                           : std::vector<int>{1, 1},
                                /*queue_words=*/32);
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                      tdm::GlobalChannel{1, 0})
                      .ok());
  std::vector<int> connids = {0};
  if (narrowcast) {
    AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 1},
                                        tdm::GlobalChannel{2, 0})
                        .ok());
    connids.push_back(1);
  }
  shells::MasterShell master("m", soc->port(0, 0), connids);
  if (narrowcast) {
    // The other slave's range first, so the decode passes it on every write.
    AETHEREAL_CHECK(master.MapRange(0x1000, 0x1000, 1).ok());
    AETHEREAL_CHECK(master.MapRange(0, 0x1000, 0).ok());
  }
  shells::SlaveShell slave("s", soc->port(1, 0), 0);
  TimedWriter writer("w", &master, words, 60, 50);
  TimedReceiver receiver("r", &slave);
  soc->RegisterOnPort(&master, 0, 0);
  soc->RegisterOnPort(&slave, 1, 0);
  soc->RegisterOnPort(&writer, 0, 0);
  soc->RegisterOnPort(&receiver, 1, 0);
  soc->RunCycles(2);
  bench::RunUntil(*soc, [&] { return receiver.received() >= 50; }, 30000);
  return receiver.latency();
}

}  // namespace

int main() {
  std::cout << "bench_latency — reproduces paper §5 latency overhead (E2)\n";

  bench::PrintHeader(
      "E2a: flit-alignment spread (kernel 1-3 cycles)",
      "Raw channel latency vs message length: data is aligned to 3-word "
      "flit boundaries,\nso the per-word latency varies with length mod 3 "
      "(paper: 'between 1 and 3 cycles in the NI kernels').");
  Table align({"burst words", "min cyc", "mean cyc", "max cyc",
               "NI overhead (min, = min - transit)"});
  double raw_min_1word = 0;
  for (int burst : {1, 2, 3, 4, 5, 6, 9}) {
    const Stats stats = MeasureRawChannel(burst);
    if (burst == 1) raw_min_1word = stats.Min();
    align.AddRow({Table::Fmt(static_cast<std::int64_t>(burst)),
                  Table::Fmt(stats.Min(), 0), Table::Fmt(stats.Mean(), 1),
                  Table::Fmt(stats.Max(), 0),
                  Table::Fmt(stats.Min() - kTransitCycles, 0)});
  }
  align.Print(std::cout);

  bench::PrintHeader("E2b: shell pipeline stages",
                     "Added latency of the protocol shells over the raw "
                     "channel (paper: DTL master 2 cycles,\nnarrowcast 0-2 "
                     "cycles).");
  const Stats master_lat = MeasureThroughShells(1, /*narrowcast=*/false);
  const Stats ncast_lat = MeasureThroughShells(1, /*narrowcast=*/true);
  Table shells({"path", "min cyc", "added vs raw (paper)"});
  shells.AddRow({"raw channel (1 word)", Table::Fmt(raw_min_1word, 0), "-"});
  // Shell measurements deliver a 3-word message (hdr+addr+data), so align
  // against the raw 3-word burst minimum.
  const double raw3 = MeasureRawChannel(3).Min();
  shells.AddRow({"raw channel (3 words)", Table::Fmt(raw3, 0), "-"});
  shells.AddRow({"DTL master shell -> slave shell",
                 Table::Fmt(master_lat.Min(), 0),
                 Table::Fmt(master_lat.Min() - raw3, 0) + "  (paper: 2 + deseq)"});
  shells.AddRow({"narrowcast -> slave shell", Table::Fmt(ncast_lat.Min(), 0),
                 Table::Fmt(ncast_lat.Min() - master_lat.Min(), 0) +
                     "  (paper: 0-2)"});
  shells.Print(std::cout);

  bench::PrintHeader(
      "E2c: total NI overhead",
      "Paper: 'The resulting latency overhead introduced by our NI is "
      "between 4 and 10 cycles, which is pipelined.'");
  Table total({"quantity", "paper", "measured"});
  const Stats raw1 = MeasureRawChannel(1);
  total.AddRow({"kernel + 2x CDC overhead, best case (cycles)", "3..5",
                Table::Fmt(raw1.Min() - kTransitCycles, 0)});
  total.AddRow({"kernel + 2x CDC overhead, worst case (cycles)", "5..7",
                Table::Fmt(raw1.Max() - kTransitCycles, 0)});
  total.AddRow({"+ master shell, end-to-end overhead (cycles)", "4..10",
                Table::Fmt(master_lat.Min() - kTransitCycles, 0) + ".." +
                    Table::Fmt(master_lat.Max() - kTransitCycles, 0)});
  total.Print(std::cout);
  std::cout << "\n(transit = " << kTransitCycles
            << " cycles of link traversal, excluded by the paper as it is "
               "paid on a bus too)\n";
  return 0;
}
