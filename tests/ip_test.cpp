// Tests of the IP-module models: memory slave semantics (including locked
// accesses), traffic generators, and streaming producers/consumers.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>

#include "ip/memory_slave.h"
#include "ip/stream.h"
#include "ip/traffic_gen.h"
#include "scenario/patterns.h"
#include "scenario/wiring.h"
#include "shells/master_shell.h"
#include "shells/slave_shell.h"
#include "soc/soc.h"
#include "topology/builders.h"

#include "park_watcher.h"
#include "poll.h"

namespace aethereal::ip {
namespace {

using tdm::GlobalChannel;
using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

// A fake endpoint driving the MemorySlave directly (no NoC). Like a shell,
// it wakes the bound memory for every request it hands over.
class FakeSlaveEndpoint : public shells::SlaveEndpoint {
 public:
  void BindIp(sim::Module* ip) override { ip_ = ip; }
  void Push(RequestMessage msg) {
    requests_.push_back(std::move(msg));
    ip_->Wake();
  }
  bool HasRequest() const override { return !requests_.empty(); }
  RequestMessage PopRequest() override {
    RequestMessage msg = requests_.front();
    requests_.pop_front();
    return msg;
  }
  bool CanRespond(int) const override { return true; }
  void Respond(const ResponseMessage& msg) override {
    responses_.push_back(msg);
  }

  std::deque<ResponseMessage> responses_;

 private:
  sim::Module* ip_ = nullptr;
  std::deque<RequestMessage> requests_;
};

RequestMessage Write(Word addr, std::vector<Word> data) {
  RequestMessage msg;
  msg.cmd = Command::kWrite;
  msg.address = addr;
  msg.data = std::move(data);
  msg.flags = transaction::kFlagNeedsAck;
  return msg;
}

RequestMessage Read(Word addr, int length) {
  RequestMessage msg;
  msg.cmd = Command::kRead;
  msg.address = addr;
  msg.read_length = length;
  return msg;
}

class MemorySlaveDirect : public ::testing::Test {
 protected:
  MemorySlaveDirect()
      : memory_("mem", &endpoint_, 0x100, 64, /*latency=*/0) {
    clock_ = sim_.AddClock("clk", 1000);
    clock_->Register(&memory_);
  }
  void Run(int cycles) { sim_.RunCycles(clock_, cycles); }

  sim::Kernel sim_;
  sim::Clock* clock_;
  FakeSlaveEndpoint endpoint_;
  MemorySlave memory_;
};

TEST_F(MemorySlaveDirect, BurstWriteRead) {
  endpoint_.Push(Write(0x100, {1, 2, 3, 4}));
  endpoint_.Push(Read(0x102, 2));
  Run(6);
  ASSERT_EQ(endpoint_.responses_.size(), 2u);
  EXPECT_TRUE(endpoint_.responses_[0].is_write_ack);
  EXPECT_EQ(endpoint_.responses_[1].data, (std::vector<Word>{3, 4}));
}

TEST_F(MemorySlaveDirect, RangeChecks) {
  endpoint_.Push(Write(0x90, {1}));      // below base
  endpoint_.Push(Write(0x13F, {1, 2}));  // straddles end
  endpoint_.Push(Read(0x140, 1));        // past end
  Run(8);
  ASSERT_EQ(endpoint_.responses_.size(), 3u);
  for (const auto& rsp : endpoint_.responses_) {
    EXPECT_EQ(rsp.error, ResponseError::kUnmappedAddress);
  }
}

TEST_F(MemorySlaveDirect, ServiceLatencyDelaysResponse) {
  sim::Kernel sim;
  sim::Clock* clock = sim.AddClock("clk", 1000);
  FakeSlaveEndpoint endpoint;
  MemorySlave slow("slow", &endpoint, 0, 16, /*latency=*/10);
  clock->Register(&slow);
  endpoint.Push(Read(0x0, 1));
  sim.RunCycles(clock, 5);
  EXPECT_TRUE(endpoint.responses_.empty());
  sim.RunCycles(clock, 10);
  EXPECT_EQ(endpoint.responses_.size(), 1u);
}

TEST_F(MemorySlaveDirect, WriteConditionalRequiresReservation) {
  RequestMessage wc;
  wc.cmd = Command::kWriteConditional;
  wc.address = 0x100;
  wc.data = {42};
  wc.flags = transaction::kFlagNeedsAck;
  endpoint_.Push(wc);
  Run(4);
  ASSERT_EQ(endpoint_.responses_.size(), 1u);
  EXPECT_EQ(endpoint_.responses_[0].error, ResponseError::kConditionalFail);
}

TEST_F(MemorySlaveDirect, ReadLinkedGrantsReservation) {
  RequestMessage rl;
  rl.cmd = Command::kReadLinked;
  rl.address = 0x100;
  rl.read_length = 1;
  endpoint_.Push(rl);
  RequestMessage wc;
  wc.cmd = Command::kWriteConditional;
  wc.address = 0x100;
  wc.data = {42};
  wc.flags = transaction::kFlagNeedsAck;
  endpoint_.Push(wc);
  Run(6);
  ASSERT_EQ(endpoint_.responses_.size(), 2u);
  EXPECT_EQ(endpoint_.responses_[1].error, ResponseError::kOk);
  EXPECT_EQ(memory_.Load(0x100), 42u);
}

core::NiKernelParams OneChannelNi() {
  core::NiKernelParams params;
  core::PortParams port;
  port.channels.push_back(core::ChannelParams{});
  params.ports.push_back(port);
  return params;
}

TEST(TrafficGen, ClosedLoopCompletesAndMeasuresLatency) {
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
  soc::Soc soc(std::move(star.topology), std::move(params));
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());

  shells::MasterShell master("master", soc.port(0, 0), 0);
  shells::SlaveShell slave("slave", soc.port(1, 0), 0);
  MemorySlave memory("memory", &slave, 0, 1024);
  TrafficPattern pattern;
  pattern.kind = TrafficPattern::Kind::kClosedLoop;
  pattern.read_fraction = 1.0;
  pattern.burst_words = 2;
  pattern.address_range = 1022;
  pattern.max_transactions = 25;
  pattern.max_outstanding = 1;
  TrafficGenMaster gen("gen", &master, pattern, /*seed=*/42);
  soc.RegisterOnPort(&master, 0, 0);
  soc.RegisterOnPort(&slave, 1, 0);
  soc.RegisterOnPort(&memory, 1, 0);
  soc.RegisterOnPort(&gen, 0, 0);
  soc.RunCycles(2);

  Cycle spent = 0;
  while (!gen.Done() && spent < 30000) {
    soc.RunCycles(50);
    spent += 50;
  }
  ASSERT_TRUE(gen.Done());
  EXPECT_EQ(gen.issued(), 25);
  EXPECT_EQ(gen.completed(), 25);
  EXPECT_EQ(gen.latency().count(), 25);
  // Read latency must at least cover the NI pipeline both ways.
  EXPECT_GE(gen.latency().Min(), 8.0);
}

TEST(TrafficGen, BernoulliRespectsOutstandingLimit) {
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
  soc::Soc soc(std::move(star.topology), std::move(params));
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  shells::MasterShell master("master", soc.port(0, 0), 0);
  shells::SlaveShell slave("slave", soc.port(1, 0), 0);
  MemorySlave memory("memory", &slave, 0, 1024);
  TrafficPattern pattern;
  pattern.kind = TrafficPattern::Kind::kBernoulli;
  pattern.rate = 0.5;
  pattern.read_fraction = 0.0;
  pattern.acked_writes = true;
  pattern.burst_words = 1;
  pattern.max_outstanding = 2;
  pattern.max_transactions = 40;
  TrafficGenMaster gen("gen", &master, pattern, /*seed=*/7);
  soc.RegisterOnPort(&master, 0, 0);
  soc.RegisterOnPort(&slave, 1, 0);
  soc.RegisterOnPort(&memory, 1, 0);
  soc.RegisterOnPort(&gen, 0, 0);
  soc.RunCycles(2);

  Cycle spent = 0;
  while (!gen.Done() && spent < 60000) {
    soc.RunCycles(50);
    spent += 50;
    EXPECT_LE(gen.outstanding(), 2);
  }
  ASSERT_TRUE(gen.Done());
  EXPECT_EQ(gen.completed(), 40);
}

// The transaction schedule every memory master and slave keeps: the cycles
// on which each master issues and completes transactions and each memory
// serves reads and writes, stepped one network cycle at a time on both
// engines. One string per counter, one character per cycle (the count's
// growth in that cycle). Covers closed-loop, periodic and Bernoulli masters,
// acknowledged and posted writes (so one-word acks cross the NoC), service
// latencies 0 and 3, a master silenced and restarted between cycles, and a
// master shell that test code drives between cycles.
constexpr int kTransactionSteps = 700;

struct TransactionSchedule {
  std::vector<std::string> counters;
  std::vector<std::int64_t> totals;
};

TransactionSchedule RecordTransactions(sim::EngineKind engine) {
  soc::SocOptions options;
  options.engine = engine;
  constexpr NiId kPairs = 4;
  auto soc = scenario::MakeMeshSoc(2, 2, /*nis_per_router=*/2,
                                   /*channels_per_ni=*/1, /*queue_words=*/8,
                                   options);
  for (NiId i = 0; i < kPairs; ++i) {
    EXPECT_TRUE(soc->OpenConnection(GlobalChannel{i, 0},
                                    GlobalChannel{i + kPairs, 0})
                    .ok());
  }
  std::vector<std::unique_ptr<shells::MasterShell>> masters;
  std::vector<std::unique_ptr<shells::SlaveShell>> slaves;
  std::vector<std::unique_ptr<MemorySlave>> memories;
  for (NiId i = 0; i < kPairs; ++i) {
    masters.push_back(std::make_unique<shells::MasterShell>(
        "master_shell", soc->port(i, 0), 0));
    slaves.push_back(std::make_unique<shells::SlaveShell>(
        "slave_shell", soc->port(i + kPairs, 0), 0));
    memories.push_back(std::make_unique<MemorySlave>(
        "memory", slaves.back().get(), 0, 256,
        /*service_latency_cycles=*/i % 2 == 0 ? 0 : 3));
  }
  TrafficPattern closed;
  closed.kind = TrafficPattern::Kind::kClosedLoop;
  closed.read_fraction = 0.5;
  closed.burst_words = 2;
  closed.address_range = 200;
  TrafficPattern periodic;
  periodic.kind = TrafficPattern::Kind::kFixedPeriod;
  periodic.period = 9;
  periodic.read_fraction = 0.3;
  periodic.acked_writes = false;
  periodic.burst_words = 3;
  periodic.address_range = 200;
  TrafficPattern bernoulli;
  bernoulli.kind = TrafficPattern::Kind::kBernoulli;
  bernoulli.rate = 0.08;
  bernoulli.read_fraction = 0.2;
  bernoulli.burst_words = 1;
  bernoulli.max_outstanding = 2;
  bernoulli.address_range = 200;
  TrafficGenMaster gen0("closed", masters[0].get(), closed, /*seed=*/21);
  TrafficGenMaster gen1("periodic", masters[1].get(), periodic, /*seed=*/22);
  TrafficGenMaster gen2("bernoulli", masters[2].get(), bernoulli,
                        /*seed=*/23);
  std::vector<TrafficGenMaster*> gens = {&gen0, &gen1, &gen2};
  for (NiId i = 0; i < kPairs; ++i) {
    soc->RegisterOnPort(masters[static_cast<std::size_t>(i)].get(), i, 0);
    if (i < 3) soc->RegisterOnPort(gens[static_cast<std::size_t>(i)], i, 0);
    soc->RegisterOnPort(slaves[static_cast<std::size_t>(i)].get(),
                        i + kPairs, 0);
    soc->RegisterOnPort(memories[static_cast<std::size_t>(i)].get(),
                        i + kPairs, 0);
  }
  shells::MasterShell& driven = *masters[3];

  auto counters = [&] {
    std::vector<std::int64_t> c;
    for (const TrafficGenMaster* g : gens) {
      c.push_back(g->issued());
      c.push_back(g->completed());
    }
    for (const auto& m : memories) {
      c.push_back(m->reads_served());
      c.push_back(m->writes_served());
    }
    return c;
  };
  TransactionSchedule schedule;
  schedule.counters.resize(counters().size());
  int driven_responses = 0;
  for (int step = 0; step < kTransactionSteps; ++step) {
    // Silenced mid-run (outstanding responses still drain), restarted
    // from the new origin.
    if (step == 200) gen1.Deactivate();
    if (step == 330) gen1.Activate(soc->port_clock(1, 0)->cycles());
    if (step == 250) gen2.Deactivate();
    if (step == 260) gen2.Activate(soc->port_clock(2, 0)->cycles());
    // Test code issuing between cycles, as an application would.
    if (step % 97 == 5 && driven.CanIssue(2)) {
      driven.IssueWrite(static_cast<Word>(step % 64), {Word(step), 7},
                        /*needs_ack=*/step % 2 == 1, /*tid=*/step % 16);
    }
    if (step % 97 == 50 && driven.CanIssue()) {
      driven.IssueRead(static_cast<Word>(step % 64), 2, /*tid=*/3);
    }
    while (driven.HasResponse()) {
      driven.PopResponse();
      ++driven_responses;
    }
    const std::vector<std::int64_t> before = counters();
    soc->RunCycles(1);
    const std::vector<std::int64_t> after = counters();
    for (std::size_t i = 0; i < after.size(); ++i) {
      schedule.counters[i] += static_cast<char>('0' + (after[i] - before[i]));
    }
  }
  schedule.totals = counters();
  schedule.totals.push_back(driven_responses);
  return schedule;
}

TEST(TrafficGen, MastersAndMemoriesKeepTheirTransactionSchedule) {
  const TransactionSchedule naive = RecordTransactions(sim::EngineKind::kNaive);
  const TransactionSchedule soa = RecordTransactions(sim::EngineKind::kSoa);
  ASSERT_EQ(naive.counters.size(), soa.counters.size());
  for (std::size_t i = 0; i < naive.counters.size(); ++i) {
    EXPECT_EQ(soa.counters[i], naive.counters[i]) << "counter " << i;
  }
  // Issued/completed per master, then reads/writes served per memory, then
  // the driven master's responses.
  const std::vector<std::int64_t> expected = {12, 11, 53, 12, 25, 23, 7, 5,
                                              12, 24, 10, 15, 7, 7, 11};
  EXPECT_EQ(naive.totals, expected);
  EXPECT_EQ(soa.totals, expected);
}

// The injection schedule every stream source keeps: the cycles on which
// each source writes a word, stepped one network cycle at a time on both
// engines. One string per source, one character per cycle ('1': a word
// written in that cycle). Covers the seeded scenario processes (periodic,
// bursty, Bernoulli, each with its phase offset), a burst larger than its
// period (the backlog grows and the port backpressures), a word cap, and
// silencing and restarting a source between cycles.
constexpr int kScheduleSteps = 96;

std::vector<std::string> RecordSchedules(sim::EngineKind engine) {
  soc::SocOptions options;
  options.engine = engine;
  constexpr NiId kSources = 7;
  auto soc = scenario::MakeMeshSoc(2, 4, /*nis_per_router=*/2,
                                   /*channels_per_ni=*/1, /*queue_words=*/8,
                                   options);
  for (NiId i = 0; i < kSources; ++i) {
    EXPECT_TRUE(soc->OpenConnection(GlobalChannel{i, 0},
                                    GlobalChannel{i + kSources, 0})
                    .ok());
  }
  auto traffic = [](scenario::InjectKind kind) {
    scenario::TrafficSpec t;
    t.inject = kind;
    return t;
  };
  scenario::TrafficSpec periodic = traffic(scenario::InjectKind::kPeriodic);
  periodic.period = 5;
  scenario::TrafficSpec bursty = traffic(scenario::InjectKind::kBursty);
  bursty.burst_words = 3;
  bursty.gap_cycles = 4;
  scenario::TrafficSpec bernoulli = traffic(scenario::InjectKind::kBernoulli);
  bernoulli.rate = 0.3;
  scenario::TrafficSpec phased = traffic(scenario::InjectKind::kPeriodic);
  phased.period = 6;

  // Scenario sources draw their phase offset, then their Bernoulli gaps,
  // from one per-flow seed.
  auto seeded = [&](const char* name, NiId ni,
                    const scenario::TrafficSpec& t, std::uint64_t seed) {
    Rng rng(seed);
    const Injection injection = scenario::StreamInjection(t, rng);
    return StreamSource(name, soc->port(ni, 0), 0, injection, rng);
  };
  StreamSource s0 = seeded("periodic", 0, periodic, 11);
  StreamSource s1 = seeded("bursty", 1, bursty, 12);
  StreamSource s2 = seeded("bernoulli", 2, bernoulli, 13);
  StreamSource s3("backlog", soc->port(3, 0), 0,
                  Injection{.period = 2, .words = 5});
  StreamSource s4("capped", soc->port(4, 0), 0,
                  Injection{.period = 3, .words = 2, .total_words = 7});
  StreamSource s5("restarted", soc->port(5, 0), 0, Injection{.period = 4});
  StreamSource s6 = seeded("reactivated", 6, phased, 14);
  std::vector<std::unique_ptr<StreamConsumer>> sinks;
  for (NiId i = 0; i < kSources; ++i) {
    sinks.push_back(std::make_unique<StreamConsumer>(
        "sink", soc->port(i + kSources, 0), 0));
    soc->RegisterOnPort(sinks.back().get(), i + kSources, 0);
  }
  soc->RegisterOnPort(&s0, 0, 0);
  soc->RegisterOnPort(&s1, 1, 0);
  soc->RegisterOnPort(&s2, 2, 0);
  soc->RegisterOnPort(&s3, 3, 0);
  soc->RegisterOnPort(&s4, 4, 0);
  soc->RegisterOnPort(&s5, 5, 0);
  soc->RegisterOnPort(&s6, 6, 0);

  auto written = [&] {
    return std::vector<std::int64_t>{
        s0.words_written(), s1.words_written(), s2.words_written(),
        s3.words_written(), s4.words_written(), s5.words_written(),
        s6.words_written()};
  };
  std::vector<std::string> schedules(kSources);
  for (int step = 0; step < kScheduleSteps; ++step) {
    // Silenced with an empty backlog, restarted after its pending event.
    if (step == 30) s5.Deactivate();
    if (step == 50) s5.Activate(soc->port_clock(5, 0)->cycles());
    // Silenced mid-run, restarted at its seeded phase from the new origin.
    if (step == 40) s6.Deactivate();
    if (step == 61) s6.Activate(soc->port_clock(6, 0)->cycles());
    const std::vector<std::int64_t> before = written();
    soc->RunCycles(1);
    const std::vector<std::int64_t> after = written();
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      schedules[i] += static_cast<char>('0' + (after[i] - before[i]));
    }
  }
  EXPECT_EQ(s4.words_written(), 7);
  return schedules;
}

TEST(Stream, SourcesKeepTheirInjectionSchedule) {
  const std::vector<std::string> expected = {
      // periodic
      "100001000010000100001000010000100001000010000100"
      "001000010000100001000010000100001000010000100001",
      // bursty
      "011100001110000111000011100001110000100000001100"
      "001000001101000001001000000000000001100001001101",
      // bernoulli
      "100001000000000110010110010010100101000011100100"
      "000000001000001000001000000001000001100001000001",
      // backlog
      "111111111111001101100000000000000000000000001000"
      "001100001000001100001100000000001000001100000001",
      // capped
      "110110110100000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000000000",
      // restarted
      "100010001000100010001000100010000000000000000000"
      "001000100010001000100010001000100010001000100010",
      // reactivated
      "010000010000010000010000010000010000010000000000"
      "000000000000001000001000001000001000001000001000",
  };
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    const std::vector<std::string> schedules = RecordSchedules(engine);
    ASSERT_EQ(schedules.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(schedules[i], expected[i]) << "source " << i;
    }
  }
}

TEST(Stream, ProducerConsumerLatencyAndOrder) {
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
  soc::Soc soc(std::move(star.topology), std::move(params));
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());

  StreamSource producer("producer", soc.port(0, 0), 0,
                        Injection{.period = 4, .total_words = 100});
  StreamConsumer consumer("consumer", soc.port(1, 0), 0);
  soc.RegisterOnPort(&producer, 0, 0);
  soc.RegisterOnPort(&consumer, 1, 0);
  soc.RunCycles(2);

  Cycle spent = 0;
  while (consumer.words_read() < 100 && spent < 20000) {
    soc.RunCycles(50);
    spent += 50;
  }
  ASSERT_EQ(consumer.words_read(), 100);
  EXPECT_TRUE(producer.Done());
  // NI pipeline + 1 router hop: latency is bounded and positive.
  EXPECT_GE(consumer.latency().Min(), 5.0);
  EXPECT_LE(consumer.latency().Max(), 100.0);
}

// A consumer that also records the cycle of every word it reads.
class RecordingConsumer : public StreamConsumer {
 public:
  using StreamConsumer::StreamConsumer;
  void Evaluate() override {
    const std::int64_t before = words_read();
    StreamConsumer::Evaluate();
    for (std::int64_t i = before; i < words_read(); ++i) {
      arrivals.push_back(CycleCount());
    }
  }
  std::vector<Cycle> arrivals;
};

// The consumer counts its inter-arrival gaps instead of keeping one sample
// per word; their mean, p99 and max equal a recomputation over the gaps
// of the same run. Bernoulli bursts drained two words a cycle give gaps
// of zero, one and many cycles.
TEST(Stream, ConsumerInterArrivalCountsMatchTheGaps) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    auto star = topology::BuildStar(2);
    std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
    soc::SocOptions options;
    options.engine = engine;
    soc::Soc soc(std::move(star.topology), std::move(params), options);
    ASSERT_TRUE(
        soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    StreamSource source("source", soc.port(0, 0), 0,
                        Injection{.period = 2, .words = 3, .rate = 0.05},
                        Rng(77));
    RecordingConsumer consumer("consumer", soc.port(1, 0), 0, 2);
    soc.RegisterOnPort(&source, 0, 0);
    soc.RegisterOnPort(&consumer, 1, 0);
    soc.RunCycles(6000);
    ASSERT_GT(consumer.words_read(), 200);
    ASSERT_EQ(static_cast<std::int64_t>(consumer.arrivals.size()),
              consumer.words_read());

    std::vector<double> gaps;
    double sum = 0;
    for (std::size_t i = 1; i < consumer.arrivals.size(); ++i) {
      gaps.push_back(
          static_cast<double>(consumer.arrivals[i] - consumer.arrivals[i - 1]));
      sum += gaps.back();
    }
    std::sort(gaps.begin(), gaps.end());
    ASSERT_EQ(gaps.front(), 0.0);
    const CycleCounts& counted = consumer.inter_arrival();
    ASSERT_EQ(counted.count(), static_cast<std::int64_t>(gaps.size()));
    EXPECT_EQ(counted.Mean(), sum / static_cast<double>(gaps.size()));
    EXPECT_EQ(counted.Tail().p99, SortedPercentile(gaps, 99));
    EXPECT_EQ(counted.Max(), gaps.back());
  }
}

TEST(Stream, SequenceModeDetectsNoErrorsOnCleanChannel) {
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
  soc::Soc soc(std::move(star.topology), std::move(params));
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  StreamSource producer("producer", soc.port(0, 0), 0,
                        Injection{.period = 1, .total_words = 300});
  StreamConsumer consumer("consumer", soc.port(1, 0), 0, 1);
  soc.RegisterOnPort(&producer, 0, 0);
  soc.RegisterOnPort(&consumer, 1, 0);
  soc.RunCycles(2);
  Cycle spent = 0;
  while (consumer.words_read() < 300 && spent < 30000) {
    soc.RunCycles(50);
    spent += 50;
  }
  ASSERT_EQ(consumer.words_read(), 300);
  EXPECT_EQ(consumer.sequence_errors(), 0);
}

// Writes a fixed list of words on one channel, one per cycle.
class ScriptedWriter : public sim::Module {
 public:
  ScriptedWriter(core::NiPort* port, std::vector<Word> words)
      : sim::Module("writer"), port_(port), words_(std::move(words)) {}
  void Evaluate() override {
    if (next_ < words_.size() && port_->CanWrite(0)) {
      port_->Write(0, words_[next_++]);
    }
  }

 private:
  core::NiPort* port_;
  std::vector<Word> words_;
  std::size_t next_ = 0;
};

// A source parks in the evaluation that writes its burst's last word
// (soa; the naive engine never parks), and its timer brings it back for
// the next burst.
TEST(Stream, SourceParksWithItsBurstsLastWord) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    auto star = topology::BuildStar(2);
    std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
    soc::SocOptions options;
    options.engine = engine;
    soc::Soc soc(std::move(star.topology), std::move(params), options);
    ASSERT_TRUE(
        soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    StreamSource source("source", soc.port(0, 0), 0,
                        Injection{.period = 40, .words = 3});
    soc.RegisterOnPort(&source, 0, 0);
    auto run = [&](Cycle n) { soc.RunCycles(n); };
    ASSERT_TRUE(PollUntil([&] { return source.words_written() == 3; }, run, 1,
                          40));
    EXPECT_EQ(source.parked(), engine == sim::EngineKind::kSoa);
    ASSERT_TRUE(PollUntil([&] { return source.words_written() == 6; }, run, 1,
                          60));
    EXPECT_EQ(source.parked(), engine == sim::EngineKind::kSoa);
  }
}

// A consumer parks in the evaluation whose read empties its queue.
TEST(Stream, ConsumerParksWithTheReadThatEmptiesItsQueue) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    auto star = topology::BuildStar(2);
    std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
    soc::SocOptions options;
    options.engine = engine;
    soc::Soc soc(std::move(star.topology), std::move(params), options);
    ASSERT_TRUE(
        soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    ScriptedWriter writer(soc.port(0, 0), {7, 8});
    StreamConsumer consumer("consumer", soc.port(1, 0), 0);
    soc.RegisterOnPort(&writer, 0, 0);
    soc.RegisterOnPort(&consumer, 1, 0);
    ASSERT_TRUE(PollUntil([&] { return consumer.words_read() == 2; },
                          [&](Cycle n) { soc.RunCycles(n); }, 1, 200));
    EXPECT_EQ(consumer.parked(), engine == sim::EngineKind::kSoa);
    EXPECT_EQ(consumer.sequence_errors(), 0);
  }
}

TEST(Stream, ConsumerCountsStampsThatDoNotIncrease) {
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
  soc::Soc soc(std::move(star.topology), std::move(params));
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
  // A repeated stamp and a stamp below its predecessor: two errors.
  ScriptedWriter writer(soc.port(0, 0), {4, 7, 7, 2, 9});
  StreamConsumer consumer("consumer", soc.port(1, 0), 0);
  soc.RegisterOnPort(&writer, 0, 0);
  soc.RegisterOnPort(&consumer, 1, 0);
  soc.RunCycles(200);
  ASSERT_EQ(consumer.words_read(), 5);
  EXPECT_EQ(consumer.sequence_errors(), 2);
}

// Reads one word every `every` cycles from cycle `from` on.
class SlowReader : public sim::Module {
 public:
  SlowReader(core::NiPort* port, Cycle from, Cycle every)
      : sim::Module("reader"), port_(port), from_(from), every_(every) {}
  void Evaluate() override {
    const Cycle t = CycleCount();
    if (t < from_ || (t - from_) % every_ != 0) return;
    if (port_->ReadAvailable(0) > 0) (void)port_->Read(0);
  }

 private:
  core::NiPort* port_;
  Cycle from_;
  Cycle every_;
};

// A source whose bursts outrun a slowly drained channel spends most cycles
// blocked on a full source queue. Blocked, it sleeps until the queue frees
// space or its next injection event (soa), so every evaluation writes a
// word or takes an event, and it writes on the same cycles as naive.
TEST(Stream, SourceBlockedOnAFullQueueSleepsUntilSpace) {
  constexpr Cycle kPeriod = 50;
  std::string schedules[2];
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    const bool soa = engine == sim::EngineKind::kSoa;
    auto star = topology::BuildStar(2);
    std::vector<core::NiKernelParams> params{OneChannelNi(), OneChannelNi()};
    soc::SocOptions options;
    options.engine = engine;
    soc::Soc soc(std::move(star.topology), std::move(params), options);
    ASSERT_TRUE(
        soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}).ok());
    StreamSource source("source", soc.port(0, 0), 0,
                        Injection{.period = kPeriod, .words = 30});
    ParkWatcher watcher(&source);
    SlowReader reader(soc.port(1, 0), /*from=*/120, /*every=*/7);
    soc.RegisterOnPort(&watcher, 0, 0);
    soc.RegisterOnPort(&source, 0, 0);
    soc.RegisterOnPort(&reader, 1, 0);
    const sim::Clock* clock = soc.port_clock(0, 0);
    std::vector<Cycle> writes;
    for (Cycle step = 0; step < 600; ++step) {
      const std::int64_t before = source.words_written();
      const Cycle t = clock->cycles();
      soc.RunCycles(1);
      if (source.words_written() != before) writes.push_back(t);
      schedules[soa ? 1 : 0] += source.words_written() != before ? '1' : '0';
    }
    ASSERT_GT(writes.size(), 40u);
    if (!soa) continue;
    int blocked_wakes = 0;
    for (Cycle t : watcher.awake) {
      const bool wrote =
          std::binary_search(writes.begin(), writes.end(), t);
      EXPECT_TRUE(wrote || t % kPeriod == 0) << "no-op evaluation at " << t;
      if (wrote && t % kPeriod != 0 &&
          !std::binary_search(writes.begin(), writes.end(), t - 1)) {
        ++blocked_wakes;  // woken by freed space after a blocked wait
      }
    }
    EXPECT_GT(blocked_wakes, 10);
  }
  EXPECT_EQ(schedules[0], schedules[1]);
}

}  // namespace
}  // namespace aethereal::ip
