// Tests of the IP-module models: memory slave semantics (including locked
// accesses), traffic generators, and streaming producers/consumers.
#include <gtest/gtest.h>

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

namespace aethereal::ip {
namespace {

using tdm::GlobalChannel;
using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

// A fake endpoint driving the MemorySlave directly (no NoC).
class FakeSlaveEndpoint : public shells::SlaveEndpoint {
 public:
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

  std::deque<RequestMessage> requests_;
  std::deque<ResponseMessage> responses_;
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
  endpoint_.requests_.push_back(Write(0x100, {1, 2, 3, 4}));
  endpoint_.requests_.push_back(Read(0x102, 2));
  Run(6);
  ASSERT_EQ(endpoint_.responses_.size(), 2u);
  EXPECT_TRUE(endpoint_.responses_[0].is_write_ack);
  EXPECT_EQ(endpoint_.responses_[1].data, (std::vector<Word>{3, 4}));
}

TEST_F(MemorySlaveDirect, RangeChecks) {
  endpoint_.requests_.push_back(Write(0x90, {1}));        // below base
  endpoint_.requests_.push_back(Write(0x13F, {1, 2}));    // straddles end
  endpoint_.requests_.push_back(Read(0x140, 1));          // past end
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
  endpoint.requests_.push_back(Read(0x0, 1));
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
  endpoint_.requests_.push_back(wc);
  Run(4);
  ASSERT_EQ(endpoint_.responses_.size(), 1u);
  EXPECT_EQ(endpoint_.responses_[0].error, ResponseError::kConditionalFail);
}

TEST_F(MemorySlaveDirect, ReadLinkedGrantsReservation) {
  RequestMessage rl;
  rl.cmd = Command::kReadLinked;
  rl.address = 0x100;
  rl.read_length = 1;
  endpoint_.requests_.push_back(rl);
  RequestMessage wc;
  wc.cmd = Command::kWriteConditional;
  wc.address = 0x100;
  wc.data = {42};
  wc.flags = transaction::kFlagNeedsAck;
  endpoint_.requests_.push_back(wc);
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

}  // namespace
}  // namespace aethereal::ip
