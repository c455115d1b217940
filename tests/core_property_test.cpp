// Property sweeps over the NI-kernel configuration space: for every
// combination of queue depth, traffic class, thresholds, packet-length
// limit and port-clock ratio, the channel must deliver every word exactly
// once, in order, and recycle all its credits.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "ip/stream.h"
#include "soc/soc.h"
#include "topology/builders.h"

namespace aethereal::core {
namespace {

struct SweepCase {
  int queue_words;
  bool gt;
  int gt_slots;
  int data_threshold;
  int credit_threshold;
  int max_packet_flits;
  double port_mhz;

  std::string Name() const {
    std::ostringstream oss;
    oss << "q" << queue_words << (gt ? "_gt" : "_be") << gt_slots << "_dt"
        << data_threshold << "_ct" << credit_threshold << "_mp"
        << max_packet_flits << "_mhz" << static_cast<int>(port_mhz);
    return oss.str();
  }
};

class KernelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KernelSweep, DeliversEverythingInOrderAndRecyclesCredits) {
  const SweepCase& c = GetParam();

  auto star = topology::BuildStar(2);
  std::vector<NiKernelParams> params;
  for (int n = 0; n < 2; ++n) {
    NiKernelParams p;
    p.max_packet_flits = c.max_packet_flits;
    PortParams port;
    port.channels.push_back(ChannelParams{c.queue_words, c.queue_words, 1});
    p.ports.push_back(port);
    params.push_back(p);
  }
  soc::SocOptions options;
  if (c.port_mhz != 500.0) {
    options.port_mhz[{0, 0}] = c.port_mhz;
    options.port_mhz[{1, 0}] = c.port_mhz;
  }
  soc::Soc soc(std::move(star.topology), std::move(params), options);

  config::ChannelQos forward;
  forward.gt = c.gt;
  forward.gt_slots = c.gt_slots;
  forward.data_threshold = c.data_threshold;
  config::ChannelQos reverse;
  reverse.credit_threshold = c.credit_threshold;
  ASSERT_TRUE(soc.OpenConnection(tdm::GlobalChannel{0, 0},
                                 tdm::GlobalChannel{1, 0}, forward, reverse)
                  .ok());

  constexpr std::int64_t kWords = 400;
  ip::StreamSource producer("p", soc.port(0, 0), 0,
                            ip::Injection{.period = 1, .total_words = kWords});
  ip::StreamConsumer consumer("c", soc.port(1, 0), 0, 1);
  soc.RegisterOnPort(&producer, 0, 0);
  soc.RegisterOnPort(&consumer, 1, 0);
  soc.RunCycles(2);

  Cycle spent = 0;
  const Cycle budget = 400000;
  while (consumer.words_read() < kWords && spent < budget) {
    soc.RunCycles(200);
    spent += 200;
  }
  // Everything delivered exactly once, in order.
  ASSERT_EQ(consumer.words_read(), kWords) << c.Name();
  EXPECT_EQ(consumer.sequence_errors(), 0) << c.Name();
  EXPECT_EQ(soc.ni(0)->stats().payload_words_sent,
            soc.ni(1)->stats().payload_words_received);
  // After draining, all credits return to the producer side.
  soc.RunCycles(3000);
  EXPECT_EQ(soc.ni(0)->SpaceOf(0), c.queue_words) << c.Name();
  // No packet is ever longer than the configured maximum.
  const auto& stats = soc.ni(0)->stats();
  const auto packets = c.gt ? stats.gt_packets : stats.be_packets;
  ASSERT_GT(packets, 0);
  const double mean_payload =
      static_cast<double>(stats.payload_words_sent) / packets;
  EXPECT_LE(mean_payload, c.max_packet_flits * kFlitWords - 1) << c.Name();
}

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  for (int queue : {4, 8, 16}) {
    for (bool gt : {false, true}) {
      cases.push_back(SweepCase{queue, gt, gt ? 2 : 0, 1, 1, 4, 500.0});
    }
  }
  // Threshold corners (data threshold must stay <= queue so a full queue
  // always becomes eligible).
  cases.push_back(SweepCase{8, false, 0, 4, 1, 4, 500.0});
  cases.push_back(SweepCase{8, false, 0, 8, 1, 4, 500.0});
  cases.push_back(SweepCase{8, false, 0, 1, 4, 4, 500.0});
  cases.push_back(SweepCase{8, false, 0, 1, 8, 4, 500.0});
  cases.push_back(SweepCase{8, false, 0, 4, 4, 4, 500.0});
  // Packet-length corners.
  cases.push_back(SweepCase{16, false, 0, 1, 1, 1, 500.0});
  cases.push_back(SweepCase{16, true, 4, 1, 1, 1, 500.0});
  cases.push_back(SweepCase{16, false, 0, 1, 1, 8, 500.0});
  // Cross-clock corners (slow ports, fast ports).
  cases.push_back(SweepCase{8, false, 0, 1, 1, 4, 125.0});
  cases.push_back(SweepCase{8, true, 4, 1, 1, 4, 125.0});
  cases.push_back(SweepCase{8, false, 0, 1, 1, 4, 1000.0});
  // GT slot-count corners.
  cases.push_back(SweepCase{8, true, 1, 1, 1, 4, 500.0});
  cases.push_back(SweepCase{8, true, 8, 1, 1, 4, 500.0});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, KernelSweep, ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return info.param.Name();
                         });

}  // namespace
}  // namespace aethereal::core
