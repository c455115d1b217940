// System-level tests on multi-hop topologies: GT circuits across meshes,
// BE wormhole under contention, mixed traffic isolation, and the analytic
// guarantee bounds of paper §2 (throughput = N*B_slot, latency <= slot wait
// + hops, jitter <= max slot gap).
#include <gtest/gtest.h>

#include <memory>

#include "analysis/area_model.h"
#include "config/connection_manager.h"
#include "ip/stream.h"
#include "soc/soc.h"
#include "topology/builders.h"

namespace aethereal::soc {
namespace {

using config::ChannelQos;
using tdm::GlobalChannel;

core::NiKernelParams NiWithChannels(int channels, int queue_words = 8) {
  core::NiKernelParams params;
  core::PortParams port;
  port.channels.assign(static_cast<std::size_t>(channels),
                       core::ChannelParams{queue_words, queue_words, 1});
  params.ports.push_back(port);
  return params;
}

TEST(SocMesh, GtStreamAcrossThreeHops) {
  auto mesh = topology::BuildMesh(2, 2, 1);
  std::vector<core::NiKernelParams> params(4, NiWithChannels(1, 16));
  Soc soc(std::move(mesh.topology), std::move(params));

  ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 4;
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{3, 0},
                                 gt, ChannelQos{})
                  .ok());

  ip::StreamProducer producer("producer", soc.port(0, 0), 0, /*period=*/3,
                              /*words=*/1, true, /*total=*/200);
  ip::StreamConsumer consumer("consumer", soc.port(3, 0), 0);
  soc.RegisterOnPort(&producer, 0, 0);
  soc.RegisterOnPort(&consumer, 3, 0);
  soc.RunCycles(2);
  Cycle spent = 0;
  while (consumer.words_read() < 200 && spent < 40000) {
    soc.RunCycles(60);
    spent += 60;
  }
  ASSERT_EQ(consumer.words_read(), 200);
  // All traffic was GT; the routers never buffered it.
  std::int64_t gt_flits = 0, be_flits = 0;
  for (RouterId r = 0; r < 4; ++r) {
    gt_flits += soc.router(r)->stats().gt_flits;
    be_flits += soc.router(r)->stats().be_flits;
  }
  EXPECT_GT(gt_flits, 0);
  EXPECT_GE(be_flits, 0);  // the reverse/credit direction is BE
  // The forward payload is carried exclusively by GT packets.
  EXPECT_GT(soc.ni(0)->stats().gt_packets, 0);
  EXPECT_EQ(soc.ni(0)->stats().be_packets, 0);
}

TEST(SocMesh, GtLatencyBoundHolds) {
  // Analytic bound (paper §2): wait for the reserved slot (<= max slot gap)
  // + one slot per hop, plus the NI pipeline overhead at both ends.
  auto mesh = topology::BuildMesh(2, 2, 1);
  std::vector<core::NiKernelParams> params(4, NiWithChannels(1, 16));
  Soc soc(std::move(mesh.topology), std::move(params));

  ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 2;
  gt.policy = tdm::AllocPolicy::kSpread;
  auto handle = soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{3, 0},
                                   gt, ChannelQos{});
  ASSERT_TRUE(handle.ok());

  ip::StreamProducer producer("producer", soc.port(0, 0), 0, /*period=*/12,
                              /*words=*/1, true, /*total=*/100);
  ip::StreamConsumer consumer("consumer", soc.port(3, 0), 0);
  soc.RegisterOnPort(&producer, 0, 0);
  soc.RegisterOnPort(&consumer, 3, 0);
  soc.RunCycles(2);
  Cycle spent = 0;
  while (consumer.words_read() < 100 && spent < 60000) {
    soc.RunCycles(60);
    spent += 60;
  }
  ASSERT_EQ(consumer.words_read(), 100);

  // Bound: CDC in (~3) + slot wait (max gap = 4 slots = 12 cyc) + packing
  // (3) + hops (3 hops * 3 cyc = 9) + CDC out (~3) + depack (3) = ~33.
  const int slots = 8;
  const int max_gap_slots = slots / gt.gt_slots;
  const int hops = 3;
  const double bound = 3 * (max_gap_slots + hops) + 15;
  EXPECT_LE(consumer.latency().Max(), bound);
}

TEST(SocMesh, BeTrafficCrossesMeshUnderContention) {
  // Four NIs all streaming BE to the diagonally opposite NI.
  auto mesh = topology::BuildMesh(2, 2, 1);
  std::vector<core::NiKernelParams> params(4, NiWithChannels(3, 16));
  Soc soc(std::move(mesh.topology), std::move(params));

  const int pairs[4][2] = {{0, 3}, {3, 0}, {1, 2}, {2, 1}};
  for (const auto& pair : pairs) {
    ASSERT_TRUE(soc.OpenConnection(GlobalChannel{pair[0], 0},
                                   GlobalChannel{pair[1], 0})
                    .ok());
  }
  std::vector<std::unique_ptr<ip::StreamProducer>> producers;
  std::vector<std::unique_ptr<ip::StreamConsumer>> consumers;
  for (int i = 0; i < 4; ++i) {
    producers.push_back(std::make_unique<ip::StreamProducer>(
        "p" + std::to_string(i), soc.port(pairs[i][0], 0), 0, 2, 1, true,
        300));
    consumers.push_back(std::make_unique<ip::StreamConsumer>(
        "c" + std::to_string(i), soc.port(pairs[i][1], 0), 0));
    soc.RegisterOnPort(producers.back().get(), pairs[i][0], 0);
    soc.RegisterOnPort(consumers.back().get(), pairs[i][1], 0);
  }
  soc.RunCycles(2);
  Cycle spent = 0;
  auto all_done = [&] {
    for (const auto& c : consumers) {
      if (c->words_read() < 300) return false;
    }
    return true;
  };
  while (!all_done() && spent < 200000) {
    soc.RunCycles(200);
    spent += 200;
  }
  ASSERT_TRUE(all_done());
}

TEST(SocMesh, GtUnaffectedByBeCongestion) {
  // One GT stream 0->3 shares links with heavy BE traffic 1->3 and 2->3;
  // the GT latency distribution must stay within its analytic bound.
  auto mesh = topology::BuildMesh(2, 2, 1);
  std::vector<core::NiKernelParams> params(4, NiWithChannels(3, 16));
  Soc soc(std::move(mesh.topology), std::move(params));

  ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 4;
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{3, 0},
                                 gt, ChannelQos{})
                  .ok());
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{1, 1}, GlobalChannel{3, 1}).ok());
  ASSERT_TRUE(soc.OpenConnection(GlobalChannel{2, 2}, GlobalChannel{3, 2}).ok());

  ip::StreamProducer gt_prod("gt_p", soc.port(0, 0), 0, 6, 1, true, 200);
  ip::StreamConsumer gt_cons("gt_c", soc.port(3, 0), 0);
  ip::StreamProducer be1("be1", soc.port(1, 0), 1, 1, 1, true, 2000);
  ip::StreamConsumer bc1("bc1", soc.port(3, 0), 1);
  ip::StreamProducer be2("be2", soc.port(2, 0), 2, 1, 1, true, 2000);
  ip::StreamConsumer bc2("bc2", soc.port(3, 0), 2);
  soc.RegisterOnPort(&gt_prod, 0, 0);
  soc.RegisterOnPort(&gt_cons, 3, 0);
  soc.RegisterOnPort(&be1, 1, 0);
  soc.RegisterOnPort(&bc1, 3, 0);
  soc.RegisterOnPort(&be2, 2, 0);
  soc.RegisterOnPort(&bc2, 3, 0);
  soc.RunCycles(2);

  Cycle spent = 0;
  while (gt_cons.words_read() < 200 && spent < 100000) {
    soc.RunCycles(100);
    spent += 100;
  }
  ASSERT_EQ(gt_cons.words_read(), 200);
  const int max_gap_slots = 8 / 4;
  const double bound = 3 * (max_gap_slots + 3) + 15;
  EXPECT_LE(gt_cons.latency().Max(), bound)
      << "GT latency must be independent of BE congestion";
}

TEST(SocMesh, CloseConnectionFreesSlotsForReuse) {
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params(2, NiWithChannels(2));
  Soc soc(std::move(star.topology), std::move(params));
  ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 8;  // the whole table
  auto h1 = soc.OpenConnection(GlobalChannel{0, 0}, GlobalChannel{1, 0}, gt,
                               ChannelQos{});
  ASSERT_TRUE(h1.ok());
  // A second full-table GT connection cannot fit.
  auto h2 = soc.OpenConnection(GlobalChannel{0, 1}, GlobalChannel{1, 1}, gt,
                               ChannelQos{});
  EXPECT_FALSE(h2.ok());
  ASSERT_TRUE(soc.CloseConnection(*h1).ok());
  auto h3 = soc.OpenConnection(GlobalChannel{0, 1}, GlobalChannel{1, 1}, gt,
                               ChannelQos{});
  EXPECT_TRUE(h3.ok());
}

TEST(SocMesh, PortClockOverridesApply) {
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params(2, NiWithChannels(1));
  SocOptions options;
  options.port_mhz[{0, 0}] = 125.0;
  Soc soc(std::move(star.topology), std::move(params), options);
  EXPECT_EQ(soc.port_clock(0, 0)->period_ps(), 8000);
  EXPECT_EQ(soc.port_clock(1, 0)->period_ps(), 2000);
}

TEST(SocMesh, PortClocksOfOneNiAreIndependent) {
  // NI 0 has two ports: the listed one runs at 125 MHz, the unlisted one
  // on the network clock itself. A port listed at the network frequency
  // shares the network clock rather than getting a second clock.
  auto star = topology::BuildStar(2);
  std::vector<core::NiKernelParams> params(2, NiWithChannels(1));
  params[0].ports.push_back(params[0].ports[0]);
  SocOptions options;
  options.port_mhz[{0, 0}] = 125.0;
  options.port_mhz[{1, 0}] = options.net_mhz;
  Soc soc(std::move(star.topology), std::move(params), options);
  EXPECT_EQ(soc.port_clock(0, 0)->period_ps(), 8000);
  EXPECT_EQ(soc.port_clock(0, 1), soc.net_clock());
  EXPECT_EQ(soc.port_clock(1, 0), soc.net_clock());
}

TEST(AreaModel, ReproducesPaperNumbers) {
  using analysis::AreaModel;
  const auto kernel =
      AreaModel::NiKernel(core::NiKernelParams::PaperReferenceInstance());
  EXPECT_NEAR(kernel.total_mm2, 0.110, 0.0005);
  EXPECT_NEAR(AreaModel::Narrowcast(2), 0.004, 1e-9);
  EXPECT_NEAR(AreaModel::MultiConnection(4), 0.007, 1e-9);
  EXPECT_NEAR(AreaModel::DtlMaster(), 0.005, 1e-9);
  EXPECT_NEAR(AreaModel::DtlSlave(), 0.002, 1e-9);
  EXPECT_NEAR(AreaModel::ConfigShell(), 0.010, 1e-9);
  EXPECT_NEAR(AreaModel::PaperExampleTotal(), 0.143, 0.0005);
}

TEST(AreaModel, ScalesWithParameters) {
  using analysis::AreaModel;
  auto small = core::NiKernelParams::PaperReferenceInstance();
  auto big = small;
  for (auto& port : big.ports) {
    for (auto& ch : port.channels) {
      ch.source_queue_words *= 2;
      ch.dest_queue_words *= 2;
    }
  }
  EXPECT_GT(AreaModel::NiKernel(big).total_mm2,
            AreaModel::NiKernel(small).total_mm2);
  // Queue area dominates (the paper's reason for custom FIFOs).
  const auto breakdown = AreaModel::NiKernel(small);
  EXPECT_GT(breakdown.queues_mm2, 0.5 * breakdown.total_mm2);
  // Technology scaling is monotonic.
  EXPECT_LT(AreaModel::ScaleToNode(0.143, 65), 0.143);
}

}  // namespace
}  // namespace aethereal::soc
