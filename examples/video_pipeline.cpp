// Video pixel-processing pipeline over guaranteed-throughput connections.
//
// Paper §4.2 motivates plain point-to-point connections with "systems
// involving chains of modules communicating point to point with one another
// (e.g., video pixel processing)". This example builds such a chain:
//
//   camera -> [stage 0] -> [stage 1] -> [stage 2] -> display
//
// on a 2x2 mesh, one module per NI, connected by GT channels so the video
// stream gets hard throughput and bounded jitter regardless of other
// traffic. A best-effort background flow shares the links to show the
// isolation.
//
// Build & run:  ./example_video_pipeline
#include <iostream>
#include <memory>

#include "ip/stream.h"
#include "scenario/wiring.h"
#include "soc/soc.h"

using namespace aethereal;

int main() {
  constexpr int kPixels = 3000;

  // 2x2 mesh; camera at (0,0), stages at (0,1) and (1,0), display at (1,1).
  // The pixel-processing stages are ip::Relay modules: raw NI-port
  // forwarding, no shells, as the paper describes for streaming chains
  // (the "processing" models a LUT transform that keeps the
  // latency-measurement payload intact).
  auto soc_ptr = scenario::MakeMeshSoc(2, 2, /*nis_per_router=*/1,
                                       /*channels_per_ni=*/3,
                                       /*queue_words=*/16);
  soc::Soc& soc = *soc_ptr;

  // GT connections along the chain: 0 -> 1 -> 2 -> 3, two slots each of the
  // 8-slot table (bandwidth 2/8 * 1 word/cycle = 0.25 words/cycle, enough
  // for one pixel every 4 cycles).
  config::ChannelQos gt;
  gt.gt = true;
  gt.gt_slots = 2;
  for (const auto& [from, to] : std::vector<std::pair<NiId, NiId>>{
           {0, 1}, {1, 2}, {2, 3}}) {
    auto handle = soc.OpenConnection(tdm::GlobalChannel{from, 0},
                                     tdm::GlobalChannel{to, 1}, gt,
                                     config::ChannelQos{});
    if (!handle.ok()) {
      std::cerr << "open failed: " << handle.status() << "\n";
      return 1;
    }
  }
  // Best-effort background traffic fighting for the same links: 0 -> 3.
  if (auto h = soc.OpenConnection(tdm::GlobalChannel{0, 2},
                                  tdm::GlobalChannel{3, 2});
      !h.ok()) {
    std::cerr << "open failed: " << h.status() << "\n";
    return 1;
  }

  // Camera: one timestamped pixel every 4 cycles.
  ip::StreamSource camera("camera", soc.port(0, 0), 0,
                          ip::Injection{.period = 4, .total_words = kPixels});
  ip::Relay stage1("stage1", soc.port(1, 0), /*in_connid=*/1,
                   /*out_connid=*/0);
  ip::Relay stage2("stage2", soc.port(2, 0), /*in_connid=*/1,
                   /*out_connid=*/0);
  ip::StreamConsumer display("display", soc.port(3, 0), 1);
  ip::StreamSource be_noise("be_noise", soc.port(0, 0), 2,
                            ip::Injection{.period = 1});
  ip::StreamConsumer be_sink("be_sink", soc.port(3, 0), 2, 1);
  soc.RegisterOnPort(&camera, 0, 0);
  soc.RegisterOnPort(&stage1, 1, 0);
  soc.RegisterOnPort(&stage2, 2, 0);
  soc.RegisterOnPort(&display, 3, 0);
  soc.RegisterOnPort(&be_noise, 0, 0);
  soc.RegisterOnPort(&be_sink, 3, 0);
  soc.RunCycles(2);

  while (display.words_read() < kPixels) soc.RunCycles(100);

  std::cout << "video pipeline: " << display.words_read()
            << " pixels through 3 GT hops with BE noise sharing the links\n";
  std::cout << "  frame latency  min/mean/max = " << display.latency().Min()
            << " / " << display.latency().Mean() << " / "
            << display.latency().Max() << " cycles\n";
  std::cout << "  inter-arrival  mean/p99/max = "
            << display.inter_arrival().Mean() << " / "
            << display.inter_arrival().Percentile(99) << " / "
            << display.inter_arrival().Max() << " cycles\n";
  std::cout << "  background BE words delivered: " << be_sink.words_read()
            << " (sequence errors: " << be_sink.sequence_errors() << ")\n";
  std::cout << "  stage throughput: " << stage1.words_relayed() << " / "
            << stage2.words_relayed() << " pixels\n";
  std::cout << "video_pipeline done.\n";
  return 0;
}
