// Unit tests of the combined GT/BE router with scripted flit drivers:
// source-route consumption, contention-free GT switching, wormhole
// ownership, round-robin order (rotation, skipping idle inputs, inputs
// freed mid-slot by an eop), link-credit stalling with one blocked count
// per slot, the fatal invariant checks, and a seeded trace digest that pins
// the exact grant order of a 5-port router. Every test runs on both
// engines.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "link/header.h"
#include "link/wire.h"
#include "router/router.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "util/rng.h"

namespace aethereal::router {
namespace {

using link::Flit;
using link::FlitKind;
using link::PacketHeader;
using link::SourcePath;

Flit HeaderFlit(bool gt, const std::vector<int>& hops, int qid, bool eop,
                int payload_words = 0) {
  PacketHeader header;
  header.gt = gt;
  header.remote_qid = qid;
  header.path = SourcePath::FromHops(hops);
  Flit flit;
  flit.kind = FlitKind::kHeader;
  flit.gt = gt;
  flit.eop = eop;
  flit.valid_words = 1 + payload_words;
  flit.words[0] = header.Encode();
  for (int i = 0; i < payload_words; ++i) {
    flit.words[static_cast<std::size_t>(1 + i)] = 0xD0 + static_cast<Word>(i);
  }
  return flit;
}

Flit PayloadFlit(bool gt, bool eop, Word tag = 0xBEEF) {
  Flit flit;
  flit.kind = FlitKind::kPayload;
  flit.gt = gt;
  flit.eop = eop;
  flit.valid_words = kFlitWords;
  flit.words = {tag, tag + 1, tag + 2};
  return flit;
}

int QidOf(const Flit& flit) {
  return PacketHeader::Decode(flit.words[0]).remote_qid;
}

// Drives a scripted sequence of flits, one per slot, into a wire.
class ScriptedSource : public sim::Module {
 public:
  ScriptedSource(std::string name, link::LinkWires* wires)
      : sim::Module(std::move(name)), wires_(wires) {}

  void Enqueue(const Flit& flit) { script_.push_back(flit); }
  void EnqueueIdle() { script_.push_back(Flit::Idle()); }

  void Evaluate() override {
    if (CycleCount() % kFlitWords != 0) return;
    if (script_.empty()) return;
    if (!script_.front().IsIdle()) wires_->data.Drive(script_.front());
    script_.pop_front();
  }

 private:
  link::LinkWires* wires_;
  std::deque<Flit> script_;
};

// Samples a wire every slot and records non-idle flits; returns one link
// credit per BE flit in the slot it arrives (models an always-sinking NI).
// While credits are withheld (a downstream buffer that does not drain) the
// returns are owed, and all owed credits go back in the first slot after
// the switch is released.
class RecordingSink : public sim::Module {
 public:
  RecordingSink(std::string name, link::LinkWires* wires)
      : sim::Module(std::move(name)), wires_(wires) {}

  const std::vector<std::pair<Cycle, Flit>>& flits() const { return flits_; }
  void set_withhold_credits(bool withhold) { withhold_ = withhold; }
  bool withhold_credits() const { return withhold_; }

  void Evaluate() override {
    if (CycleCount() % kFlitWords != 0) return;
    const Flit& flit = wires_->data.Sample();
    if (!flit.IsIdle()) {
      flits_.emplace_back(CycleCount() / kFlitWords, flit);
      if (!flit.gt) ++owed_;
    }
    if (owed_ > 0 && !withhold_) {
      wires_->credit_return.Drive(owed_);
      owed_ = 0;
    }
  }

 private:
  link::LinkWires* wires_;
  std::vector<std::pair<Cycle, Flit>> flits_;
  int owed_ = 0;
  bool withhold_ = false;
};

// A router with a scripted source on every input and a recording sink on
// every output (3 ports unless stated), on the selected engine. BE input
// buffers and downstream credit pools are 4 flits deep.
class RouterRig {
 public:
  explicit RouterRig(sim::EngineKind engine, int ports = 3) {
    sim_.set_engine(engine);
    clock_ = sim_.AddClockMhz("net", 500.0);
    router_ = std::make_unique<Router>("router", 0, RouterConfig{ports, 4});
    for (int p = 0; p < ports; ++p) {
      in_links_.push_back(std::make_unique<link::DirectedLink>("in"));
      out_links_.push_back(std::make_unique<link::DirectedLink>("out"));
      router_->ConnectInput(p, &in_links_.back()->wires());
      router_->ConnectOutput(p, &out_links_.back()->wires(), 4);
      sources_.push_back(std::make_unique<ScriptedSource>(
          "src" + std::to_string(p), &in_links_.back()->wires()));
      sinks_.push_back(std::make_unique<RecordingSink>(
          "sink" + std::to_string(p), &out_links_.back()->wires()));
      clock_->Register(in_links_.back().get());
      clock_->Register(out_links_.back().get());
      clock_->Register(sources_.back().get());
      clock_->Register(sinks_.back().get());
    }
    clock_->Register(router_.get());
  }

  void RunSlots(int slots) { sim_.RunCycles(clock_, slots * kFlitWords); }

  sim::Clock& clock() { return *clock_; }
  link::LinkWires& input_wires(int p) { return in_links_[p]->wires(); }
  ScriptedSource& source(int p) { return *sources_[p]; }
  RecordingSink& sink(int p) { return *sinks_[p]; }
  Router& router() { return *router_; }

 private:
  sim::Kernel sim_;
  sim::Clock* clock_;
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<link::DirectedLink>> in_links_;
  std::vector<std::unique_ptr<link::DirectedLink>> out_links_;
  std::vector<std::unique_ptr<ScriptedSource>> sources_;
  std::vector<std::unique_ptr<RecordingSink>> sinks_;
};

class RouterTest : public ::testing::TestWithParam<sim::EngineKind> {};
using RouterDeathTest = RouterTest;

std::string EngineName(
    const ::testing::TestParamInfo<sim::EngineKind>& info) {
  return sim::EngineKindName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Engines, RouterTest,
                         ::testing::Values(sim::EngineKind::kNaive,
                                           sim::EngineKind::kSoa),
                         EngineName);
INSTANTIATE_TEST_SUITE_P(Engines, RouterDeathTest,
                         ::testing::Values(sim::EngineKind::kNaive,
                                           sim::EngineKind::kSoa),
                         EngineName);

TEST_P(RouterTest, GtForwardsSameSlotWithConsumedPath) {
  RouterRig rig(GetParam());
  rig.source(0).Enqueue(HeaderFlit(true, {2}, 5, true, 2));
  rig.RunSlots(4);
  ASSERT_EQ(rig.sink(2).flits().size(), 1u);
  const auto& [slot, flit] = rig.sink(2).flits()[0];
  // Injected in slot 0, on the input wire in slot 1, forwarded during slot
  // 1, on the output wire in slot 2.
  EXPECT_EQ(slot, 2);
  const PacketHeader header = PacketHeader::Decode(flit.words[0]);
  EXPECT_TRUE(header.path.Exhausted()) << "path hop must be consumed";
  EXPECT_EQ(header.remote_qid, 5);
  EXPECT_EQ(flit.words[1], 0xD0u);
  EXPECT_EQ(rig.router().stats().gt_flits, 1);
}

TEST_P(RouterTest, GtMultiFlitPacketStaysContiguous) {
  RouterRig rig(GetParam());
  rig.source(0).Enqueue(HeaderFlit(true, {2}, 1, false));
  rig.source(0).Enqueue(PayloadFlit(true, false));
  rig.source(0).Enqueue(PayloadFlit(true, true));
  rig.RunSlots(6);
  ASSERT_EQ(rig.sink(2).flits().size(), 3u);
  EXPECT_EQ(rig.sink(2).flits()[0].first, 2);
  EXPECT_EQ(rig.sink(2).flits()[1].first, 3);
  EXPECT_EQ(rig.sink(2).flits()[2].first, 4);
  EXPECT_TRUE(rig.sink(2).flits()[2].second.eop);
}

TEST_P(RouterTest, BeFollowsPathThroughBuffer) {
  RouterRig rig(GetParam());
  rig.source(0).Enqueue(HeaderFlit(false, {1}, 3, true, 1));
  rig.RunSlots(5);
  EXPECT_TRUE(rig.sink(2).flits().empty());
  ASSERT_EQ(rig.sink(1).flits().size(), 1u);
  EXPECT_EQ(rig.router().stats().be_packets, 1);
}

TEST_P(RouterTest, GtPreemptsBeOnSharedOutput) {
  RouterRig rig(GetParam());
  // BE packet of 3 flits from input 0 to output 2; a GT flit from input 1
  // to output 2 arrives mid-packet and must win its slot.
  rig.source(0).Enqueue(HeaderFlit(false, {2}, 0, false));
  rig.source(0).Enqueue(PayloadFlit(false, false));
  rig.source(0).Enqueue(PayloadFlit(false, true));
  // Two idle slots so the BE packet owns the output (header granted in
  // slot 2) before the GT flit arrives in slot 3.
  rig.source(1).EnqueueIdle();
  rig.source(1).EnqueueIdle();
  rig.source(1).Enqueue(HeaderFlit(true, {2}, 7, true));
  rig.RunSlots(9);
  const auto& flits = rig.sink(2).flits();
  ASSERT_EQ(flits.size(), 4u);
  // The GT flit must appear in the slot it was switched (on the output
  // wire in slot 4), with the BE packet's remaining flits resuming after.
  int gt_index = -1;
  for (std::size_t i = 0; i < flits.size(); ++i) {
    if (flits[i].second.gt) gt_index = static_cast<int>(i);
  }
  ASSERT_GE(gt_index, 0);
  EXPECT_EQ(flits[static_cast<std::size_t>(gt_index)].first, 4);
  EXPECT_GT(rig.router().stats().be_blocked_gt, 0);
  // BE flits stay in order around the preemption.
  std::vector<Word> be_tags;
  for (const auto& [slot, flit] : flits) {
    if (!flit.gt && flit.kind == FlitKind::kPayload) {
      be_tags.push_back(flit.words[0]);
    }
  }
  ASSERT_EQ(be_tags.size(), 2u);
  EXPECT_EQ(be_tags[0], be_tags[1]);  // same tag base, order preserved
}

TEST_P(RouterTest, WormholeKeepsPacketsAtomicPerOutput) {
  RouterRig rig(GetParam());
  // Two BE packets race for output 2; the loser must wait for the winner's
  // eop, never interleaving.
  rig.source(0).Enqueue(HeaderFlit(false, {2}, 1, false));
  rig.source(0).Enqueue(PayloadFlit(false, false, 0xA00));
  rig.source(0).Enqueue(PayloadFlit(false, true, 0xA10));
  rig.source(1).Enqueue(HeaderFlit(false, {2}, 2, false));
  rig.source(1).Enqueue(PayloadFlit(false, false, 0xB00));
  rig.source(1).Enqueue(PayloadFlit(false, true, 0xB10));
  rig.RunSlots(10);
  const auto& flits = rig.sink(2).flits();
  ASSERT_EQ(flits.size(), 6u);
  // Decode the winner from the first header, then require its whole packet
  // before the other packet's first flit.
  std::vector<int> qids;
  for (const auto& [slot, flit] : flits) {
    if (flit.kind == FlitKind::kHeader) qids.push_back(QidOf(flit));
  }
  ASSERT_EQ(qids.size(), 2u);
  // Positions: header A at 0, payloads at 1,2; header B at 3.
  EXPECT_EQ(flits[0].second.kind, FlitKind::kHeader);
  EXPECT_EQ(flits[1].second.kind, FlitKind::kPayload);
  EXPECT_EQ(flits[2].second.kind, FlitKind::kPayload);
  EXPECT_TRUE(flits[2].second.eop);
  EXPECT_EQ(flits[3].second.kind, FlitKind::kHeader);
}

TEST_P(RouterTest, RoundRobinAlternatesBetweenInputs) {
  RouterRig rig(GetParam());
  // Four single-flit BE packets per input, all to output 2.
  for (int k = 0; k < 4; ++k) {
    rig.source(0).Enqueue(HeaderFlit(false, {2}, 0, true));
    rig.source(1).Enqueue(HeaderFlit(false, {2}, 1, true));
  }
  rig.RunSlots(16);
  const auto& flits = rig.sink(2).flits();
  ASSERT_EQ(flits.size(), 8u);
  // Grants must alternate (round-robin): qid pattern 0,1,0,1,... or
  // 1,0,1,0,...
  int alternations = 0;
  for (std::size_t i = 1; i < flits.size(); ++i) {
    if (QidOf(flits[i - 1].second) != QidOf(flits[i].second)) ++alternations;
  }
  EXPECT_EQ(alternations, 7);
}

TEST_P(RouterTest, RoundRobinRotatesOverThreeInputs) {
  RouterRig rig(GetParam());
  // Every input (qid = input) has two single-flit packets for output 2,
  // arriving in the same slots; the pointer starts at input 0.
  for (int k = 0; k < 2; ++k) {
    for (int p = 0; p < 3; ++p) {
      rig.source(p).Enqueue(HeaderFlit(false, {2}, p, true));
    }
  }
  rig.RunSlots(12);
  const auto& flits = rig.sink(2).flits();
  ASSERT_EQ(flits.size(), 6u);
  const std::vector<int> expected = {0, 1, 2, 0};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(QidOf(flits[k].second), expected[k]) << "grant " << k;
    EXPECT_EQ(flits[k].first, static_cast<Cycle>(3 + k)) << "grant " << k;
  }
}

TEST_P(RouterTest, RoundRobinPointerSkipsIdleInputs) {
  RouterRig rig(GetParam());
  // Input 0 wins output 2 alone, moving the pointer to input 1. Inputs 0
  // and 2 then request together: input 1 is not requesting, so the grant
  // goes to input 2 first — a fixed-priority arbiter would pick input 0.
  rig.source(0).Enqueue(HeaderFlit(false, {2}, 0, true));
  for (int k = 0; k < 3; ++k) rig.source(0).EnqueueIdle();
  rig.source(0).Enqueue(HeaderFlit(false, {2}, 0, true));
  for (int k = 0; k < 4; ++k) rig.source(2).EnqueueIdle();
  rig.source(2).Enqueue(HeaderFlit(false, {2}, 2, true));
  rig.RunSlots(12);
  const auto& flits = rig.sink(2).flits();
  ASSERT_EQ(flits.size(), 3u);
  EXPECT_EQ(QidOf(flits[0].second), 0);
  EXPECT_EQ(QidOf(flits[1].second), 2);
  EXPECT_EQ(QidOf(flits[2].second), 0);
  EXPECT_EQ(flits[1].first, 7);
  EXPECT_EQ(flits[2].first, 8);
}

TEST_P(RouterTest, SingleFlitPacketFreesInputWithinSlot) {
  RouterRig rig(GetParam());
  // Input 1 holds output 1 with a 3-flit wormhole while input 0 queues two
  // single-flit packets: one to output 1, then one to output 2. When output
  // 1 frees up, input 0's first packet wins it; popping that header frees
  // input 0, whose next committed header then wins output 2 in the same
  // slot — input 0 emits two flits in one slot.
  rig.source(1).Enqueue(HeaderFlit(false, {1}, 1, false));
  rig.source(1).Enqueue(PayloadFlit(false, false, 0xB00));
  rig.source(1).Enqueue(PayloadFlit(false, true, 0xB10));
  rig.source(0).EnqueueIdle();
  rig.source(0).Enqueue(HeaderFlit(false, {1}, 3, true));
  rig.source(0).Enqueue(HeaderFlit(false, {2}, 4, true));
  rig.RunSlots(10);
  const auto& out1 = rig.sink(1).flits();
  const auto& out2 = rig.sink(2).flits();
  ASSERT_EQ(out1.size(), 4u);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_TRUE(out1[2].second.eop);
  EXPECT_EQ(out1[2].first, 5);
  EXPECT_EQ(QidOf(out1[3].second), 3);
  EXPECT_EQ(QidOf(out2[0].second), 4);
  EXPECT_EQ(out1[3].first, 6);
  EXPECT_EQ(out2[0].first, out1[3].first);
}

TEST_P(RouterTest, WormholeEopFreesInputWithinSlot) {
  RouterRig rig(GetParam());
  // Input 0 sends a 3-flit wormhole to output 1 and then a single-flit
  // packet to output 2. A GT flit from input 2 takes output 1 for one slot,
  // so the wormhole's eop and the next header are both committed when the
  // eop leaves; the eop frees input 0 and output 2 grants its next header
  // in the same slot.
  rig.source(0).Enqueue(HeaderFlit(false, {1}, 1, false));
  rig.source(0).Enqueue(PayloadFlit(false, false, 0xA00));
  rig.source(0).Enqueue(PayloadFlit(false, true, 0xA10));
  rig.source(0).Enqueue(HeaderFlit(false, {2}, 2, true));
  for (int k = 0; k < 3; ++k) rig.source(2).EnqueueIdle();
  rig.source(2).Enqueue(HeaderFlit(true, {1}, 7, true));
  rig.RunSlots(10);
  const auto& out1 = rig.sink(1).flits();
  const auto& out2 = rig.sink(2).flits();
  ASSERT_EQ(out1.size(), 4u);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_TRUE(out1[2].second.gt);
  EXPECT_EQ(out1[2].first, 5);
  EXPECT_TRUE(out1[3].second.eop);
  EXPECT_EQ(out1[3].first, 6);
  EXPECT_EQ(QidOf(out2[0].second), 2);
  EXPECT_EQ(out2[0].first, out1[3].first);
  EXPECT_EQ(rig.router().stats().be_blocked_gt, 1);
}

TEST_P(RouterTest, BeStallsWithoutLinkCredits) {
  RouterRig rig(GetParam());
  // Output 2's sink never returns credits, so its downstream pool of 4
  // flits is all that can leave. Inputs 0 and 1 each queue three
  // single-flit packets for it.
  rig.sink(2).set_withhold_credits(true);
  for (int k = 0; k < 3; ++k) {
    rig.source(0).Enqueue(HeaderFlit(false, {2}, 0, true));
    rig.source(1).Enqueue(HeaderFlit(false, {2}, 1, true));
  }
  rig.RunSlots(12);
  EXPECT_EQ(rig.sink(2).flits().size(), 4u);
  EXPECT_EQ(rig.router().OutputCredits(2), 0);
  EXPECT_EQ(rig.router().stats().be_flits, 4);
  // Both inputs still have a header waiting on output 2, yet each blocked
  // slot counts once: head-of-line blocking is per output, not per input.
  const std::int64_t blocked = rig.router().stats().be_blocked_credit;
  EXPECT_GT(blocked, 0);
  rig.RunSlots(10);
  EXPECT_EQ(rig.router().stats().be_blocked_credit, blocked + 10);
  EXPECT_EQ(rig.sink(2).flits().size(), 4u);
  // Releasing the credits drains the remaining two packets. The returned
  // credits reach the router one slot after the release, so that slot is
  // still blocked.
  rig.sink(2).set_withhold_credits(false);
  rig.RunSlots(6);
  EXPECT_EQ(rig.sink(2).flits().size(), 6u);
  EXPECT_EQ(rig.router().stats().be_blocked_credit, blocked + 11);
}

// Drives random GT and BE packets into every input of a router. GT flits
// never contend for an output in one slot (the allocator's guarantee); BE
// flits respect the link credits the router returns, so its input buffers
// never overflow.
class RandomDriver : public sim::Module {
 public:
  RandomDriver(std::vector<link::LinkWires*> wires, int be_credits,
               std::uint64_t seed)
      : sim::Module("driver"),
        wires_(std::move(wires)),
        rng_(seed),
        lanes_(wires_.size(), Lane{be_credits}) {}

  /// Finishes the packets in progress and starts no new ones.
  void Stop() { stopped_ = true; }

  void Evaluate() override {
    if (CycleCount() % kFlitWords != 0) return;
    const int ports = static_cast<int>(wires_.size());
    std::uint32_t gt_claimed = 0;  // outputs a GT flit takes this slot
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i].be_credits += wires_[i]->credit_return.Sample();
      if (lanes_[i].gt_left > 0) gt_claimed |= 1u << lanes_[i].gt_target;
    }
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = lanes_[i];
      Flit flit = Flit::Idle();
      if (lane.gt_left > 0) {
        flit = PayloadFlit(true, --lane.gt_left == 0, Tag());
      } else if (!stopped_ && rng_.NextBool(0.15)) {
        const int target = static_cast<int>(rng_.NextBelow(ports));
        if ((gt_claimed & (1u << target)) == 0) {
          gt_claimed |= 1u << target;
          const int length = static_cast<int>(rng_.NextInRange(1, 3));
          flit = HeaderFlit(true, Hops(target), Qid(), length == 1,
                            static_cast<int>(rng_.NextBelow(3)));
          lane.gt_left = length - 1;
          lane.gt_target = target;
        }
      }
      if (flit.IsIdle() && lane.be_credits > 0) {
        if (lane.be_left > 0) {
          flit = PayloadFlit(false, --lane.be_left == 0, Tag());
        } else if (!stopped_ && rng_.NextBool(0.6)) {
          const int target = static_cast<int>(rng_.NextBelow(ports));
          const int length = static_cast<int>(rng_.NextInRange(1, 4));
          flit = HeaderFlit(false, Hops(target), Qid(), length == 1,
                            static_cast<int>(rng_.NextBelow(3)));
          lane.be_left = length - 1;
        }
        if (!flit.IsIdle()) --lane.be_credits;
      }
      if (!flit.IsIdle()) wires_[i]->data.Drive(flit);
    }
  }

 private:
  struct Lane {
    int be_credits = 0;
    int gt_left = 0;  // GT payload flits still to send
    int gt_target = 0;
    int be_left = 0;  // BE payload flits still to send
  };

  std::vector<int> Hops(int target) {
    std::vector<int> hops = {target};
    const auto extra = rng_.NextBelow(3);
    for (std::uint64_t k = 0; k < extra; ++k) {
      hops.push_back(static_cast<int>(rng_.NextBelow(5)));
    }
    return hops;
  }
  int Qid() { return static_cast<int>(rng_.NextBelow(32)); }
  Word Tag() { return static_cast<Word>(rng_.Next()); }

  std::vector<link::LinkWires*> wires_;
  Rng rng_;
  std::vector<Lane> lanes_;
  bool stopped_ = false;
};

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

TEST_P(RouterTest, SeededTraceDigestPinsGrantOrder) {
  constexpr int kPorts = 5;
  RouterRig rig(GetParam(), kPorts);
  std::vector<link::LinkWires*> wires;
  for (int p = 0; p < kPorts; ++p) wires.push_back(&rig.input_wires(p));
  RandomDriver driver(wires, /*be_credits=*/4, /*seed=*/0x5EED);
  rig.clock().Register(&driver);

  // Each sink withholds its credits now and then, for a few to a few
  // dozen slots, so BE heads also stall on credits.
  Rng withhold_rng(0xC0FFEE);
  for (int slot = 0; slot < 2000; ++slot) {
    for (int p = 0; p < kPorts; ++p) {
      RecordingSink& sink = rig.sink(p);
      const double flip = sink.withhold_credits() ? 0.15 : 0.03;
      if (withhold_rng.NextBool(flip)) {
        sink.set_withhold_credits(!sink.withhold_credits());
      }
    }
    rig.RunSlots(1);
  }
  // Drain: finish the open packets with every sink returning credits.
  driver.Stop();
  for (int p = 0; p < kPorts; ++p) rig.sink(p).set_withhold_credits(false);
  rig.RunSlots(50);

  std::uint64_t hash = 0xCBF29CE484222325ull;
  std::size_t total = 0;
  for (int p = 0; p < kPorts; ++p) {
    for (const auto& [slot, flit] : rig.sink(p).flits()) {
      hash = Fnv1a(hash, slot);
      hash = Fnv1a(hash, static_cast<std::uint64_t>(p));
      hash = Fnv1a(hash, static_cast<std::uint64_t>(flit.kind));
      hash = Fnv1a(hash, (flit.gt ? 1u : 0u) | (flit.eop ? 2u : 0u));
      hash = Fnv1a(hash, static_cast<std::uint64_t>(flit.valid_words));
      for (int w = 0; w < flit.valid_words; ++w) {
        hash = Fnv1a(hash, flit.words[static_cast<std::size_t>(w)]);
      }
      ++total;
    }
  }
  const RouterStats& stats = rig.router().stats();
  for (const std::int64_t value :
       {stats.gt_flits, stats.be_flits, stats.be_packets,
        stats.be_blocked_credit, stats.be_blocked_gt,
        stats.be_max_occupancy}) {
    hash = Fnv1a(hash, static_cast<std::uint64_t>(value));
  }

  // The workload exercises every arbitration path.
  EXPECT_GT(stats.gt_flits, 500);
  EXPECT_GT(stats.be_packets, 500);
  EXPECT_GT(stats.be_blocked_credit, 100);
  EXPECT_GT(stats.be_blocked_gt, 50);
  EXPECT_EQ(total, static_cast<std::size_t>(stats.gt_flits + stats.be_flits));
  // Recorded from the reference implementation; any change to the grant
  // order, the blocked counters or the forwarded flits changes it.
  EXPECT_EQ(hash, 0x53211449F6061895ull) << std::hex << "0x" << hash;
}

TEST_P(RouterDeathTest, GtContentionIsFatal) {
  // Two GT flits claiming output 2 in the same slot = corrupt allocation.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        RouterRig rig(GetParam());
        rig.source(0).Enqueue(HeaderFlit(true, {2}, 0, true));
        rig.source(1).Enqueue(HeaderFlit(true, {2}, 1, true));
        rig.RunSlots(4);
      },
      "GT slot contention");
}

TEST_P(RouterDeathTest, ExhaustedPathIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        RouterRig rig(GetParam());
        Flit flit = HeaderFlit(false, {2}, 0, true);
        PacketHeader header = PacketHeader::Decode(flit.words[0]);
        header.path = SourcePath();  // empty
        flit.words[0] = header.Encode();
        rig.source(0).Enqueue(flit);
        rig.RunSlots(4);
      },
      "exhausted path");
}

TEST_P(RouterDeathTest, OrphanPayloadIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        RouterRig rig(GetParam());
        rig.source(0).Enqueue(PayloadFlit(false, true));
        rig.RunSlots(4);
      },
      "orphan");
}

TEST_P(RouterDeathTest, SidebandHeaderMismatchIsFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        RouterRig rig(GetParam());
        Flit flit = HeaderFlit(true, {2}, 0, true);
        flit.gt = false;  // sideband disagrees with the header bit
        rig.source(0).Enqueue(flit);
        rig.RunSlots(4);
      },
      "sideband");
}

}  // namespace
}  // namespace aethereal::router
