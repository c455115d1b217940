// Unit tests for flits, packet headers, source paths, and flit wires.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "link/flit.h"
#include "link/header.h"
#include "link/wire.h"
#include "sim/kernel.h"

namespace aethereal::link {
namespace {

TEST(SourcePath, EmptyIsExhausted) {
  SourcePath p;
  EXPECT_TRUE(p.Exhausted());
  EXPECT_EQ(p.HopCount(), 0);
}

TEST(SourcePath, HopsRoundTrip) {
  SourcePath p = SourcePath::FromHops({3, 0, 6, 1});
  EXPECT_EQ(p.HopCount(), 4);
  EXPECT_EQ(p.NextHop(), 3);
  p = p.Consume();
  EXPECT_EQ(p.NextHop(), 0);
  p = p.Consume();
  EXPECT_EQ(p.NextHop(), 6);
  p = p.Consume();
  EXPECT_EQ(p.NextHop(), 1);
  p = p.Consume();
  EXPECT_TRUE(p.Exhausted());
}

TEST(SourcePath, MaxHops) {
  std::vector<int> hops(kMaxPathHops, kMaxPathPort);
  SourcePath p = SourcePath::FromHops(hops);
  EXPECT_EQ(p.HopCount(), kMaxPathHops);
  for (int i = 0; i < kMaxPathHops; ++i) {
    EXPECT_EQ(p.NextHop(), kMaxPathPort);
    p = p.Consume();
  }
  EXPECT_TRUE(p.Exhausted());
}

TEST(SourcePathDeathTest, TooManyHops) {
  std::vector<int> hops(kMaxPathHops + 1, 0);
  EXPECT_DEATH(SourcePath::FromHops(hops), "exceeds");
}

TEST(SourcePathDeathTest, PortOutOfRange) {
  EXPECT_DEATH(SourcePath::FromHops({kMaxPathPort + 1}), "not encodable");
}

TEST(PacketHeader, EncodeDecodeRoundTrip) {
  PacketHeader h;
  h.gt = true;
  h.credits = 17;
  h.remote_qid = 11;
  h.path = SourcePath::FromHops({1, 2, 3});
  const Word w = h.Encode();
  const PacketHeader d = PacketHeader::Decode(w);
  EXPECT_EQ(d, h);
}

TEST(PacketHeader, FieldExtremes) {
  PacketHeader h;
  h.gt = false;
  h.credits = kMaxHeaderCredits;
  h.remote_qid = kMaxQueueId;
  h.path = SourcePath::FromHops(
      std::vector<int>(kMaxPathHops, kMaxPathPort));
  const PacketHeader d = PacketHeader::Decode(h.Encode());
  EXPECT_EQ(d, h);
}

// The router rewrites a header's path in place (ConsumeHeaderHop). For
// every nonzero 21-bit path, both traffic classes and several qid/credit
// values, the rewritten word equals the Decode -> Consume -> Encode round
// trip, and PackedNextHop reads the hop NextHop() does.
TEST(PacketHeader, InPlaceHopMatchesDecodeConsumeEncode) {
  const std::array<std::pair<int, int>, 3> qid_credits = {
      {{0, 0}, {11, 17}, {kMaxQueueId, kMaxHeaderCredits}}};
  std::int64_t checked = 0;
  std::int64_t differing = 0;
  for (const bool gt : {false, true}) {
    for (const auto& [qid, credits] : qid_credits) {
      PacketHeader header;
      header.gt = gt;
      header.remote_qid = qid;
      header.credits = credits;
      for (std::uint32_t packed = 1; packed <= BitMask(kPathBits);
           ++packed) {
        header.path = SourcePath::FromPacked(packed);
        const Word word = header.Encode();
        PacketHeader next = PacketHeader::Decode(word);
        next.path = next.path.Consume();
        ++checked;
        if (ConsumeHeaderHop(word) != next.Encode() ||
            SourcePath::PackedNextHop(HeaderPath(word)) !=
                header.path.NextHop()) {
          ++differing;
        }
      }
    }
  }
  EXPECT_EQ(checked, 6 * std::int64_t{BitMask(kPathBits)});
  EXPECT_EQ(differing, 0);
}

TEST(PacketHeader, ZeroHeader) {
  const PacketHeader d = PacketHeader::Decode(0);
  EXPECT_FALSE(d.gt);
  EXPECT_EQ(d.credits, 0);
  EXPECT_EQ(d.remote_qid, 0);
  EXPECT_TRUE(d.path.Exhausted());
}

TEST(PacketHeaderDeathTest, CreditsOverflow) {
  PacketHeader h;
  h.credits = kMaxHeaderCredits + 1;
  EXPECT_DEATH(h.Encode(), "credits");
}

TEST(Flit, EqualityAndIdle) {
  Flit a = Flit::Idle();
  EXPECT_TRUE(a.IsIdle());
  Flit b;
  b.kind = FlitKind::kPayload;
  b.valid_words = 2;
  b.words = {1, 2, 0};
  EXPECT_FALSE(a == b);
  Flit c = b;
  c.words[2] = 99;  // beyond valid_words: ignored in comparison
  EXPECT_TRUE(b == c);
}

// One link's wires bound to a one-clock kernel, plus a probe module whose
// Evaluate() runs a per-edge script: samples and drives then happen in the
// evaluate phase of a real edge, exactly as the NoC modules make them.
class WireRig {
 public:
  WireRig() : clock_(kernel_.AddClockMhz("net", 500.0)), wires_(clock_) {
    clock_->Register(&probe_);
  }

  FlitWire& data() { return wires_.data; }
  CreditWire& credit() { return wires_.credit_return; }
  sim::Clock* clock() { return clock_; }

  /// Runs `script(edge)` in the evaluate phase of every coming edge.
  void OnEdge(std::function<void(Cycle)> script) {
    probe_.script = std::move(script);
  }
  void RunEdges(Cycle n) { kernel_.RunCycles(clock_, n); }

 private:
  struct Probe : sim::Module {
    Probe() : sim::Module("probe") {}
    void Evaluate() override {
      if (script) script(CycleCount());
    }
    std::function<void(Cycle)> script;
  };

  sim::Kernel kernel_;
  sim::Clock* clock_;
  Probe probe_;
  LinkWires wires_;
};

Flit TaggedFlit(Word tag) {
  Flit f;
  f.kind = FlitKind::kPayload;
  f.valid_words = 1;
  f.words[0] = tag;
  return f;
}

// What Sample() returns in each edge's evaluate phase, before and after a
// drive made at `drive_edge` (the edges run 0..edges-1).
struct EdgeSamples {
  std::vector<Flit> before;
  std::vector<Flit> after;
};

EdgeSamples TraceOneDrive(Cycle drive_edge, const Flit& flit, Cycle edges) {
  WireRig rig;
  EdgeSamples trace;
  rig.OnEdge([&](Cycle edge) {
    trace.before.push_back(rig.data().Sample());
    if (edge == drive_edge) rig.data().Drive(flit);
    trace.after.push_back(rig.data().Sample());
  });
  rig.RunEdges(edges);
  return trace;
}

// A drive on any edge of slot 1 (edges 3..5) is invisible for the rest of
// that slot, including the edge that made it.
TEST(FlitWire, DriveIsIdleThroughItsOwnSlot) {
  const Flit f = TaggedFlit(0xDEAD);
  for (Cycle offset = 0; offset < kFlitWords; ++offset) {
    const EdgeSamples trace = TraceOneDrive(kFlitWords + offset, f, 12);
    for (Cycle e = 0; e < 2 * kFlitWords; ++e) {
      EXPECT_TRUE(trace.before[static_cast<std::size_t>(e)].IsIdle())
          << "drive at edge " << kFlitWords + offset << ", edge " << e;
      EXPECT_TRUE(trace.after[static_cast<std::size_t>(e)].IsIdle())
          << "drive at edge " << kFlitWords + offset << ", edge " << e;
    }
  }
}

// The same drive is seen on all three edges of slot 2 and is gone (idle)
// again from slot 3 on: one slot of latency, held for one slot.
TEST(FlitWire, DriveIsSeenForExactlyTheNextSlot) {
  const Flit f = TaggedFlit(0xDEAD);
  for (Cycle offset = 0; offset < kFlitWords; ++offset) {
    const EdgeSamples trace = TraceOneDrive(kFlitWords + offset, f, 12);
    for (Cycle e = 2 * kFlitWords; e < 3 * kFlitWords; ++e) {
      EXPECT_EQ(trace.before[static_cast<std::size_t>(e)], f) << "edge " << e;
    }
    for (Cycle e = 3 * kFlitWords; e < 4 * kFlitWords; ++e) {
      EXPECT_TRUE(trace.before[static_cast<std::size_t>(e)].IsIdle())
          << "edge " << e;
    }
  }
}

// Drives in consecutive slots: a Drive() never changes what Sample()
// returns in the same edge, whether the wire currently holds a value or
// is idle.
TEST(FlitWire, SameEdgeDriveDoesNotChangeSample) {
  WireRig rig;
  const Flit a = TaggedFlit(0xA);
  const Flit b = TaggedFlit(0xB);
  const Flit c = TaggedFlit(0xC);
  std::vector<std::pair<Flit, Flit>> around;  // (before, after) each drive
  rig.OnEdge([&](Cycle edge) {
    if (edge % kFlitWords != 0 || edge == 0 || edge > 3 * kFlitWords) return;
    const Flit& next = edge == kFlitWords ? a : edge == 2 * kFlitWords ? b : c;
    const Flit before = rig.data().Sample();
    rig.data().Drive(next);
    around.emplace_back(before, rig.data().Sample());
  });
  rig.RunEdges(4 * kFlitWords + 1);
  ASSERT_EQ(around.size(), 3u);
  EXPECT_TRUE(around[0].first.IsIdle());
  EXPECT_TRUE(around[0].second.IsIdle());
  EXPECT_EQ(around[1].first, a);
  EXPECT_EQ(around[1].second, a);
  EXPECT_EQ(around[2].first, b);
  EXPECT_EQ(around[2].second, b);
  EXPECT_EQ(rig.data().Sample(), c);  // slot 4
}

TEST(CreditWire, PulseLastsOneSlot) {
  WireRig rig;
  rig.RunEdges(1);
  rig.credit().Drive(3);
  EXPECT_EQ(rig.credit().Sample(), 0);
  rig.RunEdges(kFlitWords - 1);
  EXPECT_EQ(rig.credit().Sample(), 3);
  EXPECT_EQ(rig.credit().SampleDrivenIn(0), 3);  // slot 1 reads slot 0
  rig.RunEdges(kFlitWords);
  EXPECT_EQ(rig.credit().Sample(), 0);
  EXPECT_EQ(rig.credit().SampleDrivenIn(1), 0);
}

// A credit wire counts its pulses for a sender that reads them only when
// it needs credits. A pulse driven in slot s is not takeable on any edge
// of s, the driving edge included, and is takeable from slot s+1 on.
TEST(CreditWire, PulseIsTakeableFromTheNextSlot) {
  WireRig rig;
  std::vector<int> taken;  // TakeDriven() on each edge, after any drive
  rig.OnEdge([&](Cycle edge) {
    if (edge == kFlitWords + 1) rig.credit().Drive(2);  // mid slot 1
    taken.push_back(rig.credit().TakeDriven());
  });
  rig.RunEdges(3 * kFlitWords);
  for (Cycle e = 0; e < 3 * kFlitWords; ++e) {
    const int expected = e == 2 * kFlitWords ? 2 : 0;
    EXPECT_EQ(taken[static_cast<std::size_t>(e)], expected) << "edge " << e;
  }
}

// Pulses driven while the sender does not look (a parked stretch) sum, and
// a peek reads the sum without taking it.
TEST(CreditWire, PulsesSumUntilTakenAndPeekDoesNotTake) {
  WireRig rig;
  const std::vector<std::pair<Cycle, int>> pulses = {
      {1, 2}, {2, 1}, {4, 3}, {5, 1}};  // (slot, credits)
  rig.OnEdge([&](Cycle edge) {
    if (edge % kFlitWords != 0) return;
    for (const auto& [slot, credits] : pulses) {
      if (edge / kFlitWords == slot) rig.credit().Drive(credits);
    }
  });
  rig.RunEdges(8 * kFlitWords);  // slot 8: every pulse is in the past
  EXPECT_EQ(rig.credit().PeekDriven(), 7);
  EXPECT_EQ(rig.credit().PeekDriven(), 7);
  EXPECT_EQ(rig.credit().TakeDriven(), 7);
  EXPECT_EQ(rig.credit().PeekDriven(), 0);
  EXPECT_EQ(rig.credit().TakeDriven(), 0);
}

// Between steps in mid-slot, a read counts only the slots before the
// current one: this slot's pulse, driven by an earlier edge of it or
// between steps, stays on the wire for the next slot.
TEST(CreditWire, MidSlotReadCountsOnlyEarlierSlots) {
  WireRig rig;
  rig.RunEdges(1);
  rig.credit().Drive(3);  // slot 0, between edges 0 and 1
  rig.RunEdges(kFlitWords);  // before edge 4: mid slot 1
  rig.credit().Drive(1);  // slot 1
  EXPECT_EQ(rig.credit().PeekDriven(), 3);
  EXPECT_EQ(rig.credit().TakeDriven(), 3);
  rig.RunEdges(1);  // before edge 5: still slot 1
  EXPECT_EQ(rig.credit().TakeDriven(), 0);
  rig.RunEdges(1);  // before edge 6: slot 2
  EXPECT_EQ(rig.credit().PeekDriven(), 1);
  EXPECT_EQ(rig.credit().TakeDriven(), 1);
}

TEST(FlitWireDeathTest, DoubleDrive) {
  WireRig rig;
  rig.data().Drive(TaggedFlit(1));
  rig.RunEdges(kFlitWords - 1);  // still slot 0
  EXPECT_DEATH(rig.data().Drive(TaggedFlit(2)), "driven twice");
  rig.RunEdges(1);  // slot 1: a fresh drive is fine
  rig.data().Drive(TaggedFlit(3));
  rig.RunEdges(kFlitWords);
  EXPECT_EQ(rig.data().Sample(), TaggedFlit(3));
}

// A consumer that parks whenever it runs, so a wake is observable.
struct Sleeper : sim::Module {
  Sleeper() : sim::Module("sleeper") {}
  void Evaluate() override { Park(); }
};

// Swallows every flit, recording where and when it was asked.
struct DropAllTap : FlitTap {
  bool OnDrive(int site, Cycle now, Flit* /*flit*/) override {
    ++calls;
    last_site = site;
    last_now = now;
    return false;
  }
  int calls = 0;
  int last_site = -1;
  Cycle last_now = -1;
};

TEST(FlitWire, TapDropLeavesSlotIdleAndWakesNobody) {
  WireRig rig;
  Sleeper consumer;
  rig.clock()->Register(&consumer);
  std::array<std::uint32_t, 2> pending{};
  rig.data().SetConsumer(&consumer);
  rig.data().SetConsumerBit(&pending, 5);
  DropAllTap tap;
  rig.data().SetFaultTap(&tap, 7);

  rig.RunEdges(kFlitWords + 1);  // slot 1, edge 4; the consumer has parked
  ASSERT_TRUE(consumer.parked());
  rig.data().Drive(TaggedFlit(1));
  EXPECT_EQ(tap.calls, 1);
  EXPECT_EQ(tap.last_site, 7);
  EXPECT_EQ(tap.last_now, kFlitWords + 1);
  EXPECT_TRUE(consumer.parked());
  EXPECT_EQ(pending[0], 0u);
  EXPECT_EQ(pending[1], 0u);
  rig.RunEdges(kFlitWords - 1);  // slot 2
  EXPECT_TRUE(rig.data().Sample().IsIdle());
  EXPECT_TRUE(consumer.parked());

  // Control: without the tap the same drive wakes and flags the consumer.
  rig.data().SetFaultTap(nullptr, -1);
  rig.data().Drive(TaggedFlit(2));
  EXPECT_FALSE(consumer.parked());
  EXPECT_EQ(pending[0], 1u << 5);
  rig.RunEdges(kFlitWords);  // slot 3
  EXPECT_EQ(rig.data().Sample(), TaggedFlit(2));
}

TEST(FlitWire, ConsumerBitLandsInDriveSlotParityWord) {
  WireRig rig;
  std::array<std::uint32_t, 2> pending{};
  rig.data().SetConsumerBit(&pending, 3);
  for (Cycle slot = 0; slot < 4; ++slot) {
    const auto p = static_cast<std::size_t>(slot & 1);
    rig.RunEdges(1);  // a mid-slot edge: the parity follows the slot
    rig.data().Drive(TaggedFlit(static_cast<Word>(slot)));
    EXPECT_EQ(pending[p], 1u << 3) << "slot " << slot;
    EXPECT_EQ(pending[1 - p], 0u) << "slot " << slot;
    pending = {};
    rig.RunEdges(kFlitWords - 1);
  }
}
}  // namespace
}  // namespace aethereal::link
