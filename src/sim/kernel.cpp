#include "sim/kernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace aethereal::sim {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Min-heap comparator: std::*_heap build max-heaps, so "greater" yields a
// min-heap. Ties break on clock id so coincident edges pop in id order
// (deterministic, and matches the original all-clocks scan order).
bool EdgeAfter(const Clock* a, const Clock* b) {
  if (a->next_edge_ps() != b->next_edge_ps())
    return a->next_edge_ps() > b->next_edge_ps();
  return a->id() > b->id();
}

}  // namespace

// ---------------------------------------------------------------------------
// Module
// ---------------------------------------------------------------------------

void Module::Park() {
  if (parked_) return;
  if (clock_ == nullptr || clock_->kernel_ == nullptr ||
      !clock_->kernel_->gating()) {
    return;
  }
  if (clock_->cycles_ <= wake_until_) return;  // recent wake holds us awake
  parked_ = true;
  clock_->NoteEvalStatus(this);
}

void Module::ParkUntil(Cycle cycle) {
  Park();
  if (!parked_) return;
  clock_->AddTimer(cycle, this);
}

// ---------------------------------------------------------------------------
// Clock phases
// ---------------------------------------------------------------------------

void Clock::PopDueTimers() {
  // Wake modules whose scheduled time has come, before the schedule is
  // consulted, so they are evaluated at exactly the edge they asked for.
  // Every edge pops its bucket, so an entry is due at the first edge that
  // visits it or at a later rotation.
  const Cycle now = cycles_;
  timer_edge_ = now + 1;
  std::int32_t* link = &wheel_[static_cast<std::size_t>(now) & kWheelMask];
  while (*link >= 0) {
    const std::int32_t i = *link;
    TimerEntry& entry = timer_pool_[static_cast<std::size_t>(i)];
    if (entry.due > now) {
      link = &entry.next;  // a later rotation's
      continue;
    }
    *link = entry.next;
    entry.next = timer_free_;
    timer_free_ = i;
    // No park hold: nothing staged races a timer, so the module may park
    // again in the evaluation it was woken for.
    Module* m = entry.module;
    if (m->parked_) {
      m->parked_ = false;
      NoteEvalStatus(m);
    }
  }
}

// The SoA evaluate sweep: scan the per-clock activity bitmaps maintained
// incrementally by NoteEvalStatus instead of walking every module. Fully
// parked 64-module blocks cost one 64-bit load, so the per-edge cost tracks
// how much of the mesh is awake, not how much exists.
//
// The sweep walks a phase-start snapshot of the live bitmap, never the live
// words themselves. A module woken mid-sweep by an earlier module's
// Evaluate (a wire drive, a queue push) therefore runs at the NEXT edge —
// its Evaluate this edge would be a proven no-op anyway (the inputs that
// woke it carry this edge's stamp, so are not yet visible), but under
// contention those no-op arbitration scans are real host work: on a
// saturated best-effort mesh every router wake-chains its downstream
// neighbours, and sweeping the live words re-evaluated about half of them
// a second time per slot edge.
void Clock::RunFlagged(const std::vector<std::uint64_t>& bits) {
  const std::size_t words = bits.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t chunk = bits[w];
    while (chunk != 0) {
      const int b = std::countr_zero(chunk);
      chunk &= chunk - 1;
      Module* m = modules_[(w << 6) + static_cast<std::size_t>(b)];
      m->Evaluate();
    }
  }
}

void Clock::EvaluatePhase(bool gated) {
  std::chrono::steady_clock::time_point t0;
  if (profile_ != nullptr) t0 = std::chrono::steady_clock::now();
  if (!gated) {
    for (Module* m : modules_) m->Evaluate();
    if (profile_ != nullptr) profile_->evaluate_sec += SecondsSince(t0);
    return;
  }
  PopDueTimers();
  if (profile_ != nullptr) {
    const auto t1 = std::chrono::steady_clock::now();
    profile_->park_wake_sec +=
        std::chrono::duration<double>(t1 - t0).count();
    t0 = t1;
  }
  // Snapshot the activity words before running anything: wakes issued by
  // modules evaluated this phase land in the live bitmap for the next
  // edge (see RunFlagged). assign() reuses capacity — no steady-state
  // allocation. The strided words are only copied on a boundary edge.
  eval_scratch_.assign(eval_every_bits_.begin(), eval_every_bits_.end());
  const bool strided_fire = stride_ > 0 && cycles_ % stride_ == 0;
  if (strided_fire) {
    eval_scratch_strided_.assign(eval_strided_bits_.begin(),
                                 eval_strided_bits_.end());
  }
  RunFlagged(eval_scratch_);
  if (strided_fire) RunFlagged(eval_scratch_strided_);
  if (profile_ != nullptr) profile_->evaluate_sec += SecondsSince(t0);
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

Clock* Kernel::AddClock(std::string name, Picoseconds period_ps) {
  clocks_.push_back(std::make_unique<Clock>(
      static_cast<int>(clocks_.size()), std::move(name), period_ps));
  Clock* clock = clocks_.back().get();
  clock->kernel_ = this;
  if (profiling_) clock->profile_ = &profile_data_;
  edge_heap_.reserve(clocks_.size());
  firing_.reserve(clocks_.size());
  heap_dirty_ = true;
  return clock;
}

Clock* Kernel::AddClockMhz(std::string name, double mhz) {
  AETHEREAL_CHECK(mhz > 0.0);
  const auto period = static_cast<Picoseconds>(std::llround(1e6 / mhz));
  return AddClock(std::move(name), period);
}

void Kernel::EnableProfiling() {
  profiling_ = true;
  profile_data_ = EngineProfile{};
  for (const auto& c : clocks_) c->profile_ = &profile_data_;
}

void Kernel::set_engine(EngineKind kind) {
  AETHEREAL_CHECK_MSG(!stepped_,
                      "set_engine must be called before the first Step()");
  engine_ = kind;
}

void Kernel::RebuildHeap() const {
  edge_heap_.clear();
  for (const auto& c : clocks_) edge_heap_.push_back(c.get());
  std::make_heap(edge_heap_.begin(), edge_heap_.end(), EdgeAfter);
  heap_dirty_ = false;
}

Picoseconds Kernel::NextEdgeTime() const {
  AETHEREAL_CHECK_MSG(!clocks_.empty(), "no clocks in kernel");
  if (clocks_.size() == 1) return clocks_.front()->next_edge_ps();
  if (heap_dirty_) RebuildHeap();
  return edge_heap_.front()->next_edge_ps();
}

Picoseconds Kernel::Step() {
  AETHEREAL_CHECK_MSG(!clocks_.empty(), "no clocks in kernel");
  stepped_ = true;
  if (profiling_) profile_data_.steps += 1;
  const bool gated = gating();

  // Single-clock fast path: no heap, no scratch.
  if (clocks_.size() == 1) {
    Clock* c = clocks_.front().get();
    const Picoseconds t = c->next_edge_ps_;
    c->EvaluatePhase(gated);
    c->Advance();
    return t;
  }

  if (heap_dirty_) RebuildHeap();
  const Picoseconds t = edge_heap_.front()->next_edge_ps_;

  // Pop every clock firing at t; pops come out in (time, id) order, so
  // coincident clocks are processed in id order (deterministic).
  firing_.clear();
  while (!edge_heap_.empty() && edge_heap_.front()->next_edge_ps_ == t) {
    std::pop_heap(edge_heap_.begin(), edge_heap_.end(), EdgeAfter);
    firing_.push_back(edge_heap_.back());
    edge_heap_.pop_back();
  }

  // Evaluate every firing clock before advancing any.
  for (Clock* c : firing_) c->EvaluatePhase(gated);
  for (Clock* c : firing_) {
    c->Advance();
    edge_heap_.push_back(c);
    std::push_heap(edge_heap_.begin(), edge_heap_.end(), EdgeAfter);
  }
  return t;
}

void Kernel::RunUntil(Picoseconds until_ps) {
  AETHEREAL_CHECK_MSG(!clocks_.empty(), "no clocks in kernel");
  while (NextEdgeTime() <= until_ps) Step();
}

void Kernel::RunCycles(Clock* clock, Cycle n) {
  AETHEREAL_CHECK(clock != nullptr);
  const Cycle target = clock->cycles() + n;
  while (clock->cycles() < target) Step();
}

}  // namespace aethereal::sim
