// Multi-clock, cycle-accurate simulation kernel with one-phase, stamp-latched
// update.
//
// The Æthereal NI explicitly supports a different clock frequency per NI
// port (the hardware FIFOs implement the clock-domain boundary), so the
// kernel models time in integer picoseconds and lets every module belong to
// its own clock domain.
//
// Semantics (see DESIGN.md §6):
//  * At every instant where one or more clocks have a rising edge, the
//    kernel calls Evaluate() on the modules of ALL firing clocks, then
//    advances those clocks. There is no commit phase. Evaluate() reads
//    state from earlier edges and stages updates only through stamp-latched
//    elements (sim::Fifo, sim::Register, sim::CdcFifo, link::SlotWire):
//    each stamps what it stages with its clock's edge and tells it apart
//    from earlier edges' state when read. Results are therefore independent
//    of module iteration order, exactly like synchronous RTL.
//  * Clocks firing at the same instant evaluate together and advance
//    together, so cross-domain elements see a consistent picture.
//
// Performance machinery (see DESIGN.md §7): the steady-state hot path makes
// zero heap allocations per edge.
//  * Edge schedule: a single-clock SoC takes a branch-free fast path; a
//    multi-clock SoC keeps its clocks in a preallocated next-edge min-heap,
//    so Step() never scans all clocks and RunUntil() never rescans what
//    Step() is about to compute.
//  * Idle-module gating: a module with no pending work may Park() itself;
//    parked modules are skipped in the evaluate phase until a wire drive,
//    queue hand-off, credit return, register write or timer Wake()s them.
//  * Engine selection (sim/engine.h): kNaive turns gating off (every module
//    runs every edge) so the gated engine can be cross-checked for
//    identical results; kSoa gates with flat per-clock activity bitmaps
//    scanned 64 modules per word, so idle stretches of a large mesh cost a
//    few cache lines per edge instead of a walk over every module.
#ifndef AETHEREAL_SIM_KERNEL_H
#define AETHEREAL_SIM_KERNEL_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "util/check.h"
#include "util/types.h"

namespace aethereal::sim {

class Clock;
class Kernel;
class Module;

/// Host-side wall-time attribution per engine stage, filled while
/// Kernel::EnableProfiling() is armed (bench_speed --profile). Off by
/// default: the hot path pays one pointer check per phase; armed, it pays
/// a few steady_clock reads per edge, so profiled runs measure
/// attribution, not peak speed.
struct EngineProfile {
  std::int64_t steps = 0;      // kernel Step() calls
  double evaluate_sec = 0.0;   // module Evaluate() sweeps
  double commit_sec = 0.0;     // always 0: there is no commit phase
  double park_wake_sec = 0.0;  // timer pops + activity-bitmap upkeep
};

/// Base class for all clocked hardware models.
///
/// Subclasses implement Evaluate(): read state from earlier edges, and stage
/// the next state through stamp-latched elements bound to the module.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Reads state from earlier edges and stages updates. Called once per
  /// edge (per stride edge, see SetEvaluateStride) while not parked.
  virtual void Evaluate() = 0;

  const std::string& name() const { return name_; }

  /// The clock this module is registered on (null until registered).
  Clock* clock() const { return clock_; }

  /// This module's slot in its clock's registration order. The CDC
  /// synchronizers on a shared clock key their edge arithmetic off it
  /// (sim/cdc_fifo.h). -1 until registered.
  int clock_index() const { return clock_index_; }

  /// Number of edges this module's clock has seen since simulation start.
  Cycle CycleCount() const;  // inline below (hot path)

  /// True while the module is gated off the kernel's evaluate sweep.
  bool parked() const { return parked_; }

  /// Ensures the module runs from the next edge of its clock onward, and
  /// suppresses Park() for `hold_edges` further edges. Callable by anyone
  /// (producers wake consumers); idempotent and order-independent within an
  /// edge: a wake issued during edge t always defeats a Park() in edge t,
  /// regardless of module iteration order.
  void Wake(Cycle hold_edges = 1);  // inline below (hot path)

  /// Ensures the module evaluates at edge `edge` of its clock, or at its
  /// first stride edge from there: a parked module gets a timer wake at
  /// `edge`, a running one a Park() hold through the edge before. For
  /// producers whose hand-off becomes visible at a known future edge (the
  /// CDC synchronizers), so the module may sleep until then.
  void WakeAt(Cycle edge);  // inline below (hot path)

 protected:
  /// Requests gating off the evaluate sweep. Granted only when gating is
  /// on and no Wake() or WakeAt() hold is active. A parked module skips
  /// Evaluate() until the next Wake().
  void Park();

  /// Park() plus a scheduled wake: if parking is granted, the clock's timer
  /// heap guarantees the module is evaluated again at edge `cycle` (it may
  /// be woken earlier by any other event). For modules that know their next
  /// work time, e.g. periodic traffic sources.
  void ParkUntil(Cycle cycle);

  /// Declares that Evaluate() is an unconditional no-op, so the gated
  /// engine drops this module from the evaluate sweep entirely (NI ports:
  /// they only bind the port side of the CDC queues). The naïve path still
  /// calls it.
  void SetEvaluateIsNoop();  // inline below (needs the complete Clock type)

  /// Declares that Evaluate() does nothing except on cycles where
  /// CycleCount() % stride == 0 (slot-granular modules: routers, NI
  /// kernels). The gated engine then calls it only on those cycles. The
  /// strided modules of one clock share one stride (CHECKed).
  void SetEvaluateStride(int stride);  // inline below

 private:
  friend class Clock;
  friend class Kernel;

  std::string name_;
  Clock* clock_ = nullptr;
  int clock_index_ = -1;  // slot in the clock's module array and bitmaps
  bool parked_ = false;
  bool evaluate_noop_ = false;
  int evaluate_stride_ = 1;
  Cycle wake_until_ = -1;  // Park() suppressed while cycles() <= this
};

/// A clock domain: a period in picoseconds and the modules driven by it.
class Clock {
 public:
  Clock(int id, std::string name, Picoseconds period_ps)
      : id_(id), name_(std::move(name)), period_ps_(period_ps) {
    AETHEREAL_CHECK(period_ps > 0);
  }

  void Register(Module* module) {
    AETHEREAL_CHECK_MSG(module->clock_ == nullptr,
                        module->name() << " already registered to a clock");
    module->clock_ = this;
    module->clock_index_ = static_cast<int>(modules_.size());
    modules_.push_back(module);
    const std::size_t i = modules_.size() - 1;
    if ((i >> 6) >= eval_every_bits_.size()) {
      eval_every_bits_.push_back(0);
      eval_strided_bits_.push_back(0);
    }
    NoteEvalStatus(module);
  }

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  Picoseconds period_ps() const { return period_ps_; }

  /// Edges seen so far.
  Cycle cycles() const { return cycles_; }

  /// Time of the next rising edge.
  Picoseconds next_edge_ps() const { return next_edge_ps_; }

  /// Index of the first edge at or after time `t`, for a `t` no earlier
  /// than the current instant.
  Cycle FirstEdgeFrom(Picoseconds t) const {
    if (t <= next_edge_ps_) return cycles_;
    return cycles_ + (t - next_edge_ps_ + period_ps_ - 1) / period_ps_;
  }

  double frequency_ghz() const { return 1000.0 / static_cast<double>(period_ps_); }

 private:
  friend class Kernel;
  friend class Module;

  /// Keeps the activity bitmaps in sync with a module's parked / no-op /
  /// stride status. Called on every park-wake transition: the per-clock
  /// bitmaps ARE the schedule, so there is nothing to rebuild at the next
  /// edge.
  void NoteEvalStatus(Module* m) {
    const auto i = static_cast<std::size_t>(m->clock_index_);
    if (m->parked_ || m->evaluate_noop_) {
      SetBit(eval_every_bits_, i, false);
      SetBit(eval_strided_bits_, i, false);
      return;
    }
    if (m->evaluate_stride_ == 1) {
      SetBit(eval_every_bits_, i, true);
      SetBit(eval_strided_bits_, i, false);
    } else {
      SetBit(eval_every_bits_, i, false);
      SetBit(eval_strided_bits_, i, true);
      AETHEREAL_CHECK_MSG(stride_ == 0 || stride_ == m->evaluate_stride_,
                          m->name() << " has stride " << m->evaluate_stride_
                                    << " but clock " << name_
                                    << " runs its strided modules every "
                                    << stride_ << " cycles");
      stride_ = m->evaluate_stride_;
    }
  }

  static void SetBit(std::vector<std::uint64_t>& bits, std::size_t i,
                     bool on) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (on) {
      bits[i >> 6] |= mask;
    } else {
      bits[i >> 6] &= ~mask;
    }
  }

  /// One edge of this clock. The kernel evaluates every firing clock
  /// before it advances any, so stamps taken during the evaluate phase
  /// see every firing clock at its current edge. `gated` selects the
  /// activity-bitmap sweeps (kSoa) over the naïve every-module walk.
  void EvaluatePhase(bool gated);
  void Advance() {
    cycles_ += 1;
    next_edge_ps_ += period_ps_;
  }
  void RunFlagged(const std::vector<std::uint64_t>& bits);
  void PopDueTimers();

  struct Timer {
    Cycle due;
    Module* module;
  };
  static bool TimerAfter(const Timer& a, const Timer& b) {
    return a.due > b.due;
  }
  void AddTimer(Cycle due, Module* module) {
    timers_.push_back(Timer{due, module});
    std::push_heap(timers_.begin(), timers_.end(), TimerAfter);
  }

  int id_;
  std::string name_;
  Picoseconds period_ps_;
  Picoseconds next_edge_ps_ = 0;  // first edge at t=0
  Cycle cycles_ = 0;
  Kernel* kernel_ = nullptr;
  std::vector<Module*> modules_;
  std::vector<Timer> timers_;         // scheduled wakes (min-heap by due)
  // SoA schedule (kSoa engine): one bit per module (bit i of word i/64
  // covers modules_[i]). The evaluate sweep walks set bits with
  // countr_zero, so a whole mesh costs a handful of word loads per edge
  // plus work proportional to the number of *active* modules. Maintained
  // incrementally by NoteEvalStatus; bit order equals registration order,
  // so sweep order is unchanged.
  std::vector<std::uint64_t> eval_every_bits_;   // unparked, stride 1
  std::vector<std::uint64_t> eval_strided_bits_; // unparked, stride > 1
  // Phase-start snapshots the SoA sweep iterates (EvaluatePhase): mid-sweep
  // wakes mutate the live words above, not the working set.
  std::vector<std::uint64_t> eval_scratch_;
  std::vector<std::uint64_t> eval_scratch_strided_;
  int stride_ = 0;  // the one stride of the strided modules (0: none yet)

  EngineProfile* profile_ = nullptr;  // set while the kernel profiles
};

/// Owns the clocks and advances simulated time.
class Kernel {
 public:
  /// Creates a clock with the given period; the kernel keeps ownership.
  Clock* AddClock(std::string name, Picoseconds period_ps);

  /// Convenience: clock from a frequency in MHz (500 MHz -> 2000 ps).
  Clock* AddClockMhz(std::string name, double mhz);

  /// Processes exactly one instant (all clock edges at the earliest pending
  /// time). Returns that time.
  Picoseconds Step();

  /// Runs until simulated time strictly exceeds `until_ps`.
  void RunUntil(Picoseconds until_ps);

  /// Runs `n` edges of the given clock.
  void RunCycles(Clock* clock, Cycle n);

  /// Time of the earliest pending edge across all clocks, without scanning:
  /// O(1) for a single clock, heap-top otherwise.
  Picoseconds NextEdgeTime() const;

  Picoseconds now_ps() const { return now_ps_; }

  /// Selects the engine (sim/engine.h). Must be set before the first
  /// Step(). The edge schedule itself is always on (it is exactly
  /// equivalent scheduling, not an approximation). Both engines produce
  /// bit-identical results.
  void set_engine(EngineKind kind);
  EngineKind engine() const { return engine_; }

  /// Arms per-stage wall-time attribution (resets any prior counts).
  /// Callable at any point; existing and future clocks both report.
  void EnableProfiling();
  bool profiling() const { return profiling_; }
  const EngineProfile& profile() const { return profile_data_; }

 private:
  friend class Module;
  void RebuildHeap() const;

  /// The gated engine (kSoa) arms Park(); the naïve reference never parks.
  bool gating() const { return engine_ == EngineKind::kSoa; }

  std::vector<std::unique_ptr<Clock>> clocks_;
  // Next-edge min-heap over (next_edge_ps, clock id) and the scratch list of
  // clocks firing at the current instant; both preallocated so the hot path
  // never allocates. Mutable: lazily rebuilt from const NextEdgeTime().
  mutable std::vector<Clock*> edge_heap_;
  mutable bool heap_dirty_ = false;
  std::vector<Clock*> firing_;
  EngineKind engine_ = EngineKind::kSoa;
  bool stepped_ = false;
  Picoseconds now_ps_ = 0;
  bool profiling_ = false;
  EngineProfile profile_data_;
};

// --- hot-path inline definitions (need the complete Clock type) -----------

inline Cycle Module::CycleCount() const {
  AETHEREAL_CHECK(clock_ != nullptr);
  return clock_->cycles_;
}

inline void Module::Wake(Cycle hold_edges) {
  if (clock_ == nullptr) {
    parked_ = false;
    return;
  }
  const Cycle until = clock_->cycles_ + hold_edges;
  if (until > wake_until_) wake_until_ = until;
  if (parked_) {
    parked_ = false;
    clock_->NoteEvalStatus(this);
  }
}

inline void Module::WakeAt(Cycle edge) {
  if (parked_) {
    clock_->AddTimer(edge, this);
  } else if (edge - 1 > wake_until_) {
    wake_until_ = edge - 1;
  }
}

inline void Module::SetEvaluateIsNoop() {
  evaluate_noop_ = true;
  if (clock_ != nullptr) clock_->NoteEvalStatus(this);
}

inline void Module::SetEvaluateStride(int stride) {
  AETHEREAL_CHECK(stride >= 1);
  evaluate_stride_ = stride;
  if (clock_ != nullptr) clock_->NoteEvalStatus(this);
}

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_KERNEL_H
