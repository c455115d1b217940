// Multi-clock, cycle-accurate simulation kernel with two-phase update.
//
// The Æthereal NI explicitly supports a different clock frequency per NI
// port (the hardware FIFOs implement the clock-domain boundary), so the
// kernel models time in integer picoseconds and lets every module belong to
// its own clock domain.
//
// Semantics (see DESIGN.md §6):
//  * At every instant where one or more clocks have a rising edge, the
//    kernel first calls Evaluate() on ALL modules of ALL firing clocks,
//    then Commit() on all of them. Evaluate() may only read *committed*
//    state (registers, FIFO contents) and stage updates; Commit() applies
//    staged updates. Results are therefore independent of module iteration
//    order, exactly like synchronous RTL.
//  * Clocks firing at the same instant are processed together (one
//    evaluate phase, one commit phase) so cross-domain state elements see a
//    consistent picture.
//
// Performance machinery (see DESIGN.md §7): the steady-state hot path makes
// zero heap allocations per edge.
//  * Edge schedule: a single-clock SoC takes a branch-free fast path; a
//    multi-clock SoC keeps its clocks in a preallocated next-edge min-heap,
//    so Step() never scans all clocks and RunUntil() never rescans what
//    Step() is about to compute.
//  * Dirty-list commit: state elements report staging via MarkDirty(); the
//    default Commit() applies only the elements actually written this edge
//    instead of walking every registered TwoPhase.
//  * Idle-module gating: a module with no staged state and no pending work
//    may Park() itself; parked modules are skipped in the evaluate phase
//    until a wire drive, queue push, credit return, or register write
//    Wake()s them. Commit still runs for parked modules (constant time when
//    clean) so staged state always lands at the exact naïve-path edge.
//  * Engine selection (sim/engine.h): kNaive disables gating and dirty
//    commits (every module runs every edge, every element commits every
//    edge) so the gated engine can be cross-checked for identical results;
//    kSoa gates with flat per-clock activity bitmaps scanned 64 modules per
//    word, so idle stretches of a large mesh cost a few cache lines per
//    edge instead of a walk over every module.
#ifndef AETHEREAL_SIM_KERNEL_H
#define AETHEREAL_SIM_KERNEL_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
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
class TwoPhase;

/// Host-side wall-time attribution per engine stage, filled while
/// Kernel::EnableProfiling() is armed (bench_speed --profile). Off by
/// default: the hot path pays one pointer check per phase; armed, it pays
/// a few steady_clock reads per edge, so profiled runs measure
/// attribution, not peak speed.
struct EngineProfile {
  std::int64_t steps = 0;      // kernel Step() calls
  double evaluate_sec = 0.0;   // module Evaluate() sweeps
  double commit_sec = 0.0;     // commit dispatch sweeps
  double park_wake_sec = 0.0;  // timer pops + activity-bitmap upkeep
};

/// A state element with staged updates applied at the clock edge.
///
/// Elements participating in dirty-list commits must call MarkDirty() every
/// time state is staged. An element whose Commit() leaves work pending for
/// future edges (e.g. a synchronizer with words still in flight) must
/// re-arm from inside Commit(): with MarkDirty() if the pending work needs
/// the very next edge, or with MarkDirtyAt(due) if the edge at which the
/// work matures is known in advance (the commit sweep then skips the module
/// entirely until that edge).
class TwoPhase {
 public:
  virtual ~TwoPhase() = default;
  virtual void Commit() = 0;

 protected:
  /// Schedules this element for commit on its owner's next edge (and wakes
  /// the owner if it is parked). No-op when not registered to a module.
  void MarkDirty();

  /// Schedules this element for commit at edge `due` of the owner's clock.
  /// Unlike MarkDirty() this does NOT wake the owner: a future-due element
  /// is bookkeeping in flight, not work the owner could react to yet.
  /// Commit() runs at the first edge >= the earliest due over the owner's
  /// dirty elements, so an element re-armed this way must tolerate being
  /// committed earlier than `due` (and simply find nothing mature).
  void MarkDirtyAt(Cycle due);

  /// The module this element is registered to (null before RegisterState).
  Module* owner() const { return owner_; }

 private:
  friend class Module;
  Module* owner_ = nullptr;
  bool dirty_ = false;
};

/// Base class for all clocked hardware models.
///
/// Subclasses implement Evaluate() (combinational + staging of next state)
/// and register their state elements with RegisterState() so the default
/// Commit() applies them. Commit() can be overridden for extra work but must
/// call Module::Commit().
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Phase 1: read committed state, stage updates. Called once per edge.
  virtual void Evaluate() = 0;

  /// Phase 2: apply staged updates. Default commits registered state (the
  /// dirty subset, or all of it when optimizations are off).
  virtual void Commit() { CommitState(); }

  const std::string& name() const { return name_; }

  /// The clock this module is registered on (null until registered).
  Clock* clock() const { return clock_; }

  /// This module's slot in its clock's registration order — which is also
  /// the order of the commit sweep. Cross-module latches that are sensitive
  /// to commit order (the CDC synchronizers) key their edge arithmetic off
  /// this. -1 until registered.
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

 protected:
  void RegisterState(TwoPhase* element);

  /// Commits staged state. With optimizations on, only elements marked
  /// dirty since their last commit are applied; otherwise every registered
  /// element is walked (the naïve reference behaviour).
  void CommitState();

  /// Requests gating off the evaluate sweep. Granted only when gating is
  /// on, no state element is dirty, and no Wake() hold is active. A parked
  /// module skips Evaluate() until the next Wake(); its Commit() still runs
  /// every edge (constant time while nothing is staged).
  void Park();

  /// Park() plus a scheduled wake: if parking is granted, the clock's timer
  /// heap guarantees the module is evaluated again at edge `cycle` (it may
  /// be woken earlier by any other event). For modules that know their next
  /// work time, e.g. periodic traffic sources.
  void ParkUntil(Cycle cycle);

  /// Declares that Evaluate() is an unconditional no-op, so the gated
  /// engine drops this module from the evaluate sweep entirely (NI ports:
  /// pure commit machinery). The naïve path still calls it.
  void SetEvaluateIsNoop();  // inline below (needs the complete Clock type)

  /// Declares that Evaluate() does nothing except on cycles where
  /// CycleCount() % stride == 0 (slot-granular modules: routers, NI
  /// kernels). The gated engine then calls it only on those cycles.
  void SetEvaluateStride(int stride);  // inline below

  /// Declares that Commit() is exactly the default (commit registered
  /// state, nothing else), allowing the gated engine to skip the call
  /// entirely on edges where no state element is dirty. Modules that
  /// override Commit() with extra work must not set this.
  void SetDefaultCommitOnly() { always_commit_ = false; }

 private:
  friend class Clock;
  friend class Kernel;
  friend class TwoPhase;
  void AddDirty(TwoPhase* element);                // inline below
  void AddDirtyAt(TwoPhase* element, Cycle due);   // inline below

  /// commit_due_ value meaning "no dirty element has a known due edge".
  static constexpr Cycle kNeverDue = std::numeric_limits<Cycle>::max();

  /// The commit sweep's fast path for SetDefaultCommitOnly() modules: by
  /// declaration their Commit() is exactly CommitState(), and on the
  /// gated engine CommitState() is exactly this dirty walk — so the
  /// sweep can call it directly, skipping two virtual hops per module per
  /// edge. Resets commit_due_ first: elements that still have future work
  /// re-arm with their next due during the walk.
  void CommitDirty() {
    commit_due_ = kNeverDue;
    if (dirty_.empty()) return;
    dirty_scratch_.swap(dirty_);
    for (TwoPhase* s : dirty_scratch_) {
      s->dirty_ = false;
      s->Commit();
    }
    dirty_scratch_.clear();
  }

  std::string name_;
  std::vector<TwoPhase*> state_;
  std::vector<TwoPhase*> dirty_;
  std::vector<TwoPhase*> dirty_scratch_;
  Clock* clock_ = nullptr;
  int clock_index_ = -1;  // slot in the clock's module / pending arrays
  bool parked_ = false;
  bool evaluate_noop_ = false;
  bool always_commit_ = true;
  int evaluate_stride_ = 1;
  // Earliest edge at which a dirty element needs its Commit(). 0 ("due
  // now") whenever anything was staged via MarkDirty(); a future edge when
  // every dirty element re-armed via MarkDirtyAt(); kNeverDue when clean.
  // The commit sweep skips default-commit modules until this edge.
  Cycle commit_due_ = 0;
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
    if ((i >> 6) >= commit_bits_.size()) {
      commit_bits_.push_back(0);
      eval_every_bits_.push_back(0);
      eval_strided_bits_.push_back(0);
    }
    // Pending until first commit recomputes it (safe for pre-registration
    // staged state).
    SetBit(commit_bits_, i, true);
    NoteEvalStatus(module);
  }

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  Picoseconds period_ps() const { return period_ps_; }

  /// Edges seen so far.
  Cycle cycles() const { return cycles_; }

  /// Time of the next rising edge.
  Picoseconds next_edge_ps() const { return next_edge_ps_; }

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
      if (strided_uniform_ == 0) {
        strided_uniform_ = m->evaluate_stride_;
      } else if (strided_uniform_ != m->evaluate_stride_) {
        strided_uniform_ = -1;  // mixed strides: check per module
      }
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

  /// One edge of this clock, split at the two-phase barrier: the kernel
  /// evaluates every firing clock before it commits any. `gated` selects
  /// the activity-bitmap sweeps (kSoa) over the naïve every-module walks.
  /// CommitPhase also advances the clock to its next edge.
  void EvaluatePhase(bool gated);
  void CommitPhase(bool gated);
  void RunFlagged(const std::vector<std::uint64_t>& bits,
                  bool per_module_stride);
  void PopDueTimers();
  void CommitSweep();        // the bitmap dispatch of CommitPhase

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
  // SoA schedule (kSoa engine) and commit dispatch: one bit per module (bit
  // i of word i/64 covers modules_[i]). The evaluate and commit sweeps walk
  // set bits with countr_zero, so a whole mesh costs a handful of word
  // loads per edge plus work proportional to the number of *active*
  // modules. Maintained incrementally by NoteEvalStatus / AddDirty; bit
  // order equals registration order, so sweep order is unchanged.
  std::vector<std::uint64_t> commit_bits_;
  std::vector<std::uint64_t> eval_every_bits_;   // unparked, stride 1
  std::vector<std::uint64_t> eval_strided_bits_; // unparked, stride > 1
  // Phase-start snapshots the SoA sweep iterates (EvaluatePhase): mid-sweep
  // wakes mutate the live words above, not the working set.
  std::vector<std::uint64_t> eval_scratch_;
  std::vector<std::uint64_t> eval_scratch_strided_;
  int strided_uniform_ = 0;  // shared stride over ALL strided modules ever

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

  /// The gated engine (kSoa) arms the Park()/dirty-commit machinery; the
  /// naïve reference disables both.
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

inline void Module::SetEvaluateIsNoop() {
  evaluate_noop_ = true;
  if (clock_ != nullptr) clock_->NoteEvalStatus(this);
}

inline void Module::SetEvaluateStride(int stride) {
  AETHEREAL_CHECK(stride >= 1);
  evaluate_stride_ = stride;
  if (clock_ != nullptr) clock_->NoteEvalStatus(this);
}

inline void Module::AddDirty(TwoPhase* element) {
  dirty_.push_back(element);
  commit_due_ = 0;
  if (clock_ != nullptr) {
    Clock::SetBit(clock_->commit_bits_,
                  static_cast<std::size_t>(clock_index_), true);
  }
  // Staged state must be committed even if this module was parked or is
  // about to park.
  Wake();
}

inline void Module::AddDirtyAt(TwoPhase* element, Cycle due) {
  dirty_.push_back(element);
  if (due < commit_due_) commit_due_ = due;
  if (clock_ != nullptr) {
    Clock::SetBit(clock_->commit_bits_,
                  static_cast<std::size_t>(clock_index_), true);
  }
  // Deliberately no Wake(): a future-due element is synchronizer traffic in
  // flight, not state the module could evaluate against yet. Whoever makes
  // the traffic visible (the element's own Commit at the due edge) is
  // responsible for waking the parties that can then act on it.
}

inline void TwoPhase::MarkDirty() {
  if (owner_ == nullptr) return;
  if (!dirty_) {
    dirty_ = true;
    owner_->AddDirty(this);
  } else if (owner_->commit_due_ != 0) {
    // Already listed, but possibly only for a future edge: pull the
    // owner's next commit forward to the coming edge.
    owner_->commit_due_ = 0;
  }
}

inline void TwoPhase::MarkDirtyAt(Cycle due) {
  if (owner_ == nullptr) return;
  if (!dirty_) {
    dirty_ = true;
    owner_->AddDirtyAt(this, due);
  } else if (due < owner_->commit_due_) {
    owner_->commit_due_ = due;
  }
}

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_KERNEL_H
