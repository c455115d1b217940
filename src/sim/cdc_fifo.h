// Bi-synchronous (clock-domain-crossing) FIFO model.
//
// The Æthereal NI uses its hardware FIFOs to implement the clock-domain
// boundary so every NI port can run at its own frequency (paper §4.1, §5).
// The paper budgets 2 clock cycles for the crossing; this model implements
// that as a 2-reader-edge synchronizer on the write pointer and
// symmetrically a 2-writer-edge synchronizer on the read pointer (freed
// space reaches the writer two of *its* edges after the pop).
//
// Stamp-latched (DESIGN.md §7.2): there is no commit step. Push() stamps
// its hand-off with the first reader edge that may read it, and Pop()
// stamps the freed space with the first writer edge that sees it. Each side
// compares the stamps with its own clock when it reads, so visibility is
// decided at read time and a queue with nothing in flight costs nothing
// per edge. The words sit in a plain ring; a stamp belongs to a hand-off,
// not to a word: the hand-offs still in flight, and the space returns, are
// {count, stamp} groups in small rings inside the queue. Stamps never
// decrease along the queue, and a group is retired once its stamp has
// passed, so only a handful are ever in flight (kMaxGroupsInFlight).
//
// A hand-off belongs to the instant of the handing-off side's current edge,
// or of its next edge when made between steps. Its stamp is the opposite
// clock's first edge at or after that instant plus kCdcSyncEdges, plus one
// edge when the opposite side synchronizes first within the instant:
//  * on a shared clock, when the opposite side comes first in side order,
//    CdcSide::Order() (a per-fifo constant);
//  * across clocks, when the opposite clock fires at the same instant and
//    has the lower id (coincident clocks are ordered by id).
// That extra edge is the synchronizer sampling the pointer before the
// hand-off within the instant; it keeps the timing of the earlier
// commit-ordered model bit for bit.
//
// A writer module or read listener that is parked when a hand-off is made
// gets one timer wake at its stamp; a running one gets a park hold up to it
// (Module::WakeAt). Words pushed within one edge are one hand-off. The
// reader's wake is left to whoever pushes, which takes each new hand-off's
// stamp from Push(). A module on the writer's clock that parks on a full
// queue takes a one-shot space wake (WakeOnSpace).
#ifndef AETHEREAL_SIM_CDC_FIFO_H
#define AETHEREAL_SIM_CDC_FIFO_H

#include <array>
#include <cstddef>
#include <limits>
#include <memory_resource>
#include <utility>

#include "sim/kernel.h"
#include "sim/ring.h"
#include "util/check.h"

namespace aethereal::sim {

/// Synchronizer latency in destination-domain edges (gray-code pointer
/// crossing through a 2-flop synchronizer).
inline constexpr int kCdcSyncEdges = 2;

/// Read listeners one queue takes (CdcFifo::AddReadListener).
inline constexpr std::size_t kMaxReadListeners = 2;

/// "No such edge": CdcFifo::Push() when a word joins an earlier hand-off
/// of its edge, CdcFifo::WakeOnSpace() when no space is in flight.
inline constexpr Cycle kNoEdge = std::numeric_limits<Cycle>::max();

/// Hand-offs (or space returns) one queue holds in flight at most. A group
/// in flight has a stamp past the receiving side's current edge, and at
/// most five distinct stamps can be, whatever the two clocks' ratio
/// (DESIGN.md §7.2); a ninth group would be a CHECK failure.
inline constexpr int kMaxGroupsInFlight = 8;

/// One side of a CdcFifo: a module on its clock, or a bare clock with no
/// module to wake (an NI port's side: the IPs on the port arm their own).
struct CdcSide {
  CdcSide() = default;
  CdcSide(Module* m) : module(m) {}      // NOLINT: implicit
  CdcSide(const Clock* c) : clock(c) {}  // NOLINT: implicit
  const Clock* Resolved() const { return module ? module->clock() : clock; }
  /// Same-clock order: module sides by registration, then bare sides.
  int Order() const {
    return module ? module->clock_index() : std::numeric_limits<int>::max();
  }
  Module* module = nullptr;
  const Clock* clock = nullptr;
};

template <typename T>
class CdcFifo {
 public:
  /// `storage` holds the word ring (sim/ring.h).
  explicit CdcFifo(int capacity, std::pmr::memory_resource* storage =
                                     std::pmr::get_default_resource())
      : words_(capacity, storage) {}

  CdcFifo(const CdcFifo&) = delete;
  CdcFifo& operator=(const CdcFifo&) = delete;

  int capacity() const { return words_.capacity(); }

  /// Binds the sides that push (`writer`) and pop (`reader`). Their
  /// clocks stamp the hand-offs, and a writer module is woken when freed
  /// space reaches it. Push() does not wake the reader: the caller wakes it
  /// from the returned stamp (the NI kernel wakes for a GT word only in its
  /// channel's slot). A module side must be registered on its clock before
  /// the first Push().
  void Bind(CdcSide writer, CdcSide reader) {
    writer_ = writer;
    reader_ = reader;
  }

  /// Declares a module to wake whenever newly synchronized words become
  /// readable — lets a consumer park on an empty queue and still start
  /// reading at exactly the first cycle data is readable. It must run on
  /// the reader's clock. A queue takes at most kMaxReadListeners: the
  /// module that pops it and the IP that reads what that module assembles
  /// (a shell and its IP, DESIGN.md §7.4). A third listener, or one module
  /// added twice, is a CHECK failure.
  void AddReadListener(Module* listener) {
    AETHEREAL_CHECK(listener != nullptr);
    for (Module*& slot : listeners_) {
      AETHEREAL_CHECK_MSG(slot != listener,
                          listener->name() << " already listens on this queue");
      if (slot == nullptr) {
        slot = listener;
        return;
      }
    }
    AETHEREAL_CHECK_MSG(false, listener->name() << ": a queue takes at most "
                                                << kMaxReadListeners
                                                << " read listeners");
  }

  // ---- writer-side interface (call only from the writer's clock domain) --

  /// Space as the writer currently sees it (pessimistic by up to the
  /// synchronizer delay, as in real gray-code FIFOs).
  int WriterSpace() const {
    if (!returns_.empty()) MatureReturns();
    return capacity() - words_.size() - unreturned_;
  }

  bool CanPush() const { return WriterSpace() > 0; }

  /// Pushes `value` and wakes the read listeners for it. Returns the first
  /// reader edge that may read it when the push is a new hand-off, or
  /// kNoEdge when it joins a word pushed earlier in the same edge.
  Cycle Push(T value) {
    AETHEREAL_CHECK_MSG(CanPush(), "CdcFifo overflow");
    if (rclock_ == nullptr) Resolve();
    const Cycle readable = HandOffEdge(rclock_, wclock_, reader_first_);
    words_.push_back(std::move(value));
    // Words pushed within one edge share a stamp: one hand-off, one wake.
    // A word already readable has an earlier stamp than any new hand-off.
    if (!handoffs_.empty() && handoffs_.back().stamp == readable) {
      handoffs_.back().count += 1;
      return kNoEdge;
    }
    if (!handoffs_.empty()) MatureHandOffs();
    handoffs_.push_back(Group{1, readable});
    for (Module* m : listeners_) {
      if (m != nullptr) m->WakeAt(readable);
    }
    return readable;
  }

  /// Arms a one-shot wake of `listener`, a module on the writer's clock
  /// that waits for space: if popped space is already on its way back,
  /// returns the first writer edge that sees it (the caller sleeps until
  /// then); otherwise returns kNoEdge and wakes `listener` at the stamp
  /// of the next pop's space return (Module::WakeAt). One listener at a
  /// time; it is dropped once woken.
  Cycle WakeOnSpace(Module* listener) {
    if (!returns_.empty()) MatureReturns();
    if (!returns_.empty()) return returns_.front().stamp;
    AETHEREAL_CHECK_MSG(
        space_listener_ == nullptr || space_listener_ == listener,
        listener->name() << ": the queue's space wake is armed for "
                         << space_listener_->name());
    space_listener_ = listener;
    return kNoEdge;
  }

  /// Words freed by the reader that the writer has now synchronized but not
  /// yet acknowledged via TakeFreedForWriter(). The NI kernel uses this to
  /// turn destination-queue consumption into end-to-end credits.
  int TakeFreedForWriter() {
    if (!returns_.empty()) MatureReturns();
    const int freed = freed_;
    freed_ = 0;
    return freed;
  }

  /// Calls `fn(stamp)` once per hand-off still in flight to the reader
  /// (pushed words not yet readable), in stamp order.
  template <typename Fn>
  void ForEachHandOffInFlight(Fn fn) const {
    if (!handoffs_.empty()) MatureHandOffs();
    for (int i = 0; i < handoffs_.size(); ++i) fn(handoffs_[i].stamp);
  }

  /// True while popped space has not been taken by TakeFreedForWriter():
  /// still in flight to the writer, or synchronized and not yet taken.
  bool HasPendingReturns() const { return !returns_.empty() || freed_ > 0; }

  // ---- reader-side interface (call only from the reader's clock domain) --

  /// Words readable at the start of this edge: this edge's pops are still
  /// counted, so every module sees the same size whatever the order.
  int ReaderSize() const {
    const int readable = Readable();
    if (pops_ == 0) return readable;
    return pop_edge_ == rclock_->cycles() ? readable + pops_ : readable;
  }

  /// Words still poppable this cycle (readable minus this edge's pops).
  int ReaderAvailable() const { return Readable(); }

  bool CanPop() const { return Readable() > 0; }

  T Pop() {
    AETHEREAL_CHECK_MSG(CanPop(), "CdcFifo underflow");
    const Cycle now = rclock_->cycles();
    if (pop_edge_ != now) {
      pop_edge_ = now;
      pops_ = 0;
    }
    ++pops_;
    --readable_;
    ++unreturned_;
    const Cycle seen = HandOffEdge(wclock_, rclock_, writer_first_);
    if (!returns_.empty() && returns_.back().stamp == seen) {
      returns_.back().count += 1;  // same hand-off as an earlier pop
    } else {
      if (!returns_.empty()) MatureReturns();
      returns_.push_back(Group{1, seen});
      if (writer_.module != nullptr) writer_.module->WakeAt(seen);
      if (space_listener_ != nullptr) {
        space_listener_->WakeAt(seen);
        space_listener_ = nullptr;
      }
    }
    return words_.pop_front();
  }

 private:
  /// One hand-off: `count` words (or freed places) that the receiving side
  /// sees from its edge `stamp` on.
  struct Group {
    int count = 0;
    Cycle stamp = 0;
  };

  /// The first edge of `to` that sees a hand-off made now by the side on
  /// `from`. The hand-off belongs to `from`'s current edge, or to its next
  /// edge when made between steps; call its instant t. The stamp is `to`'s
  /// first edge at or after t, plus kCdcSyncEdges, plus one when `to`'s
  /// side synchronizes first at t. `to_first` is the per-fifo side order:
  /// CdcSide::Order() on a shared clock, clock-id order across clocks.
  /// It only counts when `to` fires at t too, which a shared clock does.
  static Cycle HandOffEdge(const Clock* to, const Clock* from,
                           bool to_first) {
    const Picoseconds t = from->next_edge_ps();
    const Cycle first = to->FirstEdgeFrom(t);
    const bool late =
        to_first && to->next_edge_ps() +
                            (first - to->cycles()) * to->period_ps() == t;
    return first + kCdcSyncEdges + (late ? 1 : 0);
  }

  /// Resolves the clocks and side order once module sides are registered.
  void Resolve() {
    wclock_ = writer_.Resolved();
    rclock_ = reader_.Resolved();
    AETHEREAL_CHECK_MSG(wclock_ != nullptr && rclock_ != nullptr,
                        "CdcFifo sides must be bound to clocks");
    for (const Module* m : listeners_) {
      AETHEREAL_CHECK_MSG(m == nullptr || m->clock() == rclock_,
                          m->name() << " listens on another clock");
    }
    if (wclock_ == rclock_) {
      reader_first_ = reader_.Order() < writer_.Order();
      writer_first_ = writer_.Order() < reader_.Order();
    } else {
      reader_first_ = rclock_->id() < wclock_->id();
      writer_first_ = wclock_->id() < rclock_->id();
    }
  }

  /// Words readable now: the count only grows between pops, as the
  /// hand-offs in flight mature.
  int Readable() const {
    if (!handoffs_.empty()) MatureHandOffs();
    return readable_;
  }

  /// Hands the reader the hand-offs whose stamp has passed. Callers test
  /// for an empty handoffs_ first, so the idle path stays inline.
  void MatureHandOffs() const {
    const Cycle now = rclock_->cycles();
    while (!handoffs_.empty() && handoffs_.front().stamp <= now) {
      readable_ += handoffs_.front().count;
      handoffs_.pop_front();
    }
  }

  /// Hands the writer the space returns whose stamp has passed. Callers
  /// test for an empty returns_ first, so the idle path stays inline.
  void MatureReturns() const {
    const Cycle now = wclock_->cycles();
    while (!returns_.empty() && returns_.front().stamp <= now) {
      unreturned_ -= returns_.front().count;
      freed_ += returns_.front().count;
      returns_.pop_front();
    }
  }

  Ring<T> words_;  // pushed and not popped, readable or still in flight
  CdcSide writer_;
  CdcSide reader_;
  std::array<Module*, kMaxReadListeners> listeners_{};
  Module* space_listener_ = nullptr;  // one-shot, armed by WakeOnSpace
  const Clock* wclock_ = nullptr;
  const Clock* rclock_ = nullptr;
  bool reader_first_ = false;  // reader side synchronizes first
  bool writer_first_ = false;  // writer side synchronizes first
  // Reader side: the hand-offs still in flight, the leading words known
  // readable, and this edge's pops.
  mutable InlineRing<Group, kMaxGroupsInFlight> handoffs_;
  mutable int readable_ = 0;
  Cycle pop_edge_ = std::numeric_limits<Cycle>::min();
  int pops_ = 0;
  // Writer side: popped words whose space is still in flight, and space
  // synchronized but not yet taken as credits.
  mutable InlineRing<Group, kMaxGroupsInFlight> returns_;
  mutable int unreturned_ = 0;
  mutable int freed_ = 0;
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_CDC_FIFO_H
