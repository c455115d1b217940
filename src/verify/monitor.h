// Runtime invariant monitor: a read-only network tap that proves, cycle by
// cycle, that the simulator honors the GT contract the slot tables promise.
//
// The monitor is a sim::Module registered on the network clock *before*
// every other module (soc/soc.cpp registers it first when
// SocOptions::verify is set). Because modules of one clock evaluate in
// registration order and all NI/router-internal mutations happen in the
// Evaluate phase, the monitor's Evaluate at slot boundary t observes a
// consistent "end of slot t-1" snapshot: link wires carrying what was
// driven in slot t-1, NI register/credit state as left by the previous
// slot. It samples committed state only (SlotWire::SampleDrivenIn(t-1),
// which reads only slot t-1's stamped entry whatever is driven in slot t;
// const NiKernel accessors) and never stages anything, so arming it cannot change simulation results
// — the golden tests run byte-identical with the monitor on
// (tests/verify_test.cpp).
//
// Checks (violations are recorded, not fatal, so negative tests can assert
// on them; the scenario runner turns a non-empty list into a run error):
//
//  * gt-slot-reservation — a GT flit observed on an NI's injection link
//    must have been driven in a slot the centralized allocator reserved on
//    that link, for a channel of that NI, and the NI's own STU must have
//    named the same channel (the drive-time tables are snapshotted one
//    slot earlier, so reconfiguration cannot race the check).
//  * stu-allocator-conformance — an enabled GT channel owning an STU slot
//    without a matching allocator reservation (checked per slot index as
//    the table rotates; a mismatch must persist for two rotations before
//    it is reported, so the one-cycle window of a legitimate register
//    update never false-positives). Only an NI whose tables changed in
//    the last two rotations, or whose check sees a mismatch, is checked:
//    elsewhere the check would find what it found a rotation ago.
//  * gt-route-conformance — a GT header's path and remote queue id must
//    equal the emitting channel's configured PATH/RQID register.
//  * gt-timing — every GT flit entering the network at observation time t
//    on a route of h hops must appear on the destination NI's delivery
//    link at exactly t + h*kFlitWords: the pipelined-circuit latency, and
//    the proof that GT flits are never delayed by best-effort traffic.
//    Finalize() reports GT flits still unaccounted past their deadline.
//  * flit-integrity / flit-ordering / flit-loss — every flit delivered to
//    (NI, queue) is matched with the in-flight entry of the same identity
//    (link::Flit::id, the simulation-only stamp of the emitting NI) among
//    what entered the network for (NI, queue): payload words, header
//    fields, end-of-packet and traffic class must agree, and no older
//    entry may be left behind (per-channel in-order, uncorrupted, lossless
//    delivery — for BE too). A flit matching no entry is a flit-ordering
//    violation; older entries skipped are lost (flit-loss).
//  * credit-conservation — per connection direction a->b, the words that
//    entered the network for b minus the credits returned to a never
//    exceed b's destination-queue capacity (the Space counter can never
//    have gone negative), and credits returned to a never exceed the words
//    delivered to b (credits cannot be fabricated).
//
// The tap attributes payload flits to packets with the same per-link,
// per-class open-packet state the NI receive path uses (GT packets occupy
// consecutive slots, so at most one is open per link and class).
#ifndef AETHEREAL_VERIFY_MONITOR_H
#define AETHEREAL_VERIFY_MONITOR_H

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/ni_kernel.h"
#include "link/wire.h"
#include "sim/kernel.h"
#include "tdm/allocator.h"
#include "topology/topology.h"

namespace aethereal::verify {

struct Violation {
  Cycle cycle = 0;
  std::string check;    // e.g. "gt-timing"
  std::string message;
  /// True when the violation is explained by the armed fault model: a
  /// payload that differs on a flit the fault injector flipped a bit of
  /// (link::Flit::fault_flipped), or, under drop faults (FaultContext), a
  /// lost flit and the credit imbalance it leaves. The scenario runner
  /// demotes fault-induced violations to degradation records; unexplained
  /// ones still fail the run.
  bool fault_induced = false;
};

/// What the armed fault model can legitimately do to observed traffic
/// (soc.cpp derives this from the FaultSpec). With drops_possible false —
/// the default — a lost flit and a credit imbalance are genuine. Payload
/// corruption needs no flag here: the injector marks each flit it flips.
struct FaultContext {
  bool drops_possible = false;  // wire drops or router stall windows
};

/// Everything the monitor needs from the assembled SoC, passed as plain
/// pointers/functions so verify/ never includes soc/ (the Soc owns the
/// monitor).
struct MonitorHookup {
  const topology::Topology* topology = nullptr;
  const tdm::CentralizedAllocator* allocator = nullptr;
  std::vector<core::NiKernel*> nis;
  std::vector<const link::LinkWires*> injection;  // per NI: NI -> router
  std::vector<const link::LinkWires*> delivery;   // per NI: router -> NI
  /// Destination-queue capacity of a channel (credit-conservation bound).
  std::function<int(const tdm::GlobalChannel&)> dest_queue_words;
  /// Currently open connection endpoints (a sends to b's queue and vice
  /// versa), re-queried whenever pairs_version changes.
  std::function<std::vector<
      std::pair<tdm::GlobalChannel, tdm::GlobalChannel>>()>
      channel_pairs;
  std::function<std::int64_t()> pairs_version;
};

class Monitor : public sim::Module {
 public:
  explicit Monitor(std::string name);
  ~Monitor() override;

  /// Wires the tap to the built network. Must be called before the first
  /// cycle; the monitor idles (and checks nothing) until attached.
  void Attach(MonitorHookup hookup);
  bool attached() const { return attached_; }

  void Evaluate() override;

  /// End-of-run checks: GT flits still in flight past their deadline.
  /// Idempotent per call site (re-running after more cycles re-arms).
  void Finalize();

  /// Declares a reconfiguration boundary (the phased scenario runner calls
  /// this as each use-case transition begins, after traffic has drained):
  /// the slot tables and the open-connection set are about to change under
  /// the tap. The monitor re-snapshots — drive-time table snapshots are
  /// invalidated so the first post-boundary slot is judged against the NEW
  /// tables, the stu-allocator mismatch streaks restart (a disagreement
  /// spanning the boundary is two different configurations, not one
  /// persistent corruption), and the channel pairing is re-queried even if
  /// the version counter has not ticked yet. All checks stay armed
  /// throughout: GT traffic of connections that survive the transition is
  /// still held to exact per-flit timing, which is what proves a
  /// reconfiguration never disturbs in-flight guaranteed traffic.
  void NotePhaseBoundary();

  /// Declares that NI `ni`'s STU, CTRL enables or injection-link
  /// allocator table are about to change (the NI's table-write hook and
  /// the allocator's injection-table hook call this before the change
  /// lands). Keeps the NI's drive-time owners and slot check per slot for
  /// the next two rotations.
  void NoteTableChange(NiId ni);

  /// Declares which fault effects are armed. Must be set before traffic
  /// flows; without it every violation is reported as genuine.
  void SetFaultContext(const FaultContext& context) {
    fault_context_ = context;
  }

  /// Recorded violations (capped; total_violations() keeps counting).
  const std::vector<Violation>& violations() const { return violations_; }
  std::int64_t total_violations() const { return total_violations_; }
  std::int64_t flits_checked() const { return flits_checked_; }

  /// Violations explained by the fault context vs not. A fault run is
  /// healthy exactly when unexplained_violations() == 0.
  std::int64_t fault_violations() const { return fault_violations_; }
  std::int64_t unexplained_violations() const {
    return total_violations_ - fault_violations_;
  }
  /// Graceful-degradation ledger: delivered flits whose payload a fault
  /// flipped, and flits/words attributed to drop faults (skipped by a
  /// later delivery, plus GT flits past their deadline at end of run).
  std::int64_t fault_corrupted_flits() const { return fault_corrupted_flits_; }
  std::int64_t fault_lost_flits() const { return fault_lost_flits_; }
  std::int64_t fault_lost_words() const { return fault_lost_words_; }
  /// GT payload words observed entering / leaving the network (the
  /// recovery-ratio denominators of the fault report).
  std::int64_t gt_words_sent() const { return gt_words_sent_; }
  std::int64_t gt_words_delivered() const { return gt_words_delivered_; }

  /// One-line human-readable status, e.g. for noc_verify.
  std::string Describe() const;

 private:
  /// What must arrive at the destination for one flit that entered the
  /// network (header word excluded — the path field mutates en route;
  /// header fields are compared decoded).
  struct ExpectedFlit {
    std::uint64_t id = 0;  // link::Flit::id, the delivery match key
    Cycle arrival = -1;  // exact delivery-observation cycle; -1 for BE
    link::FlitKind kind = link::FlitKind::kIdle;
    bool gt = false;
    bool eop = false;
    int credits = 0;
    int payload_words = 0;
    std::array<Word, kFlitWords> payload{};
  };

  /// Per destination channel (ni, qid): the in-flight expectation FIFO and
  /// the credit-conservation ledgers.
  struct ChannelLedger {
    std::deque<ExpectedFlit> expected;
    std::int64_t sent_words = 0;       // entered the network toward here
    std::int64_t delivered_words = 0;  // observed on the delivery link
    std::int64_t credits_in = 0;       // credits in headers addressed here
    int capacity = -1;                 // dest-queue words (lazy)
    int peer = -1;                     // ledger index of the paired channel
  };

  /// Drive-time table snapshot of one NI's slot at slot boundary
  /// `boundary`, for the flit driven there (observable one slot later).
  struct SlotSnapshot {
    bool valid = false;
    Cycle boundary = -1;
    SlotIndex slot = -1;
    tdm::GlobalChannel alloc_owner;
    ChannelId stu_owner = kInvalidId;
  };

  /// Where a source path from an NI leads.
  struct Route {
    std::uint32_t packed = 0;  // the encoded path
    NiId dest = kInvalidId;
    int hops = 0;
  };

  /// Per-link, per-class open-packet attribution state.
  struct OpenPacket {
    int ledger = -1;  // destination ledger index; -1 = no packet open
    int hops = 0;     // route length of the open packet (injection side)
  };

  bool IsSlotBoundary() const { return CycleCount() % kFlitWords == 0; }
  int LedgerIndex(NiId ni, int qid) const;
  ChannelLedger& Ledger(int index);
  void Report(const char* check, std::string message,
              bool fault_induced = false);
  void RefreshPairs();
  void ObserveInjection(NiId ni, const link::Flit& flit);
  void ObserveDelivery(NiId ni, const link::Flit& flit);
  /// The destination NI and hop count of `path` from `ni`, walked once per
  /// (NI, path) and remembered. A malformed route is reported on every
  /// call, never remembered, and returned with dest kInvalidId.
  Route ResolveRoute(NiId ni, const link::SourcePath& path);
  /// The owners NI `ni`'s tables give slot boundary `boundary`'s slot now.
  SlotSnapshot Owners(NiId ni, Cycle boundary);
  /// The owners that governed the flit `ni` drove one slot ago: its
  /// snapshot if one was kept, else the owners now, which are the same
  /// when no table of the NI has changed since.
  SlotSnapshot DriveTimeOwners(NiId ni);
  /// Snapshots and slot-checks the NIs whose tables changed lately.
  void CheckChangedNis(Cycle now);
  void Arm(std::size_t n, Cycle through_slot);

  bool attached_ = false;
  MonitorHookup hookup_;
  int table_slots_ = 0;
  int max_qid_ = 0;  // channels addressable per NI (ledger stride)

  std::vector<const tdm::SlotTable*> injection_tables_;  // per NI
  std::vector<int> channels_of_;                  // per NI: queues it has
  std::vector<std::vector<Route>> routes_;        // per NI: paths resolved
  std::vector<SlotSnapshot> prev_snapshot_;       // per NI
  std::vector<OpenPacket> open_inj_gt_, open_inj_be_;  // per NI
  std::vector<OpenPacket> open_del_gt_, open_del_be_;  // per NI
  std::vector<ChannelLedger> ledgers_;            // NI-major, qid-minor
  std::vector<int> stu_mismatch_streak_;          // per (NI, slot)
  std::vector<bool> stu_mismatch_reported_;       // per (NI, slot)
  std::int64_t pairs_version_seen_ = -1;
  // The NIs checked per slot (CheckChangedNis), listed in armed_ in index
  // order: through slot number armed_through_[n], and after that while
  // mismatching_[n] of their slots have a nonzero streak.
  std::vector<std::size_t> armed_;
  std::vector<bool> listed_;
  std::vector<Cycle> armed_through_;
  std::vector<int> mismatching_;
  Cycle last_boundary_ = -1;  // the last slot boundary evaluated

  std::vector<Violation> violations_;
  std::int64_t total_violations_ = 0;
  std::int64_t flits_checked_ = 0;

  FaultContext fault_context_;
  std::int64_t fault_violations_ = 0;
  std::int64_t fault_corrupted_flits_ = 0;
  std::int64_t fault_lost_flits_ = 0;
  std::int64_t fault_lost_words_ = 0;
  std::int64_t gt_words_sent_ = 0;
  std::int64_t gt_words_delivered_ = 0;
};

}  // namespace aethereal::verify

#endif  // AETHEREAL_VERIFY_MONITOR_H
