// The Æthereal network-interface kernel — the paper's primary contribution.
//
// The NI kernel (paper Fig. 2) implements, per point-to-point channel:
//  * a source queue (messages toward the NoC) and a destination queue
//    (messages from the NoC), both clock-domain-crossing hardware FIFOs so
//    every NI port can run at its own frequency;
//  * credit-based end-to-end flow control: a Space counter tracks the empty
//    space of the remote destination queue (initialized with its size,
//    decremented when data is sent); consumption at the local destination
//    queue produces credits that are piggybacked in the headers of packets
//    travelling in the opposite direction;
//  * packetization (Pck) / depacketization (Depck);
//  * the slot-table-unit (STU) scheduler: GT channels transmit in their
//    reserved TDM slots; otherwise an eligible best-effort channel is
//    selected (round-robin / weighted round-robin / queue-fill);
//  * configurable send thresholds with per-channel flush, a credit
//    threshold with flush, and a maximum packet length;
//  * the memory-mapped configuration register file (see core/registers.h).
#ifndef AETHEREAL_CORE_NI_KERNEL_H
#define AETHEREAL_CORE_NI_KERNEL_H

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/registers.h"
#include "link/header.h"
#include "link/wire.h"
#include "sim/cdc_fifo.h"
#include "sim/kernel.h"
#include "sim/register.h"
#include "sim/soa_state.h"
#include "util/status.h"
#include "util/types.h"

namespace aethereal::fault {
class FaultInjector;
}

namespace aethereal::core {

class NiKernel;

/// Told of every new hand-off into an NI's queues, for an observer whose
/// work follows the queues' activity (obs/tap.h). A kernel without one
/// pays a null check per hand-off.
class QueueWatcher {
 public:
  /// A hand-off into a queue of NI `ni`, readable from edge `stamp` of
  /// `reader`, the clock of the queue's reading side.
  virtual void NoteHandOff(NiId ni, const sim::Clock& reader,
                           Cycle stamp) = 0;

 protected:
  ~QueueWatcher() = default;
};

/// The IP-facing side of a group of channels (paper: "The NI kernel
/// communicates with the NI shells via ports"). Not a module: the port
/// is the port-clock side of its channels' queues, which implement the
/// crossing. Shells and IPs on the port clock use this API from their
/// Evaluate phase, selecting the channel with the connid parameter.
class NiPort {
 public:
  const std::string& name() const { return name_; }
  /// The clock the port runs on; null until NiKernel::BindPortClock.
  sim::Clock* clock() const { return clock_; }
  int NumChannels() const { return static_cast<int>(channels_.size()); }

  /// True if `words` more words fit in the source queue of `connid`.
  bool CanWrite(int connid, int words = 1) const;

  /// Pushes one word of an outgoing message.
  void Write(int connid, Word word);

  /// Words of incoming messages available to read.
  int ReadAvailable(int connid) const;

  /// Pops an incoming message word.
  Word Read(int connid);

  /// Raises the data-flush signal: a snapshot of the source-queue filling
  /// is taken and the send threshold is bypassed until all words present at
  /// flush time have been sent (paper §4.1).
  void FlushData(int connid);

  /// Raises the credit-flush signal: owed credits are sent even below the
  /// credit threshold.
  void FlushCredits(int connid);

  /// Declares a module to Wake() whenever newly delivered words become
  /// readable on `connid` — lets a consumer IP park on an empty queue
  /// without ever reading a word late. A channel takes at most two
  /// (sim::CdcFifo::AddReadListener).
  void WakeOnDelivery(int connid, sim::Module* listener);

  /// For a writer blocked on a full source queue of `connid`: the first
  /// port edge at which space already freed comes back, or sim::kNoEdge
  /// after arming a one-shot wake of `listener` for the space the kernel
  /// frees next (sim::CdcFifo::WakeOnSpace).
  Cycle WakeOnSpace(int connid, sim::Module* listener);

  /// The NI-global channel id (= remote_qid a peer must address).
  ChannelId GlobalChannelOf(int connid) const;

 private:
  friend class NiKernel;
  NiPort(std::string name, NiKernel* kernel);
  /// Makes the kernel see a flush request raised now (FlushData/Credits).
  void WakeKernelForFlush();
  std::string name_;
  NiKernel* kernel_;
  sim::Clock* clock_ = nullptr;
  std::vector<ChannelId> channels_;  // flat channel ids, by connid
};

/// Aggregate traffic statistics of one NI kernel.
struct NiKernelStats {
  std::int64_t gt_packets = 0;
  std::int64_t be_packets = 0;
  std::int64_t credit_only_packets = 0;  // header-only packets (no payload)
  std::int64_t gt_flits = 0;
  std::int64_t be_flits = 0;
  std::int64_t payload_words_sent = 0;
  std::int64_t header_words_sent = 0;
  std::int64_t payload_words_received = 0;
  std::int64_t packets_received = 0;
  std::int64_t credits_piggybacked = 0;   // credits carried by data packets
  std::int64_t credits_in_credit_only = 0;
  // Every scheduled slot sends a GT flit, a BE flit, stalls BE on link
  // credits or idles (a fault stall idles); a GT flit leaves only in a slot
  // its enabled STU owner holds. So stats() derives the last two counters.
  std::int64_t idle_slots = 0;            // slots with nothing to send
  std::int64_t be_link_stalls = 0;        // BE blocked on link-level credits
  std::int64_t gt_slots_unused = 0;       // reserved slots the owner skipped
};

/// Per-channel counters.
struct ChannelStats {
  std::int64_t words_sent = 0;
  std::int64_t words_received = 0;
  std::int64_t packets_sent = 0;
  std::int64_t credit_only_packets = 0;
};

class NiKernel : public sim::Module {
 public:
  /// A set of channels, bit c standing for channel c.
  using ChannelMask = std::uint32_t;
  static_assert(link::kMaxQueueId < std::numeric_limits<ChannelMask>::digits,
                "a channel mask needs one bit per addressable queue id");

  /// Constructs the kernel and its ports. Register the kernel on the
  /// network clock, then BindPortClock each port to its port clock.
  NiKernel(std::string name, NiId id, const NiKernelParams& params);
  ~NiKernel() override;

  /// Wires the kernel to its router: `to_router` is the injection link
  /// (kernel drives data, takes BE credit returns); `from_router` is the
  /// delivery link. `router_be_capacity` is the router's BE input-buffer
  /// depth in flits on the injection link; the kernel's link credits never
  /// exceed it.
  void ConnectToRouter(link::LinkWires* to_router, link::LinkWires* from_router,
                       int router_be_capacity);

  NiId id() const { return id_; }
  const NiKernelParams& params() const { return params_; }
  int NumPorts() const { return static_cast<int>(ports_.size()); }
  NiPort* port(int index);

  /// Binds port `index` to the clock it runs on (once): the port side of
  /// its channels' queues and flush signals.
  void BindPortClock(int index, sim::Clock* clock);

  // --- memory-mapped configuration (CNIP) ---------------------------------

  /// Stages a register write; it takes effect at the next network-clock
  /// edge (reads in later cycles observe it). Address validity and STU
  /// slot ownership are checked now; other value checks at apply time.
  Status WriteRegister(Word address, Word value);

  /// Reads a committed register value. Non-const, like every reader of
  /// configuration state below: it first applies register writes staged
  /// at earlier edges (ApplyRegisterWrites).
  Result<Word> ReadRegister(Word address);

  // --- introspection for tests / benches ----------------------------------

  /// Aggregate counters. Non-const: counts the slots scheduled so far, from
  /// which idle_slots and gt_slots_unused are derived.
  const NiKernelStats& stats();
  const ChannelStats& channel_stats(ChannelId ch) const;
  int NumChannels() const { return static_cast<int>(channels_.size()); }
  /// Committed queue fills (the CDC reader-side sizes) — what a read-only
  /// observer may sample without perturbing anything (obs/tap.h).
  int SourceQueueWords(ChannelId ch) const {
    return ChannelAt(ch).source.ReaderSize();
  }
  int DestQueueWords(ChannelId ch) const {
    return ChannelAt(ch).dest.ReaderSize();
  }
  int SpaceOf(ChannelId ch);
  int CreditsOwedOf(ChannelId ch);
  ChannelId SlotOwner(SlotIndex slot);
  SlotIndex CurrentSlot() const;
  bool ChannelEnabled(ChannelId ch);

  /// Arms fault injection (DESIGN.md §12). During a stall window the STU
  /// scheduler grants nothing — a transient scheduling fault. Receive,
  /// credit harvesting, and register writes are unaffected; the stalled
  /// slots account as idle/unused exactly like naturally idle ones.
  void SetFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Reports every queue hand-off to `watcher` (null: none).
  void SetQueueWatcher(QueueWatcher* watcher) { queue_watcher_ = watcher; }

  /// Calls `hook` as each SLOTS or CTRL register write is staged, before
  /// it lands (verify/monitor.h re-checks the NI's slot tables then).
  void SetTableWriteHook(std::function<void()> hook) {
    table_write_hook_ = std::move(hook);
  }

  void Evaluate() override;

 private:
  friend class NiPort;

  /// A configuration-register write and the network-clock edge that
  /// staged it; it lands once that edge has passed.
  struct PendingWrite {
    Cycle edge;
    Word address;
    Word value;
  };

  struct Channel {
    Channel(int source_queue_words, int dest_queue_words)
        : source(source_queue_words), dest(dest_queue_words) {}

    // Design-time.
    int port = 0;
    int connid = 0;
    ChannelParams params;
    // Queues (the CDC boundary), stored inline so the per-slot walks over
    // the enabled and harvest masks stay within the channel slab instead of
    // chasing one heap allocation per queue. The port writes the source
    // queue and reads the destination queue; the kernel the reverse.
    sim::CdcFifo<Word> source;
    sim::CdcFifo<Word> dest;
    // Run-time configuration registers (the CTRL enable bit is enabled_).
    bool gt = false;
    link::SourcePath path;
    int remote_qid = 0;
    int space = 0;        // credit counter: free words at the remote dest
    int space_init = 0;   // value written to SPACE (remote queue capacity)
    int data_threshold = 1;
    int credit_threshold = 1;
    // Run-time state.
    int credits_owed = 0;        // local consumption not yet reported
    int open_words_left = 0;     // payload words left in the open packet
    int flush_words_left = 0;    // flush snapshot still to send
    bool credit_flush = false;
    // Flush request signals crossing from the port domain: monotonic
    // counters stamped with the port clock (BindPortClock); the kernel
    // compares them against its "seen" counters. This keeps the
    // order-independence guarantee across domains.
    sim::Register<std::int64_t> data_flush_reqs{0};
    sim::Register<std::int64_t> credit_flush_reqs{0};
    std::int64_t data_flush_seen = 0;
    std::int64_t credit_flush_seen = 0;
    ChannelStats stats;
  };

  static ChannelMask Bit(ChannelId ch) { return ChannelMask{1} << ch; }
  bool Enabled(ChannelId ch) const { return (enabled_ & Bit(ch)) != 0; }
  bool IsSlotBoundary() const { return CycleCount() % kFlitWords == 0; }
  Channel& ChannelAt(ChannelId ch);
  const Channel& ChannelAt(ChannelId ch) const;

  void ReceiveFlit();
  void HarvestCreditsAndFlushes();
  void Schedule();
  /// True if a BE flit may go to the router now. Takes the credits
  /// returned on the injection link only when none are left.
  bool HasBeLinkCredit();
  void EmitFlit(ChannelId ch);
  /// True if an enabled channel has data or credits to send now.
  bool Eligible(const Channel& ch) const;
  int SendableWords(const Channel& ch) const;
  ChannelId ArbitrateBe();
  /// The first eligible BE channel, visiting the enabled channels from id
  /// `start` (at most 32) upward, then wrapping to those below it.
  ChannelId FirstEligibleBe(int start) const;
  int GtRunWords(ChannelId ch, SlotIndex slot) const;
  void ApplyRegisterWrite(Word address, Word value);
  /// Applies, in order, the staged register writes whose edge has passed.
  /// Runs when the kernel next evaluates or its configuration is read, so
  /// a write costs nothing at the edge that lands it.
  void ApplyRegisterWrites();
  /// The owner slot `slot` will have once every staged write has landed.
  ChannelId StagedSlotOwner(SlotIndex slot) const;
  /// Wakes the kernel for a source-queue hand-off on `chid` that is
  /// readable from edge `stamp` (NiPort::Write). A GT word leaves only in
  /// a slot its channel owns (paper §2), so a parked kernel with no
  /// register write pending wakes for an enabled GT channel's word at the
  /// first slot boundary from `stamp` that the channel owns in stu_, and
  /// not at all if it owns none. Every other hand-off wakes it at `stamp`.
  void WakeForSourceWord(ChannelId chid, Cycle stamp);
  /// Ends every slot evaluation: parks unless a packet is open, a register
  /// write is pending or a BE channel is eligible, with a timer wake at the
  /// earliest slot owned by an eligible GT channel if there is one.
  void ParkUntilWork(Cycle slot_number);
  /// Counts the slots through `last_slot` inclusive into scheduled_slots_,
  /// and those held by an enabled STU owner into owner_slots_, under the
  /// current configuration. Runs before each register write lands and in
  /// stats(), so every slot is counted under the configuration it was
  /// scheduled with, parked or not.
  void CountSlotsThrough(Cycle last_slot);

  NiId id_;
  NiKernelParams params_;
  // Channels live in a contiguous fixed-capacity slab, indexed by channel
  // id, so the masked walks below reach a channel with one index and no
  // pointer chase (sim/soa_state.h).
  sim::Slab<Channel> channels_;
  // The per-slot walks visit only the channels in these masks, so their
  // cost follows the open connections, not the channels instantiated
  // (DESIGN.md §7.4). enabled_ holds the CTRL enable bits: a disabled
  // channel sends nothing and is never mid-packet. harvest_ marks the
  // channels a harvest may find work on: set by a destination-queue pop
  // and by a data or credit flush request, kept while a space return or a
  // request is still on its way or a credit flush is pending.
  ChannelMask enabled_ = 0;
  ChannelMask harvest_ = 0;
  std::vector<std::unique_ptr<NiPort>> ports_;
  std::vector<ChannelId> stu_;  // slot -> owning channel (or kInvalidId)

  link::LinkWires* to_router_ = nullptr;
  link::LinkWires* from_router_ = nullptr;
  int be_link_credits_ = 0;  // taken from the credit wire, less flits sent
  int router_be_capacity_ = 0;

  // Receive state: one in-progress packet per traffic class, because GT
  // flits may preempt a BE packet mid-stream at the upstream router output
  // (GT preempts BE at slot boundaries; the sideband class bit
  // disambiguates payload flits, as in the routers).
  int rx_qid_gt_ = kInvalidId;
  int rx_qid_be_ = kInvalidId;

  // Send state.
  ChannelId be_open_channel_ = kInvalidId;  // BE packet in progress
  int rr_pointer_ = 0;
  int wrr_grants_left_ = 0;
  // Flits emitted so far: the sequence part of the next flit's identity
  // (link::Flit::id, simulation-only; never reset, so identities stay
  // unique across close and reopen).
  std::uint64_t flits_emitted_ = 0;

  // Slot counts behind the derived stats (CountSlotsThrough): slots
  // scheduled, and slots held by an enabled STU owner, through slot
  // number last_counted_slot_.
  Cycle last_counted_slot_ = -1;
  std::int64_t scheduled_slots_ = 0;
  std::int64_t owner_slots_ = 0;

  std::vector<PendingWrite> pending_register_writes_;
  NiKernelStats stats_;
  fault::FaultInjector* fault_ = nullptr;
  QueueWatcher* queue_watcher_ = nullptr;
  std::function<void()> table_write_hook_;
};

}  // namespace aethereal::core

#endif  // AETHEREAL_CORE_NI_KERNEL_H
