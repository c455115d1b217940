// Combined guaranteed-throughput / best-effort router model.
//
// Semantics follow the Æthereal router (Rijpkema et al., DATE 2003 — the
// paper's reference [21]), which the NI paper builds on:
//
//  * GT flits travel on pipelined TDM circuits: a flit injected in slot s
//    traverses one link per slot. Because the (centralized) allocator
//    reserves consecutive slots along the path, GT switching is
//    contention-free: the router forwards a GT flit to its output in the
//    same slot it arrives, with no arbitration and no buffering. The router
//    carries no slot table (paper §4.3: centralized configuration lets slot
//    tables be removed from routers); it checks the no-contention invariant
//    instead and treats a violation as a fatal configuration bug.
//
//  * BE flits are buffered per input and switched wormhole-style: a header
//    flit arbitrates (round-robin) for its output; the winning packet owns
//    the output until its end-of-packet flit (DESIGN.md §4.1 details the
//    switch and its per-output request masks). GT always preempts BE at slot
//    boundaries. Link-level credit flow control bounds the BE input buffers
//    ("this scheme has smaller packet buffers, and, hence, lower
//    implementation cost", paper §2).
#ifndef AETHEREAL_ROUTER_ROUTER_H
#define AETHEREAL_ROUTER_ROUTER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "link/flit.h"
#include "link/wire.h"
#include "sim/kernel.h"
#include "sim/ring.h"
#include "util/types.h"

namespace aethereal::fault {
class FaultInjector;
}

namespace aethereal::router {

struct RouterConfig {
  int num_ports = 0;
  int be_buffer_flits = 8;  // BE input buffer depth, in flits
};

struct RouterStats {
  std::int64_t gt_flits = 0;         // GT flits forwarded
  std::int64_t be_flits = 0;         // BE flits forwarded
  std::int64_t be_packets = 0;       // BE header flits forwarded
  std::int64_t be_blocked_credit = 0;  // slots a BE head stalled for credits
  std::int64_t be_blocked_gt = 0;      // slots a BE head was preempted by GT
  std::int64_t be_max_occupancy = 0;   // max BE input-buffer fill seen (flits)
};

class Router : public sim::Module {
 public:
  /// The port state and BE input buffers take StorageBytes(config) from
  /// `storage`.
  Router(std::string name, RouterId id, const RouterConfig& config,
         std::pmr::memory_resource* storage =
             std::pmr::get_default_resource());

  /// Bytes a router with `config` takes from its storage resource, padding
  /// included.
  static std::size_t StorageBytes(const RouterConfig& config);

  /// Wires the inbound link of `port`: the router samples `wires->data` and
  /// drives `wires->credit_return` (returning BE buffer space upstream).
  void ConnectInput(int port, link::LinkWires* wires);

  /// Wires the outbound link of `port`: the router drives `wires->data` and
  /// takes the credits counted on `wires->credit_return` when a BE flit
  /// waits for the output and its counter is spent; a credit return never
  /// wakes the router. `downstream_be_capacity` initializes the BE credit
  /// counter and bounds it (the peer's BE input buffer size in flits; use a
  /// large value for NI-bound links, which always sink flits because
  /// end-to-end flow control already guarantees destination-queue space).
  /// Credits taken beyond it are a fatal protocol violation.
  void ConnectOutput(int port, link::LinkWires* wires,
                     int downstream_be_capacity);

  void Evaluate() override;

  RouterId id() const { return id_; }
  const RouterStats& stats() const { return stats_; }

  /// Arms fault injection (DESIGN.md §12). During a stall window the router
  /// stops accepting NEW packets (arriving headers are dropped whole, with
  /// link credits returned for discarded BE flits) and grants no new BE
  /// wormholes; in-flight continuations complete and credits keep flowing,
  /// so the datapath contract with neighbors is never violated.
  void SetFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// BE credits currently available toward the peer of `port`, counting
  /// the returns driven before this slot that the router has not yet taken.
  int OutputCredits(int port) const;

 private:
  /// A buffered BE flit with its routing decision (the output port derived
  /// from the header path when the flit was accepted; the header itself was
  /// rewritten with the consumed path for the next router).
  struct BufferedBeFlit {
    link::Flit flit;
    int target = kInvalidId;
  };

  bool IsSlotBoundary() const { return CycleCount() % kFlitWords == 0; }
  /// Accepts the flits flagged in `pending` (the inputs driven last slot).
  void AcceptInputs(std::uint32_t pending, bool frozen);
  /// Drives a GT flit on output `target` now and claims the output for
  /// this slot.
  void ForwardGt(int input, const link::Flit& flit, int target);
  void BufferBe(int input, const link::Flit& flit, int target);
  /// Owes one link-level credit upstream of `input` for a BE flit that
  /// left its buffer (or was discarded) this slot.
  void FreeCredit(int input);
  void ArbitrateBestEffort(bool frozen);
  /// Recomputes which output `input` requests: its committed head if that
  /// is a header and the input is not draining a packet, else none.
  void RefreshBeRequest(int input);
  /// BE flits at `input` buffered in an earlier slot: the ones that may
  /// leave this slot (one BE hop takes a slot).
  int CommittedBeFlits(int input) const;

  RouterId id_;
  RouterConfig config_;

  struct InputState {
    link::LinkWires* wires = nullptr;
    // Every BE flit buffered and not yet drained. The router alone pushes
    // and pops it, at most one push per slot (in phase A, before phase B
    // pops), so a flit pushed this slot is the one be_pushed_inputs_ flags.
    sim::Ring<BufferedBeFlit> be_queue;
    int gt_target = kInvalidId;         // output of the in-progress GT packet
    int be_accept_target = kInvalidId;  // target of the BE packet being received
    int be_drain_target = kInvalidId;   // output of the BE packet being sent
    int be_request = kInvalidId;        // output whose be_requests has our bit
    int credits_freed_this_slot = 0;
    bool gt_discard = false;  // dropping a GT packet begun during a stall
    bool be_discard = false;  // dropping a BE packet begun during a stall
    InputState(int capacity, std::pmr::memory_resource* storage)
        : be_queue(capacity, storage) {}
  };
  struct OutputState {
    link::LinkWires* wires = nullptr;
    int be_credits = 0;   // taken from the credit wire, less flits sent
    int be_capacity = 0;  // bound on be_credits (downstream_be_capacity)
    int be_owner_input = kInvalidId;  // wormhole ownership
    int rr_pointer = 0;               // round-robin arbitration state
    std::uint32_t be_requests = 0;    // bit i: input i's be_request is here
  };

  std::pmr::vector<InputState> inputs_;
  std::pmr::vector<OutputState> outputs_;
  // Per-slot masks (bit = port), cleared as the slot's sweep uses them.
  // GT switching is unbuffered, so a GT flit is driven the moment it is
  // accepted; gt_claimed_outputs_ records the outputs it took, for the
  // contention CHECK and so BE arbitration skips them. credit_inputs_
  // lists the inputs with credits_freed_this_slot > 0, the only wires
  // the slot's credit return drives.
  std::uint32_t gt_claimed_outputs_ = 0;
  std::uint32_t credit_inputs_ = 0;
  // The outputs BE arbitration visits (bit = port), kept as ownership and
  // requests change: those a wormhole owns (be_owner_input set) and those
  // with a nonzero be_requests.
  std::uint32_t be_owned_outputs_ = 0;
  std::uint32_t be_requested_outputs_ = 0;
  // BE flits resident in the input buffers (staged or committed). The
  // router parks at the end of any slot that leaves none: further work
  // then starts with a wire drive, which wakes it.
  int be_flits_buffered_ = 0;
  // Inputs that buffered a BE flit this slot. The flit can leave from the
  // next slot on (CommittedBeFlits), so their requests are refreshed then.
  std::uint32_t be_pushed_inputs_ = 0;
  // Input pending masks (bit = port), one word per slot parity, set by
  // SlotWire::Drive in the word of the drive slot's parity (link/wire.h
  // SetConsumerBit). The sweep of slot t drains the word of parity
  // (t-1) & 1 instead of sampling every connected input wire.
  std::array<std::uint32_t, 2> inputs_pending_{};
  RouterStats stats_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace aethereal::router

#endif  // AETHEREAL_ROUTER_ROUTER_H
