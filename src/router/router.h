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

#include <cstdint>
#include <vector>

#include "link/flit.h"
#include "link/wire.h"
#include "sim/fifo.h"
#include "sim/kernel.h"
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
  Router(std::string name, RouterId id, const RouterConfig& config);

  /// Wires the inbound link of `port`: the router samples `wires->data` and
  /// drives `wires->credit_return` (returning BE buffer space upstream).
  void ConnectInput(int port, link::LinkWires* wires);

  /// Wires the outbound link of `port`: the router drives `wires->data` and
  /// samples `wires->credit_return`. `downstream_be_capacity` initializes
  /// the BE credit counter (the peer's BE input buffer size in flits; use a
  /// large value for NI-bound links, which always sink flits because
  /// end-to-end flow control already guarantees destination-queue space).
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

  /// BE credits currently available toward the peer of `port`.
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
  /// Returns true if any input carried a flit this slot.
  bool AcceptInputs(std::vector<link::Flit>& gt_out, bool frozen);
  void ForwardGt(int input, const link::Flit& flit, int target,
                 std::vector<link::Flit>& gt_out);
  void BufferBe(int input, const link::Flit& flit, int target);
  void ArbitrateBestEffort(const std::vector<link::Flit>& gt_out,
                           bool frozen);
  /// Recomputes which output `input` requests: its committed head if that
  /// is a header and the input is not draining a packet, else none.
  void RefreshBeRequest(int input);

  RouterId id_;
  RouterConfig config_;

  struct InputState {
    link::LinkWires* wires = nullptr;
    sim::Fifo<BufferedBeFlit> be_queue;
    int gt_target = kInvalidId;         // output of the in-progress GT packet
    int be_accept_target = kInvalidId;  // target of the BE packet being received
    int be_drain_target = kInvalidId;   // output of the BE packet being sent
    int be_request = kInvalidId;        // output whose be_requests has our bit
    int credits_freed_this_slot = 0;
    bool gt_discard = false;  // dropping a GT packet begun during a stall
    bool be_discard = false;  // dropping a BE packet begun during a stall
    explicit InputState(int capacity) : be_queue(capacity) {}
  };
  struct OutputState {
    link::LinkWires* wires = nullptr;
    int be_credits = 0;
    int be_owner_input = kInvalidId;  // wormhole ownership
    int rr_pointer = 0;               // round-robin arbitration state
    std::uint32_t be_requests = 0;    // bit i: input i's be_request is here
  };

  std::vector<InputState> inputs_;
  std::vector<OutputState> outputs_;
  // Per-slot GT crossbar scratch, preallocated so Evaluate() never touches
  // the heap (it used to build a fresh std::vector<Flit> every slot).
  // gt_out_ports_ lists the scratch entries holding a flit this slot, so
  // clearing and driving walk only the occupied ports (at most one per
  // input) instead of all of them.
  std::vector<link::Flit> gt_out_scratch_;
  std::vector<int> gt_out_ports_;
  // Activity summaries for the slot fast path: total BE flits resident in
  // the input buffers (staged or committed) and open BE wormholes. When
  // both are zero and no flit arrived, the whole BE pipeline — arbitration,
  // credit returns, buffered-work check — is provably a no-op this slot.
  int be_flits_buffered_ = 0;
  int open_wormholes_ = 0;
  // Inputs that buffered a BE flit this slot. The push commits at the end
  // of the slot, so their requests are refreshed at the next slot.
  std::uint32_t be_pushed_inputs_ = 0;
  // Wire pending masks (bit = port), set by SlotWire when it latches a
  // driven value (link/wire.h SetConsumerBit): the slot sweep polls two
  // words instead of sampling every connected port's wires.
  std::uint32_t inputs_pending_ = 0;   // data arrived on input port
  std::uint32_t credits_pending_ = 0;  // credits returned on output port
  RouterStats stats_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace aethereal::router

#endif  // AETHEREAL_ROUTER_ROUTER_H
