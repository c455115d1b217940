#include "router/router.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "fault/injector.h"
#include "link/header.h"
#include "util/check.h"

namespace aethereal::router {

using link::Flit;
using link::FlitKind;
using link::PacketHeader;

Router::Router(std::string name, RouterId id, const RouterConfig& config)
    : sim::Module(std::move(name)), id_(id), config_(config) {
  AETHEREAL_CHECK(config.num_ports > 0 && config.num_ports <= 32);
  AETHEREAL_CHECK(config.be_buffer_flits > 0);
  SetEvaluateStride(kFlitWords);  // all work happens at slot boundaries
  SetDefaultCommitOnly();
  inputs_.reserve(static_cast<std::size_t>(config.num_ports));
  outputs_.resize(static_cast<std::size_t>(config.num_ports));
  gt_out_scratch_.resize(static_cast<std::size_t>(config.num_ports),
                         Flit::Idle());
  for (int p = 0; p < config.num_ports; ++p) {
    inputs_.emplace_back(config.be_buffer_flits);
    RegisterState(&inputs_.back().be_queue);
  }
}

void Router::ConnectInput(int port, link::LinkWires* wires) {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  AETHEREAL_CHECK(wires != nullptr);
  inputs_[static_cast<std::size_t>(port)].wires = wires;
  // Flits arriving on this link must find us running, and flag their port
  // so the slot sweep samples only ports that latched something.
  wires->data.SetConsumer(this);
  wires->data.SetConsumerBit(&inputs_pending_, port);
}

void Router::ConnectOutput(int port, link::LinkWires* wires,
                           int downstream_be_capacity) {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  AETHEREAL_CHECK(wires != nullptr);
  AETHEREAL_CHECK(downstream_be_capacity > 0);
  auto& out = outputs_[static_cast<std::size_t>(port)];
  out.wires = wires;
  out.be_credits = downstream_be_capacity;
  // Credits returned by the downstream peer must find us running, and flag
  // their port so the slot sweep samples only ports with returns latched.
  wires->credit_return.SetConsumer(this);
  wires->credit_return.SetConsumerBit(&credits_pending_, port);
}

int Router::OutputCredits(int port) const {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  return outputs_[static_cast<std::size_t>(port)].be_credits;
}

void Router::Evaluate() {
  if (!IsSlotBoundary()) return;

  // BE flits buffered in an earlier slot are committed now and may have
  // become their input's head: refresh those inputs' requests.
  for (std::uint32_t m = std::exchange(be_pushed_inputs_, 0); m != 0;
       m &= m - 1) {
    RefreshBeRequest(std::countr_zero(m));
  }

  // Collect returned BE credits from downstream (only the ports whose
  // credit wire latched a return this slot are flagged).
  const bool credits_arrived = credits_pending_ != 0;
  while (credits_pending_ != 0) {
    const int p = std::countr_zero(credits_pending_);
    credits_pending_ &= credits_pending_ - 1;
    auto& out = outputs_[static_cast<std::size_t>(p)];
    out.be_credits += out.wires->credit_return.Sample();
  }

  // Phase A: accept arriving flits. GT flits are switched through
  // immediately; BE flits go to the input buffers. During a fault stall
  // window the router accepts no NEW packets: arriving headers (and their
  // continuations) are dropped whole, with link credits returned for the
  // discarded BE flits; packets already in flight complete normally.
  const bool frozen =
      fault_ != nullptr && fault_->RouterStalled(id_, CycleCount());
  for (const int p : gt_out_ports_) {
    gt_out_scratch_[static_cast<std::size_t>(p)] = Flit::Idle();
  }
  gt_out_ports_.clear();
  const bool flits_arrived = AcceptInputs(gt_out_scratch_, frozen);

  // Slot fast path: nothing arrived and the BE pipeline is empty, so there
  // is nothing to switch, arbitrate, drain or acknowledge — the remaining
  // phases are no-ops by construction.
  if (!flits_arrived && be_flits_buffered_ == 0 && open_wormholes_ == 0) {
    if (!credits_arrived) Park();
    return;
  }

  // Phase B: BE wormhole arbitration on the outputs GT left free.
  ArbitrateBestEffort(gt_out_scratch_, frozen);

  // Phase C: return one link-level credit per BE flit drained from each
  // input buffer this slot.
  bool credits_returned = false;
  bool be_buffered = false;
  for (auto& in : inputs_) {
    if (in.wires != nullptr && in.credits_freed_this_slot > 0) {
      in.wires->credit_return.Drive(in.credits_freed_this_slot);
      credits_returned = true;
    }
    in.credits_freed_this_slot = 0;
    if (in.be_queue.Size() > 0) be_buffered = true;
  }

  // A slot in which nothing arrived, nothing was buffered, and nothing was
  // driven cannot be followed by local work: any future work begins with a
  // wire drive, which wakes us.
  if (!flits_arrived && !credits_arrived && !credits_returned &&
      !be_buffered) {
    Park();
  }
}

bool Router::AcceptInputs(std::vector<Flit>& gt_out, bool frozen) {
  const bool any = inputs_pending_ != 0;
  while (inputs_pending_ != 0) {
    const auto i =
        static_cast<std::size_t>(std::countr_zero(inputs_pending_));
    inputs_pending_ &= inputs_pending_ - 1;
    auto& in = inputs_[i];
    const Flit& flit = in.wires->data.Sample();

    // Continuations of a packet whose header was dropped during a stall
    // window are discarded until (and including) its EOP, so downstream
    // never sees a half-open packet.
    if (flit.kind == FlitKind::kPayload &&
        (flit.gt ? in.gt_discard : in.be_discard)) {
      if (flit.eop) (flit.gt ? in.gt_discard : in.be_discard) = false;
      if (!flit.gt) in.credits_freed_this_slot += 1;
      fault_->NoteRouterStallDrop(id_, CycleCount(), flit.gt,
                                  /*is_header=*/false, flit.valid_words);
      continue;
    }

    if (frozen && flit.kind == FlitKind::kHeader) {
      if (flit.gt) {
        in.gt_discard = !flit.eop;
      } else {
        in.be_discard = !flit.eop;
        in.credits_freed_this_slot += 1;
      }
      fault_->NoteRouterStallDrop(id_, CycleCount(), flit.gt,
                                  /*is_header=*/true, flit.valid_words - 1);
      continue;
    }

    if (flit.kind == FlitKind::kHeader) {
      PacketHeader header = PacketHeader::Decode(flit.words[0]);
      AETHEREAL_CHECK_MSG(flit.gt == header.gt,
                          name() << ": GT sideband disagrees with header");
      AETHEREAL_CHECK_MSG(!header.path.Exhausted(),
                          name() << ": packet with exhausted path at input "
                                 << i);
      const int target = header.path.NextHop();
      AETHEREAL_CHECK_MSG(target >= 0 && target < config_.num_ports,
                          name() << ": path selects port " << target
                                 << " of " << config_.num_ports);
      header.path = header.path.Consume();
      Flit forwarded = flit;
      forwarded.words[0] = header.Encode();

      if (header.gt) {
        ForwardGt(static_cast<int>(i), forwarded, target, gt_out);
        in.gt_target = flit.eop ? kInvalidId : target;
      } else {
        BufferBe(static_cast<int>(i), forwarded, target);
        in.be_accept_target = flit.eop ? kInvalidId : target;
      }
    } else {
      // Payload flit: the sideband traffic class selects which in-progress
      // packet on this input it continues. GT packets occupy consecutive
      // slots, so a GT payload can never be mistaken for a BE one.
      if (flit.gt) {
        AETHEREAL_CHECK_MSG(in.gt_target != kInvalidId,
                            name() << ": orphan GT payload flit at input " << i);
        ForwardGt(static_cast<int>(i), flit, in.gt_target, gt_out);
        if (flit.eop) in.gt_target = kInvalidId;
      } else {
        AETHEREAL_CHECK_MSG(in.be_accept_target != kInvalidId,
                            name() << ": orphan BE payload flit at input " << i);
        BufferBe(static_cast<int>(i), flit, in.be_accept_target);
        if (flit.eop) in.be_accept_target = kInvalidId;
      }
    }
  }
  return any;
}

void Router::ForwardGt(int input, const Flit& flit, int target,
                       std::vector<Flit>& gt_out) {
  AETHEREAL_CHECK_MSG(
      gt_out[static_cast<std::size_t>(target)].IsIdle(),
      name() << ": GT slot contention on output " << target << " (input "
             << input << ") — slot allocation is corrupt");
  AETHEREAL_CHECK_MSG(outputs_[static_cast<std::size_t>(target)].wires != nullptr,
                      name() << ": GT flit to unconnected output " << target);
  gt_out[static_cast<std::size_t>(target)] = flit;
  gt_out_ports_.push_back(target);
  ++stats_.gt_flits;
}

void Router::BufferBe(int input, const Flit& flit, int target) {
  auto& in = inputs_[static_cast<std::size_t>(input)];
  AETHEREAL_CHECK_MSG(in.be_queue.CanPush(),
                      name() << ": BE buffer overflow at input " << input
                             << " — link credit protocol violated");
  in.be_queue.Push(BufferedBeFlit{flit, target});
  be_pushed_inputs_ |= std::uint32_t{1} << input;
  ++be_flits_buffered_;
  stats_.be_max_occupancy =
      std::max(stats_.be_max_occupancy,
               static_cast<std::int64_t>(in.be_queue.SizeAfterCommit()));
}

void Router::ArbitrateBestEffort(const std::vector<Flit>& gt_out,
                                 bool frozen) {
  // GT-only fast path: with no BE flits buffered and no open wormholes,
  // the only possible action per output is driving a switched GT flit —
  // and those outputs are exactly the ones listed in gt_out_ports_.
  // (be_blocked_gt cannot tick: it requires an owner, hence an open
  // wormhole.)
  if (be_flits_buffered_ == 0 && open_wormholes_ == 0) {
    for (const int o : gt_out_ports_) {
      outputs_[static_cast<std::size_t>(o)].wires->data.Drive(
          gt_out[static_cast<std::size_t>(o)]);
    }
    return;
  }

  for (int o = 0; o < config_.num_ports; ++o) {
    auto& out = outputs_[static_cast<std::size_t>(o)];
    if (out.wires == nullptr) continue;
    const Flit& gt_flit = gt_out[static_cast<std::size_t>(o)];
    if (!gt_flit.IsIdle()) {
      out.wires->data.Drive(gt_flit);
      if (out.be_owner_input != kInvalidId) ++stats_.be_blocked_gt;
      continue;
    }

    int i = out.be_owner_input;
    if (i != kInvalidId) {
      // Wormhole: continue the packet owning this output.
      const auto& in = inputs_[static_cast<std::size_t>(i)];
      if (!in.be_queue.CanPop()) continue;  // bubble inside the packet
      const BufferedBeFlit& head = in.be_queue.Peek();
      AETHEREAL_CHECK_MSG(head.flit.kind == FlitKind::kPayload &&
                              head.target == o,
                          name() << ": BE packet interleaving on input " << i);
    } else {
      // Free output: round-robin among the requesting inputs, starting at
      // rr_pointer. A stalled router grants no new wormholes (the arbiter
      // is frozen); buffered headers wait out the window.
      if (frozen || out.be_requests == 0) continue;
      const std::uint32_t from_pointer =
          out.be_requests & (~std::uint32_t{0} << out.rr_pointer);
      i = std::countr_zero(from_pointer != 0 ? from_pointer : out.be_requests);
    }
    if (out.be_credits <= 0) {
      ++stats_.be_blocked_credit;  // head-of-line blocked; nobody may jump
      continue;
    }
    auto& in = inputs_[static_cast<std::size_t>(i)];
    const BufferedBeFlit entry = in.be_queue.Pop();
    --be_flits_buffered_;
    in.credits_freed_this_slot += 1;
    out.be_credits -= 1;
    out.wires->data.Drive(entry.flit);
    ++stats_.be_flits;
    if (entry.flit.kind == FlitKind::kHeader) {
      ++stats_.be_packets;
      out.rr_pointer = (i + 1) % config_.num_ports;
      if (!entry.flit.eop) {
        out.be_owner_input = i;
        in.be_drain_target = o;
        ++open_wormholes_;
      }
    } else if (entry.flit.eop) {
      out.be_owner_input = kInvalidId;
      in.be_drain_target = kInvalidId;
      --open_wormholes_;
    }
    // The pop may expose a header that a later output grants this slot.
    RefreshBeRequest(i);
  }
}

void Router::RefreshBeRequest(int input) {
  auto& in = inputs_[static_cast<std::size_t>(input)];
  int target = kInvalidId;
  if (in.be_drain_target == kInvalidId && in.be_queue.CanPop()) {
    const BufferedBeFlit& head = in.be_queue.Peek();
    if (head.flit.kind == FlitKind::kHeader) target = head.target;
  }
  if (target == in.be_request) return;
  const std::uint32_t bit = std::uint32_t{1} << input;
  if (in.be_request != kInvalidId) {
    outputs_[static_cast<std::size_t>(in.be_request)].be_requests &= ~bit;
  }
  if (target != kInvalidId) {
    outputs_[static_cast<std::size_t>(target)].be_requests |= bit;
  }
  in.be_request = target;
}

}  // namespace aethereal::router
