#include "router/router.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "fault/injector.h"
#include "link/header.h"
#include "sim/soa_state.h"
#include "util/bits.h"
#include "util/check.h"

namespace aethereal::router {

using link::Flit;
using link::FlitKind;

Router::Router(std::string name, RouterId id, const RouterConfig& config,
               std::pmr::memory_resource* storage)
    : sim::Module(std::move(name)),
      id_(id),
      config_(config),
      inputs_(storage),
      outputs_(static_cast<std::size_t>(config.num_ports), storage) {
  AETHEREAL_CHECK(config.num_ports > 0 && config.num_ports <= 32);
  AETHEREAL_CHECK(config.be_buffer_flits > 0);
  SetEvaluateStride(kFlitWords);  // all work happens at slot boundaries
  inputs_.reserve(static_cast<std::size_t>(config.num_ports));
  for (int p = 0; p < config.num_ports; ++p) {
    inputs_.emplace_back(config.be_buffer_flits, storage);
  }
}

std::size_t Router::StorageBytes(const RouterConfig& config) {
  const auto ports = static_cast<std::size_t>(config.num_ports);
  return ports * (sizeof(InputState) + sizeof(OutputState) +
                  sim::kAllocationPad) +
         ports * static_cast<std::size_t>(config.be_buffer_flits) *
             sizeof(BufferedBeFlit) +
         2 * sim::kAllocationPad;
}

void Router::ConnectInput(int port, link::LinkWires* wires) {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  AETHEREAL_CHECK(wires != nullptr);
  inputs_[static_cast<std::size_t>(port)].wires = wires;
  // Flits arriving on this link must find us running, and flag their port
  // so the slot sweep samples only ports driven in the previous slot.
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
  out.be_capacity = downstream_be_capacity;
}

int Router::OutputCredits(int port) const {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  const auto& out = outputs_[static_cast<std::size_t>(port)];
  if (out.wires == nullptr) return out.be_credits;
  return out.be_credits + out.wires->credit_return.PeekDriven();
}

void Router::Evaluate() {
  if (!IsSlotBoundary()) return;

  // BE flits buffered in an earlier slot are committed now and may have
  // become their input's head: refresh those inputs' requests.
  for (std::uint32_t m = std::exchange(be_pushed_inputs_, 0); m != 0;
       m &= m - 1) {
    RefreshBeRequest(std::countr_zero(m));
  }

  // The inputs driven last slot are flagged in that slot's parity word.
  // The drive woke us for this slot, so the word is drained on time and
  // never outlives it.
  const auto last =
      static_cast<std::size_t>((CycleCount() / kFlitWords - 1) & 1);
  const std::uint32_t input_ports = std::exchange(inputs_pending_[last], 0);

  // Phase A: accept arriving flits. GT flits are switched through to their
  // output at once; BE flits go to the input buffers. During a fault stall
  // window the router accepts no NEW packets: arriving headers (and their
  // continuations) are dropped whole, with link credits returned for the
  // discarded BE flits; packets already in flight complete normally.
  const bool frozen =
      fault_ != nullptr && fault_->RouterStalled(id_, CycleCount());
  AcceptInputs(input_ports, frozen);

  // Phase B: BE wormhole arbitration on the outputs GT left free.
  ArbitrateBestEffort(frozen);

  // Phase C: return one link-level credit per BE flit drained from (or
  // discarded at) each input this slot.
  for (std::uint32_t m = std::exchange(credit_inputs_, 0); m != 0;
       m &= m - 1) {
    auto& in = inputs_[static_cast<std::size_t>(std::countr_zero(m))];
    in.wires->credit_return.Drive(std::exchange(in.credits_freed_this_slot, 0));
  }

  // With no BE flit buffered, nothing is left to switch: any future work
  // begins with a wire drive, which wakes us. That holds inside an open
  // wormhole too: its next flit arrives on a wire.
  if (be_flits_buffered_ == 0) Park();
}

void Router::AcceptInputs(std::uint32_t pending, bool frozen) {
  for (std::uint32_t m = pending; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    auto& in = inputs_[i];
    const Flit& flit = in.wires->data.Sample();
    AETHEREAL_CHECK_MSG(!flit.IsIdle(),
                        name() << ": flagged input " << i << " sampled idle");

    // Continuations of a packet whose header was dropped during a stall
    // window are discarded until (and including) its EOP, so downstream
    // never sees a half-open packet.
    if (flit.kind == FlitKind::kPayload &&
        (flit.gt ? in.gt_discard : in.be_discard)) {
      if (flit.eop) (flit.gt ? in.gt_discard : in.be_discard) = false;
      if (!flit.gt) FreeCredit(static_cast<int>(i));
      fault_->NoteRouterStallDrop(id_, CycleCount(), flit.gt,
                                  /*is_header=*/false, flit.valid_words);
      continue;
    }

    if (frozen && flit.kind == FlitKind::kHeader) {
      if (flit.gt) {
        in.gt_discard = !flit.eop;
      } else {
        in.be_discard = !flit.eop;
        FreeCredit(static_cast<int>(i));
      }
      fault_->NoteRouterStallDrop(id_, CycleCount(), flit.gt,
                                  /*is_header=*/true, flit.valid_words - 1);
      continue;
    }

    if (flit.kind == FlitKind::kHeader) {
      // Take the hop in place: checks and rewrite read the encoded word.
      const Word word = flit.words[0];
      const bool header_gt = ExtractBits(word, link::kGtBit, 1) != 0;
      AETHEREAL_CHECK_MSG(flit.gt == header_gt,
                          name() << ": GT sideband disagrees with header");
      const std::uint32_t path = link::HeaderPath(word);
      AETHEREAL_CHECK_MSG(path != 0,
                          name() << ": packet with exhausted path at input "
                                 << i);
      const int target = link::SourcePath::PackedNextHop(path);
      AETHEREAL_CHECK_MSG(target >= 0 && target < config_.num_ports,
                          name() << ": path selects port " << target
                                 << " of " << config_.num_ports);
      Flit forwarded = flit;
      forwarded.words[0] = link::ConsumeHeaderHop(word);

      if (flit.gt) {
        ForwardGt(static_cast<int>(i), forwarded, target);
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
        ForwardGt(static_cast<int>(i), flit, in.gt_target);
        if (flit.eop) in.gt_target = kInvalidId;
      } else {
        AETHEREAL_CHECK_MSG(in.be_accept_target != kInvalidId,
                            name() << ": orphan BE payload flit at input " << i);
        BufferBe(static_cast<int>(i), flit, in.be_accept_target);
        if (flit.eop) in.be_accept_target = kInvalidId;
      }
    }
  }
}

void Router::ForwardGt(int input, const Flit& flit, int target) {
  const std::uint32_t bit = std::uint32_t{1} << target;
  AETHEREAL_CHECK_MSG(
      (gt_claimed_outputs_ & bit) == 0,
      name() << ": GT slot contention on output " << target << " (input "
             << input << ") — slot allocation is corrupt");
  auto& out = outputs_[static_cast<std::size_t>(target)];
  AETHEREAL_CHECK_MSG(out.wires != nullptr,
                      name() << ": GT flit to unconnected output " << target);
  gt_claimed_outputs_ |= bit;
  out.wires->data.Drive(flit);
  ++stats_.gt_flits;
}

void Router::BufferBe(int input, const Flit& flit, int target) {
  auto& in = inputs_[static_cast<std::size_t>(input)];
  AETHEREAL_CHECK_MSG(!in.be_queue.full(),
                      name() << ": BE buffer overflow at input " << input
                             << " — link credit protocol violated");
  in.be_queue.push_back(BufferedBeFlit{flit, target});
  be_pushed_inputs_ |= std::uint32_t{1} << input;
  ++be_flits_buffered_;
  stats_.be_max_occupancy =
      std::max(stats_.be_max_occupancy,
               static_cast<std::int64_t>(in.be_queue.size()));
}

void Router::FreeCredit(int input) {
  inputs_[static_cast<std::size_t>(input)].credits_freed_this_slot += 1;
  credit_inputs_ |= std::uint32_t{1} << input;
}

void Router::ArbitrateBestEffort(bool frozen) {
  const std::uint32_t gt_claimed = std::exchange(gt_claimed_outputs_, 0);
  stats_.be_blocked_gt += std::popcount(gt_claimed & be_owned_outputs_);
  // Only an owned or requested output can send a BE flit. Outputs are
  // visited in port order; a pop may add a request on a later output, so
  // the masks are re-read after every visit.
  for (std::uint32_t above = ~std::uint32_t{0};;) {
    const std::uint32_t live =
        (be_owned_outputs_ | be_requested_outputs_) & ~gt_claimed & above;
    if (live == 0) break;
    const int o = std::countr_zero(live);
    above = ~((std::uint32_t{2} << o) - 1);
    auto& out = outputs_[static_cast<std::size_t>(o)];
    if (out.wires == nullptr) continue;

    int i = out.be_owner_input;
    if (i != kInvalidId) {
      // Wormhole: continue the packet owning this output.
      const auto& in = inputs_[static_cast<std::size_t>(i)];
      if (CommittedBeFlits(i) == 0) continue;  // bubble inside the packet
      const BufferedBeFlit& head = in.be_queue.front();
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
      // Credits are read from the wire only when needed: the returns
      // driven in earlier slots.
      out.be_credits += out.wires->credit_return.TakeDriven();
      AETHEREAL_CHECK_MSG(out.be_credits <= out.be_capacity,
                          name() << ": output " << o << " holds "
                                 << out.be_credits
                                 << " link credits, over the downstream"
                                    " capacity of "
                                 << out.be_capacity);
      if (out.be_credits <= 0) {
        ++stats_.be_blocked_credit;  // head-of-line blocked; nobody may jump
        continue;
      }
    }
    auto& in = inputs_[static_cast<std::size_t>(i)];
    const BufferedBeFlit entry = in.be_queue.pop_front();
    --be_flits_buffered_;
    FreeCredit(i);
    out.be_credits -= 1;
    out.wires->data.Drive(entry.flit);
    ++stats_.be_flits;
    if (entry.flit.kind == FlitKind::kHeader) {
      ++stats_.be_packets;
      out.rr_pointer = (i + 1) % config_.num_ports;
      if (!entry.flit.eop) {
        out.be_owner_input = i;
        in.be_drain_target = o;
        be_owned_outputs_ |= std::uint32_t{1} << o;
      }
    } else if (entry.flit.eop) {
      out.be_owner_input = kInvalidId;
      in.be_drain_target = kInvalidId;
      be_owned_outputs_ &= ~(std::uint32_t{1} << o);
    }
    // The pop may expose a header that a later output grants this slot.
    RefreshBeRequest(i);
  }
}

int Router::CommittedBeFlits(int input) const {
  return inputs_[static_cast<std::size_t>(input)].be_queue.size() -
         static_cast<int>((be_pushed_inputs_ >> input) & 1);
}

void Router::RefreshBeRequest(int input) {
  auto& in = inputs_[static_cast<std::size_t>(input)];
  int target = kInvalidId;
  if (in.be_drain_target == kInvalidId && CommittedBeFlits(input) > 0) {
    const BufferedBeFlit& head = in.be_queue.front();
    if (head.flit.kind == FlitKind::kHeader) target = head.target;
  }
  if (target == in.be_request) return;
  const std::uint32_t bit = std::uint32_t{1} << input;
  if (in.be_request != kInvalidId) {
    auto& old = outputs_[static_cast<std::size_t>(in.be_request)];
    old.be_requests &= ~bit;
    if (old.be_requests == 0) {
      be_requested_outputs_ &= ~(std::uint32_t{1} << in.be_request);
    }
  }
  if (target != kInvalidId) {
    outputs_[static_cast<std::size_t>(target)].be_requests |= bit;
    be_requested_outputs_ |= std::uint32_t{1} << target;
  }
  in.be_request = target;
}

}  // namespace aethereal::router
