#include "verify/monitor.h"

#include <algorithm>
#include <sstream>

#include "core/registers.h"
#include "link/flit.h"
#include "link/header.h"
#include "util/check.h"

namespace aethereal::verify {

using link::Flit;
using link::FlitKind;
using link::PacketHeader;

namespace {

/// A mismatch must be seen this many times for the same (NI, slot) before
/// it is reported: a legitimate register update (open/close staged one
/// cycle before the allocator table changes) can disagree for at most one
/// observation of a slot index.
constexpr int kStuMismatchThreshold = 2;

/// Recorded-violation cap; total_violations() keeps counting beyond it.
constexpr std::size_t kMaxRecorded = 64;

}  // namespace

Monitor::Monitor(std::string name) : sim::Module(std::move(name)) {
  // The monitor is a pure observer: it stages nothing, and all work
  // happens at slot boundaries.
  SetEvaluateStride(kFlitWords);
}

Monitor::~Monitor() = default;

void Monitor::Attach(MonitorHookup hookup) {
  AETHEREAL_CHECK_MSG(!attached_, "monitor already attached");
  AETHEREAL_CHECK(hookup.topology != nullptr && hookup.allocator != nullptr);
  const auto num_nis = hookup.nis.size();
  AETHEREAL_CHECK(hookup.injection.size() == num_nis &&
                  hookup.delivery.size() == num_nis);
  hookup_ = std::move(hookup);
  table_slots_ = hookup_.allocator->num_slots();
  max_qid_ = link::kMaxQueueId + 1;
  prev_snapshot_.resize(num_nis);
  open_inj_gt_.resize(num_nis);
  open_inj_be_.resize(num_nis);
  open_del_gt_.resize(num_nis);
  open_del_be_.resize(num_nis);
  injection_tables_.reserve(num_nis);
  channels_of_.reserve(num_nis);
  for (std::size_t n = 0; n < num_nis; ++n) {
    injection_tables_.push_back(&hookup_.allocator->TableOf(topology::LinkId{
        /*from_ni=*/true, static_cast<NiId>(n), /*port=*/0}));
    channels_of_.push_back(hookup_.nis[n]->NumChannels());
  }
  routes_.resize(num_nis);
  listed_.assign(num_nis, false);
  armed_through_.assign(num_nis, -1);
  mismatching_.assign(num_nis, 0);
  ledgers_.resize(num_nis * static_cast<std::size_t>(max_qid_));
  stu_mismatch_streak_.assign(
      num_nis * static_cast<std::size_t>(table_slots_), 0);
  stu_mismatch_reported_.assign(
      num_nis * static_cast<std::size_t>(table_slots_), false);
  attached_ = true;
}

int Monitor::LedgerIndex(NiId ni, int qid) const {
  AETHEREAL_CHECK(ni >= 0 && static_cast<std::size_t>(ni) < hookup_.nis.size());
  AETHEREAL_CHECK(qid >= 0 && qid < max_qid_);
  return ni * max_qid_ + qid;
}

Monitor::ChannelLedger& Monitor::Ledger(int index) {
  return ledgers_[static_cast<std::size_t>(index)];
}

void Monitor::Report(const char* check, std::string message,
                     bool fault_induced) {
  ++total_violations_;
  if (fault_induced) ++fault_violations_;
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(
        Violation{clock() != nullptr ? CycleCount() : 0, check,
                  std::move(message), fault_induced});
  }
}

void Monitor::RefreshPairs() {
  if (!hookup_.pairs_version || !hookup_.channel_pairs) return;
  const std::int64_t version = hookup_.pairs_version();
  if (version == pairs_version_seen_) return;
  pairs_version_seen_ = version;
  std::vector<int> old_peer(ledgers_.size());
  for (std::size_t i = 0; i < ledgers_.size(); ++i) {
    old_peer[i] = ledgers_[i].peer;
    ledgers_[i].peer = -1;
  }
  for (const auto& [a, b] : hookup_.channel_pairs()) {
    // a sends into b's destination queue and vice versa, so the ledger of
    // destination b is paired with the ledger of destination a: credits
    // addressed to a acknowledge words delivered to b.
    const int la = LedgerIndex(a.ni, a.channel);
    const int lb = LedgerIndex(b.ni, b.channel);
    Ledger(la).peer = lb;
    Ledger(lb).peer = la;
  }
  // A queue re-paired with a DIFFERENT partner (close + reopen) starts a
  // fresh credit loop: its conservation counters must restart with it, or
  // the old connection's totals would fire false violations against the
  // new partner's zeroed ledger. (Reconfiguring while old traffic is
  // still in flight remains outside the checked envelope.)
  for (std::size_t i = 0; i < ledgers_.size(); ++i) {
    ChannelLedger& ledger = ledgers_[i];
    if (ledger.peer != -1 && old_peer[i] != -1 &&
        ledger.peer != old_peer[i]) {
      ledger.sent_words = 0;
      ledger.delivered_words = 0;
      ledger.credits_in = 0;
      ledger.capacity = -1;
    }
  }
}

Monitor::Route Monitor::ResolveRoute(NiId ni, const link::SourcePath& path) {
  std::vector<Route>& known = routes_[static_cast<std::size_t>(ni)];
  for (const Route& route : known) {
    if (route.packed == path.packed()) return route;
  }
  RouterId router = hookup_.topology->NiRouter(ni);
  link::SourcePath rest = path;
  while (!rest.Exhausted()) {
    const int port = rest.NextHop();
    if (port < 0 || port >= hookup_.topology->RouterPorts(router)) {
      std::ostringstream oss;
      oss << "packet from ni" << ni << " routes to port " << port
          << " of router" << router << " which has "
          << hookup_.topology->RouterPorts(router) << " ports";
      Report("gt-route-conformance", oss.str());
      return Route{};
    }
    const topology::Endpoint& peer = hookup_.topology->PortPeer(router, port);
    rest = rest.Consume();
    if (peer.kind == topology::EndpointKind::kNi) {
      if (!rest.Exhausted()) {
        std::ostringstream oss;
        oss << "packet from ni" << ni << " reaches ni" << peer.id
            << " with unconsumed path hops";
        Report("gt-route-conformance", oss.str());
        return Route{};
      }
      known.push_back(Route{path.packed(), peer.id, path.HopCount()});
      return known.back();
    }
    if (peer.kind != topology::EndpointKind::kRouter) {
      std::ostringstream oss;
      oss << "packet from ni" << ni << " routes into unconnected port "
          << port << " of router" << router;
      Report("gt-route-conformance", oss.str());
      return Route{};
    }
    router = peer.id;
  }
  std::ostringstream oss;
  oss << "packet from ni" << ni << " has an empty source path";
  Report("gt-route-conformance", oss.str());
  return Route{};
}

Monitor::SlotSnapshot Monitor::Owners(NiId ni, Cycle boundary) {
  const auto n = static_cast<std::size_t>(ni);
  SlotSnapshot snap;
  snap.valid = true;
  snap.boundary = boundary;
  snap.slot = static_cast<SlotIndex>((boundary / kFlitWords) % table_slots_);
  snap.stu_owner = hookup_.nis[n]->SlotOwner(snap.slot);
  snap.alloc_owner = injection_tables_[n]->Owner(snap.slot);
  return snap;
}

Monitor::SlotSnapshot Monitor::DriveTimeOwners(NiId ni) {
  const Cycle drive = CycleCount() - kFlitWords;
  const SlotSnapshot& snap = prev_snapshot_[static_cast<std::size_t>(ni)];
  return snap.boundary == drive ? snap : Owners(ni, drive);
}

void Monitor::Arm(std::size_t n, Cycle through_slot) {
  armed_through_[n] = std::max(armed_through_[n], through_slot);
  if (listed_[n]) return;
  listed_[n] = true;
  armed_.insert(std::lower_bound(armed_.begin(), armed_.end(), n), n);
}

void Monitor::NoteTableChange(NiId ni) {
  if (!attached_) return;
  const auto n = static_cast<std::size_t>(ni);
  // No table of the NI changed since the last boundary, or it would have
  // been snapshotted then: what it reads now is what governed that slot.
  if (last_boundary_ >= 0 && prev_snapshot_[n].boundary != last_boundary_) {
    prev_snapshot_[n] = Owners(ni, last_boundary_);
  }
  const Cycle slot = (clock() != nullptr ? CycleCount() : 0) / kFlitWords;
  Arm(n, slot + 2 * static_cast<Cycle>(table_slots_) + 1);
}

void Monitor::ObserveInjection(NiId ni, const Flit& flit) {
  ++flits_checked_;
  OpenPacket& open = flit.gt ? open_inj_gt_[static_cast<std::size_t>(ni)]
                             : open_inj_be_[static_cast<std::size_t>(ni)];
  const Cycle now = CycleCount();

  ExpectedFlit expect;
  expect.id = flit.id;
  expect.kind = flit.kind;
  expect.gt = flit.gt;
  expect.eop = flit.eop;

  if (flit.kind == FlitKind::kHeader) {
    const PacketHeader header = PacketHeader::Decode(flit.words[0]);
    if (header.gt != flit.gt) {
      std::ostringstream oss;
      oss << "ni" << ni << " injected a flit whose sideband class disagrees "
          << "with its header";
      Report("flit-integrity", oss.str());
    }
    const Route route = ResolveRoute(ni, header.path);
    const NiId dest = route.dest;
    if (dest == kInvalidId) return;  // already reported
    const int dest_channels = channels_of_[static_cast<std::size_t>(dest)];
    if (header.remote_qid >= dest_channels) {
      // Diagnose the corruption instead of letting the capacity lookup
      // CHECK-abort on the nonexistent queue (the destination NI kernel
      // still treats the arrival itself as fatal, per its contract).
      std::ostringstream oss;
      oss << "ni" << ni << " packet addresses queue " << header.remote_qid
          << " of ni" << dest << " which has only " << dest_channels
          << " channels";
      Report("gt-route-conformance", oss.str());
      return;
    }
    if (open.ledger != -1) {
      std::ostringstream oss;
      oss << "ni" << ni << " injected a " << (flit.gt ? "GT" : "BE")
          << " header while a packet of the same class is open";
      Report("flit-ordering", oss.str());
    }
    open.ledger = LedgerIndex(dest, header.remote_qid);
    open.hops = route.hops;
    expect.credits = header.credits;

    if (flit.gt) {
      // Drive-time slot-table conformance: the owners of the slot the flit
      // was driven in, one slot before it became observable.
      const SlotSnapshot snap = DriveTimeOwners(ni);
      if (snap.valid) {
        if (!snap.alloc_owner.valid()) {
          std::ostringstream oss;
          oss << "ni" << ni << " injected a GT flit in slot " << snap.slot
              << " which is not reserved on its injection link";
          Report("gt-slot-reservation", oss.str());
        } else if (snap.alloc_owner.ni != ni) {
          std::ostringstream oss;
          oss << "ni" << ni << " injected a GT flit in slot " << snap.slot
              << " reserved for " << "ni" << snap.alloc_owner.ni << ".ch"
              << snap.alloc_owner.channel;
          Report("gt-slot-reservation", oss.str());
        } else {
          if (snap.stu_owner != snap.alloc_owner.channel) {
            std::ostringstream oss;
            oss << "ni" << ni << " STU granted channel " << snap.stu_owner
                << " slot " << snap.slot << " but the allocator reserved it "
                << "for channel " << snap.alloc_owner.channel;
            Report("gt-slot-reservation", oss.str());
          }
          // The emitting channel's configured route must be the route the
          // packet actually took.
          auto reg = hookup_.nis[static_cast<std::size_t>(ni)]->ReadRegister(
              core::regs::ChannelRegAddr(snap.alloc_owner.channel,
                                         core::regs::ChannelReg::kPathRqid));
          if (reg.ok()) {
            const link::SourcePath conf_path = core::regs::UnpackPath(*reg);
            const int conf_rqid = core::regs::UnpackRqid(*reg);
            if (!(conf_path == header.path) ||
                conf_rqid != header.remote_qid) {
              std::ostringstream oss;
              oss << "ni" << ni << " channel " << snap.alloc_owner.channel
                  << " emitted a GT header whose path/rqid differ from its "
                  << "configured PATH_RQID register";
              Report("gt-route-conformance", oss.str());
            }
          }
        }
      }
    }

  } else {
    if (open.ledger == -1) {
      std::ostringstream oss;
      oss << "ni" << ni << " injected a " << (flit.gt ? "GT" : "BE")
          << " payload flit with no packet open";
      Report("flit-ordering", oss.str());
      return;
    }
    if (flit.gt) {
      // Payload flits of a GT packet must stay inside reserved slots too
      // (a packet overrunning its contiguous run lands here).
      const SlotSnapshot snap = DriveTimeOwners(ni);
      if (snap.valid &&
          (!snap.alloc_owner.valid() || snap.alloc_owner.ni != ni)) {
        std::ostringstream oss;
        oss << "ni" << ni << " GT payload flit in slot " << snap.slot
            << " which is not reserved for this NI on its injection link";
        Report("gt-slot-reservation", oss.str());
      }
    }
  }

  // Payload words (header word excluded) and the conservation ledger.
  const int first = flit.kind == FlitKind::kHeader ? 1 : 0;
  for (int i = first; i < flit.valid_words; ++i) {
    expect.payload[static_cast<std::size_t>(expect.payload_words++)] =
        flit.words[static_cast<std::size_t>(i)];
  }
  ChannelLedger& ledger = Ledger(open.ledger);
  ledger.sent_words += expect.payload_words;
  if (flit.gt) gt_words_sent_ += expect.payload_words;
  if (ledger.capacity < 0 && hookup_.dest_queue_words) {
    ledger.capacity = hookup_.dest_queue_words(tdm::GlobalChannel{
        static_cast<NiId>(open.ledger / max_qid_), open.ledger % max_qid_});
  }
  if (ledger.peer >= 0 && ledger.capacity >= 0) {
    // Space conservation for the sender: words in the network or the
    // destination queue can never exceed the queue capacity. The tap sees
    // sends one slot late and credit returns no later than the sender, so
    // this difference is a strict lower bound on capacity - Space.
    const std::int64_t outstanding =
        ledger.sent_words - Ledger(ledger.peer).credits_in;
    if (outstanding > ledger.capacity) {
      std::ostringstream oss;
      oss << "credit conservation violated toward ni"
          << open.ledger / max_qid_ << ".q" << open.ledger % max_qid_
          << ": " << ledger.sent_words << " words sent, "
          << Ledger(ledger.peer).credits_in
          << " credits returned, capacity " << ledger.capacity;
      // Dropped credit-carrying headers starve the loop; with drop faults
      // armed the imbalance is expected degradation, not a simulator bug.
      Report("credit-conservation", oss.str(),
             fault_context_.drops_possible);
    }
  }

  expect.arrival = flit.gt ? now + static_cast<Cycle>(open.hops) * kFlitWords
                           : Cycle{-1};
  ledger.expected.push_back(expect);
  if (flit.eop) open.ledger = -1;
}

void Monitor::ObserveDelivery(NiId ni, const Flit& flit) {
  OpenPacket& open = flit.gt ? open_del_gt_[static_cast<std::size_t>(ni)]
                             : open_del_be_[static_cast<std::size_t>(ni)];
  const Cycle now = CycleCount();

  int credits = 0;
  if (flit.kind == FlitKind::kHeader) {
    const PacketHeader header = PacketHeader::Decode(flit.words[0]);
    if (!header.path.Exhausted()) {
      std::ostringstream oss;
      oss << "ni" << ni << " received a packet with unconsumed path hops";
      Report("gt-route-conformance", oss.str());
    }
    if (header.remote_qid >= channels_of_[static_cast<std::size_t>(ni)]) {
      std::ostringstream oss;
      oss << "ni" << ni << " received a packet for queue "
          << header.remote_qid << " which it does not have";
      Report("gt-route-conformance", oss.str());
      return;
    }
    open.ledger = LedgerIndex(ni, header.remote_qid);
    credits = header.credits;
  } else if (open.ledger == -1) {
    std::ostringstream oss;
    oss << "ni" << ni << " received a " << (flit.gt ? "GT" : "BE")
        << " payload flit with no packet open";
    Report("flit-ordering", oss.str());
    return;
  }

  ChannelLedger& ledger = Ledger(open.ledger);
  const int qid = open.ledger % max_qid_;
  if (flit.eop) open.ledger = -1;

  // The flit is the in-flight entry with its identity; every older entry
  // ahead of it was lost on the way.
  const auto match =
      std::find_if(ledger.expected.begin(), ledger.expected.end(),
                   [&](const ExpectedFlit& e) { return e.id == flit.id; });
  if (match == ledger.expected.end()) {
    std::ostringstream oss;
    oss << "ni" << ni << ".q" << qid << " received a flit that never "
        << "entered the network (injection tap saw nothing)";
    Report("flit-ordering", oss.str());
    return;
  }
  if (match != ledger.expected.begin()) {
    const auto lost = match - ledger.expected.begin();
    std::int64_t words_lost = 0;
    for (auto it = ledger.expected.begin(); it != match; ++it) {
      words_lost += it->payload_words;
    }
    ledger.sent_words -= words_lost;  // never reached the queue
    std::ostringstream oss;
    oss << "ni" << ni << ".q" << qid << " lost " << lost << " flit(s) ("
        << words_lost << " word(s))";
    // Only a drop fault may lose a flit.
    if (fault_context_.drops_possible) {
      fault_lost_flits_ += lost;
      fault_lost_words_ += words_lost;
      oss << " to injected drop faults";
    } else {
      oss << " ahead of a delivered flit";
    }
    Report("flit-loss", oss.str(), fault_context_.drops_possible);
  }
  const ExpectedFlit expect = *match;
  ledger.expected.PopThrough(match);

  // Uncorrupted delivery: the flit must be exactly what entered the
  // network (header word excluded: the path field mutates en route).
  const int first = flit.kind == FlitKind::kHeader ? 1 : 0;
  const int payload_words = flit.valid_words - first;
  if (expect.kind != flit.kind || expect.gt != flit.gt ||
      expect.eop != flit.eop || expect.credits != credits ||
      expect.payload_words != payload_words) {
    std::ostringstream oss;
    oss << "ni" << ni << ".q" << qid << " delivery differs in framing from "
        << "the flit that entered the network";
    Report("flit-integrity", oss.str());
  } else if (!std::equal(expect.payload.begin(),
                         expect.payload.begin() + payload_words,
                         flit.words.begin() + first)) {
    // Only the injector's bit flip may change payload bits.
    std::ostringstream oss;
    oss << "ni" << ni << ".q" << qid;
    if (flit.fault_flipped) {
      ++fault_corrupted_flits_;
      oss << " payload corrupted in flight (fault-injected bit flip)";
    } else {
      oss << " payload differs from the flit that entered the network";
    }
    Report("flit-integrity", oss.str(), flit.fault_flipped);
  }

  // The GT latency contract: exactly one slot per traversed link, which
  // also proves the flit was never queued behind best-effort traffic.
  if (flit.gt && expect.gt && expect.arrival >= 0 &&
      now != expect.arrival) {
    std::ostringstream oss;
    oss << "ni" << ni << ".q" << qid << " GT flit arrived at cycle " << now
        << ", expected exactly " << expect.arrival
        << " (one slot per link)";
    Report("gt-timing", oss.str());
  }

  ledger.delivered_words += payload_words;
  if (flit.gt) gt_words_delivered_ += payload_words;
  if (credits > 0) {
    ledger.credits_in += credits;
    if (ledger.peer >= 0 &&
        ledger.credits_in > Ledger(ledger.peer).delivered_words) {
      std::ostringstream oss;
      oss << "ni" << ni << ".q" << qid << " accumulated " << ledger.credits_in
          << " returned credits but only " << Ledger(ledger.peer).delivered_words
          << " words were ever delivered to its paired queue "
          << "(credits fabricated)";
      Report("credit-conservation", oss.str(),
             fault_context_.drops_possible);
    }
  }
}

void Monitor::Evaluate() {
  if (!attached_ || !IsSlotBoundary()) return;
  const Cycle now = CycleCount();
  RefreshPairs();

  // Validate the flits driven one slot ago (what the wires carry in this
  // slot) against the tables that governed their slot. All wires run on
  // this clock, so that slot is computed once rather than per Sample().
  if (now >= kFlitWords) {
    const Cycle prev_slot = now / kFlitWords - 1;
    for (std::size_t n = 0; n < hookup_.nis.size(); ++n) {
      const Flit& inj = hookup_.injection[n]->data.SampleDrivenIn(prev_slot);
      if (!inj.IsIdle()) ObserveInjection(static_cast<NiId>(n), inj);
      const Flit& del = hookup_.delivery[n]->data.SampleDrivenIn(prev_slot);
      if (!del.IsIdle()) ObserveDelivery(static_cast<NiId>(n), del);
    }
  }

  last_boundary_ = now;
  CheckChangedNis(now);
}

void Monitor::CheckChangedNis(Cycle now) {
  // Snapshot the tables governing the slot the NIs are about to schedule
  // (this same cycle, after us), for use one slot from now, and check the
  // STU against the allocator on the same reads: an enabled channel owning
  // STU slot `slot` must be backed by an allocator reservation on the NI's
  // injection link for the same channel. (The reverse — reserved but not
  // yet programmed — is the normal state during connection setup and is
  // fine.) An NI off the list has had no table change for two rotations
  // and no slot mismatching, so every check of it would pass.
  const Cycle slot_number = now / kFlitWords;
  std::size_t kept = 0;
  for (const std::size_t n : armed_) {
    const auto ni = static_cast<NiId>(n);
    SlotSnapshot& snap = prev_snapshot_[n];
    snap = Owners(ni, now);

    const std::size_t key = n * static_cast<std::size_t>(table_slots_) +
                            static_cast<std::size_t>(snap.slot);
    const bool mismatch =
        snap.stu_owner != kInvalidId &&
        hookup_.nis[n]->ChannelEnabled(snap.stu_owner) &&
        !(snap.alloc_owner == tdm::GlobalChannel{ni, snap.stu_owner});
    int& streak = stu_mismatch_streak_[key];
    if (!mismatch) {
      if (streak > 0) --mismatching_[n];
      streak = 0;
    } else {
      if (streak++ == 0) ++mismatching_[n];
      if (streak >= kStuMismatchThreshold && !stu_mismatch_reported_[key]) {
        stu_mismatch_reported_[key] = true;
        std::ostringstream oss;
        oss << "ni" << ni << " STU slot " << snap.slot
            << " owned by enabled channel " << snap.stu_owner
            << " without a matching allocator reservation";
        Report("stu-allocator-conformance", oss.str());
      }
    }
    if (armed_through_[n] >= slot_number || mismatching_[n] > 0) {
      armed_[kept++] = n;
    } else {
      listed_[n] = false;
    }
  }
  armed_.resize(kept);
}

void Monitor::NotePhaseBoundary() {
  if (!attached_) return;
  // Invalidate the drive-time snapshots: the next slot boundary re-reads
  // the (reconfigured) allocator tables and STU state from scratch instead
  // of judging the first post-boundary flit against pre-boundary tables.
  for (SlotSnapshot& snap : prev_snapshot_) {
    snap = SlotSnapshot{};
    snap.boundary = last_boundary_;
  }
  // A mismatch streak must not straddle two configurations; every NI is
  // checked afresh for two rotations.
  std::fill(stu_mismatch_streak_.begin(), stu_mismatch_streak_.end(), 0);
  std::fill(mismatching_.begin(), mismatching_.end(), 0);
  const Cycle slot = CycleCount() / kFlitWords;
  for (std::size_t n = 0; n < hookup_.nis.size(); ++n) {
    Arm(n, slot + 2 * static_cast<Cycle>(table_slots_) + 1);
  }
  // Re-pair unconditionally on the next Evaluate.
  pairs_version_seen_ = -1;
}

void Monitor::Finalize() {
  if (!attached_ || clock() == nullptr) return;
  const Cycle now = CycleCount();
  for (std::size_t i = 0; i < ledgers_.size(); ++i) {
    ChannelLedger& ledger = ledgers_[i];
    bool reported = false;
    std::int64_t lost_flits = 0;
    std::int64_t lost_words = 0;
    for (auto it = ledger.expected.begin(); it != ledger.expected.end();) {
      const bool overdue = it->gt && it->arrival >= 0 && it->arrival < now;
      if (!overdue) {
        ++it;
        continue;
      }
      if (fault_context_.drops_possible) {
        // A GT flit cannot be late, only lost: attribute it to the drop
        // faults and retire the expectation (keeps Finalize idempotent).
        ++lost_flits;
        lost_words += it->payload_words;
        ledger.sent_words -= it->payload_words;
        it = ledger.expected.erase(it);
        continue;
      }
      if (!reported) {
        reported = true;
        std::ostringstream oss;
        oss << "ni" << i / static_cast<std::size_t>(max_qid_) << ".q"
            << i % static_cast<std::size_t>(max_qid_)
            << " GT flit still undelivered at end of run (was due at cycle "
            << it->arrival << ")";
        Report("gt-timing", oss.str());  // one report per channel is enough
      }
      ++it;
    }
    if (lost_flits > 0) {
      fault_lost_flits_ += lost_flits;
      fault_lost_words_ += lost_words;
      std::ostringstream oss;
      oss << "ni" << i / static_cast<std::size_t>(max_qid_) << ".q"
          << i % static_cast<std::size_t>(max_qid_) << " " << lost_flits
          << " GT flit(s) (" << lost_words << " word(s)) past their deadline "
          << "at end of run, attributed to injected drop faults";
      Report("gt-timing", oss.str(), /*fault_induced=*/true);
    }
  }
}

std::string Monitor::Describe() const {
  std::ostringstream oss;
  oss << flits_checked_ << " flits checked, " << total_violations_
      << " violation(s)";
  if (!violations_.empty()) {
    oss << "; first: [cycle " << violations_.front().cycle << "] "
        << violations_.front().check << ": " << violations_.front().message;
  }
  return oss.str();
}

}  // namespace aethereal::verify
