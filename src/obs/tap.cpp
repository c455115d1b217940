#include "obs/tap.h"

#include <algorithm>

#include "core/ni_kernel.h"
#include "router/router.h"
#include "util/check.h"

namespace aethereal::obs {

ObsTap::ObsTap(ObsHub* hub) : sim::Module("obs_tap"), hub_(hub) {
  AETHEREAL_CHECK(hub_ != nullptr);
  // Pure observer, like the verify monitor: stages nothing, all work at
  // slot boundaries.
  SetEvaluateStride(kFlitWords);
}

void ObsTap::Attach(ObsHookup hookup) {
  AETHEREAL_CHECK(!attached_);
  AETHEREAL_CHECK(static_cast<int>(hookup.links.size()) == hub_->NumLinks());
  hookup_ = std::move(hookup);
  hub_->SetCounts(static_cast<int>(hookup_.nis.size()),
                  static_cast<int>(hookup_.routers.size()));
  driven_.assign(hookup_.links.size(), link::LinkTraffic{});
  closed_.assign(hookup_.links.size(), link::LinkTraffic{});
  for (std::size_t i = 0; i < hookup_.links.size(); ++i) {
    hookup_.links[i]->data.CountInto(&driven_[i]);
    hookup_.links[i]->credit_return.CountInto(&driven_[i]);
  }
  marked_slot_.assign(hookup_.nis.size(), -1);
  for (core::NiKernel* ni : hookup_.nis) ni->SetQueueWatcher(this);
  attached_ = true;
}

void ObsTap::NoteHandOff(NiId ni, const sim::Clock& reader, Cycle stamp) {
  // The reader sees the words once its cycle count reaches `stamp`. In a
  // network edge at time t a clock's count is the number of its edges
  // before t, so that is the first network edge after reader edge
  // stamp - 1.
  const sim::Clock& net = *clock();
  const Cycle edge =
      &reader == &net
          ? stamp
          : net.FirstEdgeFrom(reader.next_edge_ps() +
                              (stamp - 1 - reader.cycles()) *
                                  reader.period_ps() +
                              1);
  const Cycle slot = (edge + kFlitWords - 1) / kFlitWords;
  const auto n = static_cast<std::size_t>(ni);
  if (marked_slot_[n] == slot) return;
  marked_slot_[n] = slot;
  marks_.push_back(Mark{slot, n});
}

link::LinkTraffic ObsTap::Observed(std::size_t i,
                                   Cycle unobserved_slot) const {
  link::LinkTraffic traffic = driven_[i];
  const link::LinkWires* wires = hookup_.links[i];
  const link::Flit& flit = wires->data.SampleDrivenIn(unobserved_slot);
  if (!flit.IsIdle()) {
    --(flit.gt ? traffic.gt_flits : traffic.be_flits);
    if (flit.kind == link::FlitKind::kHeader) --traffic.header_flits;
  }
  const int credits = wires->credit_return.SampleDrivenIn(unobserved_slot);
  if (credits > 0) {
    --traffic.credit_slots;
    traffic.credits_returned -= credits;
  }
  return traffic;
}

void ObsTap::CloseWindow(Cycle unobserved_slot) {
  const Cycle sample_every = hub_->spec().sample_every;
  SampleWindow window;
  window.start = static_cast<Cycle>(window_index_) * sample_every;
  window.length = sample_every;
  window.link_slots = (observed_slots_ - closed_slots_) *
                      static_cast<std::int64_t>(hookup_.links.size());
  window.max_queue_words = window_queue_words_;
  window.link_busy.resize(hookup_.links.size());
  for (std::size_t i = 0; i < hookup_.links.size(); ++i) {
    const link::LinkTraffic seen = Observed(i, unobserved_slot);
    const std::int64_t gt = seen.gt_flits - closed_[i].gt_flits;
    const std::int64_t be = seen.be_flits - closed_[i].be_flits;
    closed_[i] = seen;
    window.link_busy[i] = static_cast<std::int32_t>(gt + be);
    window.busy_link_slots += gt + be;
    switch (hub_->link_kind(static_cast<int>(i))) {
      case LinkKind::kInjection:
        window.gt_injected += gt;
        window.be_injected += be;
        break;
      case LinkKind::kDelivery:
        window.gt_delivered += gt;
        window.be_delivered += be;
        break;
      case LinkKind::kRouterRouter:
        break;
    }
  }
  hub_->PushWindow(std::move(window));
  closed_slots_ = observed_slots_;
  window_queue_words_ = 0;
  ++window_index_;
}

void ObsTap::Evaluate() {
  // The naive engine calls every module every cycle; the stride applies
  // only on the gated engine. The explicit boundary check keeps the
  // observation schedule identical on both.
  if (!attached_ || !IsSlotBoundary()) return;
  const Cycle now = CycleCount();
  const bool sampling = hub_->spec().SamplingEnabled();
  // The slot this evaluation observes: its drives are on the wires now.
  const Cycle prev_slot = now / kFlitWords - 1;

  // Close the current sampling window when its end has passed. Windows
  // close at the first slot boundary past k * sample_every, before this
  // boundary's observation; the nominal start/length keep the series grid
  // regular.
  if (sampling &&
      now >= static_cast<Cycle>(window_index_ + 1) *
                 hub_->spec().sample_every) {
    CloseWindow(prev_slot);
  }

  // --- links: the wires counted their own drives; this observes a slot.
  ++observed_slots_;
  slot_ = now / kFlitWords;
  if (Tracer* tracer = hub_->tracer(); tracer != nullptr) {
    for (std::size_t i = 0; i < hookup_.links.size(); ++i) {
      const link::Flit& flit = hookup_.links[i]->data.SampleDrivenIn(prev_slot);
      if (flit.IsIdle()) continue;
      const LinkKind kind = hub_->link_kind(static_cast<int>(i));
      std::uint16_t code = kFlitRoute;
      if (kind == LinkKind::kInjection) code = kFlitInject;
      if (kind == LinkKind::kDelivery) code = kFlitEject;
      tracer->Record(TraceCat::kFlit, code, now, static_cast<std::int32_t>(i),
                     flit.gt ? 1 : 0, flit.eop ? 1 : 0);
      if (flit.gt && kind == LinkKind::kInjection) {
        tracer->Record(TraceCat::kSlot, kSlotGtFire, now,
                       static_cast<std::int32_t>(i));
      }
    }
  }

  // --- per-NI committed queue fills (source + dest CDC reader sizes):
  // every NI at a window's first slot, else the NIs whose hand-offs
  // became readable since the last boundary.
  const bool window_start = observed_slots_ == closed_slots_ + 1;
  if (window_start) {
    for (std::size_t n = 0; n < hookup_.nis.size(); ++n) SumQueueFills(n);
  }
  std::size_t kept = 0;
  for (const Mark& mark : marks_) {
    if (mark.slot > slot_) {
      marks_[kept++] = mark;
    } else if (!window_start) {
      SumQueueFills(mark.ni);
    }
  }
  marks_.resize(kept);
}

void ObsTap::SumQueueFills(std::size_t n) {
  const core::NiKernel* ni = hookup_.nis[n];
  int source = 0;
  int dest = 0;
  const int channels = ni->NumChannels();
  for (ChannelId ch = 0; ch < channels; ++ch) {
    source += ni->SourceQueueWords(ch);
    dest += ni->DestQueueWords(ch);
  }
  NiObservation& o = hub_->ni_obs()[n];
  o.source_queue_hwm = std::max(o.source_queue_hwm, source);
  o.dest_queue_hwm = std::max(o.dest_queue_hwm, dest);
  if (hub_->spec().SamplingEnabled()) {
    window_queue_words_ =
        std::max(window_queue_words_, std::max(source, dest));
  }
}

void ObsTap::Finalize() {
  if (!attached_ || finalized_) return;
  finalized_ = true;
  const Cycle cycles = clock() != nullptr ? CycleCount() : 0;

  // Trailing partial window (only if it saw at least one slot), then the
  // whole-run link counters; the drive of the last evaluated slot was
  // never observed.
  if (hub_->spec().SamplingEnabled() && observed_slots_ > closed_slots_) {
    CloseWindow(slot_);
  }
  std::vector<LinkCounters>& counters = hub_->link_counters();
  for (std::size_t i = 0; i < hookup_.links.size(); ++i) {
    LinkCounters& c = counters[i];
    static_cast<link::LinkTraffic&>(c) = Observed(i, slot_);
    c.idle_slots = observed_slots_ - c.gt_flits - c.be_flits;
  }

  // End-of-run per-NI snapshot: idle accounting settled by stats() (which
  // matches the naive engine on every path), utilization over the slot
  // opportunities of the whole run.
  const std::int64_t opportunities = (cycles + kFlitWords - 1) / kFlitWords;
  std::vector<NiObservation>& nis = hub_->ni_obs();
  for (std::size_t n = 0; n < hookup_.nis.size(); ++n) {
    const core::NiKernelStats& stats = hookup_.nis[n]->stats();
    NiObservation& o = nis[n];
    o.idle_slots = stats.idle_slots;
    o.gt_slots_unused = stats.gt_slots_unused;
    o.slot_utilization =
        opportunities > 0
            ? 1.0 - static_cast<double>(stats.idle_slots +
                                        stats.gt_slots_unused) /
                        static_cast<double>(opportunities)
            : 0.0;
  }
  std::vector<RouterObservation>& routers = hub_->router_obs();
  for (std::size_t r = 0; r < hookup_.routers.size(); ++r) {
    const router::RouterStats& stats = hookup_.routers[r]->stats();
    RouterObservation& o = routers[r];
    o.gt_flits = stats.gt_flits;
    o.be_flits = stats.be_flits;
    o.be_packets = stats.be_packets;
    o.be_blocked_credit = stats.be_blocked_credit;
    o.be_blocked_gt = stats.be_blocked_gt;
    o.be_max_occupancy = stats.be_max_occupancy;
  }
}

}  // namespace aethereal::obs
