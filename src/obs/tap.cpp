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
  if (hub_->spec().SamplingEnabled()) {
    window_.start = 0;
    window_.length = hub_->spec().sample_every;
    window_.link_busy.assign(hookup_.links.size(), 0);
  }
  attached_ = true;
}

void ObsTap::CloseWindow(Cycle nominal_start) {
  SampleWindow closed = std::move(window_);
  closed.start = nominal_start;
  window_ = SampleWindow{};
  window_.length = closed.length;
  window_.link_busy.assign(hookup_.links.size(), 0);
  hub_->PushWindow(std::move(closed));
  ++window_index_;
}

void ObsTap::Evaluate() {
  // The naive engine calls every module every cycle; the stride applies
  // only on the gated engine. The explicit boundary check keeps the
  // observation schedule identical on both.
  if (!attached_ || !IsSlotBoundary()) return;
  const Cycle now = CycleCount();
  const bool sampling = hub_->spec().SamplingEnabled();
  Tracer* tracer = hub_->tracer();

  // Close the current sampling window when its end has passed. Windows
  // close at the first slot boundary past k * sample_every; the nominal
  // start/length keep the series grid regular.
  if (sampling) {
    const Cycle window_end =
        static_cast<Cycle>(window_index_ + 1) * hub_->spec().sample_every;
    if (now >= window_end) {
      CloseWindow(static_cast<Cycle>(window_index_) *
                  hub_->spec().sample_every);
    }
  }

  // --- links: one committed flit (or idle) + one credit pulse per slot.
  // Every link runs on this clock, so the previous slot is computed once
  // here rather than by each of the two Sample() calls per link.
  std::vector<LinkCounters>& counters = hub_->link_counters();
  const Cycle prev_slot = now / kFlitWords - 1;
  for (std::size_t i = 0; i < hookup_.links.size(); ++i) {
    const link::LinkWires* wires = hookup_.links[i];
    const link::Flit& flit = wires->data.SampleDrivenIn(prev_slot);
    LinkCounters& c = counters[i];
    const LinkKind kind = hub_->link_kind(static_cast<int>(i));
    if (flit.IsIdle()) {
      ++c.idle_slots;
    } else {
      if (flit.gt) {
        ++c.gt_flits;
      } else {
        ++c.be_flits;
      }
      if (flit.kind == link::FlitKind::kHeader) ++c.header_flits;
      if (sampling) {
        ++window_.busy_link_slots;
        ++window_.link_busy[i];
        if (kind == LinkKind::kInjection) {
          ++(flit.gt ? window_.gt_injected : window_.be_injected);
        } else if (kind == LinkKind::kDelivery) {
          ++(flit.gt ? window_.gt_delivered : window_.be_delivered);
        }
      }
      if (tracer != nullptr) {
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
    const int credits = wires->credit_return.SampleDrivenIn(prev_slot);
    if (credits > 0) {
      ++c.credit_slots;
      c.credits_returned += credits;
    }
    if (sampling) window_.link_slots += 1;
  }

  // --- per-NI committed queue fills (source + dest CDC reader sizes).
  std::vector<NiObservation>& nis = hub_->ni_obs();
  for (std::size_t n = 0; n < hookup_.nis.size(); ++n) {
    const core::NiKernel* ni = hookup_.nis[n];
    int source = 0;
    int dest = 0;
    const int channels = ni->NumChannels();
    for (ChannelId ch = 0; ch < channels; ++ch) {
      source += ni->SourceQueueWords(ch);
      dest += ni->DestQueueWords(ch);
    }
    NiObservation& o = nis[n];
    o.source_queue_hwm = std::max(o.source_queue_hwm, source);
    o.dest_queue_hwm = std::max(o.dest_queue_hwm, dest);
    if (sampling) {
      window_.max_queue_words =
          std::max(window_.max_queue_words, std::max(source, dest));
    }
  }
}

void ObsTap::Finalize() {
  if (!attached_ || finalized_) return;
  finalized_ = true;
  const Cycle cycles = clock() != nullptr ? CycleCount() : 0;

  // Trailing partial window (only if it saw at least one slot).
  if (hub_->spec().SamplingEnabled() && window_.link_slots > 0) {
    CloseWindow(static_cast<Cycle>(window_index_) * hub_->spec().sample_every);
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
