#include "scenario/sources.h"

#include <algorithm>

#include "util/check.h"

namespace aethereal::scenario {

PatternSource::PatternSource(std::string name, core::NiPort* port, int connid,
                             const TrafficSpec& traffic, std::uint64_t seed)
    : sim::Module(std::move(name)),
      port_(port),
      connid_(connid),
      inject_(traffic.inject),
      period_(traffic.period),
      rate_(traffic.rate),
      burst_words_(traffic.burst_words),
      gap_cycles_(traffic.gap_cycles),
      rng_(seed) {
  AETHEREAL_CHECK(port != nullptr);
  AETHEREAL_CHECK(inject_ != InjectKind::kClosedLoop);
  // Seeded phase offset: flows of one pattern must not inject in lockstep,
  // or the arbiter would see an artificial synchronized burst every period.
  switch (inject_) {
    case InjectKind::kPeriodic:
      initial_offset_ = static_cast<Cycle>(
          rng_.NextBelow(static_cast<std::uint64_t>(period_)));
      break;
    case InjectKind::kBernoulli:
      initial_offset_ = rng_.NextGeometric(rate_);
      break;
    case InjectKind::kBursty:
      initial_offset_ = static_cast<Cycle>(rng_.NextBelow(
          static_cast<std::uint64_t>(burst_words_ + gap_cycles_)));
      break;
    case InjectKind::kClosedLoop:
      break;
  }
  next_emit_ = initial_offset_;
}

void PatternSource::Activate(Cycle now) {
  active_ = true;
  backlog_ = 0;
  // Same seeded offset, rebased to the activation instant, so a phase's
  // flows fan out over the period exactly like a run that started here.
  next_emit_ = now + initial_offset_;
  Wake();
}

void PatternSource::Deactivate() {
  active_ = false;
  backlog_ = 0;
}

void PatternSource::ScheduleNext(Cycle now) {
  switch (inject_) {
    case InjectKind::kPeriodic:
      next_emit_ = now + period_;
      break;
    case InjectKind::kBernoulli:
      next_emit_ = now + 1 + rng_.NextGeometric(rate_);
      break;
    case InjectKind::kBursty:
      // The burst occupies burst_words_ cycles on the port, then the line
      // goes idle for gap_cycles_.
      next_emit_ = now + burst_words_ + gap_cycles_;
      break;
    case InjectKind::kClosedLoop:
      break;
  }
}

void PatternSource::Evaluate() {
  if (!active_) {
    Park();  // silent until Activate() wakes us
    return;
  }
  const Cycle now = CycleCount();
  if (now >= next_emit_) {
    backlog_ += inject_ == InjectKind::kBursty ? burst_words_ : 1;
    ScheduleNext(now);
  }
  // The port is a 32-bit interface: at most one word per cycle.
  if (backlog_ > 0) {
    if (port_->CanWrite(connid_)) {
      port_->Write(connid_, static_cast<Word>(now));
      --backlog_;
      ++words_written_;
    } else {
      ++stall_cycles_;
    }
  } else if (next_emit_ > now) {
    // Nothing due until the next injection event: sleep through the gap.
    // (A full source queue keeps us awake — space frees asynchronously.)
    ParkUntil(next_emit_);
  }
}

Relay::Relay(std::string name, core::NiPort* port, int in_connid,
             int out_connid)
    : sim::Module(std::move(name)),
      port_(port),
      in_connid_(in_connid),
      out_connid_(out_connid) {
  AETHEREAL_CHECK(port != nullptr);
  AETHEREAL_CHECK(in_connid != out_connid);
  // Park on an empty input queue; deliveries wake us in time.
  port->WakeOnDelivery(in_connid, this);
}

void Relay::Evaluate() {
  if (port_->ReadAvailable(in_connid_) == 0) {
    Park();  // empty input: sleep until the next delivery
    return;
  }
  if (!port_->CanWrite(out_connid_)) return;  // output full: retry next cycle
  port_->Write(out_connid_, port_->Read(in_connid_));
  ++words_relayed_;
}

}  // namespace aethereal::scenario
