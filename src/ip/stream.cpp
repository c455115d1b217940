#include "ip/stream.h"

#include <algorithm>

#include "util/check.h"

namespace aethereal::ip {

StreamSource::StreamSource(std::string name, core::NiPort* port, int connid,
                           const Injection& injection, Rng rng)
    : sim::Module(std::move(name)),
      port_(port),
      connid_(connid),
      injection_(injection),
      rng_(rng),
      next_emit_(injection.phase) {
  AETHEREAL_CHECK(port != nullptr);
  AETHEREAL_CHECK(injection.period >= 1);
  AETHEREAL_CHECK(injection.words >= 1);
  AETHEREAL_CHECK(injection.phase >= 0);
}

void StreamSource::Activate(Cycle now) {
  active_ = true;
  backlog_ = 0;
  // The same phase, rebased to the activation instant, so a phase's flows
  // fan out over the period exactly like a run that started here.
  next_emit_ = now + injection_.phase;
  Wake();
}

void StreamSource::Deactivate() {
  active_ = false;
  backlog_ = 0;
}

void StreamSource::Evaluate() {
  if (!active_) {
    Park();  // silent until Activate() wakes us
    return;
  }
  const Cycle now = CycleCount();
  if (now >= next_emit_) {
    std::int64_t due = injection_.words;
    if (injection_.total_words >= 0) {
      due = std::min(due,
                     injection_.total_words - words_written_ - backlog_);
    }
    if (due > 0) {
      backlog_ += due;
      next_emit_ = now + injection_.period;
      if (injection_.rate > 0) next_emit_ += rng_.NextGeometric(injection_.rate);
    }
  }
  // The port is a 32-bit interface: at most one word per cycle.
  if (backlog_ > 0 && port_->CanWrite(connid_)) {
    port_->Write(connid_, static_cast<Word>(now));
    --backlog_;
    ++words_written_;
  }
  // With space for the backlog, write on. Blocked on a full source queue,
  // sleep until space comes back or the next injection event, whichever
  // is first, so the event tick does not drift. Otherwise sleep through
  // the gap to the next event, or for good once every word is due.
  Cycle wake = next_emit_;
  if (injection_.total_words >= 0 &&
      words_written_ + backlog_ >= injection_.total_words) {
    wake = sim::kNoEdge;  // no event left
  }
  if (backlog_ > 0) {
    if (port_->CanWrite(connid_)) return;
    wake = std::min(wake, port_->WakeOnSpace(connid_, this));
  }
  if (wake == sim::kNoEdge) {
    Park();
  } else {
    ParkUntil(wake);
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
  if (port_->ReadAvailable(in_connid_) > 0) {
    if (!port_->CanWrite(out_connid_)) return;  // output full: retry next cycle
    port_->Write(out_connid_, port_->Read(in_connid_));
    ++words_relayed_;
  }
  if (port_->ReadAvailable(in_connid_) == 0) {
    Park();  // empty input: sleep until the next delivery
  }
}

StreamConsumer::StreamConsumer(std::string name, core::NiPort* port,
                               int connid, int drain_per_cycle)
    : sim::Module(std::move(name)),
      port_(port),
      connid_(connid),
      drain_per_cycle_(drain_per_cycle) {
  AETHEREAL_CHECK(port != nullptr);
  AETHEREAL_CHECK(drain_per_cycle >= 1);
  // Park on an empty destination queue; deliveries wake us in time for the
  // first readable cycle.
  port->WakeOnDelivery(connid, this);
}

void StreamConsumer::Evaluate() {
  for (int i = 0; i < drain_per_cycle_ && port_->ReadAvailable(connid_) > 0;
       ++i) {
    const Word stamp = port_->Read(connid_);
    latency_.Add(static_cast<double>(CycleCount()) -
                 static_cast<double>(stamp));
    if (static_cast<Cycle>(stamp) <= last_stamp_) ++sequence_errors_;
    last_stamp_ = stamp;
    if (last_arrival_ >= 0) {
      inter_arrival_.Add(CycleCount() - last_arrival_);
    }
    last_arrival_ = CycleCount();
    ++words_read_;
  }
  if (port_->ReadAvailable(connid_) == 0) {
    Park();  // empty queue: sleep until the next delivery
  }
}

}  // namespace aethereal::ip
