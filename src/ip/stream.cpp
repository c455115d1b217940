#include "ip/stream.h"

#include <algorithm>

#include "util/check.h"

namespace aethereal::ip {

StreamProducer::StreamProducer(std::string name, core::NiPort* port,
                               int connid, std::int64_t period,
                               int words_per_period, bool timestamp_mode,
                               std::int64_t total_words)
    : sim::Module(std::move(name)),
      port_(port),
      connid_(connid),
      period_(period),
      words_per_period_(words_per_period),
      timestamp_mode_(timestamp_mode),
      total_words_(total_words) {
  AETHEREAL_CHECK(port != nullptr);
  AETHEREAL_CHECK(period >= 1);
  AETHEREAL_CHECK(words_per_period >= 1);
}

void StreamProducer::Evaluate() {
  if (!active_) {
    Park();  // Start() wakes us
    return;
  }
  if (Done() && backlog_ == 0) {
    Park();  // finished for good
    return;
  }
  if (CycleCount() >= next_emit_) {
    std::int64_t due = words_per_period_;
    if (total_words_ >= 0) {
      due = std::min<std::int64_t>(due,
                                   total_words_ - words_written_ - backlog_);
    }
    if (due > 0) {
      backlog_ += due;
      next_emit_ = CycleCount() + period_;
    }
  }
  // Push at most one word per cycle (the port is a 32-bit interface).
  if (backlog_ > 0) {
    if (port_->CanWrite(connid_)) {
      const Word value = timestamp_mode_ ? static_cast<Word>(CycleCount())
                                         : seq_++;
      port_->Write(connid_, value);
      --backlog_;
      ++words_written_;
    } else {
      ++stall_cycles_;
    }
  } else if (next_emit_ > CycleCount()) {
    // Nothing due until the next emission tick: sleep through the gap.
    // (A full source queue keeps us awake — space frees asynchronously.)
    ParkUntil(next_emit_);
  }
}

StreamConsumer::StreamConsumer(std::string name, core::NiPort* port,
                               int connid, int drain_per_cycle,
                               bool timestamp_mode)
    : sim::Module(std::move(name)),
      port_(port),
      connid_(connid),
      drain_per_cycle_(drain_per_cycle),
      timestamp_mode_(timestamp_mode) {
  AETHEREAL_CHECK(port != nullptr);
  AETHEREAL_CHECK(drain_per_cycle >= 1);
  // Park on an empty destination queue; deliveries wake us in time for the
  // first readable cycle.
  port->WakeOnDelivery(connid, this);
}

void StreamConsumer::Evaluate() {
  for (int i = 0; i < drain_per_cycle_; ++i) {
    if (port_->ReadAvailable(connid_) == 0) {
      if (i == 0) Park();  // empty queue: sleep until the next delivery
      return;
    }
    const Word value = port_->Read(connid_);
    if (timestamp_mode_) {
      latency_.Add(static_cast<double>(CycleCount()) -
                   static_cast<double>(value));
    } else {
      if (value != expected_seq_) ++sequence_errors_;
      expected_seq_ = value + 1;
    }
    if (last_arrival_ >= 0) {
      inter_arrival_.Add(static_cast<double>(CycleCount() - last_arrival_));
    }
    last_arrival_ = CycleCount();
    ++words_read_;
  }
}

}  // namespace aethereal::ip
