#include "ip/memory_slave.h"

#include "util/check.h"

namespace aethereal::ip {

using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

MemorySlave::MemorySlave(std::string name, shells::SlaveEndpoint* endpoint,
                         Word base, Word size_words,
                         int service_latency_cycles)
    : sim::Module(std::move(name)),
      endpoint_(endpoint),
      base_(base),
      storage_(size_words, 0),
      service_latency_(service_latency_cycles) {
  AETHEREAL_CHECK(endpoint != nullptr);
  AETHEREAL_CHECK(size_words > 0);
  AETHEREAL_CHECK(service_latency_cycles >= 0);
  endpoint->BindIp(this);
}

bool MemorySlave::InRange(Word address, int words) const {
  if (address < base_) return false;
  const Word offset = address - base_;
  return offset < storage_.size() &&
         static_cast<Word>(words) <= storage_.size() - offset;
}

Word MemorySlave::Load(Word address) const {
  AETHEREAL_CHECK(InRange(address, 1));
  return storage_[address - base_];
}

void MemorySlave::Store(Word address, Word value) {
  AETHEREAL_CHECK(InRange(address, 1));
  storage_[address - base_] = value;
}

ResponseMessage MemorySlave::Execute(const RequestMessage& req) {
  ResponseMessage rsp;
  rsp.transaction_id = req.transaction_id;
  rsp.sequence_number = req.sequence_number;
  switch (req.cmd) {
    case Command::kRead:
    case Command::kReadLinked: {
      if (!InRange(req.address, req.read_length)) {
        rsp.error = ResponseError::kUnmappedAddress;
        break;
      }
      const Word offset = req.address - base_;
      for (int i = 0; i < req.read_length; ++i) {
        rsp.data.push_back(storage_[offset + static_cast<Word>(i)]);
      }
      if (req.cmd == Command::kReadLinked) reservation_ = req.address;
      ++reads_served_;
      break;
    }
    case Command::kWrite:
    case Command::kWriteConditional: {
      rsp.is_write_ack = true;
      if (!InRange(req.address, static_cast<int>(req.data.size()))) {
        rsp.error = ResponseError::kUnmappedAddress;
        break;
      }
      if (req.cmd == Command::kWriteConditional) {
        if (!reservation_.has_value() || *reservation_ != req.address) {
          rsp.error = ResponseError::kConditionalFail;
          break;
        }
        reservation_.reset();
      } else if (reservation_.has_value()) {
        // An ordinary write to the reserved address breaks the reservation.
        const Word lo = req.address;
        const Word hi = req.address + static_cast<Word>(req.data.size());
        if (*reservation_ >= lo && *reservation_ < hi) reservation_.reset();
      }
      const Word offset = req.address - base_;
      for (std::size_t i = 0; i < req.data.size(); ++i) {
        storage_[offset + i] = req.data[i];
      }
      ++writes_served_;
      break;
    }
  }
  return rsp;
}

void MemorySlave::Evaluate() {
  bool served = false;
  if (in_service_.has_value()) {
    if (CycleCount() < done_at_) {
      ParkUntil(done_at_);
      return;
    }
    const int payload =
        in_service_->IsWrite() ? 0 : in_service_->read_length;
    if (in_service_->ExpectsResponse() && !endpoint_->CanRespond(payload)) {
      return;  // hold (awake) until the response path drains
    }
    const ResponseMessage rsp = Execute(*in_service_);
    if (in_service_->ExpectsResponse()) endpoint_->Respond(rsp);
    in_service_.reset();
    served = true;
  }
  if (!in_service_.has_value() && endpoint_->HasRequest()) {
    in_service_ = endpoint_->PopRequest();
    done_at_ = CycleCount() + service_latency_;
  }
  if (served) return;  // run again next edge
  // Idle: the endpoint wakes us for the next request. In service: sleep
  // until the service latency has passed.
  if (!in_service_.has_value()) {
    Park();
  } else if (done_at_ > CycleCount()) {
    ParkUntil(done_at_);
  }
}

}  // namespace aethereal::ip
