#include "ip/traffic_gen.h"

#include "util/check.h"

namespace aethereal::ip {

TrafficGenMaster::TrafficGenMaster(std::string name,
                                   shells::MasterEndpoint* endpoint,
                                   const TrafficPattern& pattern,
                                   std::uint64_t seed)
    : sim::Module(std::move(name)),
      endpoint_(endpoint),
      pattern_(pattern),
      rng_(seed) {
  AETHEREAL_CHECK(endpoint != nullptr);
  AETHEREAL_CHECK(pattern.burst_words >= 1);
  AETHEREAL_CHECK(pattern.max_outstanding >= 1);
  endpoint->BindIp(this);
}

void TrafficGenMaster::Activate(Cycle now) {
  active_ = true;
  next_issue_cycle_ =
      pattern_.kind == TrafficPattern::Kind::kClosedLoop ? -1 : now;
  Wake();
}

bool TrafficGenMaster::Done() const {
  return pattern_.max_transactions >= 0 &&
         issued_ >= pattern_.max_transactions && outstanding() == 0;
}

void TrafficGenMaster::MaybeIssue() {
  if (pattern_.max_transactions >= 0 && issued_ >= pattern_.max_transactions) {
    return;
  }
  if (outstanding() >= pattern_.max_outstanding) return;
  if (!endpoint_->CanIssue(pattern_.burst_words)) return;

  const bool is_read = rng_.NextBool(pattern_.read_fraction);
  const Word address =
      pattern_.address_base +
      static_cast<Word>(rng_.NextBelow(
          std::max<std::uint64_t>(1, pattern_.address_range)));
  const int tid = next_tid_;
  next_tid_ = (next_tid_ + 1) % (transaction::kMaxTransactionId + 1);

  bool expects_response = false;
  if (is_read) {
    endpoint_->IssueRead(address, pattern_.burst_words, tid);
    expects_response = true;
  } else {
    std::vector<Word> data(static_cast<std::size_t>(pattern_.burst_words));
    for (auto& w : data) w = static_cast<Word>(rng_.Next());
    endpoint_->IssueWrite(address, data, pattern_.acked_writes, tid);
    expects_response = pattern_.acked_writes;
  }
  ++issued_;
  if (expects_response) {
    ++issued_responses_;
    issue_cycle_by_tid_[tid] = CycleCount();
  }

  switch (pattern_.kind) {
    case TrafficPattern::Kind::kFixedPeriod:
      next_issue_cycle_ = CycleCount() + pattern_.period;
      break;
    case TrafficPattern::Kind::kBernoulli:
      next_issue_cycle_ = CycleCount() + 1 + rng_.NextGeometric(pattern_.rate);
      break;
    case TrafficPattern::Kind::kClosedLoop:
      next_issue_cycle_ = -1;  // wait for the response
      break;
  }
}

void TrafficGenMaster::Evaluate() {
  while (endpoint_->HasResponse()) {
    const auto rsp = endpoint_->PopResponse();
    auto it = issue_cycle_by_tid_.find(rsp.transaction_id);
    AETHEREAL_CHECK_MSG(it != issue_cycle_by_tid_.end(),
                        name() << ": response for unknown transaction "
                               << rsp.transaction_id);
    latency_.Add(static_cast<double>(CycleCount() - it->second));
    issue_cycle_by_tid_.erase(it);
    ++completed_;
    if (pattern_.kind == TrafficPattern::Kind::kClosedLoop) {
      next_issue_cycle_ = CycleCount();
    }
  }

  // Deactivated: drain responses, issue nothing. The endpoint wakes us for
  // each response, Activate() for the next issue.
  if (!active_) {
    Park();
    return;
  }
  const bool time_ok =
      pattern_.kind == TrafficPattern::Kind::kClosedLoop
          ? (outstanding() == 0 || issued_ == 0)
          : CycleCount() >= next_issue_cycle_;
  const std::int64_t issued_before = issued_;
  if (time_ok) MaybeIssue();
  if (issued_ != issued_before) return;  // run again next edge

  // Nothing issued. Sleep unless only back-pressure held the issue back:
  // then the shell's staging frees without waking us.
  if (pattern_.max_transactions >= 0 && issued_ >= pattern_.max_transactions) {
    Park();  // finished issuing; responses still wake us
  } else if (!time_ok && pattern_.kind != TrafficPattern::Kind::kClosedLoop) {
    ParkUntil(next_issue_cycle_);
  } else if (!time_ok || outstanding() >= pattern_.max_outstanding) {
    Park();  // waiting for a response
  }
}

}  // namespace aethereal::ip
