// Programmable traffic-generating master IP.
//
// Drives a master endpoint with synthetic read/write transactions and
// records per-transaction latency — the workload generator behind the
// benches (GT/BE mixes, threshold sweeps, guarantee validation).
//
// Parks while it waits: for its next issue time (periodic, Bernoulli), for
// a response (closed loop, outstanding limit), or for good once silenced or
// done. The endpoint wakes it for every response (DESIGN.md §7.4).
#ifndef AETHEREAL_IP_TRAFFIC_GEN_H
#define AETHEREAL_IP_TRAFFIC_GEN_H

#include <map>
#include <optional>
#include <string>

#include "shells/endpoints.h"
#include "sim/kernel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/types.h"

namespace aethereal::ip {

struct TrafficPattern {
  enum class Kind {
    kFixedPeriod,  // one transaction every `period` cycles
    kBernoulli,    // issue with probability `rate` each cycle
    kClosedLoop,   // issue the next as soon as the response returns
  };
  Kind kind = Kind::kFixedPeriod;
  std::int64_t period = 10;  // kFixedPeriod
  double rate = 0.1;         // kBernoulli

  double read_fraction = 0.5;  // reads vs writes
  int burst_words = 4;         // words per transaction
  bool acked_writes = true;    // writes expect acknowledgments
  Word address_base = 0;
  Word address_range = 1024;   // addresses drawn in [base, base+range)
  int max_outstanding = 16;
  std::int64_t max_transactions = -1;  // -1: unbounded
};

class TrafficGenMaster : public sim::Module {
 public:
  TrafficGenMaster(std::string name, shells::MasterEndpoint* endpoint,
                   const TrafficPattern& pattern, std::uint64_t seed);

  std::int64_t issued() const { return issued_; }
  std::int64_t completed() const { return completed_; }
  std::int64_t outstanding() const { return issued_responses_ - completed_; }

  /// Gate for phased scenarios: while inactive the master issues nothing
  /// (responses to already-issued transactions are still collected, so a
  /// deactivated master drains to outstanding() == 0). Activate() rebases
  /// the next-issue time to `now`. Callable between cycles only.
  void Activate(Cycle now);
  void Deactivate() { active_ = false; }
  bool active() const { return active_; }

  /// Latency from issue to response delivery, in cycles (response-carrying
  /// transactions only).
  const Stats& latency() const { return latency_; }
  Stats* mutable_latency() { return &latency_; }

  /// True once max_transactions were issued and all responses returned.
  bool Done() const;

  void Evaluate() override;

 private:
  void MaybeIssue();

  shells::MasterEndpoint* endpoint_;
  TrafficPattern pattern_;
  Rng rng_;
  std::optional<GeometricGap> gap_;  // kBernoulli only
  bool active_ = true;
  std::int64_t issued_ = 0;
  std::int64_t issued_responses_ = 0;  // transactions expecting a response
  std::int64_t completed_ = 0;
  std::int64_t next_issue_cycle_ = 0;
  int next_tid_ = 0;
  std::map<int, Cycle> issue_cycle_by_tid_;
  Stats latency_;
};

}  // namespace aethereal::ip

#endif  // AETHEREAL_IP_TRAFFIC_GEN_H
