// Distributed slot-allocation model (paper §3).
//
// In the distributed configuration model, slot occupancy is kept in the
// routers, and connections may be opened concurrently from several
// configuration ports. A setup request travels hop-by-hop along the route,
// tentatively reserving its slots in each router; a router rejects the
// reservation if any requested slot is taken (committed or tentatively held
// by another in-flight request), in which case the request aborts back along
// the path, releasing what it held, and retries with different slots.
//
// This is a protocol-level model (hop rounds and message counts), used by
// bench_config to quantify the centralized-vs-distributed trade-off the
// paper discusses; the cycle-accurate configuration path implemented in
// `config/` is the centralized one, as in the Æthereal prototype.
#ifndef AETHEREAL_TDM_DISTRIBUTED_H
#define AETHEREAL_TDM_DISTRIBUTED_H

#include <cstdint>
#include <vector>

#include "tdm/allocator.h"
#include "tdm/slot_table.h"
#include "topology/topology.h"

namespace aethereal::tdm {

struct DistributedStats {
  std::int64_t messages = 0;   // setup/ack/abort messages exchanged
  std::int64_t rounds = 0;     // hop-time rounds elapsed
  std::int64_t conflicts = 0;  // tentative reservations rejected
  std::int64_t retries = 0;    // requests restarted after an abort
};

class DistributedAllocator {
 public:
  enum class RequestPhase { kPicking, kAdvancing, kAborting, kDone, kFailed };

  struct Request {
    topology::ChannelRoute route;
    GlobalChannel channel;
    int count = 0;
    AllocPolicy policy = AllocPolicy::kSpread;
    RequestPhase phase = RequestPhase::kPicking;
    SlotList slots;    // injection-link slots being reserved
    int hop = 0;                     // links[0..hop) tentatively reserved
    int attempts = 0;
    std::int64_t finished_round = -1;
    // Injection slots that conflicted downstream on a previous attempt; the
    // retry avoids them (cleared when too few alternatives remain, since
    // the conflicting tentative hold may itself have aborted meanwhile).
    std::vector<bool> bad_slots;
  };

  DistributedAllocator(const topology::Topology* topology, int num_slots,
                       int max_attempts = 16);

  /// Registers a setup request; returns its index. Requests progress when
  /// Round() is called.
  int StartRequest(const topology::ChannelRoute& route,
                   const GlobalChannel& channel, int count,
                   AllocPolicy policy);

  /// Advances every active request by one hop (requests are served in index
  /// order within a round, modelling independent parallel progress).
  void Round();

  /// True when no request is still in flight.
  bool Done() const;

  /// Runs rounds until done (or a safety cap); returns rounds executed.
  std::int64_t RunToCompletion(std::int64_t max_rounds = 1 << 20);

  const Request& request(int id) const;
  const DistributedStats& stats() const { return stats_; }

  /// Committed (not tentative) table of a link, for post-hoc validation.
  const SlotTable& TableOf(const topology::LinkId& link) const;

 private:
  bool SlotTakenAt(const Request& req, int hop, SlotIndex s) const;
  void TentativeReserve(Request& req, int hop);
  void TentativeRelease(Request& req, int hop);

  const topology::Topology* topology_;
  int num_slots_;
  int max_attempts_;
  std::vector<SlotTable> committed_;   // per link
  std::vector<SlotTable> tentative_;   // per link (in-flight holds)
  std::vector<Request> requests_;
  DistributedStats stats_;
};

}  // namespace aethereal::tdm

#endif  // AETHEREAL_TDM_DISTRIBUTED_H
