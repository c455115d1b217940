#include "tdm/distributed.h"

#include "util/check.h"

namespace aethereal::tdm {

DistributedAllocator::DistributedAllocator(
    const topology::Topology* topology, int num_slots, int max_attempts)
    : topology_(topology), num_slots_(num_slots), max_attempts_(max_attempts) {
  AETHEREAL_CHECK(topology != nullptr);
  AETHEREAL_CHECK(num_slots > 0);
  AETHEREAL_CHECK(max_attempts > 0);
  const int links = topology->NumLinks();
  committed_.reserve(static_cast<std::size_t>(links));
  tentative_.reserve(static_cast<std::size_t>(links));
  for (int i = 0; i < links; ++i) {
    committed_.emplace_back(num_slots);
    tentative_.emplace_back(num_slots);
  }
}

int DistributedAllocator::StartRequest(const topology::ChannelRoute& route,
                                       const GlobalChannel& channel, int count,
                                       AllocPolicy policy) {
  AETHEREAL_CHECK(count > 0);
  Request req;
  req.route = route;
  req.channel = channel;
  req.count = count;
  req.policy = policy;
  req.bad_slots.assign(static_cast<std::size_t>(num_slots_), false);
  requests_.push_back(std::move(req));
  return static_cast<int>(requests_.size() - 1);
}

bool DistributedAllocator::SlotTakenAt(const Request& req, int hop,
                                       SlotIndex s) const {
  const int index = topology_->LinkIndex(req.route.links[static_cast<std::size_t>(hop)]);
  const SlotIndex slot_here = static_cast<SlotIndex>((s + hop) % num_slots_);
  const auto& committed = committed_[static_cast<std::size_t>(index)];
  const auto& tentative = tentative_[static_cast<std::size_t>(index)];
  // A tentative hold by ourselves is not a conflict (re-walk after abort).
  if (!committed.IsFree(slot_here)) return true;
  if (!tentative.IsFree(slot_here) && !(tentative.Owner(slot_here) == req.channel)) {
    return true;
  }
  return false;
}

void DistributedAllocator::TentativeReserve(Request& req, int hop) {
  const int index = topology_->LinkIndex(req.route.links[static_cast<std::size_t>(hop)]);
  for (SlotIndex s : req.slots) {
    const SlotIndex slot_here = static_cast<SlotIndex>((s + hop) % num_slots_);
    AETHEREAL_CHECK(
        tentative_[static_cast<std::size_t>(index)].Reserve(slot_here, req.channel).ok());
  }
}

void DistributedAllocator::TentativeRelease(Request& req, int hop) {
  const int index = topology_->LinkIndex(req.route.links[static_cast<std::size_t>(hop)]);
  for (SlotIndex s : req.slots) {
    const SlotIndex slot_here = static_cast<SlotIndex>((s + hop) % num_slots_);
    AETHEREAL_CHECK(tentative_[static_cast<std::size_t>(index)].Release(slot_here).ok());
  }
}

void DistributedAllocator::Round() {
  ++stats_.rounds;
  for (auto& req : requests_) {
    switch (req.phase) {
      case RequestPhase::kPicking: {
        if (req.attempts >= max_attempts_) {
          req.phase = RequestPhase::kFailed;
          req.finished_round = stats_.rounds;
          break;
        }
        ++req.attempts;
        // The agent picks slots using only its local (injection link) view:
        // slots free on link 0 from the committed+tentative tables there,
        // avoiding slots that conflicted downstream on earlier attempts.
        auto collect = [this, &req](bool use_blacklist) {
          SlotList feasible;
          for (SlotIndex s = 0; s < num_slots_; ++s) {
            if (SlotTakenAt(req, 0, s)) continue;
            if (use_blacklist && req.bad_slots[static_cast<std::size_t>(s)])
              continue;
            feasible.push_back(s);
          }
          return feasible;
        };
        SlotList feasible = collect(true);
        if (static_cast<int>(feasible.size()) < req.count) {
          // The blacklist may be stale (the conflicting hold might have
          // aborted); forget it and try the full feasible set again.
          req.bad_slots.assign(static_cast<std::size_t>(num_slots_), false);
          feasible = collect(false);
        }
        req.slots = PickSlots(feasible, req.count, num_slots_, req.policy);
        if (req.slots.empty()) {
          req.phase = RequestPhase::kFailed;
          req.finished_round = stats_.rounds;
          break;
        }
        TentativeReserve(req, 0);
        req.hop = 1;
        req.phase = RequestPhase::kAdvancing;
        stats_.messages += 1;  // setup request enters the network
        break;
      }
      case RequestPhase::kAdvancing: {
        const int total_hops = static_cast<int>(req.route.links.size());
        if (req.hop >= total_hops) {
          // All links tentatively held: commit (ack travels back along the
          // path, one message per hop).
          for (int h = 0; h < total_hops; ++h) {
            const int index =
                topology_->LinkIndex(req.route.links[static_cast<std::size_t>(h)]);
            for (SlotIndex s : req.slots) {
              const SlotIndex slot_here =
                  static_cast<SlotIndex>((s + h) % num_slots_);
              AETHEREAL_CHECK(tentative_[static_cast<std::size_t>(index)]
                                  .Release(slot_here)
                                  .ok());
              AETHEREAL_CHECK(committed_[static_cast<std::size_t>(index)]
                                  .Reserve(slot_here, req.channel)
                                  .ok());
            }
          }
          stats_.messages += total_hops;  // ack path
          req.phase = RequestPhase::kDone;
          req.finished_round = stats_.rounds;
          break;
        }
        // Try to reserve at the next router.
        bool conflict = false;
        for (SlotIndex s : req.slots) {
          if (SlotTakenAt(req, req.hop, s)) {
            conflict = true;
            req.bad_slots[static_cast<std::size_t>(s)] = true;
          }
        }
        stats_.messages += 1;  // request advanced one hop
        if (conflict) {
          ++stats_.conflicts;
          req.phase = RequestPhase::kAborting;
        } else {
          TentativeReserve(req, req.hop);
          ++req.hop;
        }
        break;
      }
      case RequestPhase::kAborting: {
        // Walk back one hop per round, releasing tentative holds.
        if (req.hop > 0) {
          --req.hop;
          TentativeRelease(req, req.hop);
          stats_.messages += 1;  // abort message
        }
        if (req.hop == 0) {
          ++stats_.retries;
          req.slots.clear();
          req.phase = RequestPhase::kPicking;
        }
        break;
      }
      case RequestPhase::kDone:
      case RequestPhase::kFailed:
        break;
    }
  }
}

bool DistributedAllocator::Done() const {
  for (const auto& req : requests_) {
    if (req.phase != RequestPhase::kDone && req.phase != RequestPhase::kFailed) {
      return false;
    }
  }
  return true;
}

std::int64_t DistributedAllocator::RunToCompletion(std::int64_t max_rounds) {
  std::int64_t rounds = 0;
  while (!Done() && rounds < max_rounds) {
    Round();
    ++rounds;
  }
  return rounds;
}

const DistributedAllocator::Request& DistributedAllocator::request(int id) const {
  AETHEREAL_CHECK(id >= 0 && id < static_cast<int>(requests_.size()));
  return requests_[static_cast<std::size_t>(id)];
}

const SlotTable& DistributedAllocator::TableOf(
    const topology::LinkId& link) const {
  return committed_[static_cast<std::size_t>(topology_->LinkIndex(link))];
}

}  // namespace aethereal::tdm
