#include "tdm/allocator.h"

#include <algorithm>
#include <cmath>

#include "sim/soa_state.h"
#include "util/check.h"

namespace aethereal::tdm {

CentralizedAllocator::CentralizedAllocator(const topology::Topology* topology,
                                           int num_slots,
                                           std::pmr::memory_resource* storage)
    : topology_(topology), num_slots_(num_slots), tables_(storage) {
  AETHEREAL_CHECK(topology != nullptr);
  AETHEREAL_CHECK(num_slots > 0 && num_slots <= kMaxSlots);
  const int links = topology->NumLinks();
  tables_.reserve(static_cast<std::size_t>(links));
  for (int i = 0; i < links; ++i) {
    tables_.emplace_back(num_slots, storage);
  }
}

std::size_t CentralizedAllocator::StorageBytes(int num_links, int num_slots) {
  const auto links = static_cast<std::size_t>(num_links);
  return links * (sizeof(SlotTable) + sim::kAllocationPad +
                  static_cast<std::size_t>(num_slots) * sizeof(GlobalChannel)) +
         sim::kAllocationPad;
}

bool CentralizedAllocator::SlotFeasible(const topology::ChannelRoute& route,
                                        SlotIndex s) const {
  for (std::size_t j = 0; j < route.links.size(); ++j) {
    const SlotIndex slot_here =
        static_cast<SlotIndex>((s + static_cast<SlotIndex>(j)) % num_slots_);
    if (!TableOf(route.links[j]).IsFree(slot_here)) return false;
  }
  return true;
}

SlotList CentralizedAllocator::FeasibleSlots(
    const topology::ChannelRoute& route) const {
  SlotList feasible;
  for (SlotIndex s = 0; s < num_slots_; ++s) {
    if (SlotFeasible(route, s)) feasible.push_back(s);
  }
  return feasible;
}

namespace {

/// The first `count` slots of `slots`.
SlotList FirstOf(const SlotList& slots, int count) {
  SlotList first;
  for (int k = 0; k < count; ++k) first.push_back(slots[static_cast<std::size_t>(k)]);
  return first;
}

}  // namespace

SlotList PickSlots(const SlotList& feasible, int count, int num_slots,
                   AllocPolicy policy) {
  if (count <= 0 || static_cast<int>(feasible.size()) < count) return {};
  switch (policy) {
    case AllocPolicy::kFirstFit: {
      return FirstOf(feasible, count);
    }
    case AllocPolicy::kSpread: {
      // Greedily pick the feasible slot nearest to each ideal equally
      // spaced position, skipping already chosen ones.
      SlotList chosen;
      InlineVector<bool, kMaxSlots> used(feasible.size(), false);
      for (int k = 0; k < count; ++k) {
        const double target =
            static_cast<double>(k) * num_slots / static_cast<double>(count);
        int best = -1;
        double best_dist = 1e18;
        for (std::size_t i = 0; i < feasible.size(); ++i) {
          if (used[i]) continue;
          // Circular distance to the target position.
          double d = std::fabs(static_cast<double>(feasible[i]) - target);
          d = std::min(d, num_slots - d);
          if (d < best_dist) {
            best_dist = d;
            best = static_cast<int>(i);
          }
        }
        used[static_cast<std::size_t>(best)] = true;
        chosen.push_back(feasible[static_cast<std::size_t>(best)]);
      }
      std::sort(chosen.begin(), chosen.end());
      return chosen;
    }
    case AllocPolicy::kContiguous: {
      // Find a run of `count` consecutive slot indices within the feasible
      // set, allowing wrap-around; fall back to first-fit if none exists.
      InlineVector<bool, kMaxSlots> is_feasible(
          static_cast<std::size_t>(num_slots), false);
      for (SlotIndex s : feasible) is_feasible[static_cast<std::size_t>(s)] = true;
      for (SlotIndex start = 0; start < num_slots; ++start) {
        bool ok = true;
        for (int k = 0; k < count; ++k) {
          if (!is_feasible[static_cast<std::size_t>((start + k) % num_slots)]) {
            ok = false;
            break;
          }
        }
        if (ok) {
          SlotList chosen;
          for (int k = 0; k < count; ++k) {
            chosen.push_back(static_cast<SlotIndex>((start + k) % num_slots));
          }
          std::sort(chosen.begin(), chosen.end());
          return chosen;
        }
      }
      return FirstOf(feasible, count);
    }
  }
  return {};
}

Result<SlotList> CentralizedAllocator::Allocate(
    const topology::ChannelRoute& route, const GlobalChannel& channel,
    int count, AllocPolicy policy) {
  if (count <= 0) return InvalidArgumentError("slot count must be positive");
  if (!channel.valid()) return InvalidArgumentError("invalid channel");
  const SlotList chosen =
      PickSlots(FeasibleSlots(route), count, num_slots_, policy);
  if (chosen.empty()) {
    return ResourceExhaustedError("not enough feasible slots on route");
  }
  NoteInjectionChange(route);
  for (SlotIndex s : chosen) {
    for (std::size_t j = 0; j < route.links.size(); ++j) {
      const SlotIndex slot_here =
          static_cast<SlotIndex>((s + static_cast<SlotIndex>(j)) % num_slots_);
      AETHEREAL_CHECK(
          MutableTableOf(route.links[j]).Reserve(slot_here, channel).ok());
    }
  }
  return chosen;
}

Status CentralizedAllocator::Free(const topology::ChannelRoute& route,
                                  const GlobalChannel& channel,
                                  const SlotList& slots) {
  NoteInjectionChange(route);
  for (SlotIndex s : slots) {
    for (std::size_t j = 0; j < route.links.size(); ++j) {
      const SlotIndex slot_here =
          static_cast<SlotIndex>((s + static_cast<SlotIndex>(j)) % num_slots_);
      SlotTable& table = MutableTableOf(route.links[j]);
      if (!(table.Owner(slot_here) == channel)) {
        return FailedPreconditionError("slot not owned by channel");
      }
      AETHEREAL_CHECK(table.Release(slot_here).ok());
    }
  }
  return OkStatus();
}

void CentralizedAllocator::NoteInjectionChange(
    const topology::ChannelRoute& route) const {
  if (injection_table_hook_ && !route.links.empty() &&
      route.links.front().from_ni) {
    injection_table_hook_(route.links.front().node);
  }
}

const SlotTable& CentralizedAllocator::TableOf(
    const topology::LinkId& link) const {
  return tables_[static_cast<std::size_t>(topology_->LinkIndex(link))];
}

SlotTable& CentralizedAllocator::MutableTableOf(const topology::LinkId& link) {
  return tables_[static_cast<std::size_t>(topology_->LinkIndex(link))];
}

double CentralizedAllocator::MeanUtilization() const {
  if (tables_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& table : tables_) sum += table.Utilization();
  return sum / static_cast<double>(tables_.size());
}

std::int64_t CentralizedAllocator::TotalReserved() const {
  std::int64_t total = 0;
  for (const auto& table : tables_) total += table.Reserved();
  return total;
}

}  // namespace aethereal::tdm
