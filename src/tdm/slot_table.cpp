#include "tdm/slot_table.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace aethereal::tdm {

std::ostream& operator<<(std::ostream& os, const GlobalChannel& channel) {
  return os << "ni" << channel.ni << ".ch" << channel.channel;
}

SlotTable::SlotTable(int num_slots, std::pmr::memory_resource* storage)
    : slots_(static_cast<std::size_t>(num_slots), storage) {
  AETHEREAL_CHECK(num_slots > 0 && num_slots <= kMaxSlots);
}

const GlobalChannel& SlotTable::At(SlotIndex s) const {
  AETHEREAL_CHECK_MSG(s >= 0 && s < num_slots(),
                      "slot " << s << " out of table of " << num_slots());
  return slots_[static_cast<std::size_t>(s)];
}

GlobalChannel& SlotTable::At(SlotIndex s) {
  AETHEREAL_CHECK(s >= 0 && s < num_slots());
  return slots_[static_cast<std::size_t>(s)];
}

Status SlotTable::Reserve(SlotIndex s, const GlobalChannel& owner) {
  if (s < 0 || s >= num_slots()) return OutOfRangeError("slot out of range");
  if (!owner.valid()) return InvalidArgumentError("invalid channel");
  if (At(s).valid()) {
    std::ostringstream oss;
    oss << "slot " << s << " already owned by " << At(s);
    return AlreadyExistsError(oss.str());
  }
  At(s) = owner;
  return OkStatus();
}

Status SlotTable::Release(SlotIndex s) {
  if (s < 0 || s >= num_slots()) return OutOfRangeError("slot out of range");
  if (!At(s).valid()) return FailedPreconditionError("slot already free");
  At(s) = GlobalChannel{};
  return OkStatus();
}

int SlotTable::ReleaseAll(const GlobalChannel& owner) {
  int freed = 0;
  for (auto& slot : slots_) {
    if (slot == owner) {
      slot = GlobalChannel{};
      ++freed;
    }
  }
  return freed;
}

std::vector<SlotIndex> SlotTable::SlotsOf(const GlobalChannel& owner) const {
  std::vector<SlotIndex> result;
  for (SlotIndex s = 0; s < num_slots(); ++s) {
    if (slots_[static_cast<std::size_t>(s)] == owner) result.push_back(s);
  }
  return result;
}

int SlotTable::Reserved() const {
  int count = 0;
  for (const auto& slot : slots_) {
    if (slot.valid()) ++count;
  }
  return count;
}

double SlotTable::Utilization() const {
  return static_cast<double>(Reserved()) / static_cast<double>(num_slots());
}

int MaxCircularGap(std::vector<SlotIndex> slots, int num_slots) {
  AETHEREAL_CHECK(num_slots > 0);
  if (slots.empty()) return num_slots;
  std::sort(slots.begin(), slots.end());
  int max_gap = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const SlotIndex cur = slots[i];
    const SlotIndex next =
        (i + 1 < slots.size()) ? slots[i + 1] : slots[0] + num_slots;
    max_gap = std::max(max_gap, next - cur);
  }
  return max_gap;
}

int SlotTable::MaxGap(const GlobalChannel& owner) const {
  return MaxCircularGap(SlotsOf(owner), num_slots());
}

}  // namespace aethereal::tdm
