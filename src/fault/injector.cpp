#include "fault/injector.h"

#include <algorithm>

namespace aethereal::fault {

namespace {

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int FaultInjector::RegisterLinkSite(std::string name) {
  SiteState site;
  site.name = std::move(name);
  sites_.push_back(std::move(site));
  return static_cast<int>(sites_.size()) - 1;
}

std::uint64_t FaultInjector::Draw(Stream stream, std::uint64_t site,
                                  std::uint64_t ordinal) const {
  return Mix64(spec_.seed ^ (Mix64(stream * 0x632be59bd9b4e019ULL +
                                   (site + 1) * 0xd6e8feb86659fd93ULL) +
                             ordinal));
}

bool FaultInjector::Decide(Stream stream, std::uint64_t site,
                           std::uint64_t ordinal, double rate) const {
  if (rate <= 0.0) return false;
  const std::uint64_t h = Draw(stream, site, ordinal);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

void FaultInjector::FlushStaged() const {
  // Canonical order within a cycle: (kind, site). Identical (kind, site)
  // duplicates are interchangeable, so stable vs unstable makes no
  // observable difference — stable_sort keeps the intent obvious.
  std::stable_sort(staged_.begin(), staged_.end(),
                   [](const Event& a, const Event& b) {
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.site < b.site;
                   });
  for (Event& event : staged_) {
    if (static_cast<int>(events_.size()) >= kMaxRecordedEvents) break;
    events_.push_back(std::move(event));
  }
  staged_.clear();
}

void FaultInjector::Record(Cycle cycle, const char* kind, std::string site) {
  ++events_total_;
  if (cycle != staged_cycle_) {
    FlushStaged();
    staged_cycle_ = cycle;
  }
  if (static_cast<int>(events_.size() + staged_.size()) < kMaxRecordedEvents) {
    staged_.push_back(Event{cycle, kind, std::move(site)});
  }
}

const std::vector<FaultInjector::Event>& FaultInjector::events() const {
  FlushStaged();
  return events_;
}

bool FaultInjector::OnDrive(int site_id, Cycle now, link::Flit* flit) {
  SiteState& site = sites_[static_cast<std::size_t>(site_id)];
  if (flit->IsIdle()) return true;

  // Whole-packet GT drop: the header flit decides; continuation flits of a
  // dropped packet are swallowed until (and including) its EOP. BE flits
  // are never dropped on the wire — a lost BE flit would leak link-level
  // credits and wedge the upstream buffer (BE loss is modeled by router
  // stall windows, which return the credits they discard).
  if (flit->gt) {
    if (flit->kind == link::FlitKind::kHeader) {
      const std::uint64_t ordinal = site.packet_ordinal++;
      if (Decide(kStreamDrop, static_cast<std::uint64_t>(site_id), ordinal,
                 spec_.link_drop_rate)) {
        site.dropping_gt = !flit->eop;
        ++link_packets_dropped_;
        // words[0] of a header flit is the packet header, not payload.
        link_words_dropped_ += flit->valid_words - 1;
        Record(now, "link-drop", site.name);
        return false;
      }
    } else if (site.dropping_gt) {
      link_words_dropped_ += flit->valid_words;
      if (flit->eop) site.dropping_gt = false;
      return false;
    }
  }

  // Payload corruption: flip one low bit of one payload word. The header
  // word (words[0] of a header flit) is never touched — a corrupted route
  // or credit field would violate router/NI contracts rather than data
  // integrity, which is a different fault class than a bit flip surviving
  // link CRC.
  const int first_payload = flit->kind == link::FlitKind::kHeader ? 1 : 0;
  const int payload_words = flit->valid_words - first_payload;
  if (payload_words > 0) {
    const std::uint64_t ordinal = site.flit_ordinal++;
    if (Decide(kStreamCorrupt, static_cast<std::uint64_t>(site_id), ordinal,
               spec_.link_corrupt_rate)) {
      const std::uint64_t h =
          Draw(kStreamCorrupt, static_cast<std::uint64_t>(site_id),
               ordinal ^ 0x5555555555555555ULL);
      const int index =
          first_payload + static_cast<int>(h % static_cast<std::uint64_t>(
                                                   payload_words));
      flit->words[static_cast<std::size_t>(index)] ^=
          Word{1} << ((h >> 8) % 8);
      ++flits_corrupted_;
      Record(now, "link-corrupt", site.name);
    }
  }
  return true;
}

void FaultInjector::NoteRouterStallDrop(RouterId router, Cycle now, bool gt,
                                        bool is_header, int payload_words) {
  router_stall_words_dropped_ += payload_words;
  if (is_header) {
    ++router_stall_packets_dropped_;
    Record(now, "router-stall-drop",
           "router" + std::to_string(router) + (gt ? " (gt)" : " (be)"));
  }
}

FaultInjector::ConfigVerdict FaultInjector::JudgeConfigRequest(
    NiId ni, Cycle now, Cycle* delay_cycles) {
  if (static_cast<std::size_t>(ni) >= config_ordinals_.size()) {
    config_ordinals_.resize(static_cast<std::size_t>(ni) + 1, 0);
  }
  const std::uint64_t ordinal = config_ordinals_[static_cast<std::size_t>(ni)]++;
  if (Decide(kStreamConfig, static_cast<std::uint64_t>(ni), ordinal,
             spec_.config_drop_rate)) {
    ++config_requests_dropped_;
    Record(now, "config-drop", "ni" + std::to_string(ni));
    return ConfigVerdict::kDrop;
  }
  if (Decide(kStreamDelay, static_cast<std::uint64_t>(ni), ordinal,
             spec_.config_delay_rate)) {
    ++config_requests_delayed_;
    Record(now, "config-delay", "ni" + std::to_string(ni));
    *delay_cycles = spec_.config_delay_cycles;
    return ConfigVerdict::kDelay;
  }
  return ConfigVerdict::kPass;
}

}  // namespace aethereal::fault
