// Ring-buffered structured event trace (DESIGN.md §13).
//
// Recording is a fixed-size struct append into a per-category ring: no
// strings, no allocation past the ring's growth to its cap, no I/O. Once a
// ring is full the oldest event is overwritten and counted as a drop, so a
// runaway trace is bounded and the loss is visible (noc_trace and the CI
// smoke both check the drop counters). Everything stringy — category and
// event names, link site names — is resolved at write-out time, when the
// rings are merged into one chronological Chrome trace_event JSON document
// that chrome://tracing and Perfetto open directly.
#ifndef AETHEREAL_OBS_TRACE_H
#define AETHEREAL_OBS_TRACE_H

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/types.h"

namespace aethereal::obs {

enum class TraceCat : std::uint8_t {
  kFlit = 0,  // flit observed on a link (inject / route / eject)
  kSlot,      // GT slot fire (a reserved slot actually used)
  kConfig,    // runtime reconfiguration (drain / open / close)
  kPhase,     // scenario phase boundaries
  kFault,     // injected fault events
};
inline constexpr int kNumTraceCats = 5;
const char* TraceCatName(TraceCat cat);

// Event codes, per category. The code picks the Chrome event name.
inline constexpr std::uint16_t kFlitInject = 0;  // NI -> router link
inline constexpr std::uint16_t kFlitRoute = 1;   // router -> router link
inline constexpr std::uint16_t kFlitEject = 2;   // router -> NI link
inline constexpr std::uint16_t kSlotGtFire = 0;
inline constexpr std::uint16_t kConfigDrainBegin = 0;
inline constexpr std::uint16_t kConfigDrainEnd = 1;
inline constexpr std::uint16_t kConfigClose = 2;
inline constexpr std::uint16_t kConfigOpen = 3;
inline constexpr std::uint16_t kPhaseBegin = 0;
inline constexpr std::uint16_t kPhaseEnd = 1;
inline constexpr std::uint16_t kFaultCorrupt = 0;
inline constexpr std::uint16_t kFaultDrop = 1;
inline constexpr std::uint16_t kFaultRouterFreeze = 2;
inline constexpr std::uint16_t kFaultNiStall = 3;
inline constexpr std::uint16_t kFaultConfigDrop = 4;
inline constexpr std::uint16_t kFaultConfigDelay = 5;

const char* TraceEventName(TraceCat cat, std::uint16_t code);

/// One recorded event. `site` indexes the site-name table handed to
/// WriteChromeTrace (link index for flit/slot events, -1 when the event
/// has no site); arg0/arg1 are event-specific small integers (flit class /
/// connection group / phase index ...).
struct TraceEvent {
  Cycle ts = 0;
  TraceCat cat = TraceCat::kFlit;
  std::uint16_t code = 0;
  std::int32_t site = -1;
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
};

class Tracer {
 public:
  explicit Tracer(std::int64_t cap_per_category);

  /// Appends one event to its category ring (overwriting the oldest and
  /// counting a drop when the ring is full).
  void Record(TraceCat cat, std::uint16_t code, Cycle ts,
              std::int32_t site = -1, std::int64_t arg0 = 0,
              std::int64_t arg1 = 0);

  /// Events currently held in the ring of `cat`.
  std::int64_t held(TraceCat cat) const;
  /// Events recorded into `cat` over the run (held + dropped).
  std::int64_t recorded(TraceCat cat) const;
  /// Events of `cat` overwritten because the ring was full.
  std::int64_t dropped(TraceCat cat) const;
  std::int64_t TotalDropped() const;

  /// Serializes every ring, merged chronologically, as a Chrome
  /// trace_event JSON document (one event per line). `site_names` resolves
  /// TraceEvent::site; a trailing metadata event carries the per-category
  /// recorded/dropped accounting so consumers need not trust the producer.
  void WriteChromeTrace(std::ostream& os,
                        const std::vector<std::string>& site_names) const;

 private:
  struct Ring {
    std::vector<TraceEvent> events;  // grows to cap_, then wraps
    std::size_t next = 0;            // overwrite cursor once full
    std::int64_t recorded = 0;
    std::int64_t dropped = 0;
  };

  std::int64_t cap_;
  std::array<Ring, kNumTraceCats> rings_;
};

}  // namespace aethereal::obs

#endif  // AETHEREAL_OBS_TRACE_H
