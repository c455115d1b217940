// ObsHub — the collection point of the observability subsystem
// (DESIGN.md §13).
//
// The hub owns everything a run observes: per-link hardware counters,
// windowed time-series samples, the event tracer, and the end-of-run
// per-NI / per-router counter snapshots. It is plain storage plus
// emitters — the hub is NOT a simulation module and never touches
// simulated state. Counters are fed by the ObsTap (obs/tap.h), a
// read-only module on the network clock; run-level events (phase
// boundaries, config transactions, fault records) are fed by the
// scenario runner through the Note* hooks.
//
// A Soc constructs a hub only when SocOptions::obs is set and enabled;
// everything else in the simulator reaches observability through one
// `hub == nullptr` check, which is the whole cost of the subsystem when
// it is off.
#ifndef AETHEREAL_OBS_HUB_H
#define AETHEREAL_OBS_HUB_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "link/wire.h"
#include "obs/spec.h"
#include "obs/trace.h"
#include "util/types.h"

namespace aethereal {
class JsonWriter;
}

namespace aethereal::obs {

/// Where a directed link sits in the topology; decides how the tap
/// attributes its flits (injected / routed / ejected).
enum class LinkKind : std::uint8_t {
  kInjection,     // NI -> router
  kRouterRouter,  // router -> router
  kDelivery,      // router -> NI
};
const char* LinkKindName(LinkKind kind);

/// Per-link hardware counters over the slots the tap observed, filled by
/// its Finalize(). A slot carries exactly one of: a GT flit, a BE flit, or
/// nothing (idle). The link's wires count the traffic as it is driven; the
/// idle slots are the observed slots that carried no flit. Flits observed
/// on a router's *output* links are that port's arbitration wins, so
/// per-router GT/BE win counts fall out of these counters without
/// touching router internals.
struct LinkCounters : link::LinkTraffic {
  std::int64_t idle_slots = 0;
};

/// Per-NI observation: committed queue-fill high-water marks (sampled
/// every slot) plus the end-of-run slot-table utilization snapshot.
struct NiObservation {
  int source_queue_hwm = 0;  // max committed source-queue words seen
  int dest_queue_hwm = 0;    // max committed dest-queue words seen
  std::int64_t idle_slots = 0;        // from NiKernelStats at run end
  std::int64_t gt_slots_unused = 0;   // from NiKernelStats at run end
  double slot_utilization = 0.0;      // 1 - (idle + unused) / opportunities
};

/// Per-router end-of-run snapshot (engine-invariant: RouterStats match
/// the naive engine on every path).
struct RouterObservation {
  std::int64_t gt_flits = 0;       // GT arbitration-free forwards
  std::int64_t be_flits = 0;       // BE arbitration wins (flit granularity)
  std::int64_t be_packets = 0;
  std::int64_t be_blocked_credit = 0;
  std::int64_t be_blocked_gt = 0;
  std::int64_t be_max_occupancy = 0;
};

/// One closed sampling window of the time series.
struct SampleWindow {
  Cycle start = 0;   // nominal window start (k * sample_every)
  Cycle length = 0;  // nominal window length (sample_every)
  std::int64_t gt_injected = 0;   // flits entering the NoC, per class
  std::int64_t be_injected = 0;
  std::int64_t gt_delivered = 0;  // flits leaving the NoC, per class
  std::int64_t be_delivered = 0;
  std::int64_t busy_link_slots = 0;  // non-idle slots over all links
  std::int64_t link_slots = 0;       // slot opportunities over all links
  int max_queue_words = 0;           // deepest committed queue fill seen
  std::vector<std::int32_t> link_busy;  // per-link non-idle slots (heatmap)
};

/// Copyable snapshot of everything the `stats` result-JSON section needs.
/// The hub dies with its Soc; a ScenarioResult carries one of these so it
/// can serialize long after the simulation is torn down.
struct ObsStatsSnapshot {
  Cycle sample_every = 0;
  std::vector<std::string> link_sites;
  std::vector<LinkKind> link_kinds;
  std::vector<LinkCounters> links;
  std::vector<NiObservation> nis;
  std::vector<RouterObservation> routers;
  std::vector<SampleWindow> windows;
};

/// Writes the `stats` section of the result JSON (the caller owns the
/// surrounding key): sampling parameters, the window series, and the
/// per-link / per-NI / per-router counters. Deterministic: every field
/// derives from committed simulation state.
void WriteStatsJson(JsonWriter& w, const ObsStatsSnapshot& stats);

/// Per-window per-link utilization CSV for heatmap post-processing
/// (columns: window_start,site,kind,busy_slots,window_slots,utilization).
std::string SeriesCsv(const ObsStatsSnapshot& stats);

class ObsHub {
 public:
  explicit ObsHub(const ObsSpec& spec);

  const ObsSpec& spec() const { return spec_; }

  /// Non-null when the spec enables tracing.
  Tracer* tracer() { return tracer_ ? tracer_.get() : nullptr; }
  const Tracer* tracer() const { return tracer_ ? tracer_.get() : nullptr; }

  // --- topology registration (called by the Soc while wiring the tap) ---

  /// Declares link `index` with its kind and human-readable site name;
  /// links must be registered densely in index order.
  void RegisterLink(LinkKind kind, std::string site);
  void SetCounts(int num_nis, int num_routers);

  int NumLinks() const { return static_cast<int>(link_kinds_.size()); }
  LinkKind link_kind(int index) const {
    return link_kinds_[static_cast<std::size_t>(index)];
  }

  // --- tap-facing mutable storage -------------------------------------

  std::vector<LinkCounters>& link_counters() { return link_counters_; }
  const std::vector<LinkCounters>& link_counters() const {
    return link_counters_;
  }
  std::vector<NiObservation>& ni_obs() { return ni_obs_; }
  const std::vector<NiObservation>& ni_obs() const { return ni_obs_; }
  std::vector<RouterObservation>& router_obs() { return router_obs_; }
  const std::vector<RouterObservation>& router_obs() const {
    return router_obs_;
  }

  /// Closes sampling window `k` (the tap calls this at the first slot
  /// boundary past each window end; a trailing partial window is closed
  /// by the tap's finalizer).
  void PushWindow(SampleWindow window) {
    windows_.push_back(std::move(window));
  }
  const std::vector<SampleWindow>& windows() const { return windows_; }

  // --- runner-facing event hooks (no-ops without a tracer) ------------

  void NotePhase(std::uint16_t code, Cycle ts, int phase_index) {
    if (tracer_) tracer_->Record(TraceCat::kPhase, code, ts, -1, phase_index);
  }
  void NoteConfig(std::uint16_t code, Cycle ts, std::int64_t arg) {
    if (tracer_) tracer_->Record(TraceCat::kConfig, code, ts, -1, arg);
  }
  void NoteFault(std::uint16_t code, Cycle ts, std::int64_t a,
                 std::int64_t b) {
    if (tracer_) tracer_->Record(TraceCat::kFault, code, ts, -1, a, b);
  }

  // --- emitters --------------------------------------------------------

  /// Copies the counters, windows and link identities for WriteStatsJson.
  /// Call after the tap's Finalize() has closed the trailing window and
  /// filled the end-of-run NI/router snapshots.
  ObsStatsSnapshot StatsSnapshot() const;

  /// Writes the Chrome trace to spec().trace_path. False (with a message
  /// on stderr) on I/O failure; no-op (true) when tracing is off.
  bool WriteTraceFile() const;

 private:
  ObsSpec spec_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<LinkKind> link_kinds_;
  std::vector<std::string> link_sites_;
  std::vector<LinkCounters> link_counters_;
  std::vector<NiObservation> ni_obs_;
  std::vector<RouterObservation> router_obs_;
  std::vector<SampleWindow> windows_;
};

}  // namespace aethereal::obs

#endif  // AETHEREAL_OBS_HUB_H
