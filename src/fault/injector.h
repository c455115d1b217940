// Deterministic seeded fault injector.
//
// One FaultInjector instance is owned by the Soc when a FaultSpec is
// supplied in SocOptions. Every fault decision is a stateless hash of
// (spec seed, fault stream, site id, per-site event ordinal), and ordinals
// advance only at engine-invariant points:
//
//  * wire taps    — once per Drive() on a tapped link (Drive happens at
//    identical cycles in identical order on both engines; the gated
//    engine never skips a producer that drives);
//  * CNIP judge   — once per popped configuration request (pop timing is
//    fully determined by simulation state, which is engine-identical).
//
// Router/NI stall windows are fixed in the spec, so they need no ordinals
// at all. The injector is NOT registered simulation state: it mutates
// freely during Evaluate, which is safe because every mutation is keyed to
// one of the invariant points above.
//
// The injector doubles as the run's fault ledger: per-kind counters plus a
// capped per-event record list that the scenario runner surfaces in the
// result JSON. Recorded events are staged per cycle, then flushed in
// canonical (kind, site) order — a pure function of WHAT happened in the
// cycle, not of which module reported it first.
#ifndef AETHEREAL_FAULT_INJECTOR_H
#define AETHEREAL_FAULT_INJECTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "fault/spec.h"
#include "link/wire.h"

namespace aethereal::fault {

class FaultInjector : public link::FlitTap {
 public:
  explicit FaultInjector(const FaultSpec& spec) : spec_(spec) {}

  /// Registers a tapped link under a stable name; returns its site id.
  /// Sites must be registered in a deterministic order (Soc construction
  /// order) so that site ids are engine-invariant.
  int RegisterLinkSite(std::string name);

  /// link::FlitTap — consulted once per driven data flit on tapped wires.
  /// Returns false to swallow the flit (dropped on the wire); may corrupt
  /// payload words in place. GT packets are dropped whole (header decides,
  /// continuation flits of a dropped packet are swallowed until EOP).
  bool OnDrive(int site, Cycle now, link::Flit* flit) override;

  bool RouterStalled(RouterId router, Cycle now) const {
    return InWindow(spec_.router_stalls, router, now);
  }
  bool NiStalled(NiId ni, Cycle now) const {
    return InWindow(spec_.ni_stalls, ni, now);
  }

  /// Called by a stalled router for each flit it discards at an input.
  void NoteRouterStallDrop(RouterId router, Cycle now, bool gt,
                           bool is_header, int payload_words);

  /// CNIP fault verdict for one configuration request. Must be called
  /// exactly once per request (the agent memoizes the verdict until the
  /// request is consumed). On kDelay, *delay_cycles is the hold time.
  /// Ordinals advance per NI, so the verdict stream of one NI is
  /// independent of every other NI's request timing.
  enum class ConfigVerdict { kPass, kDrop, kDelay };
  ConfigVerdict JudgeConfigRequest(NiId ni, Cycle now, Cycle* delay_cycles);

  const FaultSpec& spec() const { return spec_; }

  struct Event {
    Cycle cycle = 0;
    std::string kind;  // "link-corrupt" | "link-drop" | "router-stall-drop"
                       // | "config-drop" | "config-delay"
    std::string site;
  };
  static constexpr int kMaxRecordedEvents = 32;
  /// The recorded events in canonical order. Flushes the staged cycle
  /// first, so call it only between steps (end of run), never from inside
  /// an evaluate phase.
  const std::vector<Event>& events() const;
  std::int64_t events_total() const { return events_total_; }

  std::int64_t flits_corrupted() const { return flits_corrupted_; }
  std::int64_t link_packets_dropped() const { return link_packets_dropped_; }
  std::int64_t link_words_dropped() const { return link_words_dropped_; }
  std::int64_t router_stall_packets_dropped() const {
    return router_stall_packets_dropped_;
  }
  std::int64_t router_stall_words_dropped() const {
    return router_stall_words_dropped_;
  }
  std::int64_t config_requests_dropped() const {
    return config_requests_dropped_;
  }
  std::int64_t config_requests_delayed() const {
    return config_requests_delayed_;
  }

 private:
  // Independent decision streams; keyed into the hash so e.g. the corrupt
  // and drop decisions at one site never correlate.
  enum Stream : std::uint64_t {
    kStreamCorrupt = 1,
    kStreamDrop = 2,
    kStreamConfig = 3,
    kStreamDelay = 4,
  };

  static bool InWindow(const std::vector<StallWindow>& windows,
                       std::int32_t id, Cycle now) {
    for (const StallWindow& w : windows) {
      if (w.id == id && w.Contains(now)) return true;
    }
    return false;
  }

  bool Decide(Stream stream, std::uint64_t site, std::uint64_t ordinal,
              double rate) const;
  std::uint64_t Draw(Stream stream, std::uint64_t site,
                     std::uint64_t ordinal) const;
  void Record(Cycle cycle, const char* kind, std::string site);
  /// Appends the staged cycle's events in (kind, site) order.
  void FlushStaged() const;

  struct SiteState {
    std::string name;
    std::uint64_t flit_ordinal = 0;    // corrupt stream
    std::uint64_t packet_ordinal = 0;  // drop stream (GT headers)
    bool dropping_gt = false;          // mid-drop of a GT packet
  };

  FaultSpec spec_;
  std::vector<SiteState> sites_;
  std::vector<std::uint64_t> config_ordinals_;  // per NI

  // The ledger. mutable: the canonical-order flush happens from the const
  // events() accessor too.
  Cycle staged_cycle_ = -1;
  mutable std::vector<Event> staged_;
  mutable std::vector<Event> events_;
  std::int64_t events_total_ = 0;
  std::int64_t flits_corrupted_ = 0;
  std::int64_t link_packets_dropped_ = 0;
  std::int64_t link_words_dropped_ = 0;
  std::int64_t router_stall_packets_dropped_ = 0;
  std::int64_t router_stall_words_dropped_ = 0;
  std::int64_t config_requests_dropped_ = 0;
  std::int64_t config_requests_delayed_ = 0;
};

}  // namespace aethereal::fault

#endif  // AETHEREAL_FAULT_INJECTOR_H
