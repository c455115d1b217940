// NoC topology graph: routers, network interfaces, and directed links.
//
// The topology is a design-time artifact (the paper instantiates it from an
// XML description). It provides:
//  * connectivity (router<->router and NI<->router attachments),
//  * source-route computation (the `path` written into NI registers when a
//    channel is configured, Fig. 9),
//  * stable directed-link identifiers, used by the TDM slot allocator to
//    reserve slots along a path.
//
// `NumLinks` and `LinkIndex` are O(1). A route query costs what its search
// visits: it reuses scratch the topology sizes as routers are added, so
// route queries on one `Topology` are single-threaded (each SoC is driven
// by one thread, and sweep workers build their own).
#ifndef AETHEREAL_TOPOLOGY_TOPOLOGY_H
#define AETHEREAL_TOPOLOGY_TOPOLOGY_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/types.h"

namespace aethereal::topology {

/// What a router port is wired to.
enum class EndpointKind { kUnconnected, kRouter, kNi };

struct Endpoint {
  EndpointKind kind = EndpointKind::kUnconnected;
  std::int32_t id = kInvalidId;  // RouterId or NiId
  int port = 0;                  // peer router port (kRouter only)
};

/// A directed link carrying flits. Every NI has one injection link (NI ->
/// router); every connected router port has one output link (router ->
/// peer). Slot reservations are per directed link.
struct LinkId {
  bool from_ni = false;
  std::int32_t node = kInvalidId;  // NiId if from_ni, else RouterId
  int port = 0;                    // router output port (routers only)

  friend bool operator==(const LinkId&, const LinkId&) = default;
};

/// The full path of one channel through the network, as needed by the slot
/// allocator: the injection link plus each router output link, in order.
struct ChannelRoute {
  NiId source_ni = kInvalidId;
  NiId dest_ni = kInvalidId;
  std::vector<int> hops;         // output port at each traversed router
  std::vector<LinkId> links;     // injection link + one link per hop
};

class Topology {
 public:
  /// Adds a router with `num_ports` ports; returns its id.
  RouterId AddRouter(int num_ports);

  /// Adds a network interface (not yet attached); returns its id.
  NiId AddNi();

  /// Wires router `a` port `pa` to router `b` port `pb` (both directions).
  Status ConnectRouters(RouterId a, int pa, RouterId b, int pb);

  /// Attaches NI `ni` to router `r` port `p` (both directions).
  Status AttachNi(NiId ni, RouterId r, int p);

  int NumRouters() const { return static_cast<int>(routers_.size()); }
  int NumNis() const { return static_cast<int>(nis_.size()); }
  int RouterPorts(RouterId r) const;

  /// The endpoint wired to router `r` port `p`.
  const Endpoint& PortPeer(RouterId r, int p) const;

  /// Router an NI is attached to and the attaching port.
  RouterId NiRouter(NiId ni) const;
  int NiRouterPort(NiId ni) const;

  /// Shortest route (BFS, deterministic tie-break by port number) from one
  /// NI to another: the output port at each traversed router, ending with
  /// the port where `to` is attached. Fails if disconnected or if the hop
  /// count exceeds what a packet header can carry. Not thread-safe: it
  /// writes the topology's search scratch.
  Result<std::vector<int>> RouteHops(NiId from, NiId to) const;

  /// Full channel route including directed link ids (for slot allocation).
  Result<ChannelRoute> Route(NiId from, NiId to) const;

  /// Total number of directed links (for allocator table sizing).
  int NumLinks() const { return NumNis() + router_ports_; }

  /// Dense index of a directed link in [0, NumLinks()): the NI injection
  /// links first, by NI id, then each router's output ports in router
  /// order.
  int LinkIndex(const LinkId& link) const;

  /// Human-readable link name for diagnostics.
  std::string LinkName(const LinkId& link) const;

 private:
  struct RouterNode {
    std::vector<Endpoint> ports;
  };
  struct NiNode {
    RouterId router = kInvalidId;
    int router_port = 0;
    bool attached = false;
  };

  // Breadth-first search state of one route query: a router counts as
  // visited when its mark equals the query's generation, so nothing is
  // cleared between queries.
  struct SearchNode {
    std::uint32_t mark = 0;
    RouterId pred = kInvalidId;  // router the search reached this one from
    int pred_port = -1;          // output port taken at `pred`
  };

  std::vector<RouterNode> routers_;
  // Ports of routers [0, r): the first link index of router r, less the
  // NI injection links that precede every router link.
  std::vector<int> router_link_base_;
  int router_ports_ = 0;  // ports of all routers
  std::vector<NiNode> nis_;

  mutable std::vector<SearchNode> search_;     // one per router
  mutable std::vector<RouterId> frontier_;     // FIFO, one push per router
  mutable std::uint32_t search_generation_ = 0;
};

}  // namespace aethereal::topology

#endif  // AETHEREAL_TOPOLOGY_TOPOLOGY_H
