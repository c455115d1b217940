#include "topology/topology.h"

#include <sstream>
#include <utility>

#include "link/header.h"
#include "util/check.h"

namespace aethereal::topology {

RouterId Topology::AddRouter(int num_ports) {
  AETHEREAL_CHECK(num_ports > 0);
  routers_.push_back(RouterNode{std::vector<Endpoint>(
      static_cast<std::size_t>(num_ports))});
  router_link_base_.push_back(router_ports_);
  router_ports_ += num_ports;
  search_.emplace_back();
  return static_cast<RouterId>(routers_.size() - 1);
}

NiId Topology::AddNi() {
  nis_.push_back(NiNode{});
  return static_cast<NiId>(nis_.size() - 1);
}

Status Topology::ConnectRouters(RouterId a, int pa, RouterId b, int pb) {
  if (a < 0 || a >= NumRouters() || b < 0 || b >= NumRouters()) {
    return InvalidArgumentError("router id out of range");
  }
  if (pa < 0 || pa >= RouterPorts(a) || pb < 0 || pb >= RouterPorts(b)) {
    return InvalidArgumentError("router port out of range");
  }
  auto& ea = routers_[static_cast<std::size_t>(a)].ports[static_cast<std::size_t>(pa)];
  auto& eb = routers_[static_cast<std::size_t>(b)].ports[static_cast<std::size_t>(pb)];
  if (ea.kind != EndpointKind::kUnconnected ||
      eb.kind != EndpointKind::kUnconnected) {
    return AlreadyExistsError("router port already wired");
  }
  ea = Endpoint{EndpointKind::kRouter, b, pb};
  eb = Endpoint{EndpointKind::kRouter, a, pa};
  return OkStatus();
}

Status Topology::AttachNi(NiId ni, RouterId r, int p) {
  if (ni < 0 || ni >= NumNis() || r < 0 || r >= NumRouters()) {
    return InvalidArgumentError("id out of range");
  }
  if (p < 0 || p >= RouterPorts(r)) {
    return InvalidArgumentError("router port out of range");
  }
  auto& node = nis_[static_cast<std::size_t>(ni)];
  if (node.attached) return AlreadyExistsError("NI already attached");
  auto& ep = routers_[static_cast<std::size_t>(r)].ports[static_cast<std::size_t>(p)];
  if (ep.kind != EndpointKind::kUnconnected) {
    return AlreadyExistsError("router port already wired");
  }
  ep = Endpoint{EndpointKind::kNi, ni, 0};
  node = NiNode{r, p, true};
  return OkStatus();
}

int Topology::RouterPorts(RouterId r) const {
  AETHEREAL_CHECK(r >= 0 && r < NumRouters());
  return static_cast<int>(routers_[static_cast<std::size_t>(r)].ports.size());
}

const Endpoint& Topology::PortPeer(RouterId r, int p) const {
  AETHEREAL_CHECK(r >= 0 && r < NumRouters());
  AETHEREAL_CHECK(p >= 0 && p < RouterPorts(r));
  return routers_[static_cast<std::size_t>(r)].ports[static_cast<std::size_t>(p)];
}

RouterId Topology::NiRouter(NiId ni) const {
  AETHEREAL_CHECK(ni >= 0 && ni < NumNis());
  AETHEREAL_CHECK_MSG(nis_[static_cast<std::size_t>(ni)].attached,
                      "NI " << ni << " not attached");
  return nis_[static_cast<std::size_t>(ni)].router;
}

int Topology::NiRouterPort(NiId ni) const {
  AETHEREAL_CHECK(ni >= 0 && ni < NumNis());
  AETHEREAL_CHECK(nis_[static_cast<std::size_t>(ni)].attached);
  return nis_[static_cast<std::size_t>(ni)].router_port;
}

Result<std::vector<int>> Topology::RouteHops(NiId from, NiId to) const {
  if (from < 0 || from >= NumNis() || to < 0 || to >= NumNis()) {
    return InvalidArgumentError("NI id out of range");
  }
  if (from == to) return InvalidArgumentError("route from an NI to itself");
  if (!nis_[static_cast<std::size_t>(from)].attached ||
      !nis_[static_cast<std::size_t>(to)].attached) {
    return FailedPreconditionError("NI not attached to a router");
  }
  const RouterId start = NiRouter(from);
  const RouterId goal = NiRouter(to);

  // BFS over routers, recording how each was first reached.
  if (++search_generation_ == 0) {
    // The generation wrapped: forget every mark so none reads as current.
    for (SearchNode& node : search_) node.mark = 0;
    search_generation_ = 1;
  }
  const std::uint32_t gen = search_generation_;
  const auto node_of = [this](RouterId r) -> SearchNode& {
    return search_[static_cast<std::size_t>(r)];
  };
  frontier_.clear();
  node_of(start).mark = gen;
  frontier_.push_back(start);
  for (std::size_t head = 0;
       head < frontier_.size() && node_of(goal).mark != gen; ++head) {
    const RouterId r = frontier_[head];
    const auto& ports = routers_[static_cast<std::size_t>(r)].ports;
    for (int p = 0; p < static_cast<int>(ports.size()); ++p) {
      const Endpoint& ep = ports[static_cast<std::size_t>(p)];
      if (ep.kind != EndpointKind::kRouter) continue;
      SearchNode& next = node_of(ep.id);
      if (next.mark == gen) continue;
      next = SearchNode{gen, r, p};
      frontier_.push_back(ep.id);
    }
  }
  if (node_of(goal).mark != gen) {
    return NotFoundError("no route between NIs");
  }

  // Walk back from the goal router to size the route, then again to fill
  // it in from the end; the last hop is the NI exit port.
  std::size_t length = 1;
  for (RouterId r = goal; r != start; r = node_of(r).pred) ++length;
  std::vector<int> hops(length);
  hops.back() = NiRouterPort(to);
  std::size_t i = length - 1;
  for (RouterId r = goal; r != start; r = node_of(r).pred) {
    hops[--i] = node_of(r).pred_port;
  }
  if (static_cast<int>(hops.size()) > link::kMaxPathHops) {
    return ResourceExhaustedError("route exceeds max source-path hops");
  }
  for (int h : hops) {
    if (h > link::kMaxPathPort) {
      return ResourceExhaustedError("router port not encodable in path");
    }
  }
  return hops;
}

Result<ChannelRoute> Topology::Route(NiId from, NiId to) const {
  auto hops = RouteHops(from, to);
  if (!hops.ok()) return hops.status();
  ChannelRoute route;
  route.source_ni = from;
  route.dest_ni = to;
  route.hops = std::move(*hops);
  route.links.reserve(route.hops.size() + 1);
  route.links.push_back(LinkId{true, from, 0});
  RouterId r = NiRouter(from);
  for (std::size_t i = 0; i < route.hops.size(); ++i) {
    const int port = route.hops[i];
    route.links.push_back(LinkId{false, r, port});
    const Endpoint& ep = PortPeer(r, port);
    if (i + 1 < route.hops.size()) {
      AETHEREAL_CHECK_MSG(ep.kind == EndpointKind::kRouter,
                          "route walks off the router graph");
      r = ep.id;
    } else {
      AETHEREAL_CHECK_MSG(ep.kind == EndpointKind::kNi && ep.id == to,
                          "route does not terminate at destination NI");
    }
  }
  return route;
}

int Topology::LinkIndex(const LinkId& link) const {
  if (link.from_ni) {
    AETHEREAL_CHECK(link.node >= 0 && link.node < NumNis());
    return link.node;
  }
  AETHEREAL_CHECK(link.node >= 0 && link.node < NumRouters());
  AETHEREAL_CHECK(link.port >= 0 && link.port < RouterPorts(link.node));
  return NumNis() + router_link_base_[static_cast<std::size_t>(link.node)] +
         link.port;
}

std::string Topology::LinkName(const LinkId& link) const {
  std::ostringstream oss;
  if (link.from_ni) {
    oss << "ni" << link.node << "->router";
  } else {
    oss << "router" << link.node << ".port" << link.port;
  }
  return oss.str();
}

}  // namespace aethereal::topology
