// Unit tests for the topology graph, builders, and route computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "link/header.h"
#include "topology/builders.h"
#include "topology/topology.h"

namespace aethereal::topology {
namespace {

TEST(Topology, AddAndAttach) {
  Topology t;
  const RouterId r = t.AddRouter(3);
  const NiId a = t.AddNi();
  const NiId b = t.AddNi();
  EXPECT_TRUE(t.AttachNi(a, r, 0).ok());
  EXPECT_TRUE(t.AttachNi(b, r, 2).ok());
  EXPECT_EQ(t.NiRouter(a), r);
  EXPECT_EQ(t.NiRouterPort(b), 2);
  EXPECT_EQ(t.NumLinks(), 2 + 3);  // 2 NI injection + 3 router ports
}

TEST(Topology, RejectsDoubleAttach) {
  Topology t;
  const RouterId r = t.AddRouter(2);
  const NiId a = t.AddNi();
  ASSERT_TRUE(t.AttachNi(a, r, 0).ok());
  EXPECT_EQ(t.AttachNi(a, r, 1).code(), StatusCode::kAlreadyExists);
  const NiId b = t.AddNi();
  EXPECT_EQ(t.AttachNi(b, r, 0).code(), StatusCode::kAlreadyExists);
}

TEST(Topology, RejectsBadConnect) {
  Topology t;
  const RouterId r0 = t.AddRouter(2);
  const RouterId r1 = t.AddRouter(2);
  EXPECT_EQ(t.ConnectRouters(r0, 5, r1, 0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(t.ConnectRouters(r0, 0, r1, 0).ok());
  EXPECT_EQ(t.ConnectRouters(r0, 0, r1, 1).code(),
            StatusCode::kAlreadyExists);
}

TEST(Topology, StarRoute) {
  Star star = BuildStar(4);
  auto hops = star.topology.RouteHops(star.nis[0], star.nis[3]);
  ASSERT_TRUE(hops.ok());
  EXPECT_EQ(*hops, HopList({3}));
}

TEST(Topology, RouteToSelfRejected) {
  Star star = BuildStar(2);
  EXPECT_FALSE(star.topology.RouteHops(star.nis[0], star.nis[0]).ok());
}

TEST(Topology, DisconnectedRouteFails) {
  Topology t;
  const RouterId r0 = t.AddRouter(2);
  const RouterId r1 = t.AddRouter(2);
  const NiId a = t.AddNi();
  const NiId b = t.AddNi();
  ASSERT_TRUE(t.AttachNi(a, r0, 0).ok());
  ASSERT_TRUE(t.AttachNi(b, r1, 0).ok());
  EXPECT_EQ(t.RouteHops(a, b).status().code(), StatusCode::kNotFound);
}

TEST(Topology, MeshRouteEndsAtDestinationPort) {
  Mesh mesh = BuildMesh(3, 3, 1);
  const NiId from = mesh.NiAt(0, 0);
  const NiId to = mesh.NiAt(2, 2);
  auto route = mesh.topology.Route(from, to);
  ASSERT_TRUE(route.ok());
  // Shortest path in a 3x3 mesh corner-to-corner: 4 router-router moves + 1
  // exit hop = 5 hops total.
  EXPECT_EQ(route->hops.size(), 5u);
  EXPECT_EQ(route->links.size(), 6u);  // injection + 5
  EXPECT_TRUE(route->links[0].from_ni);
  EXPECT_EQ(route->hops.back(), kMeshLocalBase);
}

TEST(Topology, MeshAdjacentRoute) {
  Mesh mesh = BuildMesh(2, 2, 1);
  auto hops = mesh.topology.RouteHops(mesh.NiAt(0, 0), mesh.NiAt(0, 1));
  ASSERT_TRUE(hops.ok());
  EXPECT_EQ(*hops, HopList({kMeshEast, kMeshLocalBase}));
}

TEST(Topology, TooLongRouteFails) {
  // An 8-router ring: the far side is 4+1 hops away (fine), but a line of
  // 9 routers makes the farthest NI unreachable within 7 path hops.
  Topology t;
  std::vector<RouterId> routers;
  for (int i = 0; i < 9; ++i) routers.push_back(t.AddRouter(3));
  for (int i = 0; i + 1 < 9; ++i) {
    ASSERT_TRUE(t.ConnectRouters(routers[static_cast<std::size_t>(i)], 1,
                                 routers[static_cast<std::size_t>(i + 1)], 0)
                    .ok());
  }
  const NiId a = t.AddNi();
  const NiId b = t.AddNi();
  ASSERT_TRUE(t.AttachNi(a, routers.front(), 2).ok());
  ASSERT_TRUE(t.AttachNi(b, routers.back(), 2).ok());
  // 9 routers on the path + exit = 9 hops > kMaxPathHops = 7.
  EXPECT_EQ(t.RouteHops(a, b).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(Topology, LinkIndexDenseAndStable) {
  Mesh mesh = BuildMesh(2, 2, 2);
  std::vector<bool> seen(static_cast<std::size_t>(mesh.topology.NumLinks()),
                         false);
  for (NiId ni = 0; ni < mesh.topology.NumNis(); ++ni) {
    const int idx = mesh.topology.LinkIndex(LinkId{true, ni, 0});
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
  for (RouterId r = 0; r < mesh.topology.NumRouters(); ++r) {
    for (int p = 0; p < mesh.topology.RouterPorts(r); ++p) {
      const int idx = mesh.topology.LinkIndex(LinkId{false, r, p});
      EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
      seen[static_cast<std::size_t>(idx)] = true;
    }
  }
}

// A 6-port star router beside a ring of three 3-port routers, wired
// star port 5 to ring router 0 port 2, with every NI added after every
// router. Ring port 0 leads clockwise, port 1 counter-clockwise.
struct MixedPorts {
  Topology t;
  std::vector<RouterId> routers;  // the star, then the ring
  std::vector<NiId> nis;          // 5 on the star, 1 on each ring router
};

MixedPorts BuildMixedPorts() {
  MixedPorts m;
  m.routers.push_back(m.t.AddRouter(6));
  for (int i = 0; i < 3; ++i) m.routers.push_back(m.t.AddRouter(3));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(m.t.ConnectRouters(m.routers[static_cast<std::size_t>(1 + i)],
                                   0,
                                   m.routers[static_cast<std::size_t>(
                                       1 + (i + 1) % 3)],
                                   1)
                    .ok());
  }
  EXPECT_TRUE(m.t.ConnectRouters(m.routers[0], 5, m.routers[1], 2).ok());
  for (int p = 0; p < 5; ++p) {
    m.nis.push_back(m.t.AddNi());
    EXPECT_TRUE(m.t.AttachNi(m.nis.back(), m.routers[0], p).ok());
  }
  for (int i = 2; i <= 3; ++i) {
    m.nis.push_back(m.t.AddNi());
    EXPECT_TRUE(
        m.t.AttachNi(m.nis.back(), m.routers[static_cast<std::size_t>(i)], 2)
            .ok());
  }
  return m;
}

// Checks that LinkIndex is a bijection onto [0, NumLinks()) and follows
// the documented order: NI injection links by NI id, then each router's
// ports in router order.
void ExpectLinkIndexLayout(const Topology& t) {
  int total = t.NumNis();
  for (RouterId r = 0; r < t.NumRouters(); ++r) total += t.RouterPorts(r);
  ASSERT_EQ(t.NumLinks(), total);
  std::vector<bool> seen(static_cast<std::size_t>(total), false);
  int expected = 0;
  for (NiId ni = 0; ni < t.NumNis(); ++ni, ++expected) {
    const int idx = t.LinkIndex(LinkId{true, ni, 0});
    EXPECT_EQ(idx, expected);
    seen[static_cast<std::size_t>(idx)] = true;
  }
  for (RouterId r = 0; r < t.NumRouters(); ++r) {
    for (int p = 0; p < t.RouterPorts(r); ++p, ++expected) {
      const int idx = t.LinkIndex(LinkId{false, r, p});
      EXPECT_EQ(idx, expected) << "router " << r << " port " << p;
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, total);
      EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
      seen[static_cast<std::size_t>(idx)] = true;
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), total);
}

TEST(Topology, LinkIndexLayoutWithMixedPortCounts) {
  MixedPorts m = BuildMixedPorts();
  EXPECT_EQ(m.t.NumLinks(), 7 + 6 + 3 * 3);
  ExpectLinkIndexLayout(m.t);
  // The first ring router's links start after every NI and the star's
  // six ports.
  EXPECT_EQ(m.t.LinkIndex(LinkId{false, m.routers[1], 0}), 7 + 6);
  // An NI added later shifts every router link by one.
  m.t.AddNi();
  EXPECT_EQ(m.t.NumLinks(), 8 + 6 + 3 * 3);
  EXPECT_EQ(m.t.LinkIndex(LinkId{false, m.routers[1], 0}), 8 + 6);
  ExpectLinkIndexLayout(m.t);
  // So does a router added later extend the link range at its end.
  const RouterId extra = m.t.AddRouter(4);
  EXPECT_EQ(m.t.LinkIndex(LinkId{false, extra, 3}), 8 + 6 + 3 * 3 + 3);
  ExpectLinkIndexLayout(m.t);
}

TEST(Topology, InterleavedRouteQueriesMatchFreshOnes) {
  MixedPorts m = BuildMixedPorts();
  // A separate line of 8 routers, whose ends are too far apart for a
  // source path (8 hops > kMaxPathHops), and an NI left unattached.
  std::vector<RouterId> line;
  for (int i = 0; i < 8; ++i) line.push_back(m.t.AddRouter(3));
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    ASSERT_TRUE(m.t.ConnectRouters(line[i], 1, line[i + 1], 0).ok());
  }
  const NiId near = m.t.AddNi();
  ASSERT_TRUE(m.t.AttachNi(near, line.front(), 0).ok());
  const NiId mid = m.t.AddNi();
  ASSERT_TRUE(m.t.AttachNi(mid, line[3], 2).ok());
  const NiId far = m.t.AddNi();
  ASSERT_TRUE(m.t.AttachNi(far, line.back(), 2).ok());
  const NiId unattached = m.t.AddNi();
  std::vector<NiId> endpoints = m.nis;
  endpoints.insert(endpoints.end(), {near, mid, far, unattached});

  const Topology fresh_copy = m.t;  // before any query
  std::vector<std::pair<NiId, NiId>> queries;
  for (NiId from : endpoints) {
    for (NiId to : endpoints) queries.emplace_back(from, to);
  }
  // Every query twice, the second pass in reverse, so failing queries
  // sit between succeeding ones in both directions.
  std::vector<std::pair<NiId, NiId>> order = queries;
  order.insert(order.end(), queries.rbegin(), queries.rend());
  int failures = 0;
  for (const auto& [from, to] : order) {
    const Topology fresh = fresh_copy;
    auto want = fresh.RouteHops(from, to);
    auto got = m.t.RouteHops(from, to);
    ASSERT_EQ(got.status().code(), want.status().code())
        << from << " -> " << to;
    if (want.ok()) {
      EXPECT_EQ(*got, *want) << from << " -> " << to;
    } else {
      ++failures;
    }
  }
  EXPECT_EQ(fresh_copy.RouteHops(m.nis[0], near).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fresh_copy.RouteHops(near, far).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(fresh_copy.RouteHops(near, mid).ok());
  EXPECT_GT(failures, 0);
}

TEST(Topology, RingRoutes) {
  Ring ring = BuildRing(4, 1);
  auto hops = ring.topology.RouteHops(ring.NiAt(0), ring.NiAt(1));
  ASSERT_TRUE(hops.ok());
  EXPECT_EQ(hops->size(), 2u);  // one ring move + exit
}

// Property: every NI pair in a mesh has a valid route whose hop count is
// Manhattan distance + 1 and whose links walk the graph consistently.
class MeshRoutingProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MeshRoutingProperty, AllPairsShortest) {
  const auto [rows, cols] = GetParam();
  Mesh mesh = BuildMesh(rows, cols, 1);
  for (int r1 = 0; r1 < rows; ++r1) {
    for (int c1 = 0; c1 < cols; ++c1) {
      for (int r2 = 0; r2 < rows; ++r2) {
        for (int c2 = 0; c2 < cols; ++c2) {
          if (r1 == r2 && c1 == c2) continue;
          auto route = mesh.topology.Route(mesh.NiAt(r1, c1), mesh.NiAt(r2, c2));
          ASSERT_TRUE(route.ok());
          const int manhattan = std::abs(r1 - r2) + std::abs(c1 - c2);
          EXPECT_EQ(static_cast<int>(route->hops.size()), manhattan + 1);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshRoutingProperty,
                         ::testing::Values(std::pair{2, 2}, std::pair{3, 3},
                                           std::pair{4, 4}, std::pair{3, 5}));

}  // namespace
}  // namespace aethereal::topology
