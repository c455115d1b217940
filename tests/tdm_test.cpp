// Unit and property tests for slot tables and TDM slot allocation.
#include <gtest/gtest.h>

#include "tdm/allocator.h"
#include "tdm/distributed.h"
#include "tdm/slot_table.h"
#include "topology/builders.h"

namespace aethereal::tdm {
namespace {

using topology::BuildMesh;
using topology::BuildStar;

GlobalChannel Ch(NiId ni, ChannelId ch) { return GlobalChannel{ni, ch}; }

TEST(SlotTable, ReserveRelease) {
  SlotTable table(8);
  EXPECT_EQ(table.Reserved(), 0);
  ASSERT_TRUE(table.Reserve(3, Ch(0, 0)).ok());
  EXPECT_FALSE(table.IsFree(3));
  EXPECT_EQ(table.Owner(3), Ch(0, 0));
  EXPECT_EQ(table.Reserve(3, Ch(1, 0)).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(table.Release(3).ok());
  EXPECT_TRUE(table.IsFree(3));
  EXPECT_EQ(table.Release(3).code(), StatusCode::kFailedPrecondition);
}

TEST(SlotTable, ReleaseAll) {
  SlotTable table(8);
  ASSERT_TRUE(table.Reserve(1, Ch(0, 0)).ok());
  ASSERT_TRUE(table.Reserve(5, Ch(0, 0)).ok());
  ASSERT_TRUE(table.Reserve(2, Ch(0, 1)).ok());
  EXPECT_EQ(table.ReleaseAll(Ch(0, 0)), 2);
  EXPECT_EQ(table.Reserved(), 1);
}

TEST(SlotTable, MaxGapIsJitterBound) {
  SlotTable table(8);
  // Slots 0 and 4: evenly spread -> max gap 4.
  ASSERT_TRUE(table.Reserve(0, Ch(0, 0)).ok());
  ASSERT_TRUE(table.Reserve(4, Ch(0, 0)).ok());
  EXPECT_EQ(table.MaxGap(Ch(0, 0)), 4);
  // Slots 0 and 1: contiguous -> wrap-around gap of 7.
  SlotTable t2(8);
  ASSERT_TRUE(t2.Reserve(0, Ch(0, 0)).ok());
  ASSERT_TRUE(t2.Reserve(1, Ch(0, 0)).ok());
  EXPECT_EQ(t2.MaxGap(Ch(0, 0)), 7);
  EXPECT_EQ(t2.MaxGap(Ch(9, 9)), 8);  // absent owner: worst case
}

TEST(PickSlots, FirstFit) {
  EXPECT_EQ(PickSlots({1, 3, 5, 7}, 2, 8, AllocPolicy::kFirstFit),
            (SlotList{1, 3}));
}

TEST(PickSlots, SpreadMinimizesGap) {
  const auto picked = PickSlots({0, 1, 2, 3, 4, 5, 6, 7}, 4, 8,
                                AllocPolicy::kSpread);
  EXPECT_EQ(picked, (SlotList{0, 2, 4, 6}));
}

TEST(PickSlots, ContiguousFindsRun) {
  const auto picked =
      PickSlots({0, 2, 3, 4, 7}, 3, 8, AllocPolicy::kContiguous);
  EXPECT_EQ(picked, (SlotList{2, 3, 4}));
}

TEST(PickSlots, ContiguousWrapsAround) {
  const auto picked =
      PickSlots({0, 1, 7}, 3, 8, AllocPolicy::kContiguous);
  EXPECT_EQ(picked, (SlotList{0, 1, 7}));
}

TEST(PickSlots, InsufficientReturnsEmpty) {
  EXPECT_TRUE(PickSlots({1, 2}, 3, 8, AllocPolicy::kFirstFit).empty());
}

TEST(CentralizedAllocator, PipelinedSlotAdvance) {
  auto star = BuildStar(2);
  CentralizedAllocator alloc(&star.topology, 8);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  auto slots = alloc.Allocate(*route, Ch(0, 0), 1, AllocPolicy::kFirstFit);
  ASSERT_TRUE(slots.ok());
  ASSERT_EQ(slots->size(), 1u);
  const SlotIndex s = (*slots)[0];
  // Injection link holds slot s; the router output link holds s+1.
  EXPECT_EQ(alloc.TableOf(route->links[0]).Owner(s), Ch(0, 0));
  EXPECT_EQ(alloc.TableOf(route->links[1]).Owner((s + 1) % 8), Ch(0, 0));
  EXPECT_TRUE(alloc.TableOf(route->links[1]).IsFree(s));
}

TEST(CentralizedAllocator, ConflictingRoutesShareLink) {
  // Two NIs sending to the same destination share the router output link;
  // their slots must not collide there.
  auto star = BuildStar(3);
  CentralizedAllocator alloc(&star.topology, 4);
  auto r02 = star.topology.Route(star.nis[0], star.nis[2]);
  auto r12 = star.topology.Route(star.nis[1], star.nis[2]);
  ASSERT_TRUE(r02.ok() && r12.ok());
  auto s0 = alloc.Allocate(*r02, Ch(0, 0), 2, AllocPolicy::kFirstFit);
  auto s1 = alloc.Allocate(*r12, Ch(1, 0), 2, AllocPolicy::kFirstFit);
  ASSERT_TRUE(s0.ok() && s1.ok());
  // The shared link (router port 2) must have 4 distinct reserved slots.
  const auto& shared = alloc.TableOf(r02->links[1]);
  EXPECT_EQ(shared.Reserved(), 4);
  // And a further 1-slot request must fail: the link is full.
  auto s2 = alloc.Allocate(*r02, Ch(0, 1), 1, AllocPolicy::kFirstFit);
  EXPECT_EQ(s2.status().code(), StatusCode::kResourceExhausted);
}

TEST(CentralizedAllocator, FreeRestoresCapacity) {
  auto star = BuildStar(2);
  CentralizedAllocator alloc(&star.topology, 8);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  auto slots = alloc.Allocate(*route, Ch(0, 0), 8, AllocPolicy::kFirstFit);
  ASSERT_TRUE(slots.ok());
  EXPECT_FALSE(
      alloc.Allocate(*route, Ch(0, 1), 1, AllocPolicy::kFirstFit).ok());
  ASSERT_TRUE(alloc.Free(*route, Ch(0, 0), *slots).ok());
  EXPECT_TRUE(
      alloc.Allocate(*route, Ch(0, 1), 8, AllocPolicy::kFirstFit).ok());
}

TEST(CentralizedAllocator, FreeWrongOwnerRejected) {
  auto star = BuildStar(2);
  CentralizedAllocator alloc(&star.topology, 8);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  auto slots = alloc.Allocate(*route, Ch(0, 0), 1, AllocPolicy::kFirstFit);
  ASSERT_TRUE(slots.ok());
  EXPECT_EQ(alloc.Free(*route, Ch(0, 1), *slots).code(),
            StatusCode::kFailedPrecondition);
}

// Property sweep: allocation along multi-hop mesh paths always produces
// feasible (conflict-free) reservations for any policy and slot count.
struct AllocCase {
  AllocPolicy policy;
  int count;
};

class AllocatorProperty : public ::testing::TestWithParam<AllocCase> {};

TEST_P(AllocatorProperty, MeshPathsStayConsistent) {
  const auto param = GetParam();
  auto mesh = BuildMesh(3, 3, 1);
  CentralizedAllocator alloc(&mesh.topology, 16);
  // Allocate along several crossing paths.
  int channel = 0;
  int successes = 0;
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; j += 4) {
      if (i == j) continue;
      auto route = mesh.topology.Route(mesh.nis[static_cast<std::size_t>(i)],
                                       mesh.nis[static_cast<std::size_t>(j)]);
      ASSERT_TRUE(route.ok());
      auto slots = alloc.Allocate(*route, Ch(i, channel++), param.count,
                                  param.policy);
      if (!slots.ok()) continue;  // exhaustion is acceptable
      ++successes;
      // Verify the pipelined reservation on every link of the path.
      for (SlotIndex s : *slots) {
        for (std::size_t h = 0; h < route->links.size(); ++h) {
          const auto& table = alloc.TableOf(route->links[h]);
          EXPECT_EQ(table.Owner(static_cast<SlotIndex>(
                        (s + static_cast<SlotIndex>(h)) % 16)),
                    Ch(i, channel - 1));
        }
      }
    }
  }
  EXPECT_GT(successes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllocatorProperty,
    ::testing::Values(AllocCase{AllocPolicy::kFirstFit, 1},
                      AllocCase{AllocPolicy::kFirstFit, 3},
                      AllocCase{AllocPolicy::kSpread, 2},
                      AllocCase{AllocPolicy::kSpread, 4},
                      AllocCase{AllocPolicy::kContiguous, 2},
                      AllocCase{AllocPolicy::kContiguous, 3}));

TEST(DistributedAllocator, SingleRequestCompletes) {
  auto star = BuildStar(2);
  DistributedAllocator alloc(&star.topology, 8);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  const int id = alloc.StartRequest(*route, Ch(0, 0), 2, AllocPolicy::kSpread);
  alloc.RunToCompletion();
  EXPECT_EQ(alloc.request(id).phase,
            DistributedAllocator::RequestPhase::kDone);
  EXPECT_EQ(alloc.stats().conflicts, 0);
  // Committed on both links.
  EXPECT_EQ(alloc.TableOf(route->links[0]).Reserved(), 2);
  EXPECT_EQ(alloc.TableOf(route->links[1]).Reserved(), 2);
}

TEST(DistributedAllocator, ConcurrentConflictingRequestsResolve) {
  // Two requests from different sources to the same destination race for
  // the shared output link.
  auto star = BuildStar(3);
  DistributedAllocator alloc(&star.topology, 4);
  auto r02 = star.topology.Route(star.nis[0], star.nis[2]);
  auto r12 = star.topology.Route(star.nis[1], star.nis[2]);
  ASSERT_TRUE(r02.ok() && r12.ok());
  const int a = alloc.StartRequest(*r02, Ch(0, 0), 2, AllocPolicy::kFirstFit);
  const int b = alloc.StartRequest(*r12, Ch(1, 0), 2, AllocPolicy::kFirstFit);
  alloc.RunToCompletion();
  EXPECT_EQ(alloc.request(a).phase, DistributedAllocator::RequestPhase::kDone);
  EXPECT_EQ(alloc.request(b).phase, DistributedAllocator::RequestPhase::kDone);
  // The shared link carries all 4 reservations without overlap.
  EXPECT_EQ(alloc.TableOf(r02->links[1]).Reserved(), 4);
}

TEST(DistributedAllocator, ExhaustionFails) {
  auto star = BuildStar(2);
  DistributedAllocator alloc(&star.topology, 2);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  const int a = alloc.StartRequest(*route, Ch(0, 0), 2, AllocPolicy::kFirstFit);
  const int b = alloc.StartRequest(*route, Ch(0, 1), 1, AllocPolicy::kFirstFit);
  alloc.RunToCompletion();
  // One succeeds with both slots; the other cannot ever fit.
  EXPECT_EQ(alloc.request(a).phase, DistributedAllocator::RequestPhase::kDone);
  EXPECT_EQ(alloc.request(b).phase,
            DistributedAllocator::RequestPhase::kFailed);
}

TEST(DistributedAllocator, MoreMessagesThanHops) {
  // Message count >= 2 per hop (request forward + ack back).
  auto mesh = BuildMesh(2, 2, 1);
  DistributedAllocator alloc(&mesh.topology, 8);
  auto route = mesh.topology.Route(mesh.NiAt(0, 0), mesh.NiAt(1, 1));
  ASSERT_TRUE(route.ok());
  alloc.StartRequest(*route, Ch(0, 0), 1, AllocPolicy::kFirstFit);
  alloc.RunToCompletion();
  const auto hops = static_cast<std::int64_t>(route->links.size());
  EXPECT_GE(alloc.stats().messages, 2 * hops);
}

// ---------------------------------------------------------------------------
// Rejection paths
// ---------------------------------------------------------------------------

TEST(CentralizedAllocator, RejectsInvalidRequests) {
  auto star = BuildStar(2);
  CentralizedAllocator alloc(&star.topology, 8);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(alloc.Allocate(*route, Ch(0, 0), 0, AllocPolicy::kFirstFit)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(alloc.Allocate(*route, Ch(0, 0), -3, AllocPolicy::kFirstFit)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(alloc.Allocate(*route, GlobalChannel{}, 1, AllocPolicy::kFirstFit)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A request for more slots than the table holds can never fit.
  EXPECT_EQ(alloc.Allocate(*route, Ch(0, 0), 9, AllocPolicy::kFirstFit)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(CentralizedAllocator, FullTableReportsNoFeasibleSlots) {
  auto star = BuildStar(2);
  CentralizedAllocator alloc(&star.topology, 4);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  ASSERT_TRUE(alloc.Allocate(*route, Ch(0, 0), 4, AllocPolicy::kFirstFit).ok());
  EXPECT_TRUE(alloc.FeasibleSlots(*route).empty());
  for (SlotIndex s = 0; s < 4; ++s) {
    EXPECT_FALSE(alloc.SlotFeasible(*route, s));
  }
  EXPECT_EQ(alloc.Allocate(*route, Ch(0, 1), 1, AllocPolicy::kSpread)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(alloc.TableOf(route->links[0]).Utilization(), 1.0);
}

TEST(CentralizedAllocator, FailedAllocationLeavesTablesUntouched) {
  // A rejected request must not leak partial reservations on any link.
  auto star = BuildStar(3);
  CentralizedAllocator alloc(&star.topology, 4);
  auto r02 = star.topology.Route(star.nis[0], star.nis[2]);
  auto r12 = star.topology.Route(star.nis[1], star.nis[2]);
  ASSERT_TRUE(r02.ok() && r12.ok());
  ASSERT_TRUE(alloc.Allocate(*r02, Ch(0, 0), 3, AllocPolicy::kFirstFit).ok());
  const double before = alloc.MeanUtilization();
  EXPECT_FALSE(alloc.Allocate(*r12, Ch(1, 0), 2, AllocPolicy::kFirstFit).ok());
  EXPECT_DOUBLE_EQ(alloc.MeanUtilization(), before);
  // The injection link of NI 1 is still completely free.
  EXPECT_EQ(alloc.TableOf(r12->links[0]).Reserved(), 0);
}

TEST(DistributedAllocator, FailedRequestReleasesTentativeHolds) {
  auto star = BuildStar(2);
  DistributedAllocator alloc(&star.topology, 2, /*max_attempts=*/4);
  auto route = star.topology.Route(star.nis[0], star.nis[1]);
  ASSERT_TRUE(route.ok());
  const int a = alloc.StartRequest(*route, Ch(0, 0), 2, AllocPolicy::kFirstFit);
  const int b = alloc.StartRequest(*route, Ch(0, 1), 2, AllocPolicy::kFirstFit);
  alloc.RunToCompletion();
  // Exactly one finished; the loser left no committed residue anywhere.
  const bool a_done =
      alloc.request(a).phase == DistributedAllocator::RequestPhase::kDone;
  const bool b_done =
      alloc.request(b).phase == DistributedAllocator::RequestPhase::kDone;
  EXPECT_NE(a_done, b_done);
  const GlobalChannel loser = a_done ? Ch(0, 1) : Ch(0, 0);
  for (const topology::LinkId& link : route->links) {
    EXPECT_TRUE(alloc.TableOf(link).SlotsOf(loser).empty());
  }
}

// ---------------------------------------------------------------------------
// Distributed / centralized agreement
// ---------------------------------------------------------------------------

/// Routes of a 3x3 mesh workload that share links aggressively.
std::vector<topology::ChannelRoute> MeshCrossRoutes(
    const topology::Mesh& mesh) {
  std::vector<topology::ChannelRoute> routes;
  const int pairs[][2] = {{0, 8}, {8, 0}, {2, 6}, {6, 2}, {1, 7}, {3, 5}};
  for (const auto& p : pairs) {
    auto route = mesh.topology.Route(mesh.nis[static_cast<std::size_t>(p[0])],
                                     mesh.nis[static_cast<std::size_t>(p[1])]);
    EXPECT_TRUE(route.ok());
    routes.push_back(*route);
  }
  return routes;
}

TEST(DistributedAllocator, SequentialRequestsMatchCentralizedExactly) {
  // Served one at a time (each runs to completion before the next starts),
  // the distributed protocol must pick the same slots as the centralized
  // allocator: no contention means the local view it picks from coincides
  // with the global feasible set after the blacklist learns the conflicts.
  for (const AllocPolicy policy :
       {AllocPolicy::kFirstFit, AllocPolicy::kSpread,
        AllocPolicy::kContiguous}) {
    auto mesh = BuildMesh(3, 3, 1);
    CentralizedAllocator central(&mesh.topology, 8);
    DistributedAllocator distributed(&mesh.topology, 8);
    const auto routes = MeshCrossRoutes(mesh);
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const GlobalChannel channel = Ch(routes[i].source_ni,
                                       static_cast<ChannelId>(i));
      auto central_slots = central.Allocate(routes[i], channel, 2, policy);
      const int id = distributed.StartRequest(routes[i], channel, 2, policy);
      distributed.RunToCompletion();
      const auto& req = distributed.request(id);
      if (!central_slots.ok()) {
        EXPECT_EQ(req.phase, DistributedAllocator::RequestPhase::kFailed);
        continue;
      }
      ASSERT_EQ(req.phase, DistributedAllocator::RequestPhase::kDone)
          << "policy " << static_cast<int>(policy) << " request " << i;
      EXPECT_EQ(req.slots, *central_slots)
          << "policy " << static_cast<int>(policy) << " request " << i;
    }
  }
}

TEST(DistributedAllocator, ConcurrentOutcomeReplaysIntoCentralized) {
  // Under concurrency the slot choices may differ from the centralized
  // ones, but the committed outcome must still be a valid global
  // allocation: replaying every completed request into a fresh centralized
  // allocator (which checks all links) must succeed slot for slot.
  auto mesh = BuildMesh(3, 3, 1);
  DistributedAllocator distributed(&mesh.topology, 8);
  const auto routes = MeshCrossRoutes(mesh);
  std::vector<int> ids;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    ids.push_back(distributed.StartRequest(
        routes[i], Ch(routes[i].source_ni, static_cast<ChannelId>(i)), 2,
        AllocPolicy::kSpread));
  }
  distributed.RunToCompletion();

  CentralizedAllocator replay(&mesh.topology, 8);
  int completed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& req = distributed.request(ids[static_cast<std::size_t>(i)]);
    if (req.phase != DistributedAllocator::RequestPhase::kDone) continue;
    ++completed;
    for (SlotIndex s : req.slots) {
      ASSERT_TRUE(replay.SlotFeasible(routes[i], s))
          << "request " << i << " slot " << s
          << " double-booked by the distributed protocol";
    }
    ASSERT_TRUE(replay
                    .Allocate(routes[i], req.channel,
                              static_cast<int>(req.slots.size()),
                              AllocPolicy::kFirstFit)
                    .ok());
  }
  EXPECT_GT(completed, 0);
}

}  // namespace
}  // namespace aethereal::tdm
