// Build-cost benchmark: host time of ScenarioRunner::Build() on GT-pairs
// meshes of growing size (8x8, 16x16, 32x32, one NI per router). Every NI
// streams to its east neighbour (the last column to its west one) on a
// 1-slot GT connection, so the build computes one route pair and reserves
// slots for each of rows x cols connections. Build() is the design-time
// path of the paper: source routes written into the PATH registers and
// TDM slots reserved on every link of each route.
//
// Prints the median build time of each size over several fresh runners,
// its ratio to the previous size (4x the routers each step): a build
// linear in the network reads about 4x, and the heap allocations one build
// makes (counted by this binary's operator new). Only the build is timed;
// parsing is not.
//
//   ./build/bench_build
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/check.h"
#include "util/table.h"

namespace {
std::int64_t g_heap_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++g_heap_allocations;
  const auto a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every replacement allocates with malloc or aligned_alloc and frees with
// free.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace aethereal;

namespace {

std::string GtPairsSpec(int n) {
  std::ostringstream spec;
  spec << "scenario build_gt_pairs_" << n << "\n"
       << "noc mesh " << n << " " << n << " 1\n"
       << "stu 8\nqueues 32\nseed 1\nwarmup 0\nduration 1000\n"
       << "traffic pairs";
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const int peer = c + 1 < n ? c + 1 : c - 1;
      spec << " " << r * n + c << " " << r * n + peer;
    }
  }
  spec << " inject periodic 200 qos gt 1\n";
  return spec.str();
}

struct BuildCost {
  double median_ms = 0;
  std::int64_t allocations = 0;  // per build; every build makes as many
};

/// Median host milliseconds of `reps` builds, each of a fresh runner, and
/// the heap allocations of one.
BuildCost MeasureBuild(const scenario::ScenarioSpec& spec, int reps) {
  std::vector<double> ms;
  BuildCost cost;
  for (int i = 0; i < reps; ++i) {
    scenario::ScenarioRunner runner(spec);
    const std::int64_t allocations = g_heap_allocations;
    const auto start = std::chrono::steady_clock::now();
    const Status status = runner.Build();
    const auto stop = std::chrono::steady_clock::now();
    cost.allocations = g_heap_allocations - allocations;
    AETHEREAL_CHECK_MSG(status.ok(), status.ToString());
    ms.push_back(std::chrono::duration<double, std::milli>(stop - start)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  cost.median_ms = ms[ms.size() / 2];
  return cost;
}

}  // namespace

int main() {
  struct Size {
    int n;
    int reps;
  };
  Table table({"mesh", "connections", "build ms (median)", "x previous",
               "allocations"});
  double previous_ms = 0;
  for (const Size size : {Size{8, 21}, Size{16, 11}, Size{32, 5}}) {
    auto spec = scenario::ParseScenario(GtPairsSpec(size.n));
    AETHEREAL_CHECK_MSG(spec.ok(), spec.status().ToString());
    const BuildCost cost = MeasureBuild(*spec, size.reps);
    const double ms = cost.median_ms;
    table.AddRow({std::to_string(size.n) + "x" + std::to_string(size.n),
                  Table::Fmt(static_cast<std::int64_t>(size.n) * size.n),
                  Table::Fmt(ms, 2),
                  previous_ms > 0 ? Table::Fmt(ms / previous_ms, 1) : "-",
                  Table::Fmt(cost.allocations)});
    previous_ms = ms;
  }
  std::cout << "ScenarioRunner::Build() on GT-pairs meshes\n\n";
  table.Print(std::cout);
  return 0;
}
