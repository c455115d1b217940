// Seeded workload generator of the repository benchmark.
//
// Every workload is produced as .scn (and, for the sweep, .swp) text: the
// simulator under test only ever sees that text, through the same parsers
// the command-line tools use. The benchmark seed decides pair placement,
// phase contents and the spec-level `seed`; the same seed always yields
// the same text. See README.md for why each workload exists.
#ifndef NOC_BENCH_WORKLOADS_H
#define NOC_BENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/spec.h"
#include "util/status.h"

namespace noc_bench {

/// The benchmark's workloads, in report order.
const std::vector<std::string>& WorkloadNames();

/// Knobs of one generated instance. The defaults give the benchmark
/// workload itself; the traced pass varies them for its pairings.
struct GenOptions {
  explicit GenOptions(double scale = 1.0) : scale(scale) {}

  double scale;         // multiplies every measured-cycle count
  std::string engine;   // `engine` directive arguments; empty = default
  bool verify = true;   // mesh8_observed only: `verify on`
  bool sample = true;   // mesh8_observed only: `stats sample_every 300`
};

/// One generated workload. For the sweep workload `scn` is the sweep's
/// base scenario and `swp` the sweep over it.
struct Workload {
  std::string name;
  std::string scn;
  std::string swp;  // empty for scenario workloads

  bool IsSweep() const { return !swp.empty(); }
  /// File names under which the specs replay with noc_sim / noc_sweep
  /// (the .swp's `base` line names ScnFile()).
  std::string ScnFile() const;
  std::string SwpFile() const;
};

/// Generates workload `name` for `seed`. Placements whose GT slots cannot
/// be allocated are resampled (deterministically) until Build() succeeds,
/// so a returned workload always builds.
aethereal::Result<Workload> Generate(const std::string& name,
                                     std::uint64_t seed,
                                     const GenOptions& options = GenOptions());

/// Parses a generated sweep; its `base` resolves to the generated text.
aethereal::Result<aethereal::sweep::SweepSpec> ParseWorkloadSweep(
    const Workload& workload);

}  // namespace noc_bench

#endif  // NOC_BENCH_WORKLOADS_H
