// Traffic-pattern generators: expand a TrafficSpec into the concrete
// point-to-point flows it implies on a given NI population.
//
// These are the classic synthetic suites NoC papers validate against
// (uniform random, transpose, bit-complement, bit-reversal, hotspot) plus
// the paper's own application shapes (video chains, shared-memory
// master/slave traffic). Expansion is deterministic: the only randomness
// is the seeded permutation of the uniform pattern. StreamInjection turns
// a directive's injection process into the one rule every stream source
// follows (ip/stream.h).
#ifndef AETHEREAL_SCENARIO_PATTERNS_H
#define AETHEREAL_SCENARIO_PATTERNS_H

#include <vector>

#include "ip/stream.h"
#include "scenario/spec.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/types.h"

namespace aethereal::scenario {

/// One directed flow implied by a traffic directive.
struct Flow {
  NiId src = kInvalidId;
  NiId dst = kInvalidId;

  friend bool operator==(const Flow&, const Flow&) = default;
};

/// Expands `traffic` on the NI population of `spec`. For kVideo the flows
/// are the consecutive hops of the chain, in chain order; for kMemory the
/// single master->slave flow. `rng` is consumed only by kUniform (the
/// seeded permutation), so directive order determines the draw sequence.
/// Fails when the pattern's structural requirements are not met (square
/// mesh for transpose, power-of-two NI count for the bit patterns, ids in
/// range, non-self-loop pairs).
Result<std::vector<Flow>> ExpandPattern(const ScenarioSpec& spec,
                                        const TrafficSpec& traffic, Rng& rng);

/// A seeded random permutation with no fixed points (every NI sends, no NI
/// sends to itself). Exposed for direct testing.
std::vector<NiId> UniformPartners(int num_nis, Rng& rng);

/// The injection process of a stream directive: `periodic N` is (N, 1),
/// `bursty W G` is (W+G, W) and `bernoulli P` is (1, 1) at rate P. The
/// phase offset is drawn from `rng` (geometric for Bernoulli, uniform over
/// the period otherwise) so flows of one pattern do not inject in
/// lockstep; the caller hands `rng` on to the source for its Bernoulli
/// gaps.
ip::Injection StreamInjection(const TrafficSpec& traffic, Rng& rng);

}  // namespace aethereal::scenario

#endif  // AETHEREAL_SCENARIO_PATTERNS_H
