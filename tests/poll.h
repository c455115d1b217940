// Bounded polling for tests that wait on the simulated model.
//
// A model defect that stops progress (a lost credit, a module that parks
// and is never woken) would make an unbounded `while (!ready) Run(n)` loop
// spin until ctest's timeout. PollUntil gives the wait a stated cycle
// limit, so the test fails at the call site instead of hanging:
//
//   ASSERT_TRUE(PollUntil([&] { return port->CanWrite(0); },
//                         [&](Cycle n) { f.Run(n); }, 3));
#ifndef AETHEREAL_TESTS_POLL_H
#define AETHEREAL_TESTS_POLL_H

#include <gtest/gtest.h>

#include "util/types.h"

namespace aethereal {

/// Cycle limit of one PollUntil wait: far above any wait the tests expect
/// (a credit round trip is tens of cycles).
inline constexpr Cycle kPollLimitCycles = 10000;

/// Calls `run(step)` until `ready()` holds. Fails once `limit` cycles have
/// run without it.
template <typename Ready, typename Run>
::testing::AssertionResult PollUntil(Ready ready, Run run, Cycle step,
                                     Cycle limit = kPollLimitCycles) {
  for (Cycle spent = 0; !ready(); spent += step) {
    if (spent >= limit) {
      return ::testing::AssertionFailure()
             << "still waiting after " << limit << " cycles";
    }
    run(step);
  }
  return ::testing::AssertionSuccess();
}

}  // namespace aethereal

#endif  // AETHEREAL_TESTS_POLL_H
