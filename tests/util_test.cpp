// Unit tests for util: status, bits, rng, stats, table, and the spec
// front end (lexer, strict number parsing, and the tools' use of it).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli_common.h"
#include "util/bits.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace aethereal {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = ResourceExhaustedError("no free slots");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: no free slots");
}

TEST(Status, StreamInsertion) {
  std::ostringstream oss;
  oss << NotFoundError("ni 7");
  EXPECT_EQ(oss.str(), "NOT_FOUND: ni 7");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Bits, MaskAndExtract) {
  EXPECT_EQ(BitMask(0), 0u);
  EXPECT_EQ(BitMask(5), 0x1Fu);
  EXPECT_EQ(BitMask(32), 0xFFFFFFFFu);
  EXPECT_EQ(ExtractBits(0xABCD1234u, 8, 8), 0x12u);
}

TEST(Bits, DepositRoundTrips) {
  std::uint32_t w = 0;
  w = DepositBits(w, 4, 8, 0xAB);
  EXPECT_EQ(ExtractBits(w, 4, 8), 0xABu);
  // Depositing elsewhere leaves the field untouched.
  w = DepositBits(w, 16, 4, 0x5);
  EXPECT_EQ(ExtractBits(w, 4, 8), 0xABu);
  EXPECT_EQ(ExtractBits(w, 16, 4), 0x5u);
}

TEST(Bits, BitsFor) {
  EXPECT_EQ(BitsFor(2), 1);
  EXPECT_EQ(BitsFor(3), 2);
  EXPECT_EQ(BitsFor(256), 8);
}

TEST(Bits, RoundUp) {
  EXPECT_EQ(RoundUp(0, 3), 0);
  EXPECT_EQ(RoundUp(1, 3), 3);
  EXPECT_EQ(RoundUp(3, 3), 3);
  EXPECT_EQ(RoundUp(7, 3), 9);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  const GeometricGap gap(0.25);
  for (int i = 0; i < n; ++i) sum += static_cast<double>(gap.Draw(rng));
  // Mean of geometric (failures before success) = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricAtRateOneDrawsNothing) {
  Rng rng(17);
  Rng untouched(17);
  EXPECT_EQ(GeometricGap(1.0).Draw(rng), 0);
  EXPECT_EQ(rng.Next(), untouched.Next());  // the gap consumed no draw
}

TEST(Stats, Summary) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
}

TEST(Stats, SelectedTailPercentilesMatchTheSortedOnes) {
  // Small populations (the ranks coincide) and larger ones with many ties,
  // against the sorted nearest-rank formula.
  std::uint64_t x = 12345;
  for (std::size_t n : {1u, 2u, 3u, 7u, 100u, 101u, 1000u, 4099u}) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      samples.push_back(static_cast<double>((x >> 33) % 97));
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const TailPercentiles tail = SelectTailPercentiles(samples);
    EXPECT_EQ(tail.p50, SortedPercentile(sorted, 50)) << n;
    EXPECT_EQ(tail.p95, SortedPercentile(sorted, 95)) << n;
    EXPECT_EQ(tail.p99, SortedPercentile(sorted, 99)) << n;
    std::sort(samples.begin(), samples.end());
    EXPECT_EQ(samples, sorted) << n;  // reordered, same population
  }
}

TEST(Stats, TakeSamplesLeavesItEmpty) {
  Stats s;
  for (double v : {3.0, 1.0, 2.0}) s.Add(v);
  EXPECT_EQ(s.TakeSamples(), (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Sum(), 0.0);
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.Sum(), 5.0);
}

// The summary the result JSON's `histograms` section printed when it
// merged the flows' samples into one vector: one pass for the extremes,
// the sum and the power-of-two buckets, SelectTailPercentiles for the
// percentiles.
struct SampleSummary {
  double min = 0;
  double max = 0;
  double mean = 0;
  TailPercentiles tail;
  std::array<std::int64_t, CycleCounts::kBuckets> buckets{};
};

SampleSummary SummarizeSamples(std::vector<double> samples) {
  SampleSummary s;
  s.min = samples.front();
  s.max = samples.front();
  double sum = 0;
  for (double v : samples) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
    const int k =
        v < 1.0 ? -1 : std::bit_width(static_cast<std::uint64_t>(v)) - 1;
    ++s.buckets[static_cast<std::size_t>(k + 1)];
  }
  s.mean = sum / static_cast<double>(samples.size());
  s.tail = SelectTailPercentiles(samples);
  return s;
}

// Seeded random integer populations: empty and single-sample ones, heavy
// ties, zeros and negative values (the sub-cycle bucket; a corrupted
// stamp makes a latency negative), values either side of the dense limit
// and above 2^20. Counted whole, or in slices merged together, the counts
// give exactly the samples' summary.
TEST(CycleCounts, MatchesTheSampleSummaryOnRandomPopulations) {
  Rng rng(20260);
  const std::vector<std::int64_t> spans = {1, 2, 97, 1023, 1025, 5000,
                                           (std::int64_t{1} << 20) + 7,
                                           std::int64_t{1} << 40};
  int populations = 0;
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 100u, 101u, 1000u, 4099u}) {
    for (std::int64_t span : spans) {
      SCOPED_TRACE("n=" + std::to_string(n) + " span=" + std::to_string(span));
      std::vector<double> samples;
      for (std::size_t i = 0; i < n; ++i) {
        // Half the samples at 0, negated or at a large offset, so small
        // spans still mix the dense and the sparse counts.
        std::int64_t v = static_cast<std::int64_t>(
            rng.NextBelow(static_cast<std::uint64_t>(span)));
        switch (rng.NextBelow(6)) {
          case 0: v = 0; break;
          case 1: v += std::int64_t{1} << 21; break;
          case 2: v = -v; break;
          default: break;
        }
        samples.push_back(static_cast<double>(v));
      }
      CycleCounts whole;
      whole.AddSamples(samples);
      CycleCounts merged;
      const std::size_t cut = n / 3;
      CycleCounts head;
      head.AddSamples(std::vector<double>(samples.begin(),
                                          samples.begin() +
                                              static_cast<std::ptrdiff_t>(cut)));
      CycleCounts tail;
      tail.AddSamples(samples, cut);
      merged.Merge(head);
      merged.Merge(tail);
      for (const CycleCounts* counts : {&whole, &merged}) {
        ASSERT_EQ(counts->count(), static_cast<std::int64_t>(n));
        ASSERT_EQ(counts->empty(), n == 0);
        if (n == 0) {
          EXPECT_EQ(counts->Buckets(),
                    (std::array<std::int64_t, CycleCounts::kBuckets>{}));
          continue;
        }
        const SampleSummary want = SummarizeSamples(samples);
        EXPECT_EQ(counts->Min(), want.min);
        EXPECT_EQ(counts->Max(), want.max);
        EXPECT_EQ(counts->Mean(), want.mean);
        const TailPercentiles got = counts->Tail();
        EXPECT_EQ(got.p50, want.tail.p50);
        EXPECT_EQ(got.p95, want.tail.p95);
        EXPECT_EQ(got.p99, want.tail.p99);
        EXPECT_EQ(counts->Buckets(), want.buckets);
      }
      ++populations;
    }
  }
  EXPECT_EQ(populations, 72);
}

TEST(CycleCounts, SingleValuesAndTies) {
  CycleCounts counts;
  counts.Add(0);
  EXPECT_EQ(counts.Min(), 0.0);
  EXPECT_EQ(counts.Max(), 0.0);
  EXPECT_EQ(counts.Tail().p99, 0.0);
  EXPECT_EQ(counts.Buckets()[0], 1);  // the sub-cycle bucket
  for (int i = 0; i < 99; ++i) counts.Add(4);
  EXPECT_EQ(counts.count(), 100);
  EXPECT_EQ(counts.Sum(), 396.0);
  EXPECT_EQ(counts.Tail().p50, 4.0);
  EXPECT_EQ(counts.Buckets()[3], 99);  // [4, 8)
  counts.Add(-7);
  EXPECT_EQ(counts.Min(), -7.0);
  EXPECT_EQ(counts.Tail().p50, 4.0);
  EXPECT_EQ(counts.Buckets()[0], 2);
}

TEST(CycleCountsDeathTest, RejectsSamplesThatAreNotWholeCycles) {
  CycleCounts counts;
  EXPECT_DEATH(counts.AddSamples({2.5}), "whole cycle");
  EXPECT_DEATH(counts.AddSamples({-0.5}), "whole cycle");
  EXPECT_DEATH(counts.AddSamples({std::numeric_limits<double>::quiet_NaN()}),
               "whole cycle");
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.5"});
  std::ostringstream oss;
  t.Print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Fmt(static_cast<std::int64_t>(42)), "42");
}

TEST(Parse, LexerNumbersLinesAndDropsComments) {
  const auto lines = TokenizeSpec("# header\n\nnoc star 4  # four\n  x\ty\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].number, 3);
  EXPECT_EQ(lines[0].tokens, (std::vector<std::string>{"noc", "star", "4"}));
  EXPECT_EQ(lines[1].number, 4);
  EXPECT_EQ(lines[1].tokens, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(lines[1].Error("bad").message(), "line 4: bad");
  EXPECT_EQ(lines[1].Int("7x").status().message(),
            "line 4: expected a number, got '7x'");
}

TEST(Parse, StrictWholeTokenNumbers) {
  EXPECT_EQ(*ParseInt64("-12"), -12);
  EXPECT_FALSE(ParseInt64("12abc").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());
  EXPECT_EQ(ParseInt64In("5", 1, 4).status().message(),
            "'5' out of range [1, 4]");
  EXPECT_EQ(*ParseDouble("0.25"), 0.25);
  EXPECT_FALSE(ParseDouble("0.25x").ok());
  for (const char* token : {"nan", "-nan", "NAN", "inf", "-inf", "infinity",
                            "1e999"}) {
    EXPECT_FALSE(ParseDouble(token).ok()) << token;
  }
}

/// Feeds one option and its value through the tools' shared flag parser.
cli::Match MatchOne(const char* flag, const char* value,
                    cli::CommonOptions* options) {
  char prog[] = "tool";
  std::string f = flag;
  std::string v = value;
  char* argv[] = {prog, f.data(), v.data()};
  cli::ArgReader args("tool", 3, argv);
  EXPECT_TRUE(args.Next());
  return cli::MatchCommonArg(args, options);
}

TEST(Parse, CliFlagsRejectNonFiniteAndOutOfRangeValues) {
  // Regression: `--converge nan` used to be accepted.
  cli::CommonOptions options;
  testing::internal::CaptureStderr();
  EXPECT_EQ(MatchOne("--converge", "nan", &options), cli::Match::kError);
  EXPECT_EQ(MatchOne("--converge", "inf", &options), cli::Match::kError);
  EXPECT_EQ(MatchOne("--seed", "-1", &options), cli::Match::kError);
  EXPECT_EQ(MatchOne("--converge-batches", "1", &options),
            cli::Match::kError);
  testing::internal::GetCapturedStderr();
  EXPECT_FALSE(options.converge_rel_err.has_value());
  EXPECT_EQ(MatchOne("--converge", "0.05", &options), cli::Match::kYes);
  EXPECT_EQ(options.converge_rel_err, 0.05);
  EXPECT_EQ(MatchOne("--seed", "42", &options), cli::Match::kYes);
  EXPECT_EQ(options.seed, 42u);
}

// --seed takes the whole uint64 range, so every fuzz case's seed replays
// from the command line; negative and overflowing values still fail.
TEST(Parse, CliSeedSpansTheWholeUint64Range) {
  cli::CommonOptions options;
  EXPECT_EQ(MatchOne("--seed", "17181368232381819650", &options),
            cli::Match::kYes);
  EXPECT_EQ(options.seed, 17181368232381819650u);
  EXPECT_EQ(MatchOne("--seed", "18446744073709551615", &options),
            cli::Match::kYes);
  EXPECT_EQ(options.seed, std::numeric_limits<std::uint64_t>::max());
  testing::internal::CaptureStderr();
  EXPECT_EQ(MatchOne("--seed", "18446744073709551616", &options),
            cli::Match::kError);
  EXPECT_EQ(MatchOne("--seed", "-18446744073709551615", &options),
            cli::Match::kError);
  EXPECT_EQ(MatchOne("--seed", "-1", &options), cli::Match::kError);
  EXPECT_EQ(MatchOne("--seed", "12x", &options), cli::Match::kError);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--seed needs a non-negative integer, got "
                     "'18446744073709551616'"),
            std::string::npos)
      << err;
  EXPECT_EQ(options.seed, std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, Uint64IsStrict) {
  EXPECT_EQ(*ParseUint64("0"), 0u);
  EXPECT_EQ(*ParseUint64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-", "+", "-1", "-0", "+5",
                          "18446744073709551616", "1 ", " 1", "0x10", "1.0"}) {
    EXPECT_FALSE(ParseUint64(bad).ok()) << "'" << bad << "'";
  }
  EXPECT_NE(ParseUint64("12x").status().message().find("expected a number"),
            std::string::npos);
}

}  // namespace
}  // namespace aethereal
