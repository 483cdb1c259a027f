// Self-tests for the differential fuzzing subsystem: reproducibility
// (same seed => byte-identical trace), the mutation/linter contract, the
// shrinker, the corpus round-trip, and the flagship property — an
// intentionally planted detector bug is caught by the panel and shrunk to a
// tiny reproducer.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/replay.hpp"
#include "core/shadow_ops.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/fuzz_driver.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/trace_gen.hpp"
#include "runtime/trace_io.hpp"
#include "support/rng.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {
namespace {

TEST(FuzzPlanTest, FromSeedIsPure) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    EXPECT_EQ(to_string(FuzzPlan::from_seed(seed)),
              to_string(FuzzPlan::from_seed(seed)));
  }
  // Different seeds overwhelmingly give different plans.
  EXPECT_NE(to_string(FuzzPlan::from_seed(1)),
            to_string(FuzzPlan::from_seed(2)));
}

TEST(FuzzGenTest, SameSeedRegeneratesIdenticalTraceByteForByte) {
  std::set<TraceShape> shapes_seen;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const FuzzPlan plan = FuzzPlan::from_seed(seed * 0x9E3779B97F4A7C15ULL);
    shapes_seen.insert(plan.shape);
    const std::string a = trace_to_text(generate_trace(plan).trace);
    const std::string b = trace_to_text(generate_trace(plan).trace);
    EXPECT_EQ(a, b) << "seed " << seed << " shape " << to_string(plan.shape);
  }
  // 48 seeds must exercise every generator, futures and pipelines included
  // (they are the shapes with process-global temptations).
  EXPECT_EQ(shapes_seen.size(), kTraceShapeCount);
}

TEST(FuzzGenTest, GeneratedTracesLintClean) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const FuzzPlan plan = FuzzPlan::from_seed(seed);
    const LintResult lint = lint_trace(generate_trace(plan).trace);
    EXPECT_TRUE(lint.ok()) << "seed " << seed << " shape "
                           << to_string(plan.shape) << "\n"
                           << to_string(lint);
  }
}

TEST(FuzzMutateTest, MutantsHonorTheLintContract) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const FuzzPlan plan = FuzzPlan::from_seed(seed * 7919);
    const GeneratedTrace generated = generate_trace(plan);
    Xoshiro256 rng(seed);
    for (std::size_t k = 0; k < kMutationKindCount; ++k) {
      const Mutation mutant =
          mutate_trace(generated.trace, static_cast<MutationKind>(k), rng);
      if (!mutant.applied) continue;
      const LintResult lint = lint_trace(mutant.trace);
      EXPECT_EQ(lint.ok(), mutant.expect_lint_clean)
          << to_string(mutant.kind) << " at " << mutant.index << ", seed "
          << seed << "\n"
          << to_string(lint);
    }
  }
}

TEST(FuzzDifferentialTest, CleanCampaignOnMain) {
  FuzzConfig config;
  config.seed = 3;
  config.runs = 60;
  config.mutants_per_trace = 2;
  config.shrink = false;
  const FuzzCampaignResult result = run_fuzz_campaign(config);
  EXPECT_EQ(result.runs, 60u);
  EXPECT_TRUE(result.ok()) << (result.failures.empty()
                                   ? ""
                                   : result.failures.front().message);
  EXPECT_GT(result.detector_runs, result.traces);  // the panel really ran
}

struct InjectGuard {
  InjectGuard() { detail::g_inject_skip_write_sup_update = true; }
  ~InjectGuard() { detail::g_inject_skip_write_sup_update = false; }
};

TEST(FuzzDifferentialTest, InjectedDetectorBugIsCaughtAndShrunkSmall) {
  const InjectGuard guard;
  FuzzConfig config;
  config.seed = 7;
  config.runs = 50;
  config.mutants_per_trace = 2;
  config.shrink = true;
  const FuzzCampaignResult result = run_fuzz_campaign(config);
  ASSERT_FALSE(result.ok())
      << "a skipped sup() update escaped the differential panel";

  std::size_t smallest = static_cast<std::size_t>(-1);
  for (const FuzzFailure& failure : result.failures) {
    smallest = std::min(smallest, failure.reproducer.size());
    // Shrunk reproducers stay valid, replayable traces.
    EXPECT_TRUE(lint_trace(failure.reproducer).ok());
  }
  EXPECT_LE(smallest, 20u) << "ddmin left the reproducer large";
}

TEST(FuzzShrinkTest, NormalizeIsIdentityOnGeneratedTraces) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Trace trace = generate_trace(FuzzPlan::from_seed(seed * 31)).trace;
    EXPECT_EQ(trace_to_text(normalize_trace(trace)), trace_to_text(trace))
        << "seed " << seed;
  }
}

TEST(FuzzShrinkTest, NormalizeRepairsArbitraryCuts) {
  Xoshiro256 rng(99);
  const Trace base = generate_trace(FuzzPlan::from_seed(4242)).trace;
  for (int round = 0; round < 50; ++round) {
    Trace cut = base;
    // Remove a random range: almost surely discipline-breaking.
    const std::size_t from = rng.below(cut.size());
    const std::size_t count = 1 + rng.below(cut.size() - from);
    cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(from),
              cut.begin() + static_cast<std::ptrdiff_t>(from + count));
    EXPECT_TRUE(lint_trace(normalize_trace(cut)).ok()) << "round " << round;
  }
}

TEST(FuzzShrinkTest, ShrinksARaceToAHandfulOfEvents) {
  // A racy trace with lots of irrelevant structure around the racing pair.
  const Trace big = generate_trace(FuzzPlan::from_seed(0xACE5EEDULL)).trace;
  const FailurePredicate has_race = [](const Trace& t) {
    return !detect_races_trace(t, ReportPolicy::kFirstOnly, LintGate::kSkip)
                .empty();
  };
  if (!has_race(big)) GTEST_SKIP() << "seed produced a race-free trace";
  ShrinkOptions options;
  options.max_candidates = 10000;  // the seed trace has ~1k events
  ShrinkStats stats;
  const Trace small = shrink_trace(big, has_race, options, &stats);
  EXPECT_TRUE(has_race(small));
  EXPECT_TRUE(lint_trace(small).ok());
  EXPECT_LE(small.size(), 12u) << "from " << big.size() << " events";
  EXPECT_GT(stats.candidates, 0u);
}

TEST(FuzzShrinkTest, NonReproducingFailureIsLeftAlone) {
  const Trace trace = generate_trace(FuzzPlan::from_seed(17)).trace;
  const Trace out = shrink_trace(trace, [](const Trace&) { return false; });
  EXPECT_EQ(trace_to_text(out), trace_to_text(trace));
}

TEST(FuzzCorpusTest, WriteReplayRoundTrip) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "r2d_corpus_rt").string();
  std::filesystem::remove_all(dir);

  const FuzzPlan plan = FuzzPlan::from_seed(1234);
  const GeneratedTrace generated = generate_trace(plan);
  const std::string path = write_corpus_entry(dir, "roundtrip",
                                              generated.trace,
                                              generated.features, "a note");
  EXPECT_TRUE(std::filesystem::exists(path));

  const CorpusReport report = run_corpus(dir);
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_TRUE(report.ok()) << report.files.front().detail;
  EXPECT_EQ(report.files.front().events, generated.trace.size());
  std::filesystem::remove_all(dir);
}

TEST(FuzzCorpusTest, FeatureDirectiveRoundTrips) {
  TraceFeatures features;
  features.async_finish = true;
  features.has_retire = true;
  const std::string line = corpus_features_line(features);
  const TraceFeatures parsed = parse_corpus_features(line + "\nhalt 0\n");
  EXPECT_FALSE(parsed.spawn_sync);
  EXPECT_TRUE(parsed.async_finish);
  EXPECT_TRUE(parsed.has_retire);
  EXPECT_FALSE(parsed.has_futures);
}

TEST(FuzzDriverTest, ExactPlanSeedReplaysOneRun) {
  FuzzConfig config;
  config.seed = 0xBEEFULL;
  config.exact_plan_seed = true;
  config.runs = 1;
  config.mutants_per_trace = 0;
  config.shrink = false;
  const FuzzCampaignResult result = run_fuzz_campaign(config);
  EXPECT_EQ(result.runs, 1u);
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace race2d
