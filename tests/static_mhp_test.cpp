// The static MHP engine and race pass, cross-checked two ways:
//
// * against an INDEPENDENT oracle — per-query BFS reachability over each
//   concretization's task graph (graph/reachability's `reachable`), not the
//   engine's own transitive-closure bits — on the paper's figure examples;
// * against the dynamic detector panel on fuzzer-generated skeletons: for
//   every explored concretization the static verdict (race / race-free)
//   must match what OnlineRaceDetector reports on the full lowering, and
//   each static finding's witness must replay and certify (the ISSUE 4
//   acceptance bar: >= 500 skeletons, 0 mismatches).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "graph/reachability.hpp"
#include "static/mhp.hpp"
#include "static/race_scan.hpp"
#include "static/skeleton.hpp"
#include "static/skeleton_fuzz.hpp"
#include "verify/certificate.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {
namespace {

using namespace race2d::skel;

// Figure 1: series-parallel spawn/sync. The two writes to x race; the
// write after the sync is ordered with everything.
Skeleton figure1() {
  return Skeleton{seq({
      spawn({write(0x1, 0x1)}),  // nodes 1 (spawn), 2 (write x)
      write(0x1, 0x1),           // node 3: races with node 2
      skel::sync(),              // node 4
      write(0x1, 0x1),           // node 5: ordered after both
  })};
}

// Figure 2: the future hand-off where the consumer reads too early.
Skeleton figure2() {
  return Skeleton{seq({
      future(0x20, 0x23, {}),  // node 1: producer's fulfilling write
      read(0x20, 0x23),        // node 2: BEFORE the get — races
      get(0x20, 0x23),         // node 3: joins, then reads — ordered
  })};
}

// Figure 9 raw line discipline: fork-left / join-left with a sibling join
// (the shape that is structured yet not series-parallel).
Skeleton figure9() {
  return Skeleton{seq({
      fork({read(0x10, 0x17)}),         // 1 fork, 2 read (task A)
      read(0x10, 0x10),                 // 3 (root)
      fork({join_left()}),              // 4 fork, 5 join (task C joins A)
      loop(1, 2, {write(0x10, 0x17)}),  // 6 loop, 7 write (root)
      join_left(),                      // 8 (root joins C)
  })};
}

// Options for a future-bearing skeleton: strict mode rejects those with
// S018, so the figure-2 family analyzes under relaxed-futures.
StaticMhpOptions relaxed_mhp() {
  StaticMhpOptions o;
  o.mode = DisciplineMode::kRelaxedFutures;
  return o;
}

StaticRaceOptions relaxed_races() {
  StaticRaceOptions o;
  o.mode = DisciplineMode::kRelaxedFutures;
  return o;
}

// Exhaustive per-model check: the engine's closure-backed MHP must equal
// per-query BFS reachability on the same task graph, for every region pair.
// The graph is the AUGMENTED one (future→get arcs included), so BFS sees
// the same happens-before the closure answered from.
void expect_mhp_matches_bfs(const Skeleton& s,
                            const StaticMhpOptions& options = {}) {
  StaticMhpEngine engine(s, options);
  ASSERT_FALSE(engine.models().empty());
  for (const auto& model : engine.models()) {
    const Digraph& g = model->graph.diagram.graph();
    const std::size_t n = model->lowered.regions.size();
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        const VertexId va = model->region_vertex[a];
        const VertexId vb = model->region_vertex[b];
        const bool bfs_concurrent =
            !reachable(g, va, vb) && !reachable(g, vb, va);
        EXPECT_EQ(model->mhp(a, b), bfs_concurrent)
            << "regions " << a << "," << b << " under "
            << to_string(s, model->config);
      }
    }
  }
}

TEST(StaticMhp, MatchesBfsReachabilityOnFigure1) {
  expect_mhp_matches_bfs(figure1());
}

TEST(StaticMhp, MatchesBfsReachabilityOnFigure2) {
  expect_mhp_matches_bfs(figure2(), relaxed_mhp());
}

TEST(StaticMhp, StrictEngineRejectsFuturesWithS018) {
  try {
    StaticMhpEngine engine(figure2());  // default strict
    FAIL() << "expected TraceLintError";
  } catch (const TraceLintError& e) {
    ASSERT_FALSE(e.result().ok());
    EXPECT_EQ(e.result().first_error().code,
              LintCode::kSkelFuturesNeedRelaxed);
  }
}

TEST(StaticMhp, FutureGetArcOrdersFigure2Consumer) {
  // Figure 2 under relaxed futures: the early read (node 2) runs BEFORE
  // the get, so it is concurrent with the producer's fulfilling write; the
  // get itself consumes the hand-off, so accesses AFTER the get are
  // ordered with the producer — that ordering exists ONLY through the
  // grafted future→get arc (the trace's fork-join order alone leaves the
  // producer's halt unobserved until the body-end reclamation).
  const Skeleton s{seq({
      future(0x20, 0x23, {}),  // node 1: producer's fulfilling write
      read(0x20, 0x23),        // node 2: races with the write
      get(0x20, 0x23),         // node 3: the hand-off edge lands here
      write(0x20, 0x23),       // node 4: ordered AFTER the producer
  })};
  StaticMhpEngine engine(s, relaxed_mhp());
  EXPECT_TRUE(engine.may_happen_in_parallel(1, 2));   // write || early read
  EXPECT_FALSE(engine.may_happen_in_parallel(1, 4));  // arc orders the tail
  EXPECT_FALSE(engine.may_happen_in_parallel(1, 3));  // get is the join
}

TEST(StaticMhp, CrossTaskHandOffIsNonSeriesParallel) {
  // `future P; fork { get P; write }` — the consumer is a SIBLING task, so
  // the producer→consumer edge crosses the fork-join tree: a genuinely
  // non-SP diagram. The consumer's post-get write is ordered with the
  // producer's fulfilling write (via the arc), yet both are concurrent
  // with the root's own read between fork and join.
  const Skeleton s{seq({
      future(0x20, 0x23, {write(0x40, 0x40)}),  // 1 future, 2 body write
      fork({
          get(0x20, 0x23),    // 4: consumer's get
          write(0x20, 0x23),  // 5: ordered after the producer
      }),                     // 3 fork
      read(0x30, 0x30),       // 6: root, concurrent with everything forked
      join_left(),            // 7: joins the consumer
  })};
  StaticMhpEngine engine(s, relaxed_mhp());
  // The hand-off arc orders producer before the consumer's tail...
  EXPECT_FALSE(engine.may_happen_in_parallel(1, 5));
  EXPECT_FALSE(engine.may_happen_in_parallel(2, 5));
  // ...while both stay concurrent with the root's unrelated read.
  EXPECT_TRUE(engine.may_happen_in_parallel(2, 6));
  EXPECT_TRUE(engine.may_happen_in_parallel(5, 6));
  // And the static race pass agrees with the dynamic panel on the family.
  const AgreementResult agree = check_static_dynamic_agreement(
      s, relaxed_races(), /*differential=*/true);
  EXPECT_TRUE(agree.ok) << agree.failure;
}

TEST(StaticMhp, MatchesBfsReachabilityOnFigure9) {
  expect_mhp_matches_bfs(figure9());
}

TEST(StaticMhp, NodeLevelVerdictsOnFigure9) {
  const Skeleton s = figure9();
  StaticMhpEngine engine(s);

  // Task A's read is concurrent with the root's loop write (C joined A in
  // A's stead) and with the root's read between the forks.
  EXPECT_TRUE(engine.may_happen_in_parallel(2, 7));
  EXPECT_TRUE(engine.may_happen_in_parallel(2, 3));
  // Root-task accesses are serially ordered with each other.
  EXPECT_FALSE(engine.may_happen_in_parallel(3, 7));
  // A loop in the root task never self-overlaps.
  EXPECT_FALSE(engine.may_happen_in_parallel(7, 7));

  // The positive verdict names a concrete witnessing concretization.
  const MhpVerdict v = engine.may_happen_in_parallel(2, 7);
  ASSERT_TRUE(v.may);
  ASSERT_LT(v.config_index, engine.models().size());
  const ConfigModel& m = *engine.models()[v.config_index];
  EXPECT_TRUE(m.mhp(v.ordinal_a, v.ordinal_b));
  EXPECT_EQ(m.lowered.regions[v.ordinal_a].node, 2u);
  EXPECT_EQ(m.lowered.regions[v.ordinal_b].node, 7u);
}

TEST(StaticMhp, SyncOrdersFigure1Tail) {
  const Skeleton s = figure1();
  StaticMhpEngine engine(s);
  EXPECT_TRUE(engine.may_happen_in_parallel(2, 3));   // spawned vs parent
  EXPECT_FALSE(engine.may_happen_in_parallel(2, 5));  // sync orders the tail
  EXPECT_FALSE(engine.may_happen_in_parallel(3, 5));
}

TEST(StaticRaces, EveryFindingCarriesAConfirmedWitness) {
  for (const Skeleton& s : {figure1(), figure2(), figure9()}) {
    const StaticRaceOptions opts =
        skeleton_traits(s).has_futures ? relaxed_races() : StaticRaceOptions{};
    const StaticRaceResult res = analyze_skeleton(s, opts);
    EXPECT_TRUE(res.discipline.clean);
    ASSERT_TRUE(res.any_race());
    for (const StaticRaceFinding& f : res.findings) {
      EXPECT_TRUE(f.confirmed) << to_string(f) << ": " << f.confirm_detail;
      ASSERT_FALSE(f.witness.empty());
      EXPECT_TRUE(lint_trace(f.witness).ok());

      // Re-derive the confirmation independently of the pass's own check:
      // the detector must report the witness pair at the sampled location,
      // and the certificate must survive the checker.
      const std::vector<RaceReport> reports = detect_races_trace(f.witness);
      bool reported = false;
      for (const RaceReport& r : reports)
        reported |= r.loc == f.witness_loc;
      EXPECT_TRUE(reported) << to_string(f);
      const auto certs = certify_races(f.witness, reports);
      ASSERT_FALSE(certs.empty()) << to_string(f);
      EXPECT_TRUE(certs.front().certified) << to_string(f);
      EXPECT_TRUE(
          check_certificate(f.witness, certs.front().certificate).ok)
          << to_string(f);
      EXPECT_TRUE(f.overlap.contains(f.witness_loc));
    }
  }
}

TEST(StaticRaces, RaceFreeSkeletonProducesNoFindings) {
  // Disjoint intervals: concurrent but never conflicting.
  const Skeleton s{seq({
      fork({write(0x10, 0x17)}),
      write(0x20, 0x27),
      join_left(),
  })};
  const StaticRaceResult res = analyze_skeleton(s);
  EXPECT_TRUE(res.discipline.clean);
  EXPECT_FALSE(res.any_race());

  // Same location but read/read: no conflict either.
  const Skeleton rr{seq({
      fork({read(0x10, 0x17)}),
      read(0x10, 0x17),
      join_left(),
  })};
  EXPECT_FALSE(analyze_skeleton(rr).any_race());
}

TEST(StaticRaces, FuzzAgreementWithDynamicPanel500Skeletons) {
  // The acceptance bar: >= 500 generator skeletons, every explored
  // concretization's static verdict equal to the dynamic detector's, with
  // the full differential panel run on each concrete trace. 0 mismatches.
  std::size_t skeletons = 0;
  std::size_t configs = 0;
  std::size_t racy = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const SkelFuzzPlan plan = SkelFuzzPlan::from_seed(seed);
    const Skeleton s = generate_skeleton(plan);
    const AgreementResult agree =
        check_static_dynamic_agreement(s, {}, /*differential=*/true);
    ASSERT_TRUE(agree.ok) << "seed " << seed << " (" << to_string(plan)
                          << "): " << agree.failure;
    ++skeletons;
    configs += agree.configs_checked;
    racy += agree.racy_configs;
  }
  EXPECT_EQ(skeletons, 500u);
  // The sweep must exercise both polarities to mean anything.
  EXPECT_GE(racy, 20u);
  EXPECT_GE(configs - racy, 20u);
  EXPECT_GE(configs, 500u);
}

TEST(StaticRaces, ViolatingSkeletonsYieldNoFindingsButDiagnostics) {
  // A skeleton whose every concretization violates the discipline has no
  // task graphs to scan: the pass must say so through the discipline
  // report instead of silently returning "race-free".
  const Skeleton s{seq({join_left(), write(1, 1)})};
  const StaticRaceResult res = analyze_skeleton(s);
  EXPECT_FALSE(res.discipline.clean);
  EXPECT_FALSE(res.any_race());
  ASSERT_FALSE(res.discipline.lint.ok());
  EXPECT_EQ(res.discipline.lint.first_error().code,
            LintCode::kSkelJoinUnderflow);
}

}  // namespace
}  // namespace race2d
