// SP-bags (the prior-art Θ(1) detector for series-parallel programs) driven
// from spawn/sync traces, compared against the 2D suprema detector — on SP
// programs both must agree, since 2D lattices generalize SP graphs.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/naive.hpp"
#include "baselines/spbags.hpp"
#include "core/detector.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/spawn_sync.hpp"
#include "runtime/trace.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"

namespace race2d {
namespace {

template <typename Detector>
void drive(Detector& det, const Trace& trace) {
  det.on_root();
  for (const TraceEvent& e : trace) ASSERT_TRUE(apply_event(det, e));
}

Trace run_trace(TaskBody body) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(std::move(body));
  return rec.take();
}

TEST(SpBags, SpawnedWriteConcurrentWithParentWriteRaces) {
  const Trace t = run_trace([](TaskContext& ctx) {
    SpawnScope scope(ctx);
    scope.spawn([](TaskContext& c) { c.write(3); });
    ctx.write(3);  // before sync: concurrent with the child
    scope.sync();
  });
  SPBagsDetector det;
  drive(det, t);
  EXPECT_TRUE(det.race_found());
}

TEST(SpBags, SyncOrdersWrites) {
  const Trace t = run_trace([](TaskContext& ctx) {
    SpawnScope scope(ctx);
    scope.spawn([](TaskContext& c) { c.write(3); });
    scope.sync();
    ctx.write(3);  // after sync: ordered
  });
  SPBagsDetector det;
  drive(det, t);
  EXPECT_FALSE(det.race_found());
}

TEST(SpBags, ReadReadIsNotARace) {
  const Trace t = run_trace([](TaskContext& ctx) {
    SpawnScope scope(ctx);
    scope.spawn([](TaskContext& c) { c.read(3); });
    ctx.read(3);
    scope.sync();
  });
  SPBagsDetector det;
  drive(det, t);
  EXPECT_FALSE(det.race_found());
}

TEST(SpBags, SiblingWritesBetweenSyncsRace) {
  const Trace t = run_trace([](TaskContext& ctx) {
    SpawnScope scope(ctx);
    scope.spawn([](TaskContext& c) { c.write(9); });
    scope.spawn([](TaskContext& c) { c.write(9); });
    scope.sync();
  });
  SPBagsDetector det;
  drive(det, t);
  EXPECT_TRUE(det.race_found());
}

TEST(SpBags, FibRacyVariantDetected) {
  FibWorkload racy(8, /*inject_race=*/true);
  const Trace t = run_trace(racy.task());
  SPBagsDetector det;
  drive(det, t);
  EXPECT_TRUE(det.race_found());
}

TEST(SpBags, FibCleanVariantRaceFree) {
  FibWorkload clean(10);
  const Trace t = run_trace(clean.task());
  SPBagsDetector det;
  drive(det, t);
  EXPECT_FALSE(det.race_found());
  EXPECT_EQ(clean.result(), FibWorkload::expected(10));
}

// Random spawn-sync programs: recursive SpawnScope users with accesses to a
// small location pool.
TaskBody random_sp_program(std::uint64_t seed) {
  struct State {
    Xoshiro256 rng;
    std::size_t tasks = 1;
  };
  auto st = std::make_shared<State>();
  st->rng.reseed(seed);

  struct Maker {
    static TaskBody make(std::shared_ptr<State> st, int depth) {
      return [st, depth](TaskContext& ctx) {
        SpawnScope scope(ctx);
        const std::size_t actions = 2 + st->rng.below(10);
        for (std::size_t i = 0; i < actions; ++i) {
          const double u = st->rng.uniform01();
          if (u < 0.30 && depth < 5 && st->tasks < 40) {
            ++st->tasks;
            scope.spawn(make(st, depth + 1));
          } else if (u < 0.45) {
            scope.sync();
          } else if (u < 0.70) {
            ctx.read(st->rng.below(6));
          } else {
            ctx.write(st->rng.below(6));
          }
        }
      };  // implicit sync in ~SpawnScope
    }
  };
  return Maker::make(st, 0);
}

class SpBagsVsSuprema : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpBagsVsSuprema, SameVerdictAndFirstRaceOnSpPrograms) {
  const Trace trace = run_trace(random_sp_program(GetParam() * 2246822519u));
  SPBagsDetector spbags;
  OnlineRaceDetector suprema;
  drive(spbags, trace);
  drive(suprema, trace);
  const NaiveResult gold = detect_races_naive(build_task_graph(trace));

  EXPECT_EQ(spbags.race_found(), !gold.races.empty()) << GetParam();
  EXPECT_EQ(suprema.race_found(), !gold.races.empty()) << GetParam();
  if (!gold.races.empty()) {
    EXPECT_EQ(spbags.reporter().first().access_index,
              gold.races[0].access_index)
        << GetParam();
    EXPECT_EQ(suprema.reporter().first().access_index,
              gold.races[0].access_index)
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpBagsVsSuprema,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace race2d
