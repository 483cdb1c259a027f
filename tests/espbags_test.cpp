// ESP-bags for async-finish parallelism, including ESCAPING asyncs — the
// case that distinguishes it from SP-bags — compared against the suprema
// detector and the naive gold reference on identical traces.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "baselines/espbags.hpp"
#include "baselines/naive.hpp"
#include "core/detector.hpp"
#include "runtime/async_finish.hpp"
#include "runtime/parallel_executor.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "support/rng.hpp"

namespace race2d {
namespace {

void drive_espbags(ESPBagsDetector& det, const Trace& trace) {
  det.on_root();
  for (const TraceEvent& e : trace) ASSERT_TRUE(apply_event(det, e));
}

// Unlike apply_event, skips retires: ESP-bags has no retire hook, so the
// suprema detector is held to the same access stream.
void drive_suprema(OnlineRaceDetector& det, const Trace& trace) {
  det.on_root();
  for (const TraceEvent& e : trace) {
    switch (e.op) {
      case TraceOp::kFork:
        det.on_fork(e.actor);
        break;
      case TraceOp::kJoin:
        det.on_join(e.actor, e.other);
        break;
      case TraceOp::kHalt:
        det.on_halt(e.actor);
        break;
      case TraceOp::kRead:
        det.on_read(e.actor, e.loc);
        break;
      case TraceOp::kWrite:
        det.on_write(e.actor, e.loc);
        break;
      default:
        break;
    }
  }
}

Trace run_trace(TaskBody body) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(std::move(body));
  return rec.take();
}

TEST(EspBags, DirectAsyncConcurrentWriteRaces) {
  const Trace t = run_trace([](TaskContext& ctx) {
    FinishScope finish(ctx);
    finish.async([](TaskContext& c) { c.write(7); });
    ctx.write(7);  // inside the finish: concurrent with the async
  });
  ESPBagsDetector det;
  drive_espbags(det, t);
  EXPECT_TRUE(det.race_found());
}

TEST(EspBags, FinishOrdersSubsequentAccess) {
  const Trace t = run_trace([](TaskContext& ctx) {
    {
      FinishScope finish(ctx);
      finish.async([](TaskContext& c) { c.write(7); });
    }
    ctx.write(7);  // after the finish: ordered
  });
  ESPBagsDetector det;
  drive_espbags(det, t);
  EXPECT_FALSE(det.race_found());
}

TEST(EspBags, EscapingAsyncAwaitedByEnclosingFinish) {
  // The async's child escapes its spawner and is awaited by the transitive
  // finish; the access after the finish is therefore ordered.
  const Trace t = run_trace([](TaskContext& ctx) {
    {
      TransitiveFinishScope finish(ctx);
      finish.async([](TaskContext& c) {
        c.fork([](TaskContext& gc) { gc.write(9); });
        // returns WITHOUT joining: the grandchild escapes
      });
    }
    ctx.write(9);
  });
  ESPBagsDetector esp;
  OnlineRaceDetector sup;
  drive_espbags(esp, t);
  drive_suprema(sup, t);
  EXPECT_FALSE(esp.race_found());
  EXPECT_FALSE(sup.race_found());
}

TEST(EspBags, EscapedWorkStillConcurrentInsideTheFinish) {
  const Trace t = run_trace([](TaskContext& ctx) {
    TransitiveFinishScope finish(ctx);
    finish.async([](TaskContext& c) {
      c.fork([](TaskContext& gc) { gc.write(9); });
    });
    ctx.write(9);  // still inside the finish: races with the grandchild
  });
  ESPBagsDetector esp;
  OnlineRaceDetector sup;
  drive_espbags(esp, t);
  drive_suprema(sup, t);
  EXPECT_TRUE(esp.race_found());
  EXPECT_TRUE(sup.race_found());
}

TEST(EspBags, TransitiveFinishRefusesParallelExecutor) {
  // The transitive drain is computed from the exact Figure 9 line length,
  // which only the serial executor tracks; under the parallel executor the
  // count is approximate, so construction must fail loudly instead of
  // silently draining the wrong number of tasks.
  ParallelExecutor exec({2});
  EXPECT_THROW(
      exec.run([](TaskContext& ctx) { TransitiveFinishScope finish(ctx); }),
      ContractViolation);
}

TEST(EspBags, DirectFinishStillRunsUnderParallelExecutor) {
  // FinishScope joins its direct asyncs by handle — no live-task counting —
  // and must keep working under real threads.
  std::atomic<int> hits{0};
  ParallelExecutor exec({2});
  exec.run([&hits](TaskContext& ctx) {
    FinishScope finish(ctx);
    finish.async([&hits](TaskContext&) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(EspBags, NestedFinishesScopeCorrectly) {
  const Trace t = run_trace([](TaskContext& ctx) {
    TransitiveFinishScope outer(ctx);
    {
      TransitiveFinishScope inner(ctx);
      inner.async([](TaskContext& c) { c.write(3); });
    }
    ctx.write(3);  // inner finish already awaited the async: ordered
    ctx.fork([](TaskContext& c) { c.write(4); });
    ctx.write(4);  // concurrent with the outer-finish async
  });
  ESPBagsDetector det;
  drive_espbags(det, t);
  ASSERT_TRUE(det.race_found());
  EXPECT_EQ(det.reporter().first().loc, 4u);
  EXPECT_EQ(det.reporter().count(), 1u);
}

TEST(EspBags, HaltWithOpenFinishRejected) {
  Trace t = {{TraceOp::kFinishBegin, 0, kInvalidTask, 0},
             {TraceOp::kHalt, 0, kInvalidTask, 0}};
  ESPBagsDetector det;
  det.on_root();
  det.on_finish_begin(0);
  EXPECT_THROW(det.on_halt(0), ContractViolation);
}

TEST(EspBags, FinishEndWithoutBeginRejected) {
  ESPBagsDetector det;
  det.on_root();
  EXPECT_THROW(det.on_finish_end(0), ContractViolation);
}

// Random async-finish programs with escaping asyncs.
TaskBody random_async_finish_program(std::uint64_t seed) {
  struct State {
    Xoshiro256 rng;
    std::size_t tasks = 1;
  };
  auto st = std::make_shared<State>();
  st->rng.reseed(seed);

  struct Maker {
    // A block of actions executed by some task; `escaping` tasks skip
    // draining their own children (the enclosing finish picks them up).
    static void block(std::shared_ptr<State> st, TaskContext& ctx, int depth,
                      bool escaping) {
      (void)escaping;  // escape behavior is decided per spawned child below
      const std::size_t actions = 2 + st->rng.below(8);
      for (std::size_t i = 0; i < actions; ++i) {
        const double u = st->rng.uniform01();
        if (u < 0.25 && depth < 4 && st->tasks < 40) {
          ++st->tasks;
          const bool child_escapes = st->rng.chance(0.5);
          ctx.fork([st, depth, child_escapes](TaskContext& c) {
            block(st, c, depth + 1, child_escapes);
            if (!child_escapes) {
              while (c.join_left()) {
              }
            }
          });
        } else if (u < 0.40 && depth < 4) {
          TransitiveFinishScope finish(ctx);
          block(st, ctx, depth + 1, false);
        } else if (u < 0.70) {
          ctx.read(st->rng.below(6));
        } else {
          ctx.write(st->rng.below(6));
        }
      }
    }
  };

  return [st](TaskContext& ctx) {
    TransitiveFinishScope finish(ctx);
    Maker::block(st, ctx, 0, false);
  };
}

class EspBagsVsSuprema : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EspBagsVsSuprema, SameVerdictAndFirstRaceOnAsyncFinishPrograms) {
  const Trace trace =
      run_trace(random_async_finish_program(GetParam() * 3266489917u + 1));
  ESPBagsDetector esp;
  OnlineRaceDetector sup;
  drive_espbags(esp, trace);
  drive_suprema(sup, trace);
  const NaiveResult gold = detect_races_naive(build_task_graph(trace));

  EXPECT_EQ(esp.race_found(), !gold.races.empty()) << GetParam();
  EXPECT_EQ(sup.race_found(), !gold.races.empty()) << GetParam();
  if (!gold.races.empty()) {
    EXPECT_EQ(esp.reporter().first().access_index, gold.races[0].access_index)
        << GetParam();
    EXPECT_EQ(sup.reporter().first().access_index, gold.races[0].access_index)
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspBagsVsSuprema,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace race2d
