#include "fuzz/trace_gen.hpp"

#include <memory>
#include <vector>

#include "runtime/async_finish.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/spawn_sync.hpp"
#include "support/rng.hpp"
#include "workloads/generators.hpp"

namespace race2d {

namespace {

// Future cells draw from their own range so they can never collide with the
// shared pool (pool locations are < 2^16 by plan construction).
constexpr Loc kFutureCellBase = Loc{1} << 20;

struct GenState {
  Xoshiro256 rng;
  FuzzPlan plan;
  std::size_t forks = 1;  // root counts as one

  explicit GenState(const FuzzPlan& p) : rng(p.seed), plan(p) {}

  bool can_fork(std::size_t depth) {
    return depth < plan.max_depth && forks < plan.max_tasks;
  }
  Loc pool_loc() { return rng.below(plan.loc_pool); }
  void access(TaskContext& ctx) {
    if (rng.chance(plan.write_frac)) {
      ctx.write(pool_loc());
    } else {
      ctx.read(pool_loc());
    }
  }
  /// 0..n accesses drawn from the shared pool.
  void burst(TaskContext& ctx, std::size_t n) {
    const std::size_t count = rng.below(n + 1);
    for (std::size_t i = 0; i < count; ++i) access(ctx);
  }
};

using StatePtr = std::shared_ptr<GenState>;

// -- deep fork chain ---------------------------------------------------------
// One long spine of nested forks. Post-fork accesses are concurrent with the
// entire child subtree until a join seals them, so conflicts span the whole
// chain and the union-find forest gets genuinely deep.

TaskBody chain_node(StatePtr st, std::size_t depth, bool is_root) {
  return [st, depth, is_root](TaskContext& ctx) {
    st->burst(ctx, st->plan.max_actions);
    if (st->can_fork(depth)) {
      ++st->forks;
      ctx.fork(chain_node(st, depth + 1, false));
    }
    st->burst(ctx, st->plan.max_actions);
    if (!is_root && st->rng.chance(0.4)) ctx.join_left();
    if (is_root) {
      while (ctx.join_left()) {
      }
    }
  };
}

// -- spawn-sync tree ---------------------------------------------------------
// Recursive Cilk-style programs: every join happens through scope.sync() (or
// the implicit sync at scope exit), which is what makes SP-bags a lawful
// oracle for these traces.

TaskBody sp_node(StatePtr st, std::size_t depth) {
  return [st, depth](TaskContext& ctx) {
    SpawnScope scope(ctx);
    for (std::size_t a = 0; a < st->plan.max_actions; ++a) {
      const double u = st->rng.uniform01();
      if (u < st->plan.fork_prob) {
        if (st->can_fork(depth)) {
          ++st->forks;
          scope.spawn(sp_node(st, depth + 1));
        }
      } else if (u < st->plan.fork_prob + 0.15) {
        scope.sync();
      } else if (u < st->plan.fork_prob + 0.15 + st->plan.access_prob) {
        st->access(ctx);
      } else {
        break;
      }
    }
    // Implicit sync at scope exit keeps the structure pure spawn-sync.
  };
}

// -- wide finish regions -----------------------------------------------------
// Async-finish programs with broad regions and ESCAPING asyncs (a child may
// halt with forked work outstanding; the transitive finish drains it) — the
// exact feature separating ESP-bags from SP-bags.

TaskBody finish_leaf(StatePtr st) {
  return [st](TaskContext& ctx) { st->burst(ctx, st->plan.max_actions); };
}

TaskBody finish_async(StatePtr st, std::size_t depth);

void finish_region(StatePtr st, TaskContext& ctx, std::size_t depth) {
  TransitiveFinishScope fin(ctx);
  const std::size_t width = 1 + st->rng.below(5);
  for (std::size_t w = 0; w < width; ++w) {
    if (!st->can_fork(depth)) break;
    ++st->forks;
    fin.async(finish_async(st, depth + 1));
    st->burst(ctx, 2);
  }
}

TaskBody finish_async(StatePtr st, std::size_t depth) {
  return [st, depth](TaskContext& ctx) {
    st->burst(ctx, st->plan.max_actions / 2 + 1);
    if (st->rng.chance(0.3) && st->can_fork(depth)) {
      ++st->forks;
      ctx.fork(finish_leaf(st));  // escapes: drained by the enclosing finish
    }
    if (st->rng.chance(0.35) && depth < st->plan.max_depth) {
      finish_region(st, ctx, depth);  // nested finish
    }
    st->burst(ctx, 2);
  };
}

TaskBody finish_root(StatePtr st) {
  return [st](TaskContext& ctx) {
    const std::size_t regions = 1 + st->rng.below(3);
    for (std::size_t r = 0; r < regions; ++r) {
      finish_region(st, ctx, 0);
      st->burst(ctx, 2);
    }
    while (ctx.join_left()) {  // escaped leaves of the outermost regions
    }
  };
}

// -- pipeline grids ----------------------------------------------------------
// run_pipeline over a stages × items grid. Stage flags are a serial prefix
// followed by a parallel suffix (the legal flag shapes); parallel stage
// instances of different items are concurrent, so same-location touches
// across items are real races there and near misses in serial stages.

TaskBody pipeline_root(StatePtr st) {
  return [st](TaskContext& ctx) {
    const std::size_t stages = 2 + st->rng.below(4);
    const std::size_t items = 2 + st->rng.below(6);
    // First parallel stage index; `stages` means every stage stays serial.
    const std::size_t cut = 1 + st->rng.below(stages);
    std::vector<bool> serial(stages);
    for (std::size_t i = 0; i < stages; ++i) serial[i] = i < cut;

    std::vector<StageFn> fns;
    fns.reserve(stages);
    for (std::size_t s = 0; s < stages; ++s) {
      fns.push_back([st, s](TaskContext& tctx, std::size_t item) {
        // Mostly grid-striped locations; occasionally the shared pool, so
        // cross-item conflicts concentrate where the flags decide ordering.
        const Loc grid = (Loc{s} * 131 + item) % st->plan.loc_pool;
        if (st->rng.chance(0.25)) {
          st->access(tctx);
        } else if (st->rng.chance(st->plan.write_frac)) {
          tctx.write(grid);
        } else {
          tctx.read(grid);
        }
      });
    }
    st->burst(ctx, 2);
    run_pipeline(ctx, fns, items, serial);
    st->burst(ctx, 2);
  };
}

// -- future hand-offs --------------------------------------------------------
// Producer tasks write a cell; consumers (the root or a later-forked
// sibling, as in Figure 2) join the producer and read it. With probability
// race_bias the cell is read WITHOUT the join — the classic unsynchronized
// future bug, and a guaranteed true race.

TaskBody future_root(StatePtr st) {
  return [st](TaskContext& ctx) {
    const std::size_t futures = 2 + st->rng.below(6);
    for (std::size_t i = 0; i < futures; ++i) {
      if (!st->can_fork(1)) break;
      const Loc cell = kFutureCellBase + i;
      ++st->forks;
      const TaskHandle producer = ctx.fork([st, cell](TaskContext& p) {
        st->burst(p, 3);
        p.write(cell);
      });
      const double u = st->rng.uniform01();
      if (u < st->plan.race_bias) {
        ctx.read(cell);  // no join: races with the producer's write
        ctx.join(producer);
      } else if (u < 0.5 && st->can_fork(1)) {
        // Sibling consumer: forked after the producer, so the producer is
        // its left neighbor and the hand-off join is legal (Figure 2).
        ++st->forks;
        ctx.fork([st, cell, producer](TaskContext& consumer) {
          consumer.join(producer);
          consumer.read(cell);
          st->burst(consumer, 2);
        });
        ctx.join_left();  // consume the consumer
      } else {
        ctx.join(producer);
        ctx.read(cell);
      }
      st->burst(ctx, 2);
    }
    while (ctx.join_left()) {
    }
  };
}

// -- retire-heavy schedules --------------------------------------------------
// A tiny location pool with aggressive end-of-lifetime retires: address
// reuse across logically concurrent tasks, the case the retire machinery
// (and its live-retire access ordinals) exists for.

TaskBody retire_node(StatePtr st, std::size_t depth, bool is_root) {
  return [st, depth, is_root](TaskContext& ctx) {
    for (std::size_t a = 0; a < st->plan.max_actions; ++a) {
      const double u = st->rng.uniform01();
      if (u < st->plan.fork_prob) {
        if (st->can_fork(depth)) {
          ++st->forks;
          ctx.fork(retire_node(st, depth + 1, false));
        }
      } else if (u < st->plan.fork_prob + 0.15) {
        ctx.join_left();
      } else if (u < st->plan.fork_prob + 0.15 + st->plan.access_prob) {
        st->access(ctx);
        if (st->rng.chance(st->plan.retire_prob)) ctx.retire(st->pool_loc());
      } else {
        break;
      }
    }
    if (is_root) {
      while (ctx.join_left()) {
      }
    }
  };
}

ProgramParams to_program_params(const FuzzPlan& plan) {
  ProgramParams p;
  p.seed = plan.seed;
  p.max_actions = plan.max_actions;
  p.max_depth = plan.max_depth;
  p.max_tasks = plan.max_tasks;
  p.fork_prob = plan.fork_prob;
  p.join_prob = 0.20;
  p.access_prob = plan.access_prob;
  p.write_frac = plan.write_frac;
  p.loc_pool = plan.loc_pool;
  return p;
}

TaskBody build_program(const FuzzPlan& plan) {
  switch (plan.shape) {
    case TraceShape::kRandomMix:
      return random_program(to_program_params(plan));
    case TraceShape::kNearMissRaces:
      return near_miss_program(to_program_params(plan), plan.race_bias);
    case TraceShape::kDeepForkChain:
      return chain_node(std::make_shared<GenState>(plan), 0, true);
    case TraceShape::kSpawnSyncTree:
      return sp_node(std::make_shared<GenState>(plan), 0);
    case TraceShape::kWideFinish:
      return finish_root(std::make_shared<GenState>(plan));
    case TraceShape::kPipelineGrid:
      return pipeline_root(std::make_shared<GenState>(plan));
    case TraceShape::kFutureChain:
      return future_root(std::make_shared<GenState>(plan));
    case TraceShape::kRetireHeavy:
      return retire_node(std::make_shared<GenState>(plan), 0, true);
  }
  return random_program(to_program_params(plan));
}

}  // namespace

GeneratedTrace generate_trace(const FuzzPlan& plan) {
  TraceRecorder recorder;
  SerialExecutor exec(&recorder);
  exec.run(build_program(plan));
  return {recorder.take(), plan.features()};
}

}  // namespace race2d
