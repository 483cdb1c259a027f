// Serial fork-first execution: event order, discipline validation, tracing.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"

namespace race2d {
namespace {

TEST(SerialExecutor, EmptyRootRuns) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  EXPECT_EQ(exec.run([](TaskContext&) {}), 1u);
  ASSERT_EQ(rec.trace().size(), 1u);
  EXPECT_EQ(rec.trace()[0].op, TraceOp::kHalt);
  EXPECT_EQ(rec.trace()[0].actor, 0u);
}

TEST(SerialExecutor, ForkFirstOrder) {
  // The child's events must be fully nested between the parent's fork and
  // anything the parent does afterwards.
  std::vector<int> order;
  SerialExecutor exec(nullptr);
  exec.run([&order](TaskContext& ctx) {
    order.push_back(1);
    auto h = ctx.fork([&order](TaskContext&) { order.push_back(2); });
    order.push_back(3);
    ctx.join(h);
    order.push_back(4);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SerialExecutor, TaskIdsAreDenseInForkOrder) {
  std::vector<TaskId> ids;
  SerialExecutor exec(nullptr);
  exec.run([&ids](TaskContext& ctx) {
    ids.push_back(ctx.id());
    auto a = ctx.fork([&ids](TaskContext& c) {
      ids.push_back(c.id());
      auto inner = c.fork([&ids](TaskContext& cc) { ids.push_back(cc.id()); });
      c.join(inner);
    });
    auto b = ctx.fork([&ids](TaskContext& c) { ids.push_back(c.id()); });
    ctx.join(b);
    ctx.join(a);
  });
  EXPECT_EQ(ids, (std::vector<TaskId>{0, 1, 2, 3}));
}

TEST(SerialExecutor, Figure2ProgramTrace) {
  // fork a {A}; B; fork c {join a; C}; D; join c — the paper's Figure 2.
  const Loc r = 100;  // the location A and B read and D writes
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run([r](TaskContext& ctx) {
    auto a = ctx.fork([r](TaskContext& c) { c.read(r); });  // A
    ctx.read(r);                                            // B
    auto c = ctx.fork([a](TaskContext& cc) {
      cc.join(a);  // join a
      // C is a nop
    });
    ctx.write(r);  // D
    ctx.join(c);
  });
  const Trace& t = rec.trace();
  const std::vector<TraceEvent> expected = {
      {TraceOp::kFork, 0, 1, 0},           // fork a
      {TraceOp::kRead, 1, kInvalidTask, r},  // A (child runs first)
      {TraceOp::kHalt, 1, kInvalidTask, 0},
      {TraceOp::kRead, 0, kInvalidTask, r},  // B
      {TraceOp::kFork, 0, 2, 0},             // fork c
      {TraceOp::kJoin, 2, 1, 0},             // c joins a
      {TraceOp::kHalt, 2, kInvalidTask, 0},
      {TraceOp::kWrite, 0, kInvalidTask, r},  // D
      {TraceOp::kJoin, 0, 2, 0},
      {TraceOp::kHalt, 0, kInvalidTask, 0},
  };
  EXPECT_EQ(t, expected);
}

TEST(SerialExecutor, IllegalJoinThrows) {
  SerialExecutor exec(nullptr);
  EXPECT_THROW(exec.run([](TaskContext& ctx) {
                 auto a = ctx.fork([](TaskContext&) {});
                 ctx.fork([](TaskContext&) {});
                 ctx.join(a);  // a is not the immediate left neighbor
               }),
               ContractViolation);
}

TEST(SerialExecutor, JoinInvalidHandleThrows) {
  SerialExecutor exec(nullptr);
  EXPECT_THROW(exec.run([](TaskContext& ctx) { ctx.join(TaskHandle{}); }),
               ContractViolation);
}

TEST(SerialExecutor, JoinLeftConsumesAll) {
  SerialExecutor exec(nullptr);
  std::size_t tasks = exec.run([](TaskContext& ctx) {
    for (int i = 0; i < 5; ++i) ctx.fork([](TaskContext&) {});
    int joined = 0;
    while (ctx.join_left()) ++joined;
    EXPECT_EQ(joined, 5);
    EXPECT_FALSE(ctx.has_left());
  });
  EXPECT_EQ(tasks, 6u);
}

TEST(SerialExecutor, HasLeftReflectsLine) {
  SerialExecutor exec(nullptr);
  exec.run([](TaskContext& ctx) {
    EXPECT_FALSE(ctx.has_left());
    auto h = ctx.fork([](TaskContext&) {});
    EXPECT_TRUE(ctx.has_left());
    ctx.join(h);
    EXPECT_FALSE(ctx.has_left());
  });
}

TEST(SerialExecutor, ChildSeesItsOwnLeftContext) {
  // Figure 2 shape: the second child's left neighbor is the first child.
  SerialExecutor exec(nullptr);
  exec.run([](TaskContext& ctx) {
    auto a = ctx.fork([](TaskContext&) {});
    ctx.fork([a](TaskContext& c) {
      EXPECT_TRUE(c.has_left());
      c.join(a);
      EXPECT_FALSE(c.has_left());
    });
    while (ctx.join_left()) {
    }
  });
}

TEST(SerialExecutor, ForkDepthLimitEnforced) {
  SerialExecutorOptions options;
  options.max_fork_depth = 8;
  SerialExecutor exec(nullptr, options);
  std::function<void(TaskContext&, int)> nest = [&nest](TaskContext& ctx,
                                                        int depth) {
    if (depth == 0) return;
    auto h = ctx.fork([&nest, depth](TaskContext& c) { nest(c, depth - 1); });
    ctx.join(h);
  };
  EXPECT_NO_THROW(exec.run([&nest](TaskContext& ctx) { nest(ctx, 5); }));
  EXPECT_THROW(exec.run([&nest](TaskContext& ctx) { nest(ctx, 50); }),
               ContractViolation);
}

TEST(SerialExecutor, ReplayReproducesTrace) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run([](TaskContext& ctx) {
    auto h = ctx.fork([](TaskContext& c) { c.write(1); });
    ctx.read(1);
    ctx.join(h);
  });
  TraceRecorder replayed;
  for (const TraceEvent& e : rec.trace()) replayed.on_event(e);
  EXPECT_EQ(replayed.trace(), rec.trace());
}

}  // namespace
}  // namespace race2d
