// Task graphs materialized from serial traces: Theorem 6 (the rules produce
// 2D lattices) plus exact structure for the Figure 2 program.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/oracle.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "lattice/dimension.hpp"
#include "lattice/validate.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"
#include "workloads/generators.hpp"

namespace race2d {
namespace {

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

TaskGraph run_and_build(TaskBody body) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(std::move(body));
  return build_task_graph(rec.trace());
}

TaskBody figure2_program(Loc r) {
  return [r](TaskContext& ctx) {
    auto a = ctx.fork([r](TaskContext& c) { c.read(r); });  // A
    ctx.read(r);                                            // B
    auto c = ctx.fork([a](TaskContext& cc) { cc.join(a); });  // join a; C=nop
    ctx.write(r);                                             // D
    ctx.join(c);
  };
}

TEST(TaskGraph, Figure2Structure) {
  const TaskGraph tg = run_and_build(figure2_program(7));
  // Vertices: begin, fork-a, A, halt-a, B, fork-c, join-a(by c), halt-c,
  // D, join-c, halt-root = 11 vertices; 3 tasks.
  EXPECT_EQ(tg.diagram.vertex_count(), 11u);
  EXPECT_EQ(tg.task_count, 3u);
  EXPECT_EQ(tg.source, 0u);
  EXPECT_EQ(tg.sink, 10u);

  HappensBeforeOracle oracle(tg);
  // Find the A (read by task 1), B (read by task 0), D (write by task 0).
  VertexId A = kInvalidVertex, B = kInvalidVertex, D = kInvalidVertex;
  for (VertexId v = 0; v < tg.diagram.vertex_count(); ++v) {
    for (const VertexAccess& a : tg.ops[v]) {
      if (a.kind == AccessKind::kRead && tg.task_of_vertex[v] == 1) A = v;
      if (a.kind == AccessKind::kRead && tg.task_of_vertex[v] == 0) B = v;
      if (a.kind == AccessKind::kWrite) D = v;
    }
  }
  ASSERT_NE(A, kInvalidVertex);
  ASSERT_NE(B, kInvalidVertex);
  ASSERT_NE(D, kInvalidVertex);
  // The paper's point: A ∥ D (the race), B before D (no race).
  EXPECT_TRUE(oracle.concurrent(A, D));
  EXPECT_TRUE(oracle.ordered(B, D));
  EXPECT_FALSE(oracle.concurrent(B, D));
}

TEST(TaskGraph, Figure2IsTwoDimensionalLattice) {
  const TaskGraph tg = run_and_build(figure2_program(7));
  EXPECT_TRUE(check_diagram(tg.diagram).ok);
  EXPECT_TRUE(check_lattice(tg.diagram.graph()).ok)
      << check_lattice(tg.diagram.graph()).reason;
  EXPECT_TRUE(certifies_dimension_two(tg.diagram));
}

TEST(TaskGraph, SequentialProgramIsAChain) {
  const TaskGraph tg = run_and_build([](TaskContext& ctx) {
    ctx.read(1);
    ctx.write(2);
    ctx.read(3);
  });
  // begin, read, write, read, halt: a 5-vertex chain.
  EXPECT_EQ(tg.diagram.vertex_count(), 5u);
  for (VertexId v = 0; v + 1 < 5; ++v)
    EXPECT_TRUE(tg.diagram.graph().has_arc(v, v + 1));
}

TEST(TaskGraph, AccessesAttachedToRightVertices) {
  const TaskGraph tg = run_and_build([](TaskContext& ctx) {
    ctx.write(42);
    ctx.read(43);
  });
  EXPECT_TRUE(tg.ops[0].empty());  // begin vertex
  ASSERT_EQ(tg.ops[1].size(), 1u);
  EXPECT_EQ(tg.ops[1][0].loc, 42u);
  EXPECT_EQ(tg.ops[1][0].kind, AccessKind::kWrite);
  ASSERT_EQ(tg.ops[2].size(), 1u);
  EXPECT_EQ(tg.ops[2][0].kind, AccessKind::kRead);
}

TEST(TaskGraph, RootMustHalt) {
  Trace t;  // empty trace: no halt for root
  EXPECT_THROW(build_task_graph(t), ContractViolation);
}

TEST(TaskGraph, JoinBeforeTargetHaltRejected) {
  Trace t = {{TraceOp::kFork, 0, 1, 0}, {TraceOp::kJoin, 0, 1, 0}};
  EXPECT_THROW(build_task_graph(t), ContractViolation);
}

// vertex_of_event is the one vertex numbering of a trace: every transition
// event owns exactly one vertex of its actor's task, accesses own the vertex
// carrying them, annotations own none, and only the source is nobody's.
void expect_vertex_map_exact(const Trace& trace, const std::string& what) {
  const TaskGraph tg = build_task_graph(trace);
  ASSERT_EQ(tg.vertex_of_event.size(), trace.size()) << what;
  std::vector<bool> owned(tg.diagram.vertex_count(), false);
  std::size_t valid = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    const VertexId v = tg.vertex_of_event[i];
    if (e.op == TraceOp::kSync || e.op == TraceOp::kFinishBegin ||
        e.op == TraceOp::kFinishEnd || e.op == TraceOp::kAcquire ||
        e.op == TraceOp::kRelease) {
      EXPECT_EQ(v, kInvalidVertex) << what << " event " << i;
      continue;
    }
    ASSERT_LT(v, tg.diagram.vertex_count()) << what << " event " << i;
    EXPECT_NE(v, tg.source) << what << " event " << i;
    EXPECT_FALSE(owned[v]) << what << " vertex " << v << " owned twice";
    owned[v] = true;
    ++valid;
    EXPECT_EQ(tg.task_of_vertex[v], e.actor) << what << " event " << i;
    if (e.op == TraceOp::kRead || e.op == TraceOp::kWrite ||
        e.op == TraceOp::kRetire) {
      const AccessKind kind = e.op == TraceOp::kRead    ? AccessKind::kRead
                              : e.op == TraceOp::kWrite ? AccessKind::kWrite
                                                        : AccessKind::kRetire;
      ASSERT_EQ(tg.ops[v].size(), 1u) << what << " event " << i;
      EXPECT_EQ(tg.ops[v][0].loc, e.loc) << what << " event " << i;
      EXPECT_EQ(tg.ops[v][0].kind, kind) << what << " event " << i;
    } else {
      EXPECT_TRUE(tg.ops[v].empty()) << what << " event " << i;
    }
  }
  EXPECT_EQ(valid, tg.diagram.vertex_count() - 1) << what;
}

TEST(TaskGraph, VertexOfEventOverCorpus) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RACE2D_CORPUS_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path());
    expect_vertex_map_exact(load_trace_text(in), entry.path().string());
    ++files;
  }
  EXPECT_GE(files, 10u) << "the regression corpus shrank below its floor";
}

TEST(TaskGraph, VertexOfEventOverFuzzSeeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed)
    expect_vertex_map_exact(generate_trace(FuzzPlan::from_seed(seed)).trace,
                            "seed " + std::to_string(seed));
}

// Theorem 6 as a property: every random structured program's task graph is a
// two-dimensional lattice with a Dushnik–Miller realizer.
class Theorem6Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem6Property, RandomProgramsProduce2DLattices) {
  ProgramParams params;
  params.seed = GetParam();
  params.max_actions = 10;
  params.max_depth = 4;
  params.max_tasks = 24;
  const TaskGraph tg = run_and_build(random_program(params));
  ASSERT_LE(tg.diagram.vertex_count(), 700u);
  EXPECT_TRUE(check_diagram(tg.diagram).ok);
  const auto lattice = check_lattice(tg.diagram.graph());
  EXPECT_TRUE(lattice.ok) << lattice.reason;
  EXPECT_TRUE(certifies_dimension_two(tg.diagram));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem6Property,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace race2d
