// Text (de)serialization of execution traces.
#include <gtest/gtest.h>

#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"
#include "workloads/generators.hpp"

namespace race2d {
namespace {

TEST(TraceIo, RoundTripSimpleProgram) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run([](TaskContext& ctx) {
    auto h = ctx.fork([](TaskContext& c) {
      c.write(0xABC);
      c.retire(0xABC);
    });
    ctx.read(0xABC);
    ctx.join(h);
    ctx.sync_marker();
  });
  const Trace original = rec.take();
  EXPECT_EQ(parse_trace_text(trace_to_text(original)), original);
}

TEST(TraceIo, RoundTripRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ProgramParams params;
    params.seed = seed;
    params.max_actions = 16;
    params.max_tasks = 24;
    TraceRecorder rec;
    SerialExecutor exec(&rec);
    exec.run(random_program(params));
    const Trace original = rec.take();
    EXPECT_EQ(parse_trace_text(trace_to_text(original)), original)
        << "seed " << seed;
  }
}

TEST(TraceIo, TextFormatIsStable) {
  Trace t = {
      {TraceOp::kFork, 0, 1, 0},
      {TraceOp::kWrite, 1, kInvalidTask, 0xff},
      {TraceOp::kHalt, 1, kInvalidTask, 0},
      {TraceOp::kJoin, 0, 1, 0},
      {TraceOp::kHalt, 0, kInvalidTask, 0},
  };
  EXPECT_EQ(trace_to_text(t),
            "fork 0 1\nwrite 1 ff\nhalt 1\njoin 0 1\nhalt 0\n");

  // One line per op, each with its operand: a task, a hex location or sync
  // id, or none. Written and re-parsed, this pins the whole op table.
  const Trace every_op = {
      {TraceOp::kFork, 0, 1, 0},
      {TraceOp::kJoin, 0, 1, 0},
      {TraceOp::kHalt, 1, kInvalidTask, 0},
      {TraceOp::kSync, 2, kInvalidTask, 0},
      {TraceOp::kRead, 3, kInvalidTask, 0xa0},
      {TraceOp::kWrite, 4, kInvalidTask, 0xb1},
      {TraceOp::kRetire, 5, kInvalidTask, 0xc2},
      {TraceOp::kFinishBegin, 6, kInvalidTask, 0},
      {TraceOp::kFinishEnd, 7, kInvalidTask, 0},
      {TraceOp::kAcquire, 8, kInvalidTask, 0xd3},
      {TraceOp::kRelease, 9, kInvalidTask, 0xe4},
  };
  const std::string golden =
      "fork 0 1\njoin 0 1\nhalt 1\nsync 2\nread 3 a0\nwrite 4 b1\n"
      "retire 5 c2\nfinish_begin 6\nfinish_end 7\nacquire 8 d3\n"
      "release 9 e4\n";
  EXPECT_EQ(trace_to_text(every_op), golden);
  EXPECT_EQ(parse_trace_text(golden), every_op);

  // A near-miss name is no op at all.
  try {
    (void)parse_trace_text("fork 0 1\nfinish-begin 0\n");
    ADD_FAILURE() << "finish-begin parsed";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line_number(), 2u);
    EXPECT_NE(std::string(e.what()).find("unknown event 'finish-begin'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, CommentsAndBlanksIgnored) {
  const Trace t = parse_trace_text(
      "# a demo trace\n"
      "\n"
      "fork 0 1   # child\n"
      "halt 1\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].op, TraceOp::kFork);
  EXPECT_EQ(t[1].op, TraceOp::kHalt);
}

TEST(TraceIo, FinishMarkersRoundTrip) {
  Trace t = {
      {TraceOp::kFinishBegin, 0, kInvalidTask, 0},
      {TraceOp::kFork, 0, 1, 0},
      {TraceOp::kHalt, 1, kInvalidTask, 0},
      {TraceOp::kJoin, 0, 1, 0},
      {TraceOp::kFinishEnd, 0, kInvalidTask, 0},
  };
  const std::string text = trace_to_text(t);
  EXPECT_NE(text.find("finish_begin 0"), std::string::npos);
  EXPECT_NE(text.find("finish_end 0"), std::string::npos);
  EXPECT_EQ(parse_trace_text(text), t);
}

TEST(TraceIo, LocationsAreHex) {
  const Trace t = parse_trace_text("read 3 deadbeef\n");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].loc, 0xdeadbeefu);
  EXPECT_EQ(t[0].actor, 3u);
}

TEST(TraceIo, UnknownOpRejectedWithLineNumber) {
  try {
    parse_trace_text("fork 0 1\nfrobnicate 2\n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TraceIo, MissingFieldRejected) {
  EXPECT_THROW(parse_trace_text("fork 0\n"), ContractViolation);
  EXPECT_THROW(parse_trace_text("read 1\n"), ContractViolation);
}

TEST(TraceIo, TrailingTokensRejected) {
  EXPECT_THROW(parse_trace_text("halt 0 extra\n"), ContractViolation);
}

}  // namespace
}  // namespace race2d
