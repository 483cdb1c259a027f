// Determinism guarantees, run to death: 20 repetitions on the same seed.
//
// Two claims are under test. (1) The ParallelExecutor computes the same
// results as the serial schedule no matter how the pool interleaves — the
// PR-1 substrate claim that "the programs really are parallel" is only
// useful if re-running them is reproducible. (2) Trace replay is a pure
// function of the trace: every run yields a bit-identical report stream
// (same order, same access ordinals, same locations).
#include <gtest/gtest.h>

#include <vector>

#include "core/replay.hpp"
#include "runtime/parallel_executor.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"
#include "workloads/generators.hpp"
#include "workloads/kernels.hpp"

namespace race2d {
namespace {

constexpr int kReps = 20;

Trace record(TaskBody program) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(std::move(program));
  return rec.take();
}

// RaceReport has a defaulted operator==, so vector equality really is
// "bit-identical report stream": same count, order, tasks, kinds, ordinals.
bool reports_equal(const std::vector<RaceReport>& a,
                   const std::vector<RaceReport>& b) {
  return a == b;
}

TEST(Determinism, ParallelExecutorFibSameSeedSameResult) {
  FibWorkload reference(18);
  SerialExecutor serial;
  serial.run(reference.task());

  for (int rep = 0; rep < kReps; ++rep) {
    FibWorkload fib(18);
    ParallelExecutor pool({4});
    const std::size_t tasks = pool.run(fib.task());
    EXPECT_EQ(fib.result(), reference.result()) << "rep " << rep;
    EXPECT_GT(tasks, 1u);
  }
}

TEST(Determinism, ParallelExecutorPipelineSameSeedSameChecksum) {
  StagedPipeline reference(4, 12, 48);
  SerialExecutor serial;
  serial.run(reference.task());

  for (int rep = 0; rep < kReps; ++rep) {
    StagedPipeline pipeline(4, 12, 48);
    ParallelExecutor pool({3});
    pool.run(pipeline.task());
    EXPECT_EQ(pipeline.checksum(), reference.checksum()) << "rep " << rep;
  }
}

TEST(Determinism, ReplayBitIdenticalReportsAcrossRuns) {
  ProgramParams params;
  params.seed = 0xDE7E12A11ULL;
  params.max_tasks = 96;
  params.loc_pool = 24;
  const Trace trace = record(random_program(params));

  // Reference stream from the serial detector.
  const std::vector<RaceReport> serial_reports =
      detect_races_trace(trace, ReportPolicy::kAll);
  ASSERT_FALSE(serial_reports.empty()) << "pick a seed that races";

  for (int rep = 0; rep < kReps; ++rep) {
    const std::vector<RaceReport> reports =
        detect_races_trace(trace, ReportPolicy::kAll);
    EXPECT_TRUE(reports_equal(reports, serial_reports))
        << "rep " << rep << ": " << reports.size() << " vs "
        << serial_reports.size() << " reports";
  }
}

TEST(Determinism, SerialRecordingIsAPureFunctionOfTheSeed) {
  ProgramParams params;
  params.seed = 0x5EEDULL;
  params.max_tasks = 128;
  const std::string reference = trace_to_text(record(random_program(params)));
  for (int rep = 0; rep < kReps; ++rep)
    EXPECT_EQ(trace_to_text(record(random_program(params))), reference)
        << "rep " << rep;
}

}  // namespace
}  // namespace race2d
