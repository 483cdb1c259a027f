// Parallel execution of structured fork-join programs (help-on-join pool).
//
// The DSU detector is serial (the price of Θ(1) space, §2.3), but the
// *programs* are genuinely parallel; this executor demonstrates that and
// backs the E7 speedup experiment. Forked bodies go to a shared work queue
// served by a fixed pool; a task blocked on join() helps by executing queued
// tasks, which makes the scheme deadlock-free for strict fork-join
// dependencies. Memory-access hooks are no-ops: race detection runs on the
// serial executors or on a recorded trace.
//
// Left-neighbor tracking is schedule-independent: a task's left pointer is
// mutated only at its own forks and joins, and a join target's final left
// pointer is read only after the target halted (see the note in line.hpp's
// serial counterpart), so join_left() is well-defined under parallelism.
#pragma once

#include <cstddef>

#include "runtime/program.hpp"

namespace race2d {

struct ParallelExecutorOptions {
  unsigned num_threads = 0;  ///< 0 = std::thread::hardware_concurrency()
};

class ParallelExecutor {
 public:
  explicit ParallelExecutor(ParallelExecutorOptions options = {})
      : options_(options) {}

  /// Runs `root_body` to completion across the pool; returns the number of
  /// tasks executed. Exceptions thrown by task bodies propagate from run()
  /// (first one wins; remaining tasks are drained).
  std::size_t run(TaskBody root_body);

 private:
  ParallelExecutorOptions options_;
};

}  // namespace race2d
