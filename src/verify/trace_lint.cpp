#include "verify/trace_lint.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace race2d {

namespace {

const char* op_name(TraceOp op) {
  switch (op) {
    case TraceOp::kFork:        return "fork";
    case TraceOp::kJoin:        return "join";
    case TraceOp::kHalt:        return "halt";
    case TraceOp::kSync:        return "sync";
    case TraceOp::kRead:        return "read";
    case TraceOp::kWrite:       return "write";
    case TraceOp::kRetire:      return "retire";
    case TraceOp::kFinishBegin: return "finish_begin";
    case TraceOp::kFinishEnd:   return "finish_end";
    case TraceOp::kAcquire:     return "acquire";
    case TraceOp::kRelease:     return "release";
  }
  return "?";
}

/// Per-location lifetime state for the retire hygiene warnings.
enum : std::uint8_t { kLocTracked = 1, kLocRetired = 2 };

}  // namespace

TraceLintStream::TraceLintStream(TraceLintOptions options)
    : options_(options) {
  // The initial line {root | program}: task 0 running, alone.
  tasks_.push_back({});
  stack_.push_back(0);
}

template <typename Fn>
void TraceLintStream::emit(LintCode code, std::size_t index, Fn&& compose,
                           const char* hint) {
  const LintSeverity sev = lint_code_severity(code);
  if (sev == LintSeverity::kWarning && !options_.warnings) return;
  // The cap applies PER SEVERITY: a retire-churning trace can emit
  // thousands of hygiene warnings, and they must never crowd out a real
  // error later in the trace (found by fuzzing: a corrupt trace lint-ed
  // "clean" because W101s filled the cap first).
  std::size_t& emitted = sev == LintSeverity::kWarning ? warnings_emitted_
                                                       : errors_emitted_;
  if (emitted >= options_.max_diagnostics) {
    result_.truncated = true;
    return;
  }
  ++emitted;
  std::ostringstream os;
  compose(os);
  result_.diagnostics.push_back({code, sev, index, os.str(), hint});
}

bool TraceLintStream::feed(const TraceEvent& e) {
  R2D_REQUIRE(!finished_, "TraceLintStream::feed() after finish()");
  const std::size_t i = index_++;
  // Fast path: the running task (the stack holds known ids only) passes
  // every check admit() makes, unless it halted — which the stream itself
  // never leaves on the stack, but a restored snapshot can.
  const bool running = !stack_.empty() && stack_.back() == e.actor &&
                       !tasks_[e.actor].halted;
  if (!running && !admit(i, e)) return ok_so_far();

  switch (e.op) {
    case TraceOp::kFork:   on_fork(i, e); break;
    case TraceOp::kJoin:   on_join(i, e); break;
    case TraceOp::kHalt:   on_halt(i, e); break;
    case TraceOp::kSync:   break;
    case TraceOp::kAcquire: on_acquire(i, e); break;
    case TraceOp::kRelease: on_release(i, e); break;
    // Retire hygiene is all warnings: without them no location state.
    case TraceOp::kRead:
    case TraceOp::kWrite:
      if (options_.warnings) on_access(i, e);
      break;
    case TraceOp::kRetire:
      if (options_.warnings) on_retire(i, e);
      break;
    case TraceOp::kFinishBegin:
      ++tasks_[e.actor].finish_depth;
      break;
    case TraceOp::kFinishEnd:
      if (tasks_[e.actor].finish_depth == 0) {
        emit(LintCode::kFinishEndUnbalanced, i, [&](std::ostream& os) {
          os << "finish_end by task " << e.actor
             << " without an open finish region";
        }, "balance finish_begin/finish_end per task");
      } else {
        --tasks_[e.actor].finish_depth;
      }
      break;
  }
  return ok_so_far();
}

bool TraceLintStream::admit(std::size_t i, const TraceEvent& e) {
  const char* op = op_name(e.op);
  if (stack_.empty()) {
    emit(LintCode::kEventAfterRootHalt, i, [&](std::ostream& os) {
      os << op << " by task " << e.actor << " after the root halted";
    }, "a well-formed trace ends at the root's halt");
    return false;
  }
  if (e.actor == kInvalidTask) {
    emit(LintCode::kInvalidTaskId, i, [&](std::ostream& os) {
      os << op << " uses the reserved invalid task id as its actor";
    });
    return false;
  }
  if (!known(e.actor)) {
    emit(LintCode::kUnknownActor, i, [&](std::ostream& os) {
      os << op << " by unknown task " << e.actor << " (only "
         << tasks_.size() << " task(s) introduced so far)";
    }, "every task id must first appear as a fork's child");
    return false;
  }
  if (tasks_[e.actor].halted) {
    if (e.op == TraceOp::kHalt) {
      emit(LintCode::kDoubleHalt, i, [&](std::ostream& os) {
        os << "task " << e.actor << " halts twice";
      }, "drop the duplicate halt");
    } else {
      emit(LintCode::kActorHalted, i, [&](std::ostream& os) {
        os << op << " by task " << e.actor << ", which already halted";
      }, "no events may follow a task's halt");
    }
    return false;
  }
  if (stack_.back() != e.actor) {
    const TaskId expected = stack_.back();
    emit(LintCode::kOutOfSerialOrder, i, [&](std::ostream& os) {
      os << op << " by task " << e.actor
         << " while the serial fork-first order has task " << expected
         << " running";
    }, "a forked child runs to its halt before the parent resumes");
    // Keep going: line bookkeeping stays consistent, so later findings
    // are independent rather than cascades of this one.
  }
  return true;
}

void TraceLintStream::on_fork(std::size_t i, const TraceEvent& e) {
  if (e.other == kInvalidTask) {
    emit(LintCode::kInvalidTaskId, i, [&](std::ostream& os) {
      os << "fork by task " << e.actor
         << " names the reserved invalid task id as its child";
    });
    return;
  }
  if (known(e.other)) {
    emit(LintCode::kForkChildCollision, i, [&](std::ostream& os) {
      os << "fork by task " << e.actor << " re-introduces task " << e.other;
    }, "each task id may be forked exactly once");
    return;
  }
  if (e.other != tasks_.size()) {
    emit(LintCode::kForkChildNotDense, i, [&](std::ostream& os) {
      os << "fork by task " << e.actor << " introduces child " << e.other
         << " but the next dense id is " << tasks_.size();
    }, "task ids are dense in fork order (root is 0)");
    return;
  }
  // Insert the child immediately LEFT of its parent (Figure 9).
  const TaskId child = static_cast<TaskId>(tasks_.size());
  TaskState child_state;
  child_state.left = tasks_[e.actor].left;
  child_state.right = e.actor;
  if (child_state.left != kInvalidTask) tasks_[child_state.left].right = child;
  tasks_[e.actor].left = child;
  tasks_.push_back(child_state);
  stack_.push_back(child);  // fork-first: the child runs next
}

void TraceLintStream::on_join(std::size_t i, const TraceEvent& e) {
  if (e.other == kInvalidTask) {
    emit(LintCode::kInvalidTaskId, i, [&](std::ostream& os) {
      os << "join by task " << e.actor
         << " names the reserved invalid task id as its target";
    });
    return;
  }
  if (!known(e.other)) {
    emit(LintCode::kJoinTargetUnknown, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins unknown task " << e.other;
    });
    return;
  }
  if (e.other == e.actor) {
    emit(LintCode::kJoinNotLeftNeighbor, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins itself";
    }, "only the immediate left neighbor is joinable");
    return;
  }
  if (tasks_[e.other].joined) {
    emit(LintCode::kJoinTargetJoined, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins task " << e.other
         << ", which was already joined";
    }, "each task is joined exactly once");
    return;
  }
  if (!tasks_[e.other].halted) {
    emit(LintCode::kJoinTargetNotHalted, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins task " << e.other
         << ", which has not halted";
    }, "a join consumes a halted task (the delayed last-arc)");
    return;
  }
  if (tasks_[e.actor].left != e.other) {
    emit(LintCode::kJoinNotLeftNeighbor, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins task " << e.other
         << " but its immediate left neighbor is ";
      if (tasks_[e.actor].left == kInvalidTask)
        os << "nothing";
      else
        os << "task " << tasks_[e.actor].left;
    }, "Figure 9 allows joining only the immediate left neighbor");
    return;
  }
  // Remove the joined task from the line.
  TaskState& joined = tasks_[e.other];
  joined.joined = true;
  tasks_[e.actor].left = joined.left;
  if (joined.left != kInvalidTask) tasks_[joined.left].right = e.actor;
}

void TraceLintStream::on_acquire(std::size_t i, const TraceEvent& e) {
  if (is_semaphore_id(e.loc)) {
    std::uint64_t* count = semaphores_.find(e.loc);
    if (count == nullptr || *count == 0) {
      emit(LintCode::kDoubleAcquire, i, [&](std::ostream& os) {
        os << "task " << e.actor << " acquires semaphore 0x" << std::hex
           << e.loc << std::dec << " whose count is zero";
      }, "in serial order this acquire would block forever");
      return;  // repair: the failed acquire changes no state
    }
    --*count;
    return;
  }
  if (const TaskId* holder = mutexes_.find(e.loc)) {
    emit(LintCode::kDoubleAcquire, i, [&](std::ostream& os) {
      os << "task " << e.actor << " acquires mutex 0x" << std::hex << e.loc
         << std::dec << " already held by task " << *holder;
    }, "mutexes are not reentrant; in serial order this blocks forever");
    return;
  }
  mutexes_[e.loc] = e.actor;
  ++held_counts_[e.actor];
}

void TraceLintStream::on_release(std::size_t i, const TraceEvent& e) {
  if (is_semaphore_id(e.loc)) {
    ++semaphores_[e.loc];  // V from any task is legal (semaphore hand-off)
    return;
  }
  const TaskId* holder = mutexes_.find(e.loc);
  if (holder == nullptr) {
    emit(LintCode::kReleaseWithoutAcquire, i, [&](std::ostream& os) {
      os << "task " << e.actor << " releases mutex 0x" << std::hex << e.loc
         << std::dec << " which no task holds";
    }, "acquire a mutex before releasing it");
    return;
  }
  if (*holder != e.actor) {
    emit(LintCode::kCrossTaskRelease, i, [&](std::ostream& os) {
      os << "task " << e.actor << " releases mutex 0x" << std::hex << e.loc
         << std::dec << " held by task " << *holder;
    }, "only the holding task may release a mutex (semaphores may)");
    return;  // repair: the illegal release leaves the holder in place
  }
  mutexes_.erase(e.loc);
  std::uint32_t* count = held_counts_.find(e.actor);
  if (--*count == 0) held_counts_.erase(e.actor);
}

void TraceLintStream::on_halt(std::size_t i, const TraceEvent& e) {
  if (held_counts_.erase(e.actor)) {
    std::vector<Loc> held;
    mutexes_.for_each([&](Loc id, TaskId holder) {
      if (holder == e.actor) held.push_back(id);
    });
    std::sort(held.begin(), held.end());  // stable diagnostic order
    for (Loc id : held) {
      emit(LintCode::kUnreleasedAtHalt, i, [&](std::ostream& os) {
        os << "task " << e.actor << " halts still holding mutex 0x"
           << std::hex << id << std::dec;
      }, "release every mutex before the task halts");
      mutexes_.erase(id);  // repair: avoid cascading L017 downstream
    }
  }
  if (tasks_[e.actor].finish_depth > 0) {
    emit(LintCode::kFinishUnclosed, i, [&](std::ostream& os) {
      os << "task " << e.actor << " halts with "
         << tasks_[e.actor].finish_depth << " open finish region(s)";
    }, "emit finish_end before the task halts");
  }
  tasks_[e.actor].halted = true;
  if (stack_.back() == e.actor) {
    stack_.pop_back();
  } else {
    // Out-of-order halt (already reported): drop it from the run stack so
    // later events by its ancestors are judged on their own merits.
    for (std::size_t s = stack_.size(); s-- > 0;) {
      if (stack_[s] == e.actor) {
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(s));
        break;
      }
    }
  }
}

void TraceLintStream::on_access(std::size_t i, const TraceEvent& e) {
  std::uint8_t& state = locs_[e.loc];
  if (state == kLocRetired) {
    emit(LintCode::kAccessAfterRetire, i, [&](std::ostream& os) {
      os << op_name(e.op) << " of location 0x" << std::hex << e.loc
         << std::dec << " by task " << e.actor << " after its retirement";
    }, "legal address reuse, but a fresh logical location avoids ambiguity");
  }
  state = kLocTracked;
}

void TraceLintStream::on_retire(std::size_t i, const TraceEvent& e) {
  std::uint8_t& state = locs_[e.loc];
  if (state != kLocTracked) {
    emit(LintCode::kDeadRetire, i, [&](std::ostream& os) {
      os << "retire of location 0x" << std::hex << e.loc << std::dec
         << " by task " << e.actor << " with no live accesses to retire";
    }, "dead retires are ignored by the detectors");
    return;  // the detectors ignore it too: no lifetime ends here
  }
  state = kLocRetired;
}

void TraceLintStream::finish() {
  if (finished_) return;
  finished_ = true;
  const std::size_t end = index_;
  if (!stack_.empty()) {
    emit(LintCode::kTruncatedTrace, end, [&](std::ostream& os) {
      if (end == 0) {
        os << "trace is empty; the root task never ran";
        return;
      }
      os << "trace ends with " << stack_.size()
         << " task(s) still running (innermost: task " << stack_.back()
         << "); the root never halted";
    }, "a complete trace ends with the root's halt");
    return;  // unjoined-task findings would only restate the truncation
  }
  for (TaskId t = 1; t < tasks_.size(); ++t) {
    if (!tasks_[t].joined) {
      emit(LintCode::kUnjoinedTask, end, [&](std::ostream& os) {
        os << "task " << t << " was never joined; the task graph has "
           << "multiple sinks (Theorem 6 needs the root to join all)";
      }, "join every forked task before the root halts");
    }
  }
}

TraceLintStream::Snapshot TraceLintStream::export_state() const {
  Snapshot s;
  s.index = index_;
  s.finished = finished_;
  s.warnings_emitted = warnings_emitted_;
  s.errors_emitted = errors_emitted_;
  s.tasks = tasks_;
  s.stack = stack_;
  s.locs.reserve(locs_.size());
  locs_.for_each([&s](Loc loc, std::uint8_t state) {
    s.locs.emplace_back(loc, state);
  });
  s.mutexes.reserve(mutexes_.size());
  mutexes_.for_each([&s](Loc id, TaskId holder) {
    s.mutexes.emplace_back(id, holder);
  });
  s.semaphores.reserve(semaphores_.size());
  semaphores_.for_each([&s](Loc id, std::uint64_t count) {
    s.semaphores.emplace_back(id, count);
  });
  return s;
}

void TraceLintStream::import_state(Snapshot&& s) {
  // feed() serves the stack's top without checking that it is known.
  for (const TaskId t : s.stack)
    R2D_REQUIRE(t < s.tasks.size(), "snapshot stack names a missing task");
  index_ = static_cast<std::size_t>(s.index);
  finished_ = s.finished;
  warnings_emitted_ = static_cast<std::size_t>(s.warnings_emitted);
  errors_emitted_ = static_cast<std::size_t>(s.errors_emitted);
  tasks_ = std::move(s.tasks);
  stack_ = std::move(s.stack);
  locs_.clear();
  if (options_.warnings) {
    locs_.reserve(s.locs.size());
    for (const auto& [loc, state] : s.locs) locs_[loc] = state;
  }
  mutexes_.clear();
  mutexes_.reserve(s.mutexes.size());
  for (const auto& [id, holder] : s.mutexes) {
    if (holder == kInvalidTask)
      mutexes_.erase(id);
    else
      mutexes_[id] = holder;
  }
  held_counts_.clear();  // derived: not part of the snapshot
  mutexes_.for_each([this](Loc, TaskId holder) { ++held_counts_[holder]; });
  semaphores_.clear();
  semaphores_.reserve(s.semaphores.size());
  for (const auto& [id, count] : s.semaphores) semaphores_[id] = count;
}

std::size_t TraceLintStream::memory_bytes() const {
  return tasks_.capacity() * sizeof(TaskState) +
         stack_.capacity() * sizeof(TaskId) + locs_.heap_bytes() +
         mutexes_.heap_bytes() + held_counts_.heap_bytes() +
         semaphores_.heap_bytes();
}

LintResult TraceLinter::run(const Trace& trace) const {
  TraceLintStream stream(options_);
  for (const TraceEvent& e : trace) stream.feed(e);
  stream.finish();
  return stream.take();
}

LintResult lint_trace(const Trace& trace) { return TraceLinter().run(trace); }

void require_lint_clean(const Trace& trace) {
  // Gate configuration: errors only, stop early — the first few findings
  // are what an exception message can usefully carry.
  TraceLintOptions options;
  options.warnings = false;
  options.max_diagnostics = 8;
  LintResult result = TraceLinter(options).run(trace);
  if (!result.ok()) throw TraceLintError(std::move(result));
}

}  // namespace race2d
