#include "verify/trace_lint.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace race2d {

namespace {

/// Per-location lifetime state for the retire hygiene warnings.
enum : std::uint8_t { kLocTracked = 1, kLocRetired = 2 };

}  // namespace

TraceLintStream::TraceLintStream(TraceLintOptions options)
    : options_(options) {
  reset();
}

void TraceLintStream::reset() {
  result_ = {};
  index_ = 0;
  finished_ = false;
  warnings_emitted_ = 0;
  errors_emitted_ = 0;
  task_index_.reset();
  tasks_.clear();
  joined_rows_ = 0;
  stack_.clear();
  locs_.reset();
  mutexes_.reset();
  held_counts_.reset();
  semaphores_.reset();
  // The initial line {root | program}: task 0 running, alone.
  stack_.push_back({task_index_.add(), 0});
  tasks_.push_back({});
  top_halted_ = false;
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
  // Fast path: the running task (the stack holds tasks on the line only)
  // passes every check admit() makes, unless it halted — which the stream
  // itself never leaves on the stack, but a restored snapshot can.
  const bool running =
      !stack_.empty() && stack_.back().id == e.actor && !top_halted_;
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
      ++tasks_[actor_row(e.actor)].finish_depth;
      break;
    case TraceOp::kFinishEnd: {
      TaskState& actor = tasks_[actor_row(e.actor)];
      if (actor.finish_depth == 0) {
        emit(LintCode::kFinishEndUnbalanced, i, [&](std::ostream& os) {
          os << op_name(e.op) << " by task " << e.actor
             << " without an open finish region";
        }, "balance finish_begin/finish_end per task");
      } else {
        --actor.finish_depth;
      }
      break;
    }
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
         << task_index_.task_count() << " task(s) introduced so far)";
    }, "every task id must first appear as a fork's child");
    return false;
  }
  // A task with no row was joined, so it halted.
  const TaskState* actor = find(e.actor);
  if (actor == nullptr || actor->halted) {
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
  if (stack_.back().id != e.actor) {
    const TaskId expected = stack_.back().id;
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
      os << op_name(e.op) << " by task " << e.actor
         << " names the reserved invalid task id as its child";
    });
    return;
  }
  if (known(e.other)) {
    emit(LintCode::kForkChildCollision, i, [&](std::ostream& os) {
      os << op_name(e.op) << " by task " << e.actor << " re-introduces task "
         << e.other;
    }, "each task id may be forked exactly once");
    return;
  }
  if (e.other != task_index_.task_count()) {
    emit(LintCode::kForkChildNotDense, i, [&](std::ostream& os) {
      os << op_name(e.op) << " by task " << e.actor << " introduces child "
         << e.other << " but the next dense id is " << task_index_.task_count();
    }, "task ids are dense in fork order (root is 0)");
    return;
  }
  // Insert the child immediately LEFT of its parent (Figure 9).
  const std::uint32_t parent = actor_row(e.actor);
  const auto row = static_cast<std::uint32_t>(tasks_.size());
  TaskState child;
  child.left = tasks_[parent].left;
  child.right = parent;
  tasks_[parent].left = row;
  if (child.left != kNoRow) tasks_[child.left].right = row;
  tasks_.push_back(child);
  // Fork-first: the child runs next.
  stack_.push_back({task_index_.add(), row});
  top_halted_ = false;
}

void TraceLintStream::on_join(std::size_t i, const TraceEvent& e) {
  if (e.other == kInvalidTask) {
    emit(LintCode::kInvalidTaskId, i, [&](std::ostream& os) {
      os << op_name(e.op) << " by task " << e.actor
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
  // The target is normally the actor's left neighbor, whose row the line
  // gives; any other target is looked up to name the error. A task with no
  // row was joined.
  const std::uint32_t actor = actor_row(e.actor);
  const std::uint32_t left = tasks_[actor].left;
  const bool neighbor = left != kNoRow && task_index_.id_at(left) == e.other;
  TaskState* target = neighbor ? &tasks_[left] : find(e.other);
  if (target == nullptr || target->joined) {
    emit(LintCode::kJoinTargetJoined, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins task " << e.other
         << ", which was already joined";
    }, "each task is joined exactly once");
    return;
  }
  if (!target->halted) {
    emit(LintCode::kJoinTargetNotHalted, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins task " << e.other
         << ", which has not halted";
    }, "a join consumes a halted task (the delayed last-arc)");
    return;
  }
  if (!neighbor) {
    emit(LintCode::kJoinNotLeftNeighbor, i, [&](std::ostream& os) {
      os << "task " << e.actor << " joins task " << e.other
         << " but its immediate left neighbor is ";
      if (left == kNoRow)
        os << "nothing";
      else
        os << "task " << task_index_.id_at(left);
    }, "Figure 9 allows joining only the immediate left neighbor");
    return;
  }
  // Remove the joined task from the line.
  target->joined = true;
  tasks_[actor].left = target->left;
  if (target->left != kNoRow) tasks_[target->left].right = actor;
  ++joined_rows_;
  if (joined_rows_ > tasks_.size() - joined_rows_ &&
      tasks_.size() >= LiveTaskIndex::kCompactionFloor)
    drop_joined_rows();
}

void TraceLintStream::drop_joined_rows() {
  const std::vector<std::uint32_t> remap = task_index_.compact(
      [this](std::uint32_t row) { return !tasks_[row].joined; });
  // Links name tasks on the line, which are all kept. Kept rows move down,
  // never up, so the rows can move in place.
  const auto moved = [&remap](std::uint32_t row) {
    return row == kNoRow ? kNoRow : remap[row];
  };
  for (std::size_t row = 0; row < remap.size(); ++row) {
    if (remap[row] == kNoRow) continue;
    TaskState t = tasks_[row];
    t.left = moved(t.left);
    t.right = moved(t.right);
    tasks_[remap[row]] = t;
  }
  tasks_.resize(task_index_.rows());
  for (Running& r : stack_) r.row = moved(r.row);
  joined_rows_ = 0;
}

void TraceLintStream::refresh_top() {
  if (stack_.empty()) return;
  // A restored stack can hold a halted task, and a join can then drop its
  // row; without one it reads as halted.
  const std::uint32_t row = stack_.back().row;
  top_halted_ = row == kNoRow || tasks_[row].halted;
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
  TaskState& actor = tasks_[actor_row(e.actor)];
  if (actor.finish_depth > 0) {
    emit(LintCode::kFinishUnclosed, i, [&](std::ostream& os) {
      os << "task " << e.actor << " halts with " << actor.finish_depth
         << " open finish region(s)";
    }, "emit finish_end before the task halts");
  }
  actor.halted = true;
  if (stack_.back().id == e.actor) {
    stack_.pop_back();
  } else {
    // Out-of-order halt (already reported): drop it from the run stack so
    // later events by its ancestors are judged on their own merits.
    for (std::size_t s = stack_.size(); s-- > 0;) {
      if (stack_[s].id == e.actor) {
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(s));
        break;
      }
    }
  }
  refresh_top();
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
      os << op_name(e.op) << " of location 0x" << std::hex << e.loc << std::dec
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
         << " task(s) still running (innermost: task " << stack_.back().id
         << "); the root never halted";
    }, "a complete trace ends with the root's halt");
    return;  // unjoined-task findings would only restate the truncation
  }
  // Rows are in ascending id order; a task without one was joined.
  for (std::uint32_t row = 0; row < tasks_.size(); ++row) {
    const TaskId t = task_index_.id_at(row);
    if (t != 0 && !tasks_[row].joined) {
      emit(LintCode::kUnjoinedTask, end, [&](std::ostream& os) {
        os << "task " << t << " was never joined; the task graph has "
           << "multiple sinks (Theorem 6 needs the root to join all)";
      }, "join every forked task before the root halts");
    }
  }
}

TraceLintStream::Snapshot TraceLintStream::export_state() const {
  R2D_REQUIRE(!finished_ && result_.diagnostics.empty() && !result_.truncated,
              "only an unfinished stream with no findings snapshots");
  Snapshot s;
  s.index = index_;
  s.task_count = task_index_.task_count();
  const auto id_of = [this](std::uint32_t row) {
    return row == kNoRow ? kInvalidTask : task_index_.id_at(row);
  };
  for (std::uint32_t row = 0; row < tasks_.size(); ++row) {
    const TaskState& t = tasks_[row];
    if (!t.joined)
      s.line.push_back({id_of(row), id_of(t.left), id_of(t.right),
                        t.finish_depth, t.halted});
  }
  for (const Running& r : stack_) s.stack.push_back(r.id);
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
  // From a fresh stream, the line becomes the rows, every one carried, and
  // its links and the stack become rows. feed() serves the stack's top,
  // and a fork or join follows the links, without checking that they are
  // on the line.
  reset();
  std::vector<TaskId> ids;
  ids.reserve(s.line.size());
  for (const LineTask& t : s.line) ids.push_back(t.id);
  task_index_.import_state({s.task_count, s.task_count, std::move(ids)});
  const auto row_on_line = [this](TaskId t) {
    if (t == kInvalidTask) return kNoRow;
    const std::uint32_t row = task_index_.row(t);
    R2D_REQUIRE(row != kNoRow, "snapshot names a task off the line");
    return row;
  };
  tasks_.clear();
  tasks_.reserve(s.line.size());
  for (const LineTask& t : s.line)
    tasks_.push_back({row_on_line(t.left), row_on_line(t.right),
                      t.finish_depth, t.halted, false});
  stack_.clear();
  stack_.reserve(s.stack.size());
  for (const TaskId t : s.stack) {
    R2D_REQUIRE(t != kInvalidTask, "snapshot names a task off the line");
    stack_.push_back({t, row_on_line(t)});
  }
  index_ = static_cast<std::size_t>(s.index);
  refresh_top();
  if (options_.warnings) {
    locs_.reserve(s.locs.size());
    for (const auto& [loc, state] : s.locs) locs_[loc] = state;
  }
  mutexes_.reserve(s.mutexes.size());
  for (const auto& [id, holder] : s.mutexes) {
    if (holder == kInvalidTask)
      mutexes_.erase(id);
    else
      mutexes_[id] = holder;
  }
  // Derived: not part of the snapshot.
  mutexes_.for_each([this](Loc, TaskId holder) { ++held_counts_[holder]; });
  semaphores_.reserve(s.semaphores.size());
  for (const auto& [id, count] : s.semaphores) semaphores_[id] = count;
}

std::size_t TraceLintStream::memory_bytes() const {
  return tasks_.capacity() * sizeof(TaskState) + task_index_.heap_bytes() +
         stack_.capacity() * sizeof(Running) + locs_.heap_bytes() +
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
  LintResult result = TraceLinter(kGateLintOptions).run(trace);
  if (!result.ok()) throw TraceLintError(std::move(result));
}

}  // namespace race2d
