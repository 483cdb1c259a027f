#include "runtime/serial_executor.hpp"

#include <utility>

#include "runtime/trace.hpp"
#include "support/assert.hpp"

namespace race2d {

namespace {

struct SerialState {
  TaskLine line;
  ExecutionListener* listener;
  std::size_t max_fork_depth;
};

class SerialContext final : public TaskContext {
 public:
  SerialContext(SerialState& state, TaskId self, std::size_t depth)
      : state_(state), self_(self), depth_(depth) {}

  TaskHandle fork(TaskBody body) override {
    R2D_REQUIRE(depth_ < state_.max_fork_depth, "fork depth limit exceeded");
    const TaskId child = state_.line.fork(self_);
    emit(TraceOp::kFork, child);
    // Fork-first: run the child to completion before continuing the parent.
    run_task(child, std::move(body));
    return TaskHandle{child};
  }

  void join(TaskHandle h) override {
    R2D_REQUIRE(h.valid(), "join of an invalid handle");
    state_.line.join(self_, h.id);  // validates the left-neighbor discipline
    emit(TraceOp::kJoin, h.id);
  }

  bool join_left() override {
    const TaskId left = state_.line.left_of(self_);
    if (left == kInvalidTask) return false;
    state_.line.join(self_, left);
    emit(TraceOp::kJoin, left);
    return true;
  }

  bool has_left() const override {
    return state_.line.left_of(self_) != kInvalidTask;
  }

  void read(Loc loc) override { emit(TraceOp::kRead, kInvalidTask, loc); }
  void write(Loc loc) override { emit(TraceOp::kWrite, kInvalidTask, loc); }
  void retire(Loc loc) override { emit(TraceOp::kRetire, kInvalidTask, loc); }
  void sync_marker() override { emit(TraceOp::kSync); }
  void finish_begin_marker() override { emit(TraceOp::kFinishBegin); }
  void finish_end_marker() override { emit(TraceOp::kFinishEnd); }
  void acquire_marker(Loc sync_id) override {
    emit(TraceOp::kAcquire, kInvalidTask, sync_id);
  }
  void release_marker(Loc sync_id) override {
    emit(TraceOp::kRelease, kInvalidTask, sync_id);
  }

  std::size_t live_tasks() const override { return state_.line.live_count(); }

  bool exact_live_tasks() const override { return true; }

  TaskId id() const override { return self_; }

  void run_task(TaskId task, TaskBody body) {
    SerialContext ctx(state_, task, depth_ + 1);
    body(ctx);
    state_.line.halt(task);
    ctx.emit(TraceOp::kHalt);
  }

 private:
  /// Hands the listener one event by this task.
  void emit(TraceOp op, TaskId other = kInvalidTask, Loc loc = 0) {
    if (state_.listener) state_.listener->on_event({op, self_, other, loc});
  }

  SerialState& state_;
  TaskId self_;
  std::size_t depth_;
};

}  // namespace

std::size_t SerialExecutor::run(TaskBody root_body) {
  SerialState state{TaskLine{}, listener_, options_.max_fork_depth};
  const TaskId root = state.line.init_root();
  R2D_ASSERT(root == 0);
  SerialContext bootstrap(state, root, 0);
  bootstrap.run_task(root, std::move(root_body));
  return state.line.task_count();
}

}  // namespace race2d
