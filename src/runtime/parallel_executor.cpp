#include "runtime/parallel_executor.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace race2d {

namespace {

struct ParTask {
  TaskBody body;
  TaskId id = kInvalidTask;
  /// Left neighbor in the line. Written only by this task's own forks/joins
  /// while it runs; its final value is published by the `done` release store
  /// and read by the joiner after the acquire load.
  TaskId left = kInvalidTask;
  std::atomic<bool> done{false};
};

struct PoolState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<ParTask>> tasks;  // indexed by TaskId; stable ptrs
  std::deque<ParTask*> ready;
  std::exception_ptr first_error;
  std::atomic<std::size_t> unfinished{0};
  bool shutdown = false;

  ParTask* get(TaskId id) {
    std::lock_guard<std::mutex> lock(mu);
    R2D_ASSERT(id < tasks.size());
    return tasks[id].get();
  }

  /// Registers a task (dense id assignment) without publishing it to the
  /// ready queue; enqueue() does that.
  ParTask* create_task(TaskBody body, TaskId left_neighbor) {
    std::lock_guard<std::mutex> lock(mu);
    auto task = std::make_unique<ParTask>();
    task->body = std::move(body);
    task->id = static_cast<TaskId>(tasks.size());
    task->left = left_neighbor;
    ParTask* raw = task.get();
    tasks.push_back(std::move(task));
    unfinished.fetch_add(1, std::memory_order_relaxed);
    return raw;
  }

  void enqueue(ParTask* task) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(task);
    }
    cv.notify_one();
  }

  ParTask* try_pop() {
    std::lock_guard<std::mutex> lock(mu);
    if (ready.empty()) return nullptr;
    ParTask* t = ready.front();
    ready.pop_front();
    return t;
  }

  /// Removes `target` from the ready queue if still queued. Used by the
  /// targeted help-on-join ("leapfrogging"): a blocked task may only execute
  /// the task it waits for — running arbitrary queued tasks on top of a
  /// blocked frame can deadlock when the stolen task transitively depends on
  /// the blocked one (its continuation is pinned under the thief's stack).
  bool try_pop_specific(ParTask* target) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto it = ready.begin(); it != ready.end(); ++it) {
      if (*it == target) {
        ready.erase(it);
        return true;
      }
    }
    return false;
  }

  void record_error(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!first_error) first_error = std::move(e);
  }
};

void execute_task(PoolState& state, ParTask* task);

class ParallelContext final : public TaskContext {
 public:
  ParallelContext(PoolState& state, ParTask* self) : state_(state), self_(self) {}

  TaskHandle fork(TaskBody body) override {
    ParTask* child = state_.create_task(std::move(body), self_->left);
    self_->left = child->id;  // child sits immediately left of the parent
    state_.enqueue(child);
    return TaskHandle{child->id};
  }

  void join(TaskHandle h) override {
    R2D_REQUIRE(h.valid(), "join of an invalid handle");
    R2D_REQUIRE(h.id == self_->left,
                "line discipline violation: join target is not the immediate "
                "left neighbor");
    ParTask* target = state_.get(h.id);
    // Targeted help-on-join: run the join target ourselves if it is still
    // queued; otherwise wait for whoever has it. The target's own inner
    // joins recurse through the same rule, walking exactly the (acyclic)
    // dependency chain — deadlock-free even with a single worker.
    while (!target->done.load(std::memory_order_acquire)) {
      if (state_.try_pop_specific(target)) {
        execute_task(state_, target);
      } else {
        // Someone else is running it; completions notify the cv.
        std::unique_lock<std::mutex> lock(state_.mu);
        state_.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return target->done.load(std::memory_order_acquire);
        });
      }
    }
    self_->left = target->left;  // safe: published by the done store
  }

  bool join_left() override {
    if (self_->left == kInvalidTask) return false;
    join(TaskHandle{self_->left});
    return true;
  }

  bool has_left() const override { return self_->left != kInvalidTask; }

  // Accesses are uninstrumented.
  void read(Loc) override {}
  void write(Loc) override {}
  void retire(Loc) override {}
  void sync_marker() override {}
  void finish_begin_marker() override {}
  void finish_end_marker() override {}

  /// Approximate under parallelism (halted-but-unjoined tasks are not
  /// counted); the transitive finish scope is a serial-mode construct.
  std::size_t live_tasks() const override {
    return state_.unfinished.load(std::memory_order_acquire);
  }

  TaskId id() const override { return self_->id; }

 private:
  PoolState& state_;
  ParTask* self_;
};

void execute_task(PoolState& state, ParTask* task) {
  try {
    ParallelContext ctx(state, task);
    task->body(ctx);
  } catch (...) {
    state.record_error(std::current_exception());
  }
  task->body = nullptr;  // release captures eagerly
  task->done.store(true, std::memory_order_release);
  state.unfinished.fetch_sub(1, std::memory_order_acq_rel);
  state.cv.notify_all();
}

void worker_loop(PoolState& state) {
  while (true) {
    ParTask* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(state.mu);
      state.cv.wait(lock, [&] { return state.shutdown || !state.ready.empty(); });
      if (state.shutdown && state.ready.empty()) return;
      task = state.ready.front();
      state.ready.pop_front();
    }
    execute_task(state, task);
  }
}

}  // namespace

std::size_t ParallelExecutor::run(TaskBody root_body) {
  PoolState state;
  unsigned threads = options_.num_threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 2;

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    pool.emplace_back([&state] { worker_loop(state); });

  ParTask* root = state.create_task(std::move(root_body), kInvalidTask);
  state.enqueue(root);

  // The calling thread helps until every task (root included) has finished.
  while (state.unfinished.load(std::memory_order_acquire) != 0) {
    if (ParTask* work = state.try_pop()) {
      execute_task(state, work);
    } else {
      std::unique_lock<std::mutex> lock(state.mu);
      state.cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.shutdown = true;
  }
  state.cv.notify_all();
  for (auto& t : pool) t.join();

  if (state.first_error) std::rethrow_exception(state.first_error);
  std::lock_guard<std::mutex> lock(state.mu);
  return state.tasks.size();
}

}  // namespace race2d
