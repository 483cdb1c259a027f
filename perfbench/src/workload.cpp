#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/sharded_analyzer.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"

namespace perfbench {

using namespace race2d;

namespace {

// Subprogram pools are < 2^16 and future cells sit at 2^20 + i
// (fuzz/trace_gen.cpp), so windows 2^21 apart never overlap.
constexpr unsigned kLocWindowShift = 21;
// Bulk programs keep 16 windows of up to 4096 pool locations apiece
// tracked: enough distinct locations that races stay sparse, few enough
// that the shadow memory stays near 6 MiB.
constexpr std::size_t kBulkWindows = 16;

FuzzPlan bulk_tweak(FuzzPlan plan, Xoshiro256&) {
  // Wide pools and a low race bias: long programs whose races are sparse.
  plan.loc_pool = 4096;
  plan.race_bias = 0.01;
  return plan;
}

FuzzPlan chatty_tweak(FuzzPlan plan, Xoshiro256& rng) {
  // Near misses and unsynchronized future reads, half of them racing. Every
  // knob but the shape is fixed, so the sessions are statistically alike and
  // a seed changes their content but not their cost.
  FuzzPlan fixed;
  fixed.seed = plan.seed;
  fixed.shape = rng.chance(0.5) ? TraceShape::kNearMissRaces
                                : TraceShape::kFutureChain;
  fixed.max_tasks = 48;
  fixed.max_actions = 16;
  fixed.max_depth = 6;
  fixed.loc_pool = 8;
  fixed.race_bias = 0.5;
  return fixed;
}

struct SessionShape {
  ProgramComposer::Tweak tweak;
  std::size_t loc_windows;
  /// Subprograms are appended until the program has this many events or
  /// this many tasks, whichever comes first.
  std::uint64_t target_events;
  std::uint64_t target_tasks;
  CompressionMode compression;
  std::size_t frame_bytes;
};

SessionSpec make_session(std::uint64_t seed, const SessionShape& shape,
                         DetectorEngine engine, std::uint64_t& run_events) {
  ProgramComposer composer(seed, shape.tweak, shape.loc_windows);
  Trace trace;
  while (trace.size() < shape.target_events && composer.tasks() < shape.target_tasks)
    composer.append_next(trace);
  ProgramComposer::finish(trace);

  SessionSpec s;
  s.engine = engine;
  s.policy = ReportPolicy::kAll;
  s.events = trace.size();
  for (const TraceEvent& e : trace) s.tasks += e.op == TraceOp::kFork;
  s.expected = detect_races_trace(trace, s.policy);

  BinaryWriteOptions options;
  options.chunk_payload_bytes = shape.frame_bytes;
  options.compression = shape.compression;
  const std::string wire = trace_to_binary(trace, options);
  trace = Trace();
  for (std::size_t at = 0; at < wire.size(); at += shape.frame_bytes)
    s.frames.push_back(wire.substr(at, shape.frame_bytes));
  s.wire_bytes = wire.size();

  if (shape.compression == CompressionMode::kRuns) {
    BinaryTraceDecoder decoder;
    std::vector<TraceEvent> events;
    std::vector<DecodedRun> runs;
    decoder.feed(wire.data(), wire.size(), events, &runs);
    for (const DecodedRun& r : runs) run_events += std::uint64_t{r.len} * r.extra;
  }
  return s;
}

void add_sessions(Workload& w, std::size_t count, const SessionShape& shape,
                  DetectorEngine engine) {
  Xoshiro256 rng(w.seed);
  for (std::size_t i = 0; i < count; ++i) {
    w.sessions.push_back(make_session(rng(), shape, engine, w.run_events));
    w.events += w.sessions.back().events;
    w.tasks += w.sessions.back().tasks;
    w.wire_bytes += w.sessions.back().wire_bytes;
    w.races += w.sessions.back().expected.size();
  }
}

}  // namespace

ProgramComposer::ProgramComposer(std::uint64_t seed, Tweak tweak,
                                 std::size_t loc_windows)
    : rng_(seed), tweak_(tweak), loc_windows_(loc_windows) {}

std::size_t ProgramComposer::append_next(Trace& out) {
  const FuzzPlan plan = tweak_(FuzzPlan::from_seed(rng_()), rng_);
  const Trace sub = generate_trace(plan).trace;
  const TaskId base = next_task_;
  const Loc loc_base = static_cast<Loc>(index_ % loc_windows_)
                       << kLocWindowShift;
  ++index_;
  const std::size_t before = out.size();
  out.push_back({TraceOp::kFork, 0, base, 0});
  TaskId tasks = 1;
  bool root_halted = false;
  for (TraceEvent e : sub) {
    if (e.op == TraceOp::kFork) ++tasks;
    if (e.op == TraceOp::kHalt && e.actor == 0) root_halted = true;
    e.actor += base;
    if (e.other != kInvalidTask) e.other += base;
    if (e.op == TraceOp::kRead || e.op == TraceOp::kWrite ||
        e.op == TraceOp::kRetire)
      e.loc += loc_base;
    out.push_back(e);
  }
  if (!root_halted) out.push_back({TraceOp::kHalt, base, kInvalidTask, 0});
  out.push_back({TraceOp::kJoin, 0, base, 0});
  next_task_ += tasks;
  return out.size() - before;
}

void ProgramComposer::finish(Trace& out) {
  out.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
}

ProgramComposer bulk_composer(std::uint64_t seed) {
  return ProgramComposer(seed, bulk_tweak, kBulkWindows);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "bulk") {
    w.connections = 1;
    w.workers = 1;
    // Sized by tasks, not events: the daemon's task tables then grow the
    // same way on every seed, and its peak RSS does not jump with the seed
    // across a table's capacity step (one sits near 220 000 tasks).
    add_sessions(w, 1,
                 {bulk_tweak, kBulkWindows, ~std::uint64_t{0}, 200'000,
                  CompressionMode::kNone, 64 << 10},
                 DetectorEngine::kDsu);
  } else if (name == "chatty") {
    w.connections = 4;
    w.workers = 2;
    add_sessions(w, 1024,
                 {chatty_tweak, 4, 1'000, ~std::uint64_t{0}, CompressionMode::kRuns,
                  2 << 10},
                 DetectorEngine::kDepa);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace perfbench
