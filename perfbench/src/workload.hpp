// Seeded workloads for the end-to-end race2dd benchmark.
//
// A workload is a pool of detection sessions plus the daemon and client
// shape that serves them. Every session is a program built from the fuzz
// shapes (fuzz/trace_gen.hpp): one or more generated subprograms, each run
// as a child task of a common root and joined before the next starts, so a
// session can be scaled to any length while staying lint-clean. The session
// is encoded once as R2DT wire bytes and split into FEED bodies; the daemon
// receives only those bytes. The expected report stream is computed offline
// with detect_races_trace on the same generated trace.
//
// Everything is a pure function of (workload name, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "runtime/trace.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace perfbench {

struct SessionSpec {
  race2d::DetectorEngine engine = race2d::DetectorEngine::kDsu;
  race2d::ReportPolicy policy = race2d::ReportPolicy::kAll;
  std::vector<std::string> frames;  ///< FEED bodies, in stream order
  std::vector<race2d::RaceReport> expected;  ///< detect_races_trace's output
  std::uint64_t events = 0;      ///< logical trace events
  std::uint64_t tasks = 0;       ///< forks in the trace
  std::uint64_t wire_bytes = 0;  ///< sum of frame sizes
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t connections = 1;  ///< client connections, one thread each
  std::size_t workers = 1;      ///< race2dd --workers
  /// The daemon's limits, passed to race2dd as flags and used as-is by the
  /// in-process passes.
  race2d::ServiceLimits limits;
  std::vector<SessionSpec> sessions;

  // Provenance.
  std::uint64_t events = 0;      ///< logical events over the session pool
  std::uint64_t tasks = 0;       ///< forks over the session pool
  std::uint64_t wire_bytes = 0;  ///< wire bytes over the session pool
  std::uint64_t run_events = 0;  ///< events inside v2 run repetitions
  std::uint64_t races = 0;       ///< expected reports over the session pool
};

/// Builds the named workload (bulk or chatty) from `seed`; throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Generates one long program subprogram by subprogram. Subprogram i is a
/// fuzz plan drawn from the seed (and adjusted by the workload's tweak), run
/// as a child of task 0; its task ids are shifted so the composed trace keeps
/// dense fork-order numbering, and its locations are shifted into window
/// i % loc_windows so the tracked-location count stays bounded however long
/// the program runs. The root joins each child before forking the next, so
/// subprograms never race with each other.
class ProgramComposer {
 public:
  using Tweak = race2d::FuzzPlan (*)(race2d::FuzzPlan, race2d::Xoshiro256&);

  ProgramComposer(std::uint64_t seed, Tweak tweak, std::size_t loc_windows);

  /// Appends the next subprogram; returns the number of events appended.
  std::size_t append_next(race2d::Trace& out);
  /// Tasks forked so far, the root excluded.
  std::uint64_t tasks() const { return next_task_ - 1; }
  /// Appends the root's halt, completing the program.
  static void finish(race2d::Trace& out);

 private:
  race2d::Xoshiro256 rng_;
  Tweak tweak_;
  std::size_t loc_windows_;
  std::size_t index_ = 0;
  race2d::TaskId next_task_ = 1;
};

/// The bulk workload's program stream (used by the Theorem-5 curve).
ProgramComposer bulk_composer(std::uint64_t seed);

}  // namespace perfbench
