// Race detection over order-maintenance timestamps (the DePa backend).
//
// DePaDetector consumes the same thread-level event stream as
// OnlineRaceDetector (fork/join/halt + read/write/retire in serial
// fork-first order) but answers every precedence query from the two
// OmClock tags instead of the labeled DSU. Verdicts — and reports,
// bit-for-bit — match the Figure 6 detector:
//
//   * every prior access ⊑ t   ⟺   sup(prior set) ⊑ t        (DSU world)
//                              ⟺   E-max ⊑_E t ∧ H-max ⊑_H t  (tag world)
//
// because "all of S before t" distributes over the two dimensions, the
// shadow cell keeps the componentwise maxima of the reader and writer sets
// (four interval pointers) in place of the two DSU suprema — still Θ(1)
// per location. The owner fast path mirrors ShadowCell's epoch cache with
// one improvement the order-maintenance lists buy: a cached "everything ⊑
// me" verdict can never be invalidated by later structural events (a
// task's later intervals only move up the order, and relabeling never
// reorders), so no version stamp is needed.
//
// Cost: a precedence query is two integer compares against the cell's
// maxima (O(1), no union-find walk), a fork or join is an amortized
// O(log n) insertion into each list, and every task interval takes Θ(1)
// bytes. Against the DSU, a cell holds four pointers instead of two ids.
#pragma once

#include <cstddef>
#include <vector>

#include "core/om_timestamps.hpp"
#include "core/report.hpp"
#include "support/flat_hash_map.hpp"
#include "support/mem_accounting.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

/// Shadow state per tracked location: componentwise maxima of the reader
/// and writer sets plus the owner fast path. Θ(1) per location.
struct DepaShadowCell {
  const OmInterval* read_emax = nullptr;
  const OmInterval* read_hmax = nullptr;
  const OmInterval* write_emax = nullptr;
  const OmInterval* write_hmax = nullptr;
  TaskId owner = kInvalidTask;  ///< cached "every prior ⊑ me" verdict holder
};

namespace detail {

/// All prior readers/writers of the class represented by (emax, hmax) are
/// ordered before `v`: per-dimension comparison against the per-dimension
/// maximum (equality means "same interval", which is ordered).
inline bool class_ordered(const OmInterval* emax, const OmInterval* hmax,
                          const OmInterval* v) {
  return emax->e.tag <= v->e.tag && hmax->h.tag <= v->h.tag;
}

/// On-Read over tags, mirroring shadow_read (§2.3 read rule: reads race
/// only with prior writes). `v` is task t's current interval.
inline void depa_read(DepaShadowCell& cell, const OmInterval* v, TaskId t,
                      Loc loc, std::size_t ordinal, RaceReporter& reporter) {
  if (cell.owner == t) {
    // Fast path: every prior access was ⊑ one of t's earlier intervals,
    // hence ⊑ v. Fold the reader maxima to v (v is now the max reader in
    // both dimensions) and skip the comparisons.
    cell.read_emax = cell.read_hmax = v;
    return;
  }
  bool clean = true;
  if (cell.write_emax != nullptr &&
      !class_ordered(cell.write_emax, cell.write_hmax, v)) {
    reporter.report({loc, t, AccessKind::kRead, AccessKind::kWrite, ordinal});
    clean = false;
  }
  const bool folded_e =
      cell.read_emax == nullptr || cell.read_emax->e.tag < v->e.tag;
  const bool folded_h =
      cell.read_hmax == nullptr || cell.read_hmax->h.tag < v->h.tag;
  if (folded_e) cell.read_emax = v;
  if (folded_h) cell.read_hmax = v;
  // Cache only the fully-ordered outcome: prior writes ⊑ v (clean) and
  // prior reads ⊑ v (v became the reader maximum in both dimensions).
  cell.owner = (clean && folded_e && folded_h) ? t : kInvalidTask;
}

/// On-Write over tags, mirroring shadow_write: a write races with prior
/// reads and prior writes (readers checked first, like Figure 6).
inline void depa_write(DepaShadowCell& cell, const OmInterval* v, TaskId t,
                       Loc loc, std::size_t ordinal, RaceReporter& reporter) {
  if (cell.owner == t) {
    cell.write_emax = cell.write_hmax = v;
    return;
  }
  bool clean = true;
  if (cell.read_emax != nullptr &&
      !class_ordered(cell.read_emax, cell.read_hmax, v)) {
    reporter.report({loc, t, AccessKind::kWrite, AccessKind::kRead, ordinal});
    clean = false;
  } else if (cell.write_emax != nullptr &&
             !class_ordered(cell.write_emax, cell.write_hmax, v)) {
    reporter.report({loc, t, AccessKind::kWrite, AccessKind::kWrite, ordinal});
    clean = false;
  }
  const bool folded_e =
      cell.write_emax == nullptr || cell.write_emax->e.tag < v->e.tag;
  const bool folded_h =
      cell.write_hmax == nullptr || cell.write_hmax->h.tag < v->h.tag;
  if (folded_e) cell.write_emax = v;
  if (folded_h) cell.write_hmax = v;
  cell.owner = (clean && folded_e && folded_h) ? t : kInvalidTask;
}

/// On-Retire over tags, mirroring shadow_retire: checked like a write
/// (readers first), then the caller drops the cell.
inline void depa_retire_check(const DepaShadowCell& cell, const OmInterval* v,
                              TaskId t, Loc loc, std::size_t ordinal,
                              RaceReporter& reporter) {
  if (cell.owner == t) return;  // cached clean verdict ⇒ no report
  if (cell.read_emax != nullptr &&
      !class_ordered(cell.read_emax, cell.read_hmax, v)) {
    reporter.report({loc, t, AccessKind::kRetire, AccessKind::kRead, ordinal});
  } else if (cell.write_emax != nullptr &&
             !class_ordered(cell.write_emax, cell.write_hmax, v)) {
    reporter.report({loc, t, AccessKind::kRetire, AccessKind::kWrite, ordinal});
  }
}

}  // namespace detail

/// The serial-replay DePa detector: OnlineRaceDetector's interface over the
/// order-maintenance backend. Drop-in for every replay driver (the
/// differential panel, the service, bench_common::drive).
class DePaDetector {
 public:
  explicit DePaDetector(ReportPolicy policy = ReportPolicy::kAll)
      : reporter_(policy) {}

  /// Registers the root task (id 0, like the executors and the DSU).
  TaskId on_root();

  /// `parent` forks a child; returns the child's dense task id.
  TaskId on_fork(TaskId parent);

  void on_join(TaskId joiner, TaskId joined);
  void on_halt(TaskId t);

  void on_read(TaskId t, Loc loc);
  void on_write(TaskId t, Loc loc);
  void on_retire(TaskId t, Loc loc);

  /// True iff task x's last-published interval is ordered before task t's
  /// current interval — eq. (6) in tag form. Exposed for tests.
  bool ordered_before(TaskId x, TaskId t) const {
    return OmClock::ordered_before(cur_[x], cur_[t]);
  }

  /// Run replay fast path (compressed traces), mirroring
  /// OnlineRaceDetector::try_apply_clean_run: after the template was fed
  /// once per-event, `extra_reps` further repetitions are a no-op iff every
  /// template event is a read/write whose cell the actor owns AND whose
  /// relevant maxima already point at the actor's CURRENT interval (owner
  /// alone is insufficient — a fork in the template would have moved cur_).
  bool try_apply_clean_run(const TraceEvent* events, std::size_t len,
                           std::uint64_t extra_reps);

  /// Pre-sizes the shadow map (replay drivers with a known location count).
  void reserve_locations(std::size_t n) { cells_.reserve(n); }

  const RaceReporter& reporter() const { return reporter_; }
  RaceReporter& mutable_reporter() { return reporter_; }
  bool race_found() const { return reporter_.any(); }

  std::size_t task_count() const { return cur_.size(); }
  std::size_t access_count() const { return access_count_; }
  std::size_t tracked_locations() const { return cells_.size(); }

  /// Shadow = per-location cells; per-task = clock arena + task table.
  MemoryFootprint footprint() const;

  /// Snapshot image. Interval pointers are replaced by arena allocation
  /// indices (kNullInterval = "no prior access of that kind"), which are
  /// deterministic across processes — see OmClock::for_each_interval.
  static constexpr std::uint64_t kNullInterval = ~std::uint64_t{0};
  struct CellState {
    Loc loc = 0;
    std::uint64_t read_emax = kNullInterval;
    std::uint64_t read_hmax = kNullInterval;
    std::uint64_t write_emax = kNullInterval;
    std::uint64_t write_hmax = kNullInterval;
    TaskId owner = kInvalidTask;
  };
  struct State {
    OmClock::State clock;
    std::vector<std::uint64_t> cur;  ///< task id -> arena index
    std::vector<CellState> cells;
    std::vector<RaceReport> undrained;
    RaceReport first;
    std::uint64_t reports_total = 0;
    std::uint64_t access_count = 0;
  };
  State export_state() const;
  /// Rebuilds the detector (fresh construction required). Indices must be
  /// in range — the snapshot codec bound-checks against clock.intervals
  /// before calling. Returns false, leaving the detector empty, when the
  /// clock's tags leave the universe or repeat within a list (the check
  /// that needs the rebuild's sort; see OmClock::import_state).
  [[nodiscard]] bool import_state(const State& s);

 private:
  OmClock clock_;
  std::vector<OmInterval*> cur_;  ///< task id -> current interval
  FlatHashMap<Loc, DepaShadowCell> cells_;
  RaceReporter reporter_;
  std::size_t access_count_ = 0;
};

/// Replays `trace` through one DePaDetector — the panel's tag-backend
/// reference, bit-identical to detect_races_trace on lint-clean traces.
/// Lint-failing traces raise TraceLintError unless the gate is kSkip.
std::vector<RaceReport> detect_races_trace_depa(
    const Trace& trace, ReportPolicy policy = ReportPolicy::kAll,
    LintGate gate = LintGate::kEnforce);

}  // namespace race2d
