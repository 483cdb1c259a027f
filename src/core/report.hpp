// Race reports and their collection policy.
//
// The paper's soundness contract (§2.3): if an execution finishes with no
// reported race, the program is deterministic from that input; reports are
// precise up to the FIRST one (later reports may be false positives). The
// collector therefore always retains the first report and can either keep
// collecting (kAll, default) or stop checking (kFirstOnly) afterwards.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/ids.hpp"

namespace race2d {

enum class AccessKind : std::uint8_t {
  kRead,
  kWrite,
  kRetire,  ///< shadow retirement (scope exit / free); conflicts like a write
};

struct RaceReport {
  Loc loc = 0;
  TaskId current_task = kInvalidTask;  ///< the access that exposed the race
  AccessKind current_kind = AccessKind::kRead;
  AccessKind prior_kind = AccessKind::kRead;  ///< kind of the conflicting set
  std::size_t access_index = 0;  ///< ordinal of the exposing access in the run

  bool operator==(const RaceReport&) const = default;
};

std::string to_string(const RaceReport& r);

enum class ReportPolicy : std::uint8_t {
  kAll,        ///< report every detected race (first one is the precise one)
  kFirstOnly,  ///< stop recording after the first race
};

class RaceReporter {
 public:
  explicit RaceReporter(ReportPolicy policy = ReportPolicy::kAll)
      : policy_(policy) {}

  void report(const RaceReport& r) {
    if (policy_ == ReportPolicy::kFirstOnly && total_ > 0) return;
    if (total_ == 0) first_ = r;
    ++total_;
    reports_.push_back(r);
  }

  /// Totals survive take(): any()/count()/first() describe the whole run,
  /// not just the undrained tail.
  bool any() const { return total_ > 0; }
  std::size_t count() const { return total_; }
  /// Reports not yet drained by take() (every report, for batch users).
  const std::vector<RaceReport>& all() const { return reports_; }
  const RaceReport& first() const { return first_; }

  /// Drains the pending reports — the incremental consumers' primitive
  /// (a detection session frees report memory at every client drain).
  std::vector<RaceReport> take() {
    std::vector<RaceReport> out = std::move(reports_);
    reports_.clear();
    return out;
  }

  ReportPolicy policy() const { return policy_; }

  /// Rebuilds the reporter from snapshot fields: the undrained tail, the
  /// retained first report, and the all-time total. The policy stays
  /// whatever the constructor set (the snapshot codec re-creates the
  /// reporter with the session's recorded policy first).
  void import_state(std::vector<RaceReport> undrained, const RaceReport& first,
                    std::size_t total) {
    reports_ = std::move(undrained);
    first_ = first;
    total_ = total;
  }

 private:
  ReportPolicy policy_;
  std::vector<RaceReport> reports_;
  RaceReport first_;       ///< earliest report, retained across take()
  std::size_t total_ = 0;  ///< reports ever recorded, including drained
};

}  // namespace race2d
