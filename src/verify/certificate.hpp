// Certifying race reports (the spirit of certifying algorithms: every
// verdict ships with an independently checkable witness).
//
// The detectors prove "no prior conflicting access is ordered before the
// current one" through the union-find suprema engine — fast, but a bug in
// that engine would silently fabricate or miss races. A RaceCertificate
// pins a report to two CONCRETE access ordinals; check_certificate re-proves
// their independence against the naive reachability oracle (BFS/transitive
// closure on the materialized Theorem 6 task graph) without touching the
// union-find machinery: the two ordinals address accesses of the same
// location in the same storage lifetime, at least one side writes (or
// retires), and neither task-graph vertex reaches the other.
//
// Ordinal space: the 1-based access ordinals the detectors stamp into
// RaceReport::access_index. Both replay engines and the offline walk of
// the task graph built from the same trace all agree on them (the
// canonical walk's loop order IS the serial execution order), so one
// certifier serves all three.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "baselines/oracle.hpp"
#include "core/report.hpp"
#include "runtime/trace.hpp"
#include "support/ids.hpp"

namespace race2d {

struct RaceCertificate {
  Loc loc = 0;
  /// 1-based global access ordinals of the two independent accesses;
  /// prior_ordinal < racing_ordinal, racing_ordinal == report.access_index.
  std::size_t prior_ordinal = 0;
  std::size_t racing_ordinal = 0;
  /// Task-graph vertices performing the two accesses.
  VertexId prior_vertex = kInvalidVertex;
  VertexId racing_vertex = kInvalidVertex;
  AccessKind prior_kind = AccessKind::kRead;
  AccessKind racing_kind = AccessKind::kRead;

  bool operator==(const RaceCertificate&) const = default;
};

std::string to_string(const RaceCertificate& c);

struct CertifiedReport {
  RaceReport report;
  RaceCertificate certificate;  ///< valid only when `certified`
  /// False when no independent witness exists — the report is a lead, not a
  /// provable race (the paper only guarantees precision for the FIRST one).
  bool certified = false;
};

struct CertificateCheck {
  bool ok = false;
  std::string reason;  ///< empty when ok
  explicit operator bool() const { return ok; }
};

/// Re-proves certificates for one trace. Construction lints the trace
/// (throws TraceLintError on errors), materializes the task graph, indexes
/// every counted access by its global ordinal, and builds the reachability
/// oracle — all independent of the union-find engine.
class CertificateChecker {
 public:
  explicit CertificateChecker(const Trace& trace);

  CertificateChecker(const CertificateChecker&) = delete;
  CertificateChecker& operator=(const CertificateChecker&) = delete;

  /// Verifies every claim a certificate makes; the reason names the first
  /// failing one.
  CertificateCheck check(const RaceCertificate& cert) const;

  /// Builds a certificate for `report` by locating the earliest prior
  /// conflicting access (same location, same storage lifetime) that the
  /// oracle proves concurrent with the exposing access. Returns
  /// certified=false when none exists.
  CertifiedReport certify(const RaceReport& report) const;

  /// Total counted accesses (== the detectors' access_count()).
  std::size_t access_count() const { return accesses_.size(); }
  const TaskGraph& graph() const { return graph_; }
  const HappensBeforeOracle& oracle() const { return oracle_; }

 private:
  struct AccessRecord {
    std::size_t event_index;  ///< position in the trace
    VertexId vertex;
    Loc loc;
    AccessKind kind;
  };

  const AccessRecord* record(std::size_t ordinal) const {
    return ordinal >= 1 && ordinal <= accesses_.size()
               ? &accesses_[ordinal - 1]
               : nullptr;
  }

  TaskGraph graph_;
  HappensBeforeOracle oracle_;
  std::vector<AccessRecord> accesses_;  ///< index = ordinal - 1
};

/// Certifies a batch of reports (from either replay engine or the offline
/// detector, all sharing one trace), reusing one checker.
std::vector<CertifiedReport> certify_races(const CertificateChecker& checker,
                                           const std::vector<RaceReport>& reports);
std::vector<CertifiedReport> certify_races(const Trace& trace,
                                           const std::vector<RaceReport>& reports);

/// One-shot convenience: builds a checker just for this certificate.
CertificateCheck check_certificate(const Trace& trace,
                                   const RaceCertificate& cert);

}  // namespace race2d
