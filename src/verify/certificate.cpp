#include "verify/certificate.hpp"

#include <sstream>

#include "support/flat_hash_map.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

namespace {

const char* kind_name(AccessKind k) {
  switch (k) {
    case AccessKind::kRead:   return "read";
    case AccessKind::kWrite:  return "write";
    case AccessKind::kRetire: return "retire";
  }
  return "?";
}

TaskGraph build_checked(const Trace& trace) {
  // The gate keeps build_task_graph (and everything downstream) off its
  // R2D_REQUIRE asserts: malformed traces fail here with typed diagnostics.
  require_lint_clean(trace);
  return build_task_graph(trace);
}

}  // namespace

std::string to_string(const RaceCertificate& c) {
  std::ostringstream os;
  os << "loc 0x" << std::hex << c.loc << std::dec << ": " << "access #"
     << c.prior_ordinal << " (" << kind_name(c.prior_kind) << " at vertex "
     << c.prior_vertex << ") || access #" << c.racing_ordinal << " ("
     << kind_name(c.racing_kind) << " at vertex " << c.racing_vertex << ')';
  return os.str();
}

CertificateChecker::CertificateChecker(const Trace& trace)
    : graph_(build_checked(trace)), oracle_(graph_) {
  // Index every COUNTED access by its global ordinal, mirroring the
  // detectors exactly: reads and writes always count; a retire counts only
  // when the location has live accesses (shadow_retire's cell test).
  FlatHashMap<Loc, std::uint8_t> live;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    const VertexId v = graph_.vertex_of_event[i];
    switch (e.op) {
      case TraceOp::kRead:
      case TraceOp::kWrite:
        live[e.loc] = 1;
        accesses_.push_back(
            {i, v, e.loc,
             e.op == TraceOp::kRead ? AccessKind::kRead : AccessKind::kWrite});
        break;
      case TraceOp::kRetire: {
        std::uint8_t* state = live.find(e.loc);
        if (state != nullptr && *state != 0) {
          *state = 0;
          accesses_.push_back({i, v, e.loc, AccessKind::kRetire});
        }
        break;
      }
      default:
        break;  // structure and annotations are not accesses
    }
  }
}

CertificateCheck CertificateChecker::check(const RaceCertificate& cert) const {
  const auto fail = [](std::string reason) {
    return CertificateCheck{false, std::move(reason)};
  };
  if (cert.prior_ordinal >= cert.racing_ordinal)
    return fail("certificate ordinals are not increasing");
  const AccessRecord* prior = record(cert.prior_ordinal);
  const AccessRecord* racing = record(cert.racing_ordinal);
  if (prior == nullptr || racing == nullptr) {
    std::ostringstream os;
    os << "ordinal out of range (trace has " << accesses_.size()
       << " counted accesses)";
    return fail(os.str());
  }
  const auto mismatch = [&](const char* side, const AccessRecord& rec,
                            VertexId vertex, AccessKind kind) -> std::string {
    std::ostringstream os;
    if (rec.loc != cert.loc) {
      os << side << " access #" << (&rec == prior ? cert.prior_ordinal
                                                  : cert.racing_ordinal)
         << " touches location 0x" << std::hex << rec.loc
         << ", certificate claims 0x" << cert.loc << std::dec;
    } else if (rec.vertex != vertex) {
      os << side << " access vertex is " << rec.vertex
         << ", certificate claims " << vertex;
    } else if (rec.kind != kind) {
      os << side << " access is a " << kind_name(rec.kind)
         << ", certificate claims " << kind_name(kind);
    }
    return os.str();
  };
  if (std::string why =
          mismatch("prior", *prior, cert.prior_vertex, cert.prior_kind);
      !why.empty())
    return fail(std::move(why));
  if (std::string why =
          mismatch("racing", *racing, cert.racing_vertex, cert.racing_kind);
      !why.empty())
    return fail(std::move(why));
  if (cert.prior_kind == AccessKind::kRead &&
      cert.racing_kind == AccessKind::kRead)
    return fail("two reads do not conflict");
  if (cert.prior_kind == AccessKind::kRetire)
    return fail("the prior access retires the location; later accesses are a "
                "new storage lifetime");
  // Same storage lifetime: no counted retire of loc strictly between them.
  for (std::size_t o = cert.prior_ordinal + 1; o < cert.racing_ordinal; ++o) {
    const AccessRecord& r = accesses_[o - 1];
    if (r.loc == cert.loc && r.kind == AccessKind::kRetire) {
      std::ostringstream os;
      os << "access #" << o << " retires the location between the two "
         << "certified accesses (different storage lifetimes)";
      return fail(os.str());
    }
  }
  // Independence, straight from reachability on the task graph (eq. 3).
  if (oracle_.ordered(prior->vertex, racing->vertex))
    return fail("the accesses are ordered: the prior vertex reaches the "
                "racing vertex in the task graph");
  if (oracle_.ordered(racing->vertex, prior->vertex))
    return fail("the accesses are ordered: the racing vertex reaches the "
                "prior vertex in the task graph");
  return {true, ""};
}

CertifiedReport CertificateChecker::certify(const RaceReport& report) const {
  CertifiedReport out;
  out.report = report;
  const AccessRecord* racing = record(report.access_index);
  if (racing == nullptr || racing->loc != report.loc ||
      racing->kind != report.current_kind) {
    return out;  // the report does not address this trace
  }
  // Candidate witnesses: prior accesses to the location within the same
  // storage lifetime (a counted retire closes one). Earliest-first keeps
  // certificates deterministic across detectors.
  std::size_t first_candidate = 0;  // 0-based index into accesses_
  for (std::size_t k = report.access_index - 1; k-- > 0;) {
    const AccessRecord& r = accesses_[k];
    if (r.loc != report.loc) continue;
    if (r.kind == AccessKind::kRetire) {
      first_candidate = k + 1;
      break;
    }
  }
  for (std::size_t k = first_candidate; k + 1 < report.access_index; ++k) {
    const AccessRecord& r = accesses_[k];
    if (r.loc != report.loc) continue;
    if (r.kind == AccessKind::kRead && racing->kind == AccessKind::kRead)
      continue;
    if (!oracle_.concurrent(r.vertex, racing->vertex)) continue;
    out.certificate = {report.loc,       k + 1,
                       report.access_index, r.vertex,
                       racing->vertex,   r.kind,
                       racing->kind};
    out.certified = true;
    break;
  }
  return out;
}

std::vector<CertifiedReport> certify_races(
    const CertificateChecker& checker, const std::vector<RaceReport>& reports) {
  std::vector<CertifiedReport> out;
  out.reserve(reports.size());
  for (const RaceReport& r : reports) out.push_back(checker.certify(r));
  return out;
}

std::vector<CertifiedReport> certify_races(
    const Trace& trace, const std::vector<RaceReport>& reports) {
  const CertificateChecker checker(trace);
  return certify_races(checker, reports);
}

CertificateCheck check_certificate(const Trace& trace,
                                   const RaceCertificate& cert) {
  return CertificateChecker(trace).check(cert);
}

}  // namespace race2d
