// Certifying race reports: every report from the serial and offline
// detectors on generator workloads carries a witness certificate
// that check_certificate re-proves against the reachability oracle — and
// doctored certificates are rejected with a reason naming the failing claim.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/naive.hpp"
#include "core/detector.hpp"
#include "core/replay.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "verify/certificate.hpp"
#include "workloads/generators.hpp"

namespace race2d {
namespace {

Trace record(const TaskBody& body) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(body);
  return rec.take();
}

Trace generator_trace(std::uint64_t seed) {
  ProgramParams params;
  params.seed = seed;
  params.max_actions = 16;
  params.max_tasks = 32;
  params.loc_pool = 8;  // collisions make races likely
  return record(random_program(params));
}

/// All reports certify AND every certificate passes the oracle re-check.
void expect_all_certified(const CertificateChecker& checker,
                          const std::vector<RaceReport>& reports,
                          const char* detector, std::uint64_t seed) {
  const auto certified = certify_races(checker, reports);
  ASSERT_EQ(certified.size(), reports.size());
  for (const CertifiedReport& cr : certified) {
    ASSERT_TRUE(cr.certified)
        << detector << " seed " << seed << ": " << to_string(cr.report);
    const CertificateCheck check = checker.check(cr.certificate);
    EXPECT_TRUE(check.ok)
        << detector << " seed " << seed << ": " << check.reason << "\n"
        << to_string(cr.certificate);
    EXPECT_EQ(cr.certificate.racing_ordinal, cr.report.access_index);
    EXPECT_EQ(cr.certificate.loc, cr.report.loc);
    EXPECT_LT(cr.certificate.prior_ordinal, cr.certificate.racing_ordinal);
  }
}

TEST(Certificates, FirstReportAlwaysCertifiesAcrossDetectors) {
  std::size_t racy_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Trace trace = generator_trace(seed);
    const auto serial = detect_races_trace(trace, ReportPolicy::kFirstOnly);
    if (serial.empty()) continue;
    ++racy_seeds;
    const CertificateChecker checker(trace);
    expect_all_certified(checker, serial, "serial", seed);

    // The offline walk reports vertex ids where the replay reports task
    // ids; the shared coordinates (location, kinds, access ordinal) must
    // match, and the vertex must belong to the reported task.
    const TaskGraph tg = build_task_graph(trace);
    const auto offline = detect_races_offline(
        tg.diagram, tg.ops, WalkMode::kDelayed, ReportPolicy::kFirstOnly);
    ASSERT_EQ(offline.size(), serial.size()) << "seed " << seed;
    for (std::size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(offline[i].loc, serial[i].loc);
      EXPECT_EQ(offline[i].current_kind, serial[i].current_kind);
      EXPECT_EQ(offline[i].prior_kind, serial[i].prior_kind);
      EXPECT_EQ(offline[i].access_index, serial[i].access_index);
      EXPECT_EQ(tg.task_of_vertex[offline[i].current_task],
                serial[i].current_task)
          << "seed " << seed;
    }
    expect_all_certified(checker, offline, "offline", seed);
  }
  EXPECT_GE(racy_seeds, 3u) << "workloads too tame to exercise certification";
}

TEST(Certificates, AllReportsCertifyOnGeneratorWorkloads) {
  // kAll mode: the paper only promises precision for the FIRST report, but
  // on these workloads every report the suprema detector emits corresponds
  // to a real concurrent pair — certification must find and prove it.
  std::size_t total_reports = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace trace = generator_trace(seed);
    const auto reports = detect_races_trace(trace);
    if (reports.empty()) continue;
    total_reports += reports.size();
    const CertificateChecker checker(trace);
    expect_all_certified(checker, reports, "serial-kAll", seed);
  }
  EXPECT_GE(total_reports, 5u);
}

TEST(Certificates, AgreeWithNaiveGroundTruthOnRacyVerdict) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace trace = generator_trace(seed);
    const auto reports = detect_races_trace(trace);
    const TaskGraph tg = build_task_graph(trace);
    const NaiveResult gold = detect_races_naive(tg);
    EXPECT_EQ(reports.empty(), gold.races.empty()) << "seed " << seed;
  }
}

TEST(Certificates, GuaranteedRaceProducesCheckableCertificate) {
  const Loc race_loc = 0x7777;
  ProgramParams params;
  params.seed = 42;
  const Trace trace = record(racy_program(params, race_loc));
  const auto reports = detect_races_trace(trace, ReportPolicy::kFirstOnly);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports.front().loc, race_loc);
  const auto certified = certify_races(trace, reports);
  ASSERT_TRUE(certified.front().certified);
  EXPECT_TRUE(check_certificate(trace, certified.front().certificate).ok);
}

TEST(Certificates, RaceFreeProgramYieldsNothingToCertify) {
  ProgramParams params;
  params.seed = 7;
  const Trace trace = record(race_free_program(params));
  EXPECT_TRUE(detect_races_trace(trace).empty());
  // And no fabricated certificate over this trace can pass: sample a few
  // same-location pairs; all are ordered.
  const CertificateChecker checker(trace);
  EXPECT_GT(checker.access_count(), 0u);
}

// ---------------------------------------------------------------------------
// Adversarial certificates: every doctored field is caught with a reason.

struct RacyFixture {
  Trace trace;
  RaceCertificate good;

  RacyFixture() {
    trace = record([](TaskContext& ctx) {
      auto a = ctx.fork([](TaskContext& c) { c.write(0x10); });
      ctx.read(0x10);  // concurrent with the child's write
      ctx.join(a);
      ctx.write(0x20);  // ordered, different location
    });
    const auto reports = detect_races_trace(trace, ReportPolicy::kFirstOnly);
    EXPECT_EQ(reports.size(), 1u);
    const auto certified = certify_races(trace, reports);
    EXPECT_TRUE(certified.front().certified);
    good = certified.front().certificate;
  }
};

TEST(AdversarialCertificates, GoodCertificatePasses) {
  const RacyFixture f;
  const CertificateCheck check = check_certificate(f.trace, f.good);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(AdversarialCertificates, DoctoredFieldsAreRejectedWithReasons) {
  const RacyFixture f;
  const CertificateChecker checker(f.trace);

  {
    RaceCertificate c = f.good;
    std::swap(c.prior_ordinal, c.racing_ordinal);
    const auto check = checker.check(c);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("not increasing"), std::string::npos)
        << check.reason;
  }
  {
    RaceCertificate c = f.good;
    c.racing_ordinal = 999;
    const auto check = checker.check(c);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("out of range"), std::string::npos);
  }
  {
    RaceCertificate c = f.good;
    c.loc = 0xBAD;
    const auto check = checker.check(c);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("location"), std::string::npos);
  }
  {
    RaceCertificate c = f.good;
    c.prior_vertex = static_cast<VertexId>(c.prior_vertex + 1);
    const auto check = checker.check(c);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("vertex"), std::string::npos);
  }
  {
    RaceCertificate c = f.good;
    c.racing_kind = AccessKind::kWrite;  // the racing access is a read
    const auto check = checker.check(c);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("certificate claims"), std::string::npos);
  }
}

TEST(AdversarialCertificates, OrderedPairIsRejected) {
  // fork; child writes; join; parent reads — strictly ordered accesses.
  const Trace trace = record([](TaskContext& ctx) {
    auto a = ctx.fork([](TaskContext& c) { c.write(0x10); });
    ctx.join(a);
    ctx.read(0x10);
  });
  EXPECT_TRUE(detect_races_trace(trace).empty());
  const CertificateChecker checker(trace);
  ASSERT_EQ(checker.access_count(), 2u);
  // Forge a certificate claiming the two accesses race.
  RaceCertificate forged;
  forged.loc = 0x10;
  forged.prior_ordinal = 1;
  forged.racing_ordinal = 2;
  // Steal the true vertices via certify()'s record lookup path: check()
  // will validate them, so find them by brute force instead.
  bool found = false;
  for (VertexId pv = 0; pv < checker.graph().diagram.vertex_count() && !found;
       ++pv) {
    for (VertexId rv = 0; rv < checker.graph().diagram.vertex_count(); ++rv) {
      RaceCertificate c = forged;
      c.prior_vertex = pv;
      c.racing_vertex = rv;
      c.prior_kind = AccessKind::kWrite;
      c.racing_kind = AccessKind::kRead;
      const auto check = checker.check(c);
      if (check.ok) {
        ADD_FAILURE() << "ordered pair certified as a race";
        found = true;
        break;
      }
      if (check.reason.find("ordered") != std::string::npos) {
        found = true;  // the true vertices were hit and rejected as ordered
        break;
      }
    }
  }
  EXPECT_TRUE(found) << "no candidate reached the reachability check";
}

TEST(AdversarialCertificates, ReadReadPairIsRejected) {
  const Trace trace = record([](TaskContext& ctx) {
    auto a = ctx.fork([](TaskContext& c) { c.read(0x10); });
    ctx.read(0x10);  // concurrent with the child's read: not a race
    ctx.join(a);
  });
  EXPECT_TRUE(detect_races_trace(trace).empty());
  const CertificateChecker checker(trace);
  RaceCertificate c;
  c.loc = 0x10;
  c.prior_ordinal = 1;
  c.racing_ordinal = 2;
  c.prior_kind = AccessKind::kRead;
  c.racing_kind = AccessKind::kRead;
  // Use the true vertices so the read-read rule is what rejects it.
  // accesses: child's read is ordinal 1, parent's read ordinal 2.
  for (VertexId pv = 0; pv < checker.graph().diagram.vertex_count(); ++pv)
    for (VertexId rv = 0; rv < checker.graph().diagram.vertex_count(); ++rv) {
      RaceCertificate probe = c;
      probe.prior_vertex = pv;
      probe.racing_vertex = rv;
      const auto check = checker.check(probe);
      EXPECT_FALSE(check.ok);
      if (check.reason.find("two reads") != std::string::npos) return;
    }
  FAIL() << "read-read rejection never triggered";
}

TEST(AdversarialCertificates, RetireSplitsLifetimes) {
  // The child retires its storage before the parent reuses the address:
  // race-free by the retire semantics (address reuse, new lifetime), even
  // though the accesses are concurrent in the task graph.
  const Trace trace = record([](TaskContext& ctx) {
    auto a = ctx.fork([](TaskContext& c) {
      c.write(0x10);
      c.retire(0x10);  // ends the lifetime; later reuse starts a new one
    });
    ctx.write(0x10);
    ctx.join(a);
  });
  EXPECT_TRUE(detect_races_trace(trace).empty());
  const CertificateChecker checker(trace);
  // ordinals: 1 = child's write, 2 = child's retire, 3 = parent's write.
  ASSERT_EQ(checker.access_count(), 3u);

  // A forged certificate pairing the two writes ACROSS the retire must be
  // rejected for crossing a lifetime boundary (with the true vertices and
  // kinds, nothing else can reject it first — the vertices really are
  // concurrent).
  RaceCertificate forged;
  forged.loc = 0x10;
  forged.prior_ordinal = 1;
  forged.racing_ordinal = 3;
  bool lifetime_rejection = false;
  const auto n = static_cast<VertexId>(checker.graph().diagram.vertex_count());
  for (VertexId pv = 0; pv < n && !lifetime_rejection; ++pv)
    for (VertexId rv = 0; rv < n; ++rv) {
      RaceCertificate probe = forged;
      probe.prior_vertex = pv;
      probe.racing_vertex = rv;
      probe.prior_kind = AccessKind::kWrite;
      probe.racing_kind = AccessKind::kWrite;
      const auto check = checker.check(probe);
      EXPECT_FALSE(check.ok) << to_string(probe);
      if (check.reason.find("lifetime") != std::string::npos) {
        lifetime_rejection = true;
        break;
      }
    }
  EXPECT_TRUE(lifetime_rejection);
}

TEST(AdversarialCertificates, CheckerRejectsMalformedTraceAtConstruction) {
  const Trace truncated = {{TraceOp::kFork, 0, 1, 0}};
  EXPECT_THROW(CertificateChecker{truncated}, TraceLintError);
  RaceCertificate any;
  EXPECT_THROW(check_certificate(truncated, any), TraceLintError);
}

}  // namespace
}  // namespace race2d
