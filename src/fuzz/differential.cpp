#include "fuzz/differential.hpp"

#include <algorithm>
#include <sstream>

#include "baselines/espbags.hpp"
#include "baselines/fasttrack.hpp"
#include "baselines/naive.hpp"
#include "baselines/spbags.hpp"
#include "baselines/vector_clock.hpp"
#include "core/depa_detector.hpp"
#include "core/replay.hpp"
#include "core/report.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "service/session.hpp"
#include "verify/certificate.hpp"

namespace race2d {

namespace {

std::string first_of(const std::vector<RaceReport>& reports) {
  return reports.empty() ? std::string("none") : to_string(reports.front());
}

std::string describe(const char* name, const std::vector<RaceReport>& r) {
  std::ostringstream os;
  os << name << "=[" << r.size() << " races, first " << first_of(r) << "]";
  return os.str();
}

/// Drives any baseline detector from the trace (the event stream the online
/// detector saw). Returns false if the baseline's fork numbering diverges
/// from the trace's — impossible on a lint-clean trace, so a false return
/// is itself evidence of a linter hole.
template <typename Detector>
bool drive(Detector& det, const Trace& trace) {
  det.on_root();
  for (const TraceEvent& e : trace)
    if (!apply_event(det, e)) return false;
  return true;
}

const char* to_string(WalkMode mode) {
  switch (mode) {
    case WalkMode::kNonSeparating: return "non-separating";
    case WalkMode::kDelayed: return "delayed";
    case WalkMode::kRuntimeDelayed: return "runtime-delayed";
  }
  return "?";
}

}  // namespace

DifferentialResult run_differential(const Trace& trace,
                                    const TraceFeatures& features,
                                    const DifferentialConfig& config) {
  DifferentialResult result;
  auto fail = [&result](std::string why) {
    if (result.ok) {  // keep the FIRST disagreement; later ones are echoes
      result.ok = false;
      result.failure = std::move(why);
    }
  };

  // Serial replay is the reference everything else is judged against.
  const std::vector<RaceReport> serial =
      detect_races_trace(trace, ReportPolicy::kAll, config.gate);
  result.serial_races = serial.size();
  result.detectors_run = 1;

  // The first report is the one the paper proves precise; verdict-level
  // detectors are compared against it.
  auto agree_first = [&](const char* name, const std::vector<RaceReport>& got,
                         bool compare_kind) {
    if (serial.empty() != got.empty()) {
      fail(std::string(name) + " verdict mismatch: " +
           describe("serial", serial) + " vs " + describe(name, got));
      return;
    }
    if (serial.empty()) return;
    const RaceReport& a = serial.front();
    const RaceReport& b = got.front();
    if (a.access_index != b.access_index || a.loc != b.loc ||
        (compare_kind && a.current_kind != b.current_kind)) {
      fail(std::string(name) + " first-race mismatch: " +
           describe("serial", serial) + " vs " + describe(name, got));
    }
  };

  // 0. Codec round-trip: the binary wire format must carry this trace
  //    exactly, and its canonical encoding means re-encoding the decoded
  //    trace reproduces the identical bytes. A standing invariant over
  //    every generated AND mutated trace the campaign replays.
  try {
    const std::string bytes = trace_to_binary(trace);
    const Trace decoded = trace_from_binary(bytes);
    if (decoded != trace) {
      std::ostringstream os;
      os << "codec round-trip altered the trace: " << trace.size()
         << " event(s) in, " << decoded.size() << " out";
      for (std::size_t i = 0; i < trace.size() && i < decoded.size(); ++i) {
        if (!(trace[i] == decoded[i])) {
          os << "; first divergence at event " << i;
          break;
        }
      }
      fail(os.str());
    } else if (trace_to_binary(decoded) != bytes) {
      fail("codec re-encode is not byte-identical: the wire format lost "
           "canonicity");
    }
  } catch (const TraceDecodeError& e) {
    fail(std::string("codec rejected its own encoding: ") + e.what());
  }

  // 0b. Compressed codec: the version-2 run-compressed stream must expand
  //     to the identical event list, and feeding those bytes through the
  //     full ingest session (decode, which expands every run → lint gate →
  //     detector) must produce the BIT-IDENTICAL report stream.
  if (config.codec_compression == CompressionMode::kRuns) {
    BinaryWriteOptions zopt;
    zopt.compression = CompressionMode::kRuns;
    try {
      const std::string zbytes = trace_to_binary(trace, zopt);
      const Trace expanded = trace_from_binary(zbytes);
      if (expanded != trace) {
        std::ostringstream os;
        os << "compressed codec round-trip altered the trace: " << trace.size()
           << " event(s) in, " << expanded.size() << " out";
        fail(os.str());
      } else {
        DetectionSession session(ReportPolicy::kAll,
                                 /*max_pending_reports=*/1u << 30);
        const DetectionSession::FeedOutcome outcome = session.feed(zbytes);
        ++result.detectors_run;
        if (outcome.status != ServiceStatus::kOk) {
          fail("compressed session replay rejected a clean trace: " +
               outcome.message);
        } else {
          bool more = false;
          const std::vector<RaceReport> got = session.drain(0, more);
          if (got != serial) {
            fail("compressed replay diverges from serial replay: " +
                 describe("serial", serial) + " vs " +
                 describe("compressed", got));
          }
        }
      }
    } catch (const TraceDecodeError& e) {
      fail(std::string("compressed codec rejected its own encoding: ") +
           e.what());
    }
  }

  // 1. DePa label backend: same event stream, timestamps instead of DSU
  //    suprema — must reproduce the serial report stream exactly.
  const std::vector<RaceReport> depa =
      detect_races_trace_depa(trace, ReportPolicy::kAll, LintGate::kSkip);
  ++result.detectors_run;
  if (depa != serial) {
    fail("depa backend diverges from serial replay: " +
         describe("serial", serial) + " vs " + describe("depa", depa));
  }

  // 2. The naive §2.3 gold reference and the offline walks share one task
  //    graph (Theorem 6's construction).
  const TaskGraph tg = build_task_graph(trace);
  agree_first("naive-gold", detect_races_naive(tg).races, true);
  ++result.detectors_run;
  for (const WalkMode mode : {WalkMode::kNonSeparating, WalkMode::kDelayed,
                              WalkMode::kRuntimeDelayed}) {
    const std::vector<RaceReport> offline =
        detect_races_offline(tg.diagram, tg.ops, mode);
    ++result.detectors_run;
    agree_first((std::string("offline-") + to_string(mode)).c_str(), offline,
                true);
  }

  // 3. Epoch-world baselines understand fork/join/access only, so they are
  //    lawful on any valid trace WITHOUT retires (address reuse makes their
  //    location-keyed shadow words lie). Gate on the trace itself, not the
  //    plan: mutations add and remove retires.
  const bool has_retire =
      std::any_of(trace.begin(), trace.end(), [](const TraceEvent& e) {
        return e.op == TraceOp::kRetire;
      });
  if (!has_retire) {
    VectorClockDetector vc;
    FastTrackDetector ft;
    if (!drive(vc, trace) || !drive(ft, trace)) {
      fail("baseline fork numbering diverged on a lint-clean trace");
    } else {
      agree_first("vector-clock", vc.reporter().all(), false);
      agree_first("fasttrack", ft.reporter().all(), false);
      result.detectors_run += 2;
    }
  }

  // 4. Bags baselines additionally need their sugar's discipline.
  if (config.bags_baselines && !has_retire) {
    if (features.spawn_sync) {
      SPBagsDetector sp;
      if (drive(sp, trace)) {
        agree_first("spbags", sp.reporter().all(), false);
        ++result.detectors_run;
      }
    }
    if (features.async_finish) {
      ESPBagsDetector esp;
      if (drive(esp, trace)) {
        agree_first("espbags", esp.reporter().all(), false);
        ++result.detectors_run;
      }
    }
  }

  // 5. Certification: the first report must carry an oracle-proved witness,
  //    and every certificate the checker is willing to build must survive
  //    its own re-check. Capped: re-proving is quadratic-ish in reports.
  if (!serial.empty()) {
    const CertificateChecker checker(trace);
    const std::size_t cap = std::min<std::size_t>(serial.size(), 64);
    for (std::size_t i = 0; i < cap; ++i) {
      const CertifiedReport cr = checker.certify(serial[i]);
      if (i == 0 && !cr.certified) {
        fail("first race is uncertifiable: " + to_string(serial[0]));
        break;
      }
      if (cr.certified) {
        const CertificateCheck check = checker.check(cr.certificate);
        if (!check.ok) {
          fail("certificate for report " + std::to_string(i) +
               " fails its own re-check: " + check.reason);
          break;
        }
      }
    }
  }

  return result;
}

}  // namespace race2d
