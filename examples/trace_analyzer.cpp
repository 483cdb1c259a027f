// Offline trace analyzer: read a fork-join execution trace (text format,
// see runtime/trace_io.hpp), run the suprema detector plus the baselines,
// and report races and detector footprints side by side.
//
//   $ example_trace_analyzer <trace-file>      analyze a file
//   $ example_trace_analyzer --demo            record+analyze a demo program
//   $ example_trace_analyzer --emit            print a demo trace to stdout
//
// Add --lint to run only the trace linter and print every diagnostic
// (exit 0 clean / 1 errors), or --certify to attach an independently
// re-checkable witness certificate to every race report.
// Add --reports to print ONE LINE PER RACE REPORT and nothing else — the
// diffable form the service smoke test compares race2d_client against.
//
// Input files may be text or binary (format sniffed by magic).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "io/binary_reader.hpp"
#include "race2d.hpp"
#include "runtime/trace_io.hpp"

namespace {

using namespace race2d;

Trace demo_trace() {
  // The Figure 2 program, with a payload: A and B read location 0x10,
  // D writes it; the join structure leaves A concurrent with D.
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run([](TaskContext& ctx) {
    auto a = ctx.fork([](TaskContext& c) { c.read(0x10); });
    ctx.read(0x10);
    auto c = ctx.fork([a](TaskContext& cc) { cc.join(a); });
    ctx.write(0x10);
    ctx.join(c);
  });
  return rec.take();
}

template <typename Detector>
void report(const char* name, const Trace& trace) {
  Detector det;
  det.on_root();
  for (const TraceEvent& e : trace) apply_event(det, e);
  const auto f = det.footprint();
  std::printf("%-12s races=%zu  shadow=%zuB  per-task=%zuB", name,
              det.reporter().count(), f.shadow_bytes, f.per_task_bytes);
  if (det.reporter().any())
    std::printf("  first: %s", to_string(det.reporter().first()).c_str());
  std::printf("\n");
}

int lint_only(const Trace& trace) {
  TraceLintOptions opts;
  opts.max_diagnostics = 256;
  const LintResult result = TraceLinter(opts).run(trace);
  for (const LintDiagnostic& d : result.diagnostics)
    std::printf("%s\n", to_string(d).c_str());
  if (result.truncated) std::printf("... (diagnostic list truncated)\n");
  std::printf("%zu event(s): %zu error(s), %zu warning(s)\n", trace.size(),
              result.error_count(), result.warning_count());
  return result.ok() ? 0 : 1;
}

int certify(const Trace& trace) {
  const auto reports = detect_races_trace(trace);
  std::printf("races: %zu\n", reports.size());
  if (reports.empty()) return 0;
  const CertificateChecker checker(trace);
  std::size_t uncertified = 0;
  for (const RaceReport& r : reports) {
    const CertifiedReport cr = checker.certify(r);
    std::printf("%s\n", to_string(r).c_str());
    if (!cr.certified) {
      // kAll mode can report suprema-imprecise races after the first (the
      // paper only guarantees the first report); the oracle refuses those.
      ++uncertified;
      std::printf("  UNCERTIFIED: no concurrent witness in the task graph\n");
      continue;
    }
    const CertificateCheck check = checker.check(cr.certificate);
    std::printf("  certificate: %s\n  re-check: %s%s\n",
                to_string(cr.certificate).c_str(),
                check.ok ? "proven independent" : "REJECTED — ",
                check.ok ? "" : check.reason.c_str());
    if (!check.ok) ++uncertified;
  }
  std::printf("%zu/%zu report(s) carry a verified certificate\n",
              reports.size() - uncertified, reports.size());
  return uncertified == 0 ? 0 : 1;
}

int reports_only(const Trace& trace) {
  for (const RaceReport& r : detect_races_trace(trace))
    std::printf("%s\n", to_string(r).c_str());
  return 0;
}

int analyze(const Trace& trace) {
  std::printf("events: %zu\n", trace.size());
  report<OnlineRaceDetector>("suprema-2D", trace);
  report<VectorClockDetector>("vector-clock", trace);
  report<FastTrackDetector>("fasttrack", trace);

  // Structural analysis via the materialized task graph.
  const TaskGraph tg = build_task_graph(trace);
  std::printf("task graph: %zu vertices, %zu arcs, %zu tasks\n",
              tg.diagram.vertex_count(), tg.diagram.arc_count(), tg.task_count);
  const auto lattice = check_lattice(tg.diagram.graph());
  std::printf("2D lattice: %s%s\n", lattice.ok ? "yes" : "no — ",
              lattice.ok ? "" : lattice.reason.c_str());
  const NaiveResult gold = detect_races_naive(tg);
  std::printf("ground truth (naive+oracle): %zu race(s)\n", gold.races.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* input = nullptr;
  bool demo = false;
  bool emit = false;
  bool lint = false;
  bool want_certify = false;
  bool want_reports = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--emit") == 0) {
      emit = true;
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(argv[i], "--certify") == 0) {
      want_certify = true;
    } else if (std::strcmp(argv[i], "--reports") == 0) {
      want_reports = true;
    } else if (input == nullptr) {
      input = argv[i];
    } else {
      input = nullptr;  // too many positionals: fall through to usage
      break;
    }
  }
  if (emit) {
    write_trace_text(std::cout, demo_trace());
    return 0;
  }
  const auto dispatch = [&](const Trace& trace) {
    if (lint) return lint_only(trace);
    if (want_certify) return certify(trace);
    if (want_reports) return reports_only(trace);
    return analyze(trace);
  };
  if (demo) return dispatch(demo_trace());
  if (input != nullptr) {
    std::ifstream in(input, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", input);
      return 2;
    }
    try {
      // --lint wants the raw parse (it runs the linter itself, printing
      // every diagnostic); the other modes use the lint-gated loaders.
      const bool binary = sniff_binary_trace(in);
      const Trace trace =
          binary ? (lint ? read_trace_binary(in) : load_trace_binary(in))
                 : (lint ? parse_trace_text(in) : load_trace_text(in));
      return dispatch(trace);
    } catch (const race2d::TraceLintError& e) {
      std::fprintf(stderr, "%s\n", to_string(e.result()).c_str());
      return 1;
    } catch (const race2d::ContractViolation& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr,
               "usage: %s [--lint | --certify | --reports] "
               "<trace-file> | --demo | --emit\n"
               "trace format: fork/join/halt/sync p [q], read/write/retire "
               "t loc-hex\n",
               argv[0]);
  return 2;
}
