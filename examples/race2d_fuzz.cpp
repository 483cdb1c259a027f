// race2d_fuzz: differential fuzzing CLI over the whole detector stack.
//
//   $ race2d_fuzz --seed 42 --runs 1000            # campaign, 1000 plans
//   $ race2d_fuzz --seed 42 --time-budget 30       # stop after ~30 seconds
//   $ race2d_fuzz --seed-exact 0xdeadbeef          # replay ONE plan seed
//   $ race2d_fuzz --corpus tests/corpus            # replay corpus, then fuzz
//   $ race2d_fuzz --corpus-only tests/corpus       # replay corpus, no fuzz
//
// Each run synthesizes a structured program from a seeded plan, records its
// trace, and pushes it (plus type-aware mutants) through serial replay,
// the DePa backend, the offline walks, the naive gold reference, and
// whichever baselines are lawful for the trace's discipline;
// the first report is certificate-checked. Any disagreement is a failure:
// it is shrunk with ddmin (--no-shrink disables) and, when --artifacts DIR
// is given, written there as a replayable corpus file.
//
// --inject-bug plants a known detector bug (shadow_write skips one sup()
// update) to prove the harness catches and shrinks real defects; the
// process then EXPECTS failures and exits 0 only if some were found.
// Exit status: 0 = clean campaign (or caught the injected bug), 1 = found
// mismatches (or an injected bug escaped), 2 = bad usage.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/shadow_ops.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzz_driver.hpp"

namespace {

using namespace race2d;

int usage() {
  std::cerr
      << "usage: race2d_fuzz [options]\n"
         "  --seed N            campaign seed (default 1)\n"
         "  --seed-exact N      run exactly one plan seed, then exit\n"
         "  --runs N            plans to execute (default 200)\n"
         "  --time-budget SECS  stop starting new runs after SECS seconds\n"
         "  --mutants N         mutants per generated trace (default 4)\n"
         "  --no-shrink         keep failing traces unshrunk\n"
         "  --corpus DIR        replay DIR/*.trace first, then fuzz\n"
         "  --corpus-only DIR   replay DIR/*.trace and exit\n"
         "  --artifacts DIR     write failure reproducers to DIR\n"
         "  --inject-bug        plant a detector bug; expect it to be caught\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 0);  // base 0: accepts 0x... too
  return end != nullptr && *end == '\0' && end != s;
}

int replay_corpus(const std::string& dir) {
  const CorpusReport report = run_corpus(dir);
  for (const CorpusFileResult& file : report.files) {
    std::cout << (file.ok ? "ok   " : "FAIL ") << file.path << " ("
              << file.events << " events, " << file.races << " races)";
    if (!file.ok) std::cout << ": " << file.detail;
    std::cout << "\n";
  }
  std::cout << "corpus: " << report.files.size() << " file(s), "
            << report.failures << " failure(s)\n";
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzConfig config;
  config.runs = 200;
  std::string corpus_dir;
  bool corpus_only = false;
  bool exact = false;
  bool inject_bug = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed" || arg == "--seed-exact") {
      const char* v = value();
      if (v == nullptr || !parse_u64(v, config.seed)) return usage();
      exact = arg == "--seed-exact";
    } else if (arg == "--runs") {
      const char* v = value();
      std::uint64_t n = 0;
      if (v == nullptr || !parse_u64(v, n)) return usage();
      config.runs = static_cast<std::size_t>(n);
    } else if (arg == "--time-budget") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.time_budget_seconds = std::atof(v);
    } else if (arg == "--mutants") {
      const char* v = value();
      std::uint64_t n = 0;
      if (v == nullptr || !parse_u64(v, n)) return usage();
      config.mutants_per_trace = static_cast<std::size_t>(n);
    } else if (arg == "--no-shrink") {
      config.shrink = false;
    } else if (arg == "--corpus" || arg == "--corpus-only") {
      const char* v = value();
      if (v == nullptr) return usage();
      corpus_dir = v;
      corpus_only = arg == "--corpus-only";
    } else if (arg == "--artifacts") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.corpus_dir = v;
    } else if (arg == "--inject-bug") {
      inject_bug = true;
    } else {
      return usage();
    }
  }

  int corpus_status = 0;
  if (!corpus_dir.empty()) {
    corpus_status = replay_corpus(corpus_dir);
    if (corpus_only) return corpus_status;
  }

  if (inject_bug) {
    race2d::detail::g_inject_skip_write_sup_update = true;
    // The bags baselines replay the same structure the (sabotaged) engine
    // does not mis-handle; the core oracles are the ones that disagree.
    std::cerr << "race2d_fuzz: injected bug: shadow_write skips the "
                 "W[loc] sup() update\n";
  }

  if (exact) {
    // --seed-exact addresses one PLAN seed directly (no campaign hop).
    config.exact_plan_seed = true;
    config.runs = 1;
  }
  const FuzzCampaignResult result = run_fuzz_campaign(config, &std::cerr);

  for (const FuzzFailure& failure : result.failures) {
    std::cout << "FAILURE [" << failure.phase << "] plan: "
              << to_string(failure.plan) << "\n  " << failure.message << "\n"
              << "  reproducer: " << failure.reproducer.size() << " events"
              << " (from " << failure.original_events << ")";
    if (!failure.artifact_path.empty())
      std::cout << " -> " << failure.artifact_path;
    std::cout << "\n";
  }

  if (inject_bug) {
    const bool caught = !result.ok();
    std::cout << (caught ? "injected bug CAUGHT\n"
                         : "injected bug ESCAPED the harness\n");
    return caught ? corpus_status : 1;
  }
  return result.ok() ? corpus_status : 1;
}
