// Regression corpus replay: every checked-in trace under tests/corpus/ must
// lint, replay through the full differential panel (serial, DePa, offline
// walks, naive gold, applicable baselines), and certify its reports —
// forever. Files land here minimized by the fuzzer's
// shrinker or hand-written around a specific discipline, so a failure names
// a tiny, readable trace.
//
// RACE2D_CORPUS_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree corpus, so adding a .trace file is enough to extend the suite.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "fuzz/corpus.hpp"

namespace race2d {
namespace {

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

TEST(CorpusReplay, EveryCheckedInTraceReplaysCleanly) {
  const CorpusReport report = run_corpus(RACE2D_CORPUS_DIR);
  ASSERT_GE(report.files.size(), 10u)
      << "the regression corpus shrank below its floor";
  for (const CorpusFileResult& file : report.files)
    EXPECT_TRUE(file.ok) << file.path << ": " << file.detail;
  EXPECT_TRUE(report.ok());
}

TEST(CorpusReplay, CorpusCoversEveryDiscipline) {
  // The ISSUE floor: spawn-sync, async-finish, futures, pipeline and retire
  // must each be represented so baseline regressions cannot hide.
  std::set<std::string> covered;
  for (const auto& entry :
       std::filesystem::directory_iterator(RACE2D_CORPUS_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const TraceFeatures f = parse_corpus_features(text);
    if (f.spawn_sync) covered.insert("spawn-sync");
    if (f.async_finish) covered.insert("async-finish");
    if (f.has_futures) covered.insert("futures");
    if (f.has_pipeline) covered.insert("pipeline");
    if (f.has_retire) covered.insert("retire");
  }
  for (const char* need :
       {"spawn-sync", "async-finish", "futures", "pipeline", "retire"})
    EXPECT_TRUE(covered.count(need)) << "no corpus file declares " << need;
}

TEST(CorpusReplay, RacyAndRaceFreeTracesBothPresent) {
  // A corpus of only race-free traces would never catch a detector that
  // stopped reporting; one of only racy traces would never catch false
  // positives. Require both polarities.
  const CorpusReport report = run_corpus(RACE2D_CORPUS_DIR);
  std::size_t racy = 0, clean = 0;
  for (const CorpusFileResult& file : report.files)
    (file.races > 0 ? racy : clean) += 1;
  EXPECT_GE(racy, 2u);
  EXPECT_GE(clean, 2u);
}

}  // namespace
}  // namespace race2d
