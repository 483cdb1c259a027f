// Binary twins of the regression corpus: every tests/corpus/*.trace has a
// checked-in *.btrace sibling (produced by race2d_convert). Each pair must
// decode to the identical event sequence and produce the identical report
// stream through the serial detector — the two wire formats are two doors
// into one pipeline, never two pipelines.
//
// The twins also pin the BINARY FORMAT itself: these bytes were written when
// the format shipped, so any encoder/decoder change that breaks v1
// compatibility fails here first.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/replay.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "runtime/trace_io.hpp"

namespace race2d {
namespace {

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

TEST(CorpusBinaryTwins, EveryTraceHasAFaithfulBinaryTwin) {
  namespace fs = std::filesystem;
  std::set<fs::path> text_files;
  for (const auto& entry : fs::directory_iterator(RACE2D_CORPUS_DIR))
    if (entry.path().extension() == ".trace") text_files.insert(entry.path());
  ASSERT_GE(text_files.size(), 10u) << "corpus shrank below its floor";

  for (const fs::path& text_path : text_files) {
    fs::path binary_path = text_path;
    binary_path.replace_extension(".btrace");
    ASSERT_TRUE(fs::exists(binary_path))
        << binary_path << " missing — regenerate with: race2d_convert "
        << text_path << " " << binary_path;

    std::ifstream text_in(text_path);
    ASSERT_TRUE(text_in.is_open()) << text_path;
    const Trace from_text = parse_trace_text(text_in);

    std::ifstream binary_in(binary_path, std::ios::binary);
    ASSERT_TRUE(binary_in.is_open()) << binary_path;
    ASSERT_TRUE(sniff_binary_trace(binary_in)) << binary_path;
    const Trace from_binary = read_trace_binary(binary_in);

    EXPECT_EQ(from_binary, from_text)
        << binary_path << " decodes differently from its text twin";

    // Same replay, same reports — including the access ordinals.
    EXPECT_EQ(detect_races_trace(from_binary), detect_races_trace(from_text))
        << text_path << ": report streams diverge between formats";

    // The twin is canonical: re-encoding the text trace reproduces it
    // byte-for-byte (format-stability pin).
    std::ifstream raw(binary_path, std::ios::binary);
    std::ostringstream buf;
    buf << raw.rdbuf();
    EXPECT_EQ(buf.str(), trace_to_binary(from_text))
        << binary_path << " is stale — regenerate with race2d_convert";
  }
}

}  // namespace
}  // namespace race2d
