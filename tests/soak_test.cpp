// Soak: one DetectionSession fed a long program in 64 KiB frames must hold
// its resident bytes flat. The program is the composition of
// composed_program.hpp streamed without materializing it: subprograms run
// one after another under the root, so the line stays as short as one
// subprogram's while the task count grows without bound. memory_bytes
// after N events must be within 10% of its value after N/10.
//
// Soak.BytesFlatTo4e6Events is tier-1. Soak.DISABLED_BytesFlatTo1e8Events
// is the opt-in soak: `ctest -C Soak -L soak` runs it (about 12 s at -O2
// on a 4-vCPU VM), and so does this binary with
// --gtest_also_run_disabled_tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "composed_program.hpp"
#include "io/binary_writer.hpp"
#include "service/session.hpp"

namespace race2d {
namespace {

/// A composed program as R2DT wire bytes, produced a frame at a time.
class ProgramStream {
 public:
  explicit ProgramStream(std::uint64_t seed) : rng_(seed), writer_(wire_) {}

  std::uint64_t events() const { return writer_.events_written(); }
  bool done() const { return writer_.finished() && pending_.empty(); }

  /// The next `frame` wire bytes, or fewer at the end of the stream. The
  /// root halts once `events` events were written.
  std::string next(std::size_t frame, std::uint64_t events) {
    while (pending_.size() < frame && !writer_.finished()) {
      Trace sub;
      if (writer_.events_written() >= events) {
        sub.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
      } else {
        append_subprogram(rng_, index_++, next_task_, sub);
      }
      for (const TraceEvent& e : sub) writer_.add(e);
      if (sub.front().op == TraceOp::kHalt) writer_.finish();
      pending_ += wire_.str();
      wire_.str("");
    }
    std::string out = pending_.substr(0, frame);
    pending_.erase(0, out.size());
    return out;
  }

 private:
  Xoshiro256 rng_;
  std::ostringstream wire_;
  BinaryTraceWriter writer_;
  std::string pending_;
  std::size_t index_ = 0;
  TaskId next_task_ = 1;
};

/// Streams `events` events through one session: memory_bytes after any
/// frame past events / 10 stays within 10% of its value at events / 10.
void expect_flat_bytes(std::uint64_t events) {
  constexpr std::size_t kFrame = 64 << 10;
  ProgramStream stream(20261017);
  DetectionSession session(ReportPolicy::kAll, std::size_t{1} << 20);
  std::size_t early = 0;
  std::size_t peak = 0;
  std::uint64_t reports = 0;
  std::uint64_t decade = 1'000'000;
  while (!stream.done()) {
    const DetectionSession::FeedOutcome fed =
        session.feed(stream.next(kFrame, events));
    ASSERT_EQ(fed.status, ServiceStatus::kOk) << fed.message;
    bool more = false;
    reports += session.drain(0, more).size();
    if (session.events_total() >= decade) {
      // The curve, one line per decade of events.
      std::cout << "soak: " << session.events_total() << " events, "
                << session.memory_bytes() << " B\n";
      decade *= 10;
    }
    if (session.events_total() < events / 10) continue;
    if (early == 0) early = session.memory_bytes();
    peak = std::max(peak, session.memory_bytes());
  }
  EXPECT_TRUE(session.close().complete);
  EXPECT_GE(session.events_total(), events);
  EXPECT_GT(reports, 0u);
  ASSERT_GT(early, 0u);
  EXPECT_LE(static_cast<double>(peak), 1.10 * static_cast<double>(early))
      << "memory_bytes " << early << " B after " << events / 10
      << " events, up to " << peak << " B by " << session.events_total();
}

TEST(Soak, BytesFlatTo4e6Events) { expect_flat_bytes(4'000'000); }

TEST(Soak, DISABLED_BytesFlatTo1e8Events) { expect_flat_bytes(100'000'000); }

}  // namespace
}  // namespace race2d
