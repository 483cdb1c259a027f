// E12 — trace I/O and service throughput: the binary wire format vs the
// text format on the SAME event stream (parse/decode/encode events/s), plus
// the DetectionService's end-to-end feed+drain path over chunked binary
// frames. The binary decoder's inner loop is varint reads and delta adds
// with one CRC pass per chunk, so it should clear the text parser (strtoull
// + per-line tokenization) by well over 2x on events/s — scripts/bench.sh
// snapshots this into BENCH_io.json and EXPERIMENTS.md E12 quotes it.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "runtime/trace_io.hpp"
#include "service/service.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace race2d;

const Trace& io_trace() {
  static const Trace trace = [] {
    ProgramParams params;
    params.seed = 12;
    params.max_tasks = 2048;
    params.max_actions = 48;
    params.fork_prob = 0.35;
    return benchutil::record(random_program(params));
  }();
  return trace;
}

const std::string& text_bytes() {
  static const std::string bytes = trace_to_text(io_trace());
  return bytes;
}

const std::string& binary_bytes() {
  static const std::string bytes = trace_to_binary(io_trace());
  return bytes;
}

void BM_TextParse(benchmark::State& state) {
  const std::string& bytes = text_bytes();
  const std::int64_t events = static_cast<std::int64_t>(io_trace().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_trace_text(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          events);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_TextParse);

void BM_BinaryDecode(benchmark::State& state) {
  const std::string& bytes = binary_bytes();
  const std::int64_t events = static_cast<std::int64_t>(io_trace().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace_from_binary(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          events);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_BinaryDecode);

/// io_trace() with every location moved to a scattered 8-aligned address,
/// as a recorder of real heap objects sees them, so nearly every access
/// carries a 6–7-byte location delta. Arg 1 also spreads task ids 2^14
/// apart, so every fork, join and change of actor carries a 3-byte delta.
/// The decoder's fast path takes only 1–2-byte varints: this is the
/// traffic that falls back to the checked path.
void BM_WideDeltaDecode(benchmark::State& state) {
  const TaskId task_scale = state.range(0) != 0 ? TaskId{1} << 14 : 1;
  Trace trace = io_trace();
  for (TraceEvent& e : trace) {
    e.actor *= task_scale;
    if (e.other != kInvalidTask) e.other *= task_scale;
    if (e.op == TraceOp::kRead || e.op == TraceOp::kWrite ||
        e.op == TraceOp::kRetire)
      e.loc = (e.loc * 0x9E3779B97F4A7C15ULL) >> 24 << 3;
  }
  const std::string bytes = trace_to_binary(trace);
  const std::int64_t events = static_cast<std::int64_t>(trace.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace_from_binary(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          events);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["bytes_per_event"] =
      static_cast<double>(bytes.size()) / static_cast<double>(events);
}
BENCHMARK(BM_WideDeltaDecode)->Arg(0)->Arg(1);

void BM_TextEncode(benchmark::State& state) {
  const Trace& trace = io_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace_to_text(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_TextEncode);

void BM_BinaryEncode(benchmark::State& state) {
  const Trace& trace = io_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace_to_binary(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["bytes_per_event"] =
      static_cast<double>(binary_bytes().size()) /
      static_cast<double>(trace.size());
}
BENCHMARK(BM_BinaryEncode);

// End-to-end service path: open a session, stream the binary trace in
// 64 KiB feed requests (draining reports as they accumulate), close. This
// is what one race2d_client invocation costs the daemon per trace.
void BM_ServiceFeedDrain(benchmark::State& state) {
  const std::string& bytes = binary_bytes();
  const std::int64_t events = static_cast<std::int64_t>(io_trace().size());
  constexpr std::size_t kChunk = 64u << 10;
  for (auto _ : state) {
    DetectionService service{ServiceLimits{}};
    Request open;
    open.verb = Verb::kOpen;
    benchmark::DoNotOptimize(service.handle(open));
    for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
      Request feed;
      feed.verb = Verb::kFeed;
      feed.session = 1;
      feed.bytes = bytes.substr(off, kChunk);
      const Response rsp = service.handle(feed);
      if (rsp.feed.backpressure) {
        Request drain;
        drain.verb = Verb::kDrain;
        drain.session = 1;
        drain.max_reports = 0;  // everything
        benchmark::DoNotOptimize(service.handle(drain));
      }
    }
    Request drain;
    drain.verb = Verb::kDrain;
    drain.session = 1;
    drain.max_reports = 0;
    benchmark::DoNotOptimize(service.handle(drain));
    Request close;
    close.verb = Verb::kClose;
    close.session = 1;
    benchmark::DoNotOptimize(service.handle(close));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          events);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_ServiceFeedDrain);

// ---- E17: run compression on a repetitive workload ------------------------
//
// The shape the version-2 codec targets: long same-task, same-location
// access runs (a tight loop hammering its accumulator). Each repetition
// delta-encodes to the identical bytes, so the whole run folds into one
// (template, count) item on the wire; the decoder expands it again.

const Trace& repetitive_trace() {
  static const Trace trace = [] {
    Trace t;
    constexpr TaskId kTasks = 8;
    constexpr std::size_t kReps = 20000;
    for (TaskId child = 1; child <= kTasks; ++child) {
      // Each child is forked, hammers its own accumulator, halts, and is
      // joined before the next fork — a valid Figure-9 serial order.
      t.push_back({TraceOp::kFork, 0, child});
      const Loc acc = 0x1000 + static_cast<Loc>(child);
      t.push_back({TraceOp::kWrite, child, kInvalidTask, acc});
      for (std::size_t i = 0; i < kReps; ++i) {
        t.push_back({TraceOp::kRead, child, kInvalidTask, acc});
        t.push_back({TraceOp::kWrite, child, kInvalidTask, acc});
      }
      t.push_back({TraceOp::kHalt, child});
      t.push_back({TraceOp::kJoin, 0, child});
    }
    t.push_back({TraceOp::kHalt, 0});
    return t;
  }();
  return trace;
}

const std::string& repetitive_v1_bytes() {
  static const std::string bytes = trace_to_binary(repetitive_trace());
  return bytes;
}

const std::string& repetitive_v2_bytes() {
  static const std::string bytes = [] {
    BinaryWriteOptions options;
    options.compression = CompressionMode::kRuns;
    return trace_to_binary(repetitive_trace(), options);
  }();
  return bytes;
}

/// Full expansion of the version-2 stream. The `ratio` counter (v1 bytes /
/// v2 bytes) is what scripts/bench.sh gates at >= 2x on this workload. The
/// events go into one vector reused across iterations (clear() keeps its
/// capacity), so the loop times decoding rather than the page faults of a
/// fresh 7.7 MB vector each round.
void BM_CompressedDecode(benchmark::State& state) {
  const std::string& bytes = repetitive_v2_bytes();
  const std::int64_t events =
      static_cast<std::int64_t>(repetitive_trace().size());
  Trace trace;
  for (auto _ : state) {
    trace.clear();
    BinaryTraceDecoder decoder;
    decoder.feed(bytes.data(), bytes.size(), trace);
    decoder.finish();
    benchmark::DoNotOptimize(trace.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          events);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["v1_bytes"] = static_cast<double>(repetitive_v1_bytes().size());
  state.counters["v2_bytes"] = static_cast<double>(bytes.size());
  state.counters["ratio"] = static_cast<double>(repetitive_v1_bytes().size()) /
                            static_cast<double>(bytes.size());
}
BENCHMARK(BM_CompressedDecode);

/// One spill + rehydrate round trip through the cold tier: snapshot, blob
/// compression, the file write, and the read + restore back. The session is
/// fed the repetitive trace once, before the timed loop, so the blob is
/// non-trivial and the loop times the round trip alone: the decoder expands
/// every run, so re-feeding the trace would cost 320 065 events a round.
void BM_SpillRehydrate(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "race2d-bench-spill";
  fs::create_directories(dir);
  ServiceLimits limits;
  limits.spill_dir = dir.string();
  DetectionService service{limits};
  Request open;
  open.verb = Verb::kOpen;
  benchmark::DoNotOptimize(service.handle(open));
  Request feed;
  feed.verb = Verb::kFeed;
  feed.session = 1;
  feed.bytes = repetitive_v2_bytes();
  benchmark::DoNotOptimize(service.handle(feed));
  Request restore;
  restore.verb = Verb::kRestore;
  restore.session = 1;
  for (auto _ : state) {
    // Force the spill with the pool's eviction command (a lone service
    // keeps no budget of its own) and rehydrate through the blobless
    // RESTORE path.
    benchmark::DoNotOptimize(service.evict_heaviest());
    const Response back = service.handle(restore);
    if (back.status != ServiceStatus::kOk) {
      state.SkipWithError("rehydrate failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_SpillRehydrate);

}  // namespace
