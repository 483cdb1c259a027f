#include "traced.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <variant>

#include "compress/spill_tier.hpp"
#include "core/depa_detector.hpp"
#include "core/detector.hpp"
#include "io/binary_reader.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "verify/trace_lint.hpp"

namespace perfbench {

using namespace race2d;

namespace {

using Engine = std::variant<OnlineRaceDetector, DePaDetector>;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double per(double total, double count) { return count > 0 ? total / count : 0.0; }

/// Engines are not movable: construct in place, then register the root.
void init_engine(Engine& e, DetectorEngine which, ReportPolicy policy) {
  if (which == DetectorEngine::kDepa)
    e.emplace<DePaDetector>(policy);
  else
    e.emplace<OnlineRaceDetector>(policy);
  std::visit([](auto& d) { d.on_root(); }, e);
}

/// One event into an engine, as DetectionSession::drive does it.
template <typename D>
void drive(D& d, const TraceEvent& e) {
  switch (e.op) {
    case TraceOp::kFork:   d.on_fork(e.actor); break;
    case TraceOp::kJoin:   d.on_join(e.actor, e.other); break;
    case TraceOp::kHalt:   d.on_halt(e.actor); break;
    case TraceOp::kRead:   d.on_read(e.actor, e.loc); break;
    case TraceOp::kWrite:  d.on_write(e.actor, e.loc); break;
    case TraceOp::kRetire: d.on_retire(e.actor, e.loc); break;
    default: break;  // ordering no-ops for the detector
  }
}

struct FoldCounts {
  std::uint64_t attempts = 0;
  std::uint64_t hits = 0;
};

/// Replays one decoded frame into the engine the way DetectionSession::feed
/// does, trying to fold every run; applied[k] records run k's outcome.
template <typename D>
void replay_frame(D& d, const std::vector<TraceEvent>& events,
                  const std::vector<DecodedRun>& runs,
                  std::vector<char>& applied, FoldCounts& folds) {
  applied.assign(runs.size(), 0);
  std::size_t k = 0;
  for (std::size_t i = 0; i < events.size();) {
    if (k < runs.size() && runs[k].first == i) {
      const DecodedRun run = runs[k];
      const TraceEvent* tmpl = events.data() + i;
      for (std::size_t j = 0; j < run.len; ++j) drive(d, tmpl[j]);
      ++folds.attempts;
      if (d.try_apply_clean_run(tmpl, run.len, run.extra)) {
        applied[k] = 1;
        ++folds.hits;
      } else {
        for (std::uint64_t r = 0; r < run.extra; ++r)
          for (std::size_t j = 0; j < run.len; ++j) drive(d, tmpl[j]);
      }
      ++k;
      i += run.len;
    } else {
      drive(d, events[i++]);
    }
  }
}

/// Lints one decoded frame in stream order, skipping folded repetitions the
/// way the session does (note_replayed).
bool lint_frame(TraceLintStream& lint, const std::vector<TraceEvent>& events,
                const std::vector<DecodedRun>& runs,
                const std::vector<char>& applied) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < events.size();) {
    if (k < runs.size() && runs[k].first == i) {
      const DecodedRun run = runs[k];
      const TraceEvent* tmpl = events.data() + i;
      for (std::size_t j = 0; j < run.len; ++j) lint.feed(tmpl[j]);
      if (applied[k]) {
        lint.note_replayed(std::uint64_t{run.len} * run.extra);
      } else {
        for (std::uint64_t r = 0; r < run.extra; ++r)
          for (std::size_t j = 0; j < run.len; ++j) lint.feed(tmpl[j]);
      }
      ++k;
      i += run.len;
    } else {
      lint.feed(events[i++]);
    }
  }
  return lint.ok_so_far();
}

TraceLintOptions gate_options() {
  TraceLintOptions options;
  options.warnings = false;
  options.max_diagnostics = 8;
  return options;
}

// ---------------------------------------------------------------------------
// Stage replay: one span per layer boundary per FEED frame.

enum Layer { kCodec, kDecode, kEngine, kLint, kDrain, kSession, kLayers };
constexpr const char* kLayerNames[kLayers] = {
    "service.codec", "io.decode",     "core.engine",
    "verify.lint",   "service.drain", "service.session"};

struct FrameSpans {
  std::uint32_t session = 0;
  std::uint32_t frame = 0;
  std::uint64_t ns[kLayers] = {};
};

struct StageResult {
  std::uint64_t ns[kLayers] = {};
  double wall_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;  ///< logical
  std::uint64_t run_events = 0;
  std::uint64_t reports = 0;
  std::uint64_t exchanges = 0;  ///< FEED and DRAIN request/response pairs
  std::uint64_t lint_bytes = 0;  ///< summed over sessions, at close
  std::uint64_t mismatched = 0;
  std::uint64_t twin_ns = 0;  ///< TwinSession time, kTwin passes only
  FoldCounts folds;
  std::vector<FrameSpans> spans;

  std::uint64_t span_total() const {
    std::uint64_t t = 0;
    for (std::uint64_t v : ns) t += v;
    return t;
  }
};

/// Lap timer: each lap() charges the time since the previous mark to one
/// layer. Compiled out entirely for the untraced replay.
template <bool kTraced>
struct Lap {
  Clock::time_point mark;
  std::uint64_t* frame_ns = nullptr;
  std::uint64_t* total_ns = nullptr;
  void start() {
    if constexpr (kTraced) mark = Clock::now();
  }
  void lap(Layer layer) {
    if constexpr (kTraced) {
      const Clock::time_point now = Clock::now();
      const std::uint64_t d = ns_between(mark, now);
      total_ns[layer] += d;
      if (frame_ns != nullptr) frame_ns[layer] += d;
      mark = now;
    }
  }
};

/// The real path the spans must add up to: the same frames through
/// DetectionSession::feed/drain/close behind the same codec round trips,
/// each call timed. It runs in lockstep with a traced stage replay, frame by
/// frame, so both see the same host; a layer the spans miss, or time they
/// charge twice, then shows in trace.coverage.
class TwinSession {
 public:
  TwinSession(const Workload& w, const SessionSpec& spec, std::uint32_t id)
      : spec_(spec), id_(id) {
    const Clock::time_point t0 = Clock::now();
    session_ = std::make_unique<DetectionSession>(
        spec.policy, w.limits.max_pending_reports, spec.engine);
    ns_ += ns_between(t0, Clock::now());
  }

  void feed(const std::string& frame) {
    const Clock::time_point t0 = Clock::now();
    Request request;
    request.verb = Verb::kFeed;
    request.session = id_;
    request.bytes = frame;
    Request decoded;
    std::string error;
    if (!decode_request(encode_request(request), decoded, error))
      throw std::runtime_error("request codec: " + error);
    const DetectionSession::FeedOutcome fed = session_->feed(decoded.bytes);
    if (fed.status != ServiceStatus::kOk)
      throw std::runtime_error("in-process feed failed: " + fed.message);
    Response response;
    response.verb = Verb::kFeed;
    response.session = id_;
    response.feed.events = fed.events;
    response.feed.pending_reports = fed.pending_reports;
    round_trip(response);
    if (fed.backpressure) drain();
    ns_ += ns_between(t0, Clock::now());
  }

  /// Drains, closes and frees the session; true when its reports and event
  /// count are the expected ones.
  bool finish() {
    const Clock::time_point t0 = Clock::now();
    drain();
    const DetectionSession::CloseOutcome closed = session_->close();
    session_.reset();
    ns_ += ns_between(t0, Clock::now());
    return closed.complete && closed.events == spec_.events && got_ == spec_.expected;
  }

  std::uint64_t ns() const { return ns_; }

 private:
  static Response round_trip(const Response& r) {
    Response back;
    std::string error;
    if (!decode_response(encode_response(r), back, error))
      throw std::runtime_error("response codec: " + error);
    return back;
  }

  void drain() {
    Response drained;
    drained.verb = Verb::kDrain;
    drained.session = id_;
    bool more = true;
    while (more) {
      drained.drain.reports = session_->drain(0, more);
      const Response back = round_trip(drained);
      got_.insert(got_.end(), back.drain.reports.begin(), back.drain.reports.end());
    }
  }

  const SessionSpec& spec_;
  std::uint32_t id_;
  std::unique_ptr<DetectionSession> session_;
  std::vector<RaceReport> got_;
  std::uint64_t ns_ = 0;
};

/// kUntraced: no spans. kTraced: one span per layer per frame. kTwin: the
/// spans plus a TwinSession in lockstep.
enum class Pass { kUntraced, kTraced, kTwin };

template <Pass kPass>
StageResult stage_replay(const Workload& w) {
  constexpr bool kTraced = kPass != Pass::kUntraced;
  constexpr bool kTwin = kPass == Pass::kTwin;
  StageResult out;
  Lap<kTraced> lap;
  lap.total_ns = out.ns;
  std::vector<TraceEvent> events;
  std::vector<DecodedRun> runs;
  std::vector<char> applied;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t sid = 0; sid < w.sessions.size(); ++sid) {
    const SessionSpec& spec = w.sessions[sid];
    // Each step (set-up, every frame, close) runs in both pipelines, one
    // leading, so each sees one step of the other between two of its own;
    // the lead alternates by session.
    std::optional<TwinSession> twin;
    const bool twin_leads = sid % 2 == 0;
    const auto twin_step = [&](bool now, auto&& step) {
      if constexpr (kTwin) {
        if (now) {
          step();
          lap.start();
        }
      }
    };
    const auto twin_open = [&] { twin.emplace(w, spec, sid + 1); };
    twin_step(twin_leads, twin_open);
    lap.frame_ns = nullptr;
    lap.start();
    // Held by pointer so that freeing them, as the service's CLOSE does, is
    // charged to the session span too.
    auto decoder = std::make_unique<BinaryTraceDecoder>();
    auto lint = std::make_unique<TraceLintStream>(gate_options());
    auto engine = std::make_unique<Engine>();
    init_engine(*engine, spec.engine, spec.policy);
    std::vector<RaceReport> pending;
    lap.lap(kSession);
    twin_step(!twin_leads, twin_open);
    for (std::uint32_t f = 0; f < spec.frames.size(); ++f) {
      const auto twin_feed = [&] { twin->feed(spec.frames[f]); };
      twin_step(twin_leads, twin_feed);
      if constexpr (kTraced) {
        out.spans.push_back({sid, f, {}});
        lap.frame_ns = out.spans.back().ns;
      }
      Request request;
      request.verb = Verb::kFeed;
      request.session = sid + 1;
      request.bytes = spec.frames[f];
      Request decoded;
      std::string error;
      if (!decode_request(encode_request(request), decoded, error))
        throw std::runtime_error("request codec: " + error);
      lap.lap(kCodec);

      events.clear();
      runs.clear();
      decoder->feed(decoded.bytes.data(), decoded.bytes.size(), events, &runs);
      lap.lap(kDecode);

      std::visit([&](auto& d) { replay_frame(d, events, runs, applied, out.folds); },
                 *engine);
      lap.lap(kEngine);

      if (!lint_frame(*lint, events, runs, applied))
        throw std::runtime_error("generated trace failed lint");
      lap.lap(kLint);

      std::vector<RaceReport> fresh =
          std::visit([](auto& d) { return d.mutable_reporter().take(); }, *engine);
      pending.insert(pending.end(), fresh.begin(), fresh.end());
      lap.lap(kDrain);

      Response response;
      response.verb = Verb::kFeed;
      response.session = request.session;
      response.feed.events = events.size();
      response.feed.pending_reports = static_cast<std::uint32_t>(pending.size());
      Response back;
      if (!decode_response(encode_response(response), back, error))
        throw std::runtime_error("response codec: " + error);
      lap.lap(kCodec);

      out.bytes += decoded.bytes.size();
      for (const DecodedRun& r : runs) out.run_events += std::uint64_t{r.len} * r.extra;
      ++out.exchanges;
      twin_step(!twin_leads, twin_feed);
    }
    lap.frame_ns = nullptr;
    const auto twin_close = [&] {
      if (!twin->finish()) ++out.mismatched;
      out.twin_ns += twin->ns();
    };
    twin_step(twin_leads, twin_close);
    Response drained;
    drained.verb = Verb::kDrain;
    drained.session = sid + 1;
    drained.drain.reports = std::move(pending);
    lap.lap(kDrain);
    Response back;
    std::string error;
    if (!decode_response(encode_response(drained), back, error))
      throw std::runtime_error("drain codec: " + error);
    ++out.exchanges;
    lap.lap(kCodec);

    decoder->finish();
    lint->finish();
    const std::uint64_t logical = lint->events_seen();
    const std::size_t lint_bytes = lint->memory_bytes();
    const bool clean = lint->ok_so_far();
    decoder.reset();
    lint.reset();
    engine.reset();
    lap.lap(kSession);
    twin_step(!twin_leads, twin_close);

    out.events += logical;
    out.lint_bytes += lint_bytes;
    out.reports += back.drain.reports.size();
    if (!clean || logical != spec.events || back.drain.reports != spec.expected)
      ++out.mismatched;
  }
  out.wall_s = seconds_between(start, Clock::now());
  return out;
}

// ---------------------------------------------------------------------------
// Engine replay: every session through both engines, decode untimed.

/// DePa's label space grows with the depth of the program (om_timestamps.hpp)
/// and a long bulk program would exhaust memory. Its replays stop at the
/// first frame or block after its footprint passes this cap; its figures
/// then cover the events replayed so far.
constexpr std::size_t kDepaFootprintCap = 256u << 20;

struct EngineFigures {
  double ns[2] = {0, 0};        ///< by DetectorEngine value
  std::uint64_t events[2] = {0, 0};  ///< events replayed, by engine
  std::uint64_t shadow_bytes = 0, locations = 0;  ///< DSU, at session end
  std::uint64_t task_bytes = 0, tasks = 0;
};

EngineFigures engine_replay(const Workload& w) {
  EngineFigures out;
  struct Frame {
    std::vector<TraceEvent> events;
    std::vector<DecodedRun> runs;
    std::uint64_t logical = 0;
  };
  std::vector<char> applied;
  for (const SessionSpec& spec : w.sessions) {
    BinaryTraceDecoder decoder;
    std::vector<Frame> frames(spec.frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::uint64_t before = decoder.events_decoded();
      decoder.feed(spec.frames[f].data(), spec.frames[f].size(),
                   frames[f].events, &frames[f].runs);
      frames[f].logical = decoder.events_decoded() - before;
    }
    for (const DetectorEngine which : {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
      const int slot = static_cast<int>(which);
      Engine engine;
      init_engine(engine, which, spec.policy);
      FoldCounts folds;
      for (const Frame& f : frames) {
        const Clock::time_point t0 = Clock::now();
        std::visit([&](auto& d) { replay_frame(d, f.events, f.runs, applied, folds); },
                   engine);
        out.ns[slot] += ns_between(t0, Clock::now());
        out.events[slot] += f.logical;
        if (which == DetectorEngine::kDepa &&
            std::get<DePaDetector>(engine).footprint().total() > kDepaFootprintCap)
          break;
      }
      if (which == DetectorEngine::kDsu) {
        const auto& d = std::get<OnlineRaceDetector>(engine);
        const MemoryFootprint fp = d.footprint();
        out.shadow_bytes += fp.shadow_bytes;
        out.locations += d.tracked_locations();
        out.task_bytes += fp.per_task_bytes;
        out.tasks += d.task_count();
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Theorem-5 curve: ns/event and shadow bytes/location as the bulk program
// grows from 10^4 to 10^7 events, on both engines.

constexpr std::size_t kCurveSizes[4] = {10'000, 100'000, 1'000'000, 10'000'000};

struct Curve {
  /// [point][engine]; 0 where DePa stopped at its cap before the point.
  double ns_per_event[4][2] = {};
  double shadow_per_loc[4][2] = {};
  std::uint64_t depa_events = 0;  ///< events DePa replayed in the long pass
  double depa_ns_per_event = 0;   ///< DePa's cumulative figure there

  double growth(int slot) const {
    const double last = slot == 1 ? depa_ns_per_event : ns_per_event[3][0];
    return per(last, ns_per_event[0][slot]);
  }
};

template <typename D>
void feed_events(D& d, const TraceEvent* events, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) drive(d, events[i]);
}

template <typename D>
double shadow_per_loc(const D& d) {
  return d.footprint().shadow_bytes_per_location(d.tracked_locations());
}

/// Median-of-`reps` replay of the first n events into fresh engines.
template <typename D>
void prefix_point(const Trace& prefix, int point, int reps, Curve& c, int slot) {
  const std::size_t n = kCurveSizes[point];
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    D d;
    d.on_root();
    const Clock::time_point t0 = Clock::now();
    feed_events(d, prefix.data(), n);
    samples.push_back(static_cast<double>(ns_between(t0, Clock::now())) / n);
    c.shadow_per_loc[point][slot] = shadow_per_loc(d);
  }
  c.ns_per_event[point][slot] = percentile(samples, 50);
}

Curve theorem5_curve(std::uint64_t seed) {
  Curve c;
  ProgramComposer composer = bulk_composer(seed);
  Trace chunk;
  while (chunk.size() < kCurveSizes[1]) composer.append_next(chunk);
  for (int point = 0; point < 2; ++point) {
    const int reps = point == 0 ? 21 : 5;
    prefix_point<OnlineRaceDetector>(chunk, point, reps, c, 0);
    prefix_point<DePaDetector>(chunk, point, reps, c, 1);
  }
  // One streaming pass to 10^7, generated subprogram by subprogram so the
  // whole program is never resident; cumulative ns/event at each size.
  OnlineRaceDetector dsu;
  DePaDetector depa;
  dsu.on_root();
  depa.on_root();
  bool depa_on = true;
  std::uint64_t ns[2] = {0, 0};
  std::size_t fed = 0, depa_checked = 0;
  for (int point = 2; point < 4; ++point) {
    while (fed < kCurveSizes[point]) {
      const Clock::time_point t0 = Clock::now();
      feed_events(dsu, chunk.data(), chunk.size());
      ns[0] += ns_between(t0, Clock::now());
      if (depa_on) {
        const Clock::time_point t1 = Clock::now();
        feed_events(depa, chunk.data(), chunk.size());
        ns[1] += ns_between(t1, Clock::now());
        c.depa_events += chunk.size();
        if (c.depa_events - depa_checked >= 65'536) {
          depa_checked = c.depa_events;
          depa_on = depa.footprint().total() <= kDepaFootprintCap;
        }
      }
      fed += chunk.size();
      chunk.clear();
      composer.append_next(chunk);
    }
    c.ns_per_event[point][0] = static_cast<double>(ns[0]) / fed;
    c.shadow_per_loc[point][0] = shadow_per_loc(dsu);
    if (depa_on) {
      c.ns_per_event[point][1] = static_cast<double>(ns[1]) / fed;
      c.shadow_per_loc[point][1] = shadow_per_loc(depa);
    }
  }
  c.depa_ns_per_event = per(ns[1], c.depa_events);
  return c;
}

// ---------------------------------------------------------------------------
// Spill cycle: up to 200 sessions fed round-robin, every session spilled
// after each frame and rehydrated before the next, as on a daemon whose
// budget holds none of them.

struct SpillFigures {
  std::uint64_t cycles = 0;
  std::uint64_t snapshot_ns = 0, restore_ns = 0, store_ns = 0, load_ns = 0;
  std::uint64_t raw_bytes = 0, stored_bytes = 0;
  std::uint64_t mismatched = 0;
};

SpillFigures spill_cycle(const Workload& w, const std::string& dir) {
  SpillFigures out;
  std::filesystem::create_directories(dir);
  SpillTier tier(dir, std::uint64_t{1} << 32);
  struct Live {
    const SessionSpec* spec;
    std::unique_ptr<DetectionSession> session;
    std::vector<RaceReport> got;
  };
  std::vector<Live> live;
  std::size_t max_frames = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(w.sessions.size(), 200); ++i) {
    const SessionSpec& spec = w.sessions[i];
    live.push_back({&spec,
                    std::make_unique<DetectionSession>(
                        spec.policy, w.limits.max_pending_reports, spec.engine),
                    {}});
    max_frames = std::max(max_frames, spec.frames.size());
  }
  const std::size_t quota = w.limits.session_quota_bytes;
  const auto drain = [](Live& l) {
    bool more = true;
    while (more) {
      std::vector<RaceReport> r = l.session->drain(0, more);
      l.got.insert(l.got.end(), r.begin(), r.end());
    }
  };
  const auto rehydrate = [&](std::uint32_t id, Live& l) {
    Clock::time_point t0 = Clock::now();
    std::string error;
    std::optional<std::string> blob = tier.load(id, &error);
    Clock::time_point t1 = Clock::now();
    if (!blob) throw std::runtime_error("spill load: " + error);
    RestoreOutcome restored = restore_session(*blob);
    out.load_ns += ns_between(t0, t1);
    out.restore_ns += ns_between(t1, Clock::now());
    if (!restored.session) throw std::runtime_error("restore: " + restored.error);
    l.session = std::move(restored.session);
  };
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::uint32_t id = 0; id < live.size(); ++id) {
      Live& l = live[id];
      if (f >= l.spec->frames.size()) continue;
      if (!l.session) rehydrate(id, l);
      if (l.session->feed(l.spec->frames[f]).status != ServiceStatus::kOk)
        throw std::runtime_error("in-process feed failed");
      drain(l);
      const Clock::time_point t0 = Clock::now();
      const std::string blob = snapshot_session(*l.session, quota);
      const Clock::time_point t1 = Clock::now();
      const std::uint64_t before = tier.bytes();
      if (!tier.store(id, blob).stored) throw std::runtime_error("spill store failed");
      out.snapshot_ns += ns_between(t0, t1);
      out.store_ns += ns_between(t1, Clock::now());
      out.raw_bytes += blob.size();
      out.stored_bytes += tier.bytes() - before;
      ++out.cycles;
      l.session.reset();
    }
  }
  for (std::uint32_t id = 0; id < live.size(); ++id) {
    Live& l = live[id];
    if (!l.session) rehydrate(id, l);
    drain(l);
    const DetectionSession::CloseOutcome closed = l.session->close();
    if (!closed.complete || l.got != l.spec->expected) ++out.mismatched;
  }
  return out;
}

void write_spans(const std::string& path, const StageResult& r) {
  std::ofstream os(path);
  os << "session,frame";
  for (const char* name : kLayerNames) os << ',' << name << "_ns";
  os << '\n';
  for (const FrameSpans& s : r.spans) {
    os << s.session << ',' << s.frame;
    for (std::uint64_t v : s.ns) os << ',' << v;
    os << '\n';
  }
}

}  // namespace

std::map<std::string, double> run_traced(
    const Workload& w, const std::vector<double>& socket_feed_us,
    double pass_seconds, const std::string& scratch_dir, const std::string& spans_path,
    std::map<std::string, double>& details) {
  std::map<std::string, double> m;

  // Untraced, traced and twin passes, in an order that rotates so none
  // always runs first. The layer figures come from the fastest traced pass;
  // trace.overhead is the median of traced ÷ untraced over rounds, and
  // trace.coverage the median over the twin passes of spans ÷ twin time.
  StageResult traced;
  std::vector<double> coverage, overhead;
  double untraced_s = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    double untraced = 0.0;
    StageResult r;
    for (int k = 0; k < 3; ++k) {
      switch ((rep + k) % 3) {
        case 0: untraced = stage_replay<Pass::kUntraced>(w).wall_s; break;
        case 1: r = stage_replay<Pass::kTraced>(w); break;
        default: {
          const StageResult t = stage_replay<Pass::kTwin>(w);
          if (t.mismatched != 0)
            throw std::runtime_error("twin session disagrees with detect_races_trace");
          coverage.push_back(per(static_cast<double>(t.span_total()), t.twin_ns));
        }
      }
    }
    if (r.mismatched != 0)
      throw std::runtime_error("stage replay disagrees with detect_races_trace");
    overhead.push_back(r.wall_s / untraced - 1.0);
    if (rep == 0 || r.wall_s < traced.wall_s) {
      traced = std::move(r);
      untraced_s = untraced;
    }
  }
  write_spans(spans_path, traced);
  const double ev = static_cast<double>(traced.events);
  m["io.decode_ns_per_byte"] = per(traced.ns[kDecode], traced.bytes);
  m["verify.lint_ns_per_event"] = per(traced.ns[kLint], ev);
  m["verify.lint_bytes"] = per(traced.lint_bytes, w.sessions.size());
  m["compress.run_event_share"] = per(traced.run_events, ev);
  m["compress.fold_hit_share"] = per(traced.folds.hits, traced.folds.attempts);
  m["service.drain_ns_per_report"] = per(traced.ns[kDrain], traced.reports);
  m["service.codec_ns_per_frame"] = per(traced.ns[kCodec], traced.exchanges);
  m["trace.coverage"] = percentile(coverage, 50);
  m["trace.overhead"] = percentile(overhead, 50);

  const EngineFigures engines = engine_replay(w);
  m["core.dsu_ns_per_event"] = per(engines.ns[0], engines.events[0]);
  m["core.depa_ns_per_event"] = per(engines.ns[1], engines.events[1]);
  m["core.shadow_bytes_per_loc"] = per(engines.shadow_bytes, engines.locations);
  m["core.per_task_bytes"] = per(engines.task_bytes, engines.tasks);
  details["engine.dsu_events"] = static_cast<double>(engines.events[0]);
  details["engine.depa_events"] = static_cast<double>(engines.events[1]);

  // The curve is a property of the engines on the bulk program; it runs on
  // bulk only and reads 0 elsewhere.
  m["core.dsu_growth"] = m["core.depa_growth"] = m["core.shadow_growth"] = 0.0;
  if (w.name == "bulk") {
    const Curve c = theorem5_curve(w.seed);
    m["core.dsu_growth"] = c.growth(0);
    m["core.depa_growth"] = c.growth(1);
    m["core.shadow_growth"] = per(c.shadow_per_loc[3][0], c.shadow_per_loc[0][0]);
    details["curve.depa_events"] = static_cast<double>(c.depa_events);
    details["curve.depa_ns_per_event"] = c.depa_ns_per_event;
    static constexpr const char* kPoints[4] = {"1e4", "1e5", "1e6", "1e7"};
    static constexpr const char* kEngines[2] = {"dsu", "depa"};
    for (int i = 0; i < 4; ++i) {
      for (int e = 0; e < 2; ++e) {
        const std::string key = std::string("curve.") + kEngines[e];
        const std::string at = std::string(".at_") + kPoints[i];
        details[key + "_ns_per_event" + at] = c.ns_per_event[i][e];
        details[key + "_shadow_bytes_per_loc" + at] = c.shadow_per_loc[i][e];
      }
    }
  }

  // Runs on the many-session workloads; snapshotting bulk's one 2·10^6-event
  // session after every frame would take minutes.
  m["compress.spill_us"] = m["compress.rehydrate_us"] = 0.0;
  m["compress.blob_ratio"] = m["service.snapshot_us"] = 0.0;
  if (w.sessions.size() > 1) {
    const SpillFigures s = spill_cycle(w, scratch_dir + "/cycle-spill");
    if (s.mismatched != 0)
      throw std::runtime_error("spill cycle disagrees with detect_races_trace");
    m["compress.spill_us"] = per(s.store_ns / 1e3, s.cycles);
    m["compress.rehydrate_us"] = per(s.load_ns / 1e3, s.cycles);
    m["compress.blob_ratio"] = per(s.raw_bytes, s.stored_bytes);
    m["service.snapshot_us"] = per((s.snapshot_ns + s.restore_ns) / 1e3, s.cycles);
  }

  // FEED round trips by transport: the service alone, the pool, the socket,
  // each driven by the same closed loop for the same time. Differences of
  // their percentiles split the socket round trip into layers; they are
  // differences of distributions, not of single requests, so one can come
  // out below zero when two layers' distributions are within noise.
  DetectionService service(w.limits);
  std::mutex service_mu;
  const LoopResult handled = run_closed_loop(
      w, [&] { return std::make_unique<ServiceTransport>(service, service_mu); },
      pass_seconds);
  LoopResult pooled;
  {
    WorkerPool pool(w.workers, w.limits);
    pooled = run_closed_loop(
        w, [&] { return std::make_unique<PoolTransport>(pool); }, pass_seconds);
  }
  if (handled.stats.mismatched != 0 || pooled.stats.mismatched != 0)
    throw std::runtime_error("in-process service disagrees with detect_races_trace");
  for (const auto& [suffix, p] : {std::pair<const char*, double>{"", 50.0},
                                  std::pair<const char*, double>{"_p99", 99.0}}) {
    const double handle = percentile(handled.stats.feed_us, p);
    const double pool = percentile(pooled.stats.feed_us, p);
    const double wire = percentile(socket_feed_us, p);
    m[std::string("service.handle_us") + suffix] = handle;
    m[std::string("service.pool_wait_us") + suffix] = pool - handle;
    m[std::string("service.transport_us") + suffix] = wire - pool;
  }
  details["samples.handle_feeds"] = static_cast<double>(handled.stats.feed_us.size());
  details["samples.pool_feeds"] = static_cast<double>(pooled.stats.feed_us.size());
  details["samples.socket_feeds"] = static_cast<double>(socket_feed_us.size());
  details["trace.span_frames"] = static_cast<double>(traced.spans.size());
  details["trace.replay_s"] = traced.wall_s;
  details["trace.untraced_replay_s"] = untraced_s;
  return m;
}

}  // namespace perfbench
