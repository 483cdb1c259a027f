// WorkerPool: sharded multi-core service. Session-id pinning, concurrent
// multi-stream determinism against the offline detector (1/2/8 workers,
// repeated), pool-wide session cap and memory budget, and the
// stats-vs-feed concurrency contract (metrics_json is safe to hammer from
// other threads while workers feed — run under TSan by scripts/check.sh).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/replay.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "runtime/trace_io.hpp"
#include "service/worker_pool.hpp"

namespace race2d {
namespace {

Trace racy_trace() {
  return parse_trace_text(
      "fork 0 1\n"
      "write 1 10\n"
      "halt 1\n"
      "read 0 10\n"
      "join 0 1\n"
      "halt 0\n");
}

Trace generated(std::uint64_t seed) {
  return generate_trace(FuzzPlan::from_seed(seed)).trace;
}

std::uint32_t pool_open(WorkerPool& pool,
                        ReportPolicy policy = ReportPolicy::kAll) {
  Request req;
  req.verb = Verb::kOpen;
  req.open.policy = policy;
  const Response rsp = pool.handle(req);
  EXPECT_EQ(rsp.status, ServiceStatus::kOk);
  return rsp.session;
}

Response pool_feed(WorkerPool& pool, std::uint32_t session,
                   const std::string& bytes) {
  Request req;
  req.verb = Verb::kFeed;
  req.session = session;
  req.bytes = bytes;
  return pool.handle(req);
}

std::vector<RaceReport> pool_drain(WorkerPool& pool, std::uint32_t session) {
  std::vector<RaceReport> out;
  for (;;) {
    Request req;
    req.verb = Verb::kDrain;
    req.session = session;
    const Response rsp = pool.handle(req);
    EXPECT_EQ(rsp.status, ServiceStatus::kOk);
    out.insert(out.end(), rsp.drain.reports.begin(), rsp.drain.reports.end());
    if (!rsp.drain.more) return out;
  }
}

Response pool_close(WorkerPool& pool, std::uint32_t session) {
  Request req;
  req.verb = Verb::kClose;
  req.session = session;
  return pool.handle(req);
}

TEST(WorkerPool, SessionIdsArePinnedToTheirShard) {
  WorkerPool pool(4);
  for (int i = 0; i < 12; ++i) {
    const std::uint32_t id = pool_open(pool);
    ASSERT_NE(id, 0u);
    // Whatever shard issued the id, it must route back to that shard.
    EXPECT_EQ(pool.shard_of(id), id % 4u);
    // A session opened on one shard is reachable through the pool: a feed
    // addressed by id lands on its owner, never unknown-session.
    EXPECT_EQ(pool_feed(pool, id, "").status, ServiceStatus::kOk);
  }
  EXPECT_EQ(pool.live_sessions(), 12u);
}

TEST(WorkerPool, SubmitToPinsOpensToTheRequestedShard) {
  WorkerPool pool(8);
  for (std::size_t shard = 0; shard < 8; ++shard) {
    Request req;
    req.verb = Verb::kOpen;
    Response rsp;
    std::atomic<bool> done{false};
    pool.submit_to(shard, req, [&](Response r) {
      rsp = std::move(r);
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    ASSERT_EQ(rsp.status, ServiceStatus::kOk);
    EXPECT_EQ(rsp.session % 8u, shard) << "id " << rsp.session;
  }
}

// The determinism gate: an 18-stream corpus fed through 1, 2 and 8 workers
// by concurrent client threads, frames interleaved arbitrarily by the
// scheduler, 20 repetitions — every session's report stream must be
// bit-identical to the offline serial detector.
TEST(WorkerPool, ConcurrentStreamsMatchOfflineDetector) {
  constexpr std::size_t kStreams = 18;
  constexpr std::size_t kClients = 6;  // 3 sessions per client thread
  constexpr int kReps = 20;
  std::vector<Trace> traces;
  traces.push_back(racy_trace());
  for (std::uint64_t seed = 1; traces.size() < kStreams; ++seed)
    traces.push_back(generated(seed * 97 + 5));
  std::vector<std::string> wires;
  std::vector<std::vector<RaceReport>> expected;
  for (const Trace& t : traces) {
    wires.push_back(trace_to_binary(t));
    expected.push_back(detect_races_trace(t));
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (int rep = 0; rep < kReps; ++rep) {
      WorkerPool pool(workers);
      std::vector<std::vector<RaceReport>> got(kStreams);
      std::atomic<int> failures{0};
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          // Each client interleaves ITS sessions frame-by-frame while the
          // other clients do the same — the pool sees a scheduler-chosen
          // global interleaving every repetition.
          const std::size_t lo = c * (kStreams / kClients);
          const std::size_t hi = lo + kStreams / kClients;
          std::vector<std::uint32_t> ids(hi - lo);
          std::vector<std::size_t> off(hi - lo, 0);
          for (std::size_t s = lo; s < hi; ++s) ids[s - lo] = pool_open(pool);
          constexpr std::size_t kFrame = 96;
          bool progress = true;
          while (progress) {
            progress = false;
            for (std::size_t s = lo; s < hi; ++s) {
              const std::string& wire = wires[s];
              std::size_t& o = off[s - lo];
              if (o >= wire.size()) continue;
              const std::size_t n = std::min(kFrame, wire.size() - o);
              const Response r =
                  pool_feed(pool, ids[s - lo], wire.substr(o, n));
              if (r.status != ServiceStatus::kOk)
                failures.fetch_add(1, std::memory_order_relaxed);
              o += n;
              progress = true;
            }
          }
          for (std::size_t s = lo; s < hi; ++s) {
            got[s] = pool_drain(pool, ids[s - lo]);
            const Response close = pool_close(pool, ids[s - lo]);
            if (close.status != ServiceStatus::kOk || !close.close.complete)
              failures.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      ASSERT_EQ(failures.load(), 0) << "workers " << workers << " rep " << rep;
      for (std::size_t s = 0; s < kStreams; ++s)
        ASSERT_EQ(got[s], expected[s])
            << "stream " << s << " workers " << workers << " rep " << rep;
      EXPECT_EQ(pool.live_sessions(), 0u);
    }
  }
}

TEST(WorkerPool, PoolWideSessionCapBindsAcrossShards) {
  ServiceLimits limits;
  limits.max_sessions = 5;
  WorkerPool pool(4, limits);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(pool_open(pool));
  Request req;
  req.verb = Verb::kOpen;
  const Response refused = pool.handle(req);
  EXPECT_EQ(refused.status, ServiceStatus::kSessionLimit);
  EXPECT_EQ(refused.message, "live-session cap reached (5)");
  EXPECT_EQ(pool.live_sessions(), 5u);

  // RESTORE at the cap: a blob would create a session and is refused; a
  // blobless RESTORE names a live one and is answered.
  Request snap;
  snap.verb = Verb::kSnapshot;
  snap.session = ids[0];
  const Response snapshot = pool.handle(snap);
  ASSERT_EQ(snapshot.status, ServiceStatus::kOk) << snapshot.message;
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = snapshot.blob;
  EXPECT_EQ(pool.handle(restore).status, ServiceStatus::kSessionLimit);
  Request rehydrate;
  rehydrate.verb = Verb::kRestore;
  rehydrate.session = ids[1];
  const Response named = pool.handle(rehydrate);
  EXPECT_EQ(named.status, ServiceStatus::kOk) << named.message;
  EXPECT_EQ(named.session, ids[1]);
  EXPECT_EQ(pool.live_sessions(), 5u);

  // One CLOSE frees a place, and the same blob is admitted.
  pool_close(pool, ids[2]);
  EXPECT_EQ(pool.live_sessions(), 4u);
  const Response admitted = pool.handle(restore);
  EXPECT_EQ(admitted.status, ServiceStatus::kOk) << admitted.message;
  EXPECT_EQ(pool.live_sessions(), 5u);
}

TEST(WorkerPool, GlobalBudgetEvictsTheHeaviestSessionAsynchronously) {
  ServiceLimits limits;
  limits.total_quota_bytes = 48 * 1024;  // tiny pool-wide budget
  WorkerPool pool(2, limits);
  const std::uint32_t a = pool_open(pool);
  const std::uint32_t b = pool_open(pool);
  // A wide trace: thousands of distinct locations make the shadow memory —
  // and with it the sessions' measured footprint — grow past the budget.
  std::ostringstream text;
  for (int loc = 0; loc < 8000; ++loc) text << "write 0 " << loc << "\n";
  text << "halt 0\n";
  const std::string wire = trace_to_binary(parse_trace_text(text.str()));
  // Feed both sessions until one gets evicted by the pool governor (the
  // EvictHeaviest command runs on the owning worker after our feed returns,
  // so the eviction surfaces on a LATER feed as the tombstone status).
  bool evicted = false;
  for (std::size_t off = 0; off < wire.size() && !evicted; off += 2048) {
    for (const std::uint32_t id : {a, b}) {
      const Response r = pool_feed(
          pool, id, wire.substr(off, std::min<std::size_t>(2048, wire.size() - off)));
      if (r.status == ServiceStatus::kQuotaEvicted) {
        evicted = true;
      } else if (r.status != ServiceStatus::kOk) {
        FAIL() << service_status_id(r.status) << ": " << r.message;
      }
    }
  }
  // The EvictHeaviest command may still be in flight when the stream runs
  // out; empty keep-alive feeds surface the tombstone once it lands.
  for (int i = 0; i < 400 && !evicted; ++i) {
    for (const std::uint32_t id : {a, b})
      if (pool_feed(pool, id, "").status == ServiceStatus::kQuotaEvicted)
        evicted = true;
    if (!evicted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(evicted) << "resident " << pool.resident_bytes();
  // The pool is unharmed: a fresh session still detects.
  const std::uint32_t fresh = pool_open(pool);
  ASSERT_EQ(pool_feed(pool, fresh, trace_to_binary(racy_trace())).status,
            ServiceStatus::kOk);
  EXPECT_EQ(pool_drain(pool, fresh).size(), 1u);
}

// The cold-tier scale gate: a 2-worker pool whose in-memory budget holds a
// handful of sessions carries >= 1000 of them at once by spilling evicted
// sessions to disk. Every session is fed a prefix (half of them as
// version-2 run-compressed bytes), the governor spills the overflow, and
// the second half of each stream transparently rehydrates its session —
// the drained reports must be bit-identical to the offline detector for
// ALL of them, and the tier's counters must prove it actually ran.
TEST(WorkerPool, SpillTierRetainsAThousandSessionsBeyondTheQuota) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("race2d-pool-spill-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr std::size_t kSessions = 1100;
  ServiceLimits limits;
  limits.max_sessions = kSessions + 8;
  limits.total_quota_bytes = 192 * 1024;  // a few sessions' worth, no more
  limits.spill_dir = dir.string();
  WorkerPool pool(2, limits);

  BinaryWriteOptions zopt;
  zopt.compression = CompressionMode::kRuns;
  std::vector<Trace> traces;
  traces.push_back(racy_trace());
  for (std::uint64_t seed = 0; traces.size() < 4; ++seed)
    traces.push_back(generated(seed * 31 + 11));
  std::vector<std::string> wires;       // even sessions: plain v1
  std::vector<std::string> zwires;      // odd sessions: run-compressed v2
  std::vector<std::vector<RaceReport>> expected;
  for (const Trace& t : traces) {
    wires.push_back(trace_to_binary(t));
    zwires.push_back(trace_to_binary(t, zopt));
    expected.push_back(detect_races_trace(t));
  }
  const auto wire_of = [&](std::size_t s) -> const std::string& {
    return (s % 2 == 0) ? wires[s % traces.size()]
                        : zwires[s % traces.size()];
  };

  // Phase 1: open everything and feed the first half of each stream. The
  // governor spills sessions as the pool overshoots its budget.
  std::vector<std::uint32_t> ids(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids[s] = pool_open(pool);
    const std::string& wire = wire_of(s);
    const Response r = pool_feed(pool, ids[s], wire.substr(0, wire.size() / 2));
    ASSERT_EQ(r.status, ServiceStatus::kOk)
        << "session " << s << ": " << r.message;
  }
  // Let the in-flight eviction sweeps land, then count: every opened
  // session is still retained — live or in the cold tier, none lost.
  for (int i = 0; i < 400; ++i) {
    if (pool.live_sessions() + pool.spilled_sessions() >= kSessions &&
        pool.spilled_sessions() > 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pool.live_sessions() + pool.spilled_sessions(), kSessions - 2);
  EXPECT_GT(pool.spilled_sessions(), 0u)
      << "budget never forced a spill; resident " << pool.resident_bytes();

  // Phase 2: finish every stream (rehydrating on demand), drain, compare.
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string& wire = wire_of(s);
    const Response r = pool_feed(pool, ids[s], wire.substr(wire.size() / 2));
    ASSERT_EQ(r.status, ServiceStatus::kOk)
        << "session " << s << ": " << r.message;
    ASSERT_EQ(pool_drain(pool, ids[s]), expected[s % traces.size()])
        << "session " << s;
    const Response closed = pool_close(pool, ids[s]);
    ASSERT_EQ(closed.status, ServiceStatus::kOk) << closed.message;
    EXPECT_TRUE(closed.close.complete) << "session " << s;
  }
  EXPECT_GT(pool.rehydrations(), 0u);
  EXPECT_EQ(pool.live_sessions(), 0u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Satellite regression: metrics_json used to read per-session counters that
// the worker threads were concurrently writing. Hammer STATS (both the JSON
// aggregate and the protocol verb) from several threads while feeders run —
// TSan (scripts/check.sh stage 5) fails this test on any unsynchronized
// counter read; plain builds check the JSON stays well-formed.
TEST(WorkerPool, StatsAreSafeToHammerDuringFeeds) {
  WorkerPool pool(2);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> feeders;
  for (int f = 0; f < 3; ++f) {
    feeders.emplace_back([&, f] {
      const std::string wire = trace_to_binary(generated(900 + f));
      for (int i = 0; i < 40; ++i) {
        const std::uint32_t id = pool_open(pool);
        for (std::size_t off = 0; off < wire.size(); off += 256) {
          const Response r = pool_feed(
              pool, id, wire.substr(off, std::min<std::size_t>(256, wire.size() - off)));
          if (r.status != ServiceStatus::kOk)
            failures.fetch_add(1, std::memory_order_relaxed);
        }
        pool_drain(pool, id);
        pool_close(pool, id);
      }
    });
  }
  std::vector<std::thread> watchers;
  for (int w = 0; w < 2; ++w) {
    watchers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string json = pool.metrics_json();
        if (json.empty() || json.front() != '{' || json.back() != '}')
          failures.fetch_add(1, std::memory_order_relaxed);
        Request req;
        req.verb = Verb::kStats;
        const Response r = pool.handle(req);
        if (r.status != ServiceStatus::kOk)
          failures.fetch_add(1, std::memory_order_relaxed);
        (void)pool.live_sessions();
        (void)pool.resident_bytes();
      }
    });
  }
  for (std::thread& t : feeders) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : watchers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.live_sessions(), 0u);
}

}  // namespace
}  // namespace race2d
