// Heap allocations of one steady-state session through
// DetectionService::handle, counted by this executable's own global
// operator new.
//
// The session is shaped like the end-to-end benchmark's `chatty` ones: a
// composition of small race-dense fuzz programs (near misses and future
// chains, eight locations a window, four windows) of about 1 100 events,
// sent as a version-2 run-compressed stream in 2 KiB FEEDs, then DRAIN and
// CLOSE. Once the shard has closed a session like it, the next OPEN resets
// that spare in place, so the session's tables do not regrow: what is left
// to allocate is each FEED's report vectors and the answers. The pin below
// is the count measured on the recycling service plus a small margin; a
// service that builds every session anew makes several times as many.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace {

// The test thread alone allocates while counting is on.
bool counting = false;
std::size_t allocations = 0;

}  // namespace

// Not inlined: a caller that saw malloc and free inside them would read
// new/delete pairs as mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace race2d {
namespace {

/// The count measured on the recycling service is 16 (a service that
/// builds every session anew makes 74); the margin absorbs a standard
/// library that grows a vector once more or once less.
constexpr std::size_t kSessionAllocationPin = 20;

/// A chatty-shaped program: small race-dense subprograms, each a child of
/// the root that the root joins before it forks the next, with locations
/// in four windows, until the program holds 1 000 events.
Trace chatty_program(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Trace out;
  TaskId next_task = 1;
  for (std::size_t index = 0; out.size() < 1000; ++index) {
    FuzzPlan plan;
    plan.seed = FuzzPlan::from_seed(rng()).seed;
    plan.shape = rng.chance(0.5) ? TraceShape::kNearMissRaces
                                 : TraceShape::kFutureChain;
    plan.max_tasks = 48;
    plan.max_actions = 16;
    plan.max_depth = 6;
    plan.loc_pool = 8;
    plan.race_bias = 0.5;
    const Trace sub = generate_trace(plan).trace;
    const TaskId base = next_task;
    const Loc window = static_cast<Loc>(index % 4) << 21;
    out.push_back({TraceOp::kFork, 0, base, 0});
    ++next_task;
    bool halted = false;
    for (TraceEvent e : sub) {
      if (e.op == TraceOp::kFork) ++next_task;
      if (e.op == TraceOp::kHalt && e.actor == 0) halted = true;
      e.actor += base;
      if (e.other != kInvalidTask) e.other += base;
      if (e.op == TraceOp::kRead || e.op == TraceOp::kWrite ||
          e.op == TraceOp::kRetire)
        e.loc += window;
      out.push_back(e);
    }
    if (!halted) out.push_back({TraceOp::kHalt, base, kInvalidTask, 0});
    out.push_back({TraceOp::kJoin, 0, base, 0});
  }
  out.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  return out;
}

/// OPEN, the FEEDs, DRAIN and CLOSE, built before anything is counted.
std::vector<Request> chatty_script(std::uint64_t seed) {
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 2 << 10;
  options.compression = CompressionMode::kRuns;
  const std::string wire = trace_to_binary(chatty_program(seed), options);
  std::vector<Request> script(1);
  script[0].verb = Verb::kOpen;
  for (std::size_t at = 0; at < wire.size(); at += 2 << 10) {
    script.emplace_back();
    script.back().verb = Verb::kFeed;
    script.back().bytes = wire.substr(at, 2 << 10);
  }
  script.emplace_back();
  script.back().verb = Verb::kDrain;
  script.emplace_back();
  script.back().verb = Verb::kClose;
  return script;
}

/// Runs the script as one session; every answer must be OK.
void run(DetectionService& service, std::vector<Request>& script) {
  std::uint32_t id = 0;
  for (Request& request : script) {
    request.session = id;
    const Response response = service.handle(request);
    ASSERT_EQ(response.status, ServiceStatus::kOk) << response.message;
    if (request.verb == Verb::kOpen) id = response.session;
  }
}

TEST(SessionAllocations, SteadyStateChattySessionStaysUnderItsPin) {
  std::vector<Request> script = chatty_script(20261019);
  ASSERT_GE(script.size(), 5u);  // OPEN, at least two FEEDs, DRAIN, CLOSE
  DetectionService service;
  for (int warm = 0; warm < 3; ++warm) run(service, script);

  allocations = 0;
  counting = true;
  run(service, script);
  counting = false;
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, kSessionAllocationPin);
  EXPECT_NE(service.metrics_json().find("\"sessions_recycled\":3,"),
            std::string::npos)
      << service.metrics_json();
}

}  // namespace
}  // namespace race2d
