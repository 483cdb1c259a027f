// perfbench_loadgen: the end-to-end race2dd benchmark's generator process.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                    --daemon PATH/race2dd --run-dir DIR
//
// Generates the seeded workload, starts race2dd --socket (several times, to
// take the median set-up time), drives it closed-loop from the workload's
// client connections for S seconds, checks every session's reports against
// detect_races_trace, and prints a provenance line and a result line.
// With --trace 1 it also runs the in-process traced passes (traced.hpp) and
// prints the per-layer metrics instead of the end-to-end ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "client.hpp"
#include "daemon.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 21;
/// The measured window is split into sub-windows of this length; rates and
/// FEED percentiles are taken per sub-window and reported as their median,
/// so a burst of outside load moves one sub-window, not the result.
constexpr double kSubWindowS = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  std::string run_dir;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (key == "--daemon") a.daemon = v;
    else if (key == "--run-dir") a.run_dir = v;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (a.workload.empty() || a.daemon.empty() || a.run_dir.empty())
    throw std::invalid_argument("--workload, --daemon and --run-dir are required");
  return a;
}

/// CPU time the hypervisor gave other guests (the steal column of
/// /proc/stat), in seconds: how much outside load a run competed with.
double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 1; i <= 8 && in >> field; ++i)
    if (i == 8) steal = field;
  return steal / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_object(std::ostream& os, const std::map<std::string, double>& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << '"' << k << "\": " << json_number(v);
    first = false;
  }
  os << '}';
}

int run(const Args& a) {
  Workload w = make_workload(a.workload, a.seed);
  std::filesystem::create_directories(a.run_dir);
  const std::string sock = a.run_dir + "/race2dd.sock";

  // Set-up: the median of several daemon starts; the last one stays up.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kSetups; ++k) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(a.daemon, sock, w);
    setups.push_back(daemon->setup_s());
  }
  const TransportFactory factory = [&] {
    return std::make_unique<SocketTransport>(sock);
  };
  // Warm-up: one session per connection.
  const std::uint64_t warmup_mismatched =
      run_closed_loop(w, factory, 0.0, 1).stats.mismatched;

  const double window = a.trace ? std::min(a.seconds, 4.0) : a.seconds;
  const double steal0 = host_steal_s();
  std::vector<double> cpu_at = {daemon->cpu_s()};  // at each sub-window edge
  const LoopResult r = run_closed_loop(w, factory, window, 0, kSubWindowS,
                                       [&] { cpu_at.push_back(daemon->cpu_s()); });
  const double cpu_s = daemon->cpu_s() - cpu_at.front();
  const double steal_s = host_steal_s() - steal0;
  const double rss_mb = daemon->peak_rss_mb();
  daemon.reset();

  const LoopStats& s = r.stats;
  const std::uint64_t mismatched = s.mismatched + warmup_mismatched;
  const std::uint64_t failed = s.failed + mismatched;
  std::map<std::string, double> metrics;
  std::map<std::string, double> details = {
      {"window_s", r.window_s},
      {"sessions", static_cast<double>(s.sessions)},
      {"feed_samples", static_cast<double>(s.feed_us.size())},
      {"session_samples", static_cast<double>(s.session_ms.size())},
      {"frames", static_cast<double>(s.frames)},
      {"reports_drained", static_cast<double>(s.reports)},
      {"mismatched_sessions", static_cast<double>(mismatched)},
      {"failed_requests", static_cast<double>(s.failed)},
      {"daemon_cpu_s", cpu_s},
      {"host_steal_s", steal_s},
  };
  if (!a.trace) {
    // Per sub-window: events completed, FEED latencies, daemon CPU.
    const std::size_t subs = cpu_at.size() - 1;
    if (subs == 0) throw std::invalid_argument("--seconds is below one sub-window");
    std::vector<double> sub_events(subs, 0.0);
    std::vector<std::vector<double>> sub_feed_us(subs);
    for (std::size_t i = 0; i < s.feed_t.size(); ++i) {
      const auto k = static_cast<std::size_t>(s.feed_t[i] / kSubWindowS);
      if (k >= subs) continue;
      sub_events[k] += static_cast<double>(s.feed_events[i]);
      sub_feed_us[k].push_back(s.feed_us[i]);
    }
    std::vector<double> rate, p50, p99, cpu_per_event;
    for (std::size_t k = 0; k < subs; ++k) {
      rate.push_back(sub_events[k] / kSubWindowS);
      p50.push_back(percentile(sub_feed_us[k], 50));
      p99.push_back(percentile(sub_feed_us[k], 99));
      if (sub_events[k] > 0)
        cpu_per_event.push_back((cpu_at[k + 1] - cpu_at[k]) * 1e9 / sub_events[k]);
    }
    details["sub_windows"] = static_cast<double>(subs);
    metrics["events_per_s"] = percentile(rate, 50);
    metrics["feed_p50_us"] = percentile(p50, 50);
    metrics["feed_p99_us"] = percentile(p99, 50);
    metrics["session_p50_ms"] = percentile(s.session_ms, 50);
    metrics["cpu_ns_per_event"] = percentile(cpu_per_event, 50);
    metrics["peak_rss_mb"] = rss_mb;
    metrics["ok_share"] =
        s.requests > 0 ? 1.0 - static_cast<double>(failed) / s.requests : 0.0;
    metrics["setup_s"] = percentile(setups, 50);
  } else {
    metrics = run_traced(w, s.feed_us, window, a.run_dir + "/traced",
                         a.run_dir + "/spans-" + w.name + ".csv", details);
  }

  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": \"" << w.name
       << "\", \"seed\": " << w.seed
       << ", \"sessions_in_pool\": " << w.sessions.size()
       << ", \"logical_events\": " << w.events << ", \"tasks\": " << w.tasks
       << ", \"wire_bytes\": " << w.wire_bytes
       << ", \"v2_run_share\": "
       << json_number(w.events ? static_cast<double>(w.run_events) / w.events : 0.0)
       << ", \"races\": " << w.races << ", \"connections\": " << w.connections
       << ", \"workers\": " << w.workers
       << ", \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i)
    prov << (i ? ", " : "") << json_number(setups[i]);
  prov << "], \"details\": ";
  print_object(prov, details);
  prov << "}}";
  std::printf("%s\n", prov.str().c_str());

  // run.py attaches the units declared in BENCHMARK.json and prints the
  // final result line.
  std::ostringstream result;
  result << "{\"result\": {\"correct\": " << (mismatched == 0 ? "true" : "false")
         << ", \"attempted\": " << s.requests << ", \"failed\": " << failed
         << ", \"metrics\": ";
  print_object(result, metrics);
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 1;
  }
}
