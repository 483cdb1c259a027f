// race2dd: the detection service daemon.
//
//   $ race2dd --pipe                 serve frames on stdin/stdout (the mode
//                                    scripts and tests drive; stderr is free
//                                    for logging)
//   $ race2dd --socket /tmp/r2d.sock serve an AF_UNIX listener: the main
//                                    thread accepts, and each worker's
//                                    epoll loop serves the connections
//                                    dealt to it, run to completion
//
// Limits (all optional):
//   --workers=N             detector worker threads            (default 1)
//   --max-sessions=N        live-session cap                 (default 64)
//   --session-quota=BYTES   per-session footprint quota      (default 64Mi)
//   --total-quota=BYTES     global footprint budget          (default 256Mi)
//   --max-pending=N         report backlog before backpressure (default 65536)
//   --spill-dir=PATH        cold tier: global-budget evictions spill the
//                           session snapshot to PATH (must exist) and a
//                           later FEED / blobless RESTORE rehydrates it
//   --spill-budget=BYTES    cold-tier byte budget                (default 1Gi)
//   --metrics               print the metrics JSON to stderr on exit
//
// Sessions are pinned to workers by id (session % workers); over a socket
// an OPEN lands on the connection's own worker, and a request for another
// worker's session is forwarded to it. The SNAPSHOT / RESTORE verbs move a
// live session between workers or processes.
//
// The daemon never crashes on client input: malformed frames, unknown
// sessions, over-quota streams and corrupt binary traces are all answered
// with structured error responses (see service/protocol.hpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "service/server.hpp"

int main(int argc, char** argv) {
  using namespace race2d;
  bool pipe_mode = false;
  bool metrics = false;
  const char* socket_path = nullptr;
  std::size_t workers = 1;
  ServiceLimits limits;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pipe") == 0) {
      pipe_mode = true;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--max-sessions=", 15) == 0) {
      limits.max_sessions = std::strtoull(argv[i] + 15, nullptr, 10);
    } else if (std::strncmp(argv[i], "--session-quota=", 16) == 0) {
      limits.session_quota_bytes = std::strtoull(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--total-quota=", 14) == 0) {
      limits.total_quota_bytes = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--max-pending=", 14) == 0) {
      limits.max_pending_reports = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--spill-dir=", 12) == 0) {
      limits.spill_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--spill-budget=", 15) == 0) {
      limits.spill_budget_bytes = std::strtoull(argv[i] + 15, nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --pipe | --socket <path>\n"
                   "       [--workers=N] [--max-sessions=N] "
                   "[--session-quota=BYTES]\n"
                   "       [--total-quota=BYTES] [--max-pending=N] "
                   "[--metrics]\n"
                   "       [--spill-dir=PATH] [--spill-budget=BYTES]\n",
                   argv[0]);
      return 2;
    }
  }
  if (pipe_mode == (socket_path != nullptr)) {
    std::fprintf(stderr, "pick exactly one of --pipe / --socket <path>\n");
    return 2;
  }
  if (workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return 2;
  }
  if (limits.max_pending_reports < 1) {
    // A cap of 0 refuses every FEED with backpressure that no DRAIN lifts.
    std::fprintf(stderr, "--max-pending must be >= 1\n");
    return 2;
  }
  WorkerPool pool(workers, limits);
  int rc = 0;
  if (pipe_mode) {
    serve_pipe(std::cin, std::cout, pool);
  } else {
    rc = serve_unix_socket(socket_path, pool, std::cerr);
  }
  if (metrics) std::fprintf(stderr, "%s\n", pool.metrics_json().c_str());
  return rc;
}
