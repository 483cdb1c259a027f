// One race2dd --socket process under the benchmark's control.
#pragma once

#include <sys/types.h>

#include <string>

#include "client.hpp"
#include "workload.hpp"

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary` serving an AF_UNIX socket at `socket_path` with the
  /// workload's workers and limits, then waits until an OPEN on the socket
  /// answers OK (and closes that session). setup_s() is the time from the
  /// spawn to that answer. Throws std::runtime_error, with the daemon
  /// stopped, if it exits or does not answer within 30 s.
  Daemon(const std::string& binary, const std::string& socket_path,
         const Workload& w);
  /// Stops the daemon (SIGTERM) and waits for it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double setup_s() const { return setup_s_; }

  /// utime + stime from /proc/<pid>/stat, in seconds.
  double cpu_s() const;
  /// VmHWM from /proc/<pid>/status, in MiB.
  double peak_rss_mb() const;

 private:
  void handshake(Clock::time_point start);
  void stop();

  std::string socket_path_;
  pid_t pid_ = -1;
  double setup_s_ = 0.0;
};

}  // namespace perfbench
