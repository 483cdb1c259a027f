#include "daemon.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {

using namespace race2d;

Daemon::Daemon(const std::string& binary, const std::string& socket_path,
               const Workload& w)
    : socket_path_(socket_path) {
  const ServiceLimits& l = w.limits;
  std::vector<std::string> args = {
      binary,
      "--socket",
      socket_path,
      "--workers=" + std::to_string(w.workers),
      "--max-sessions=" + std::to_string(l.max_sessions),
      "--session-quota=" + std::to_string(l.session_quota_bytes),
      "--total-quota=" + std::to_string(l.total_quota_bytes),
      "--max-pending=" + std::to_string(l.max_pending_reports)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  ::unlink(socket_path.c_str());
  const Clock::time_point start = Clock::now();
  if (::posix_spawn(&pid_, binary.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary);
  }
  try {
    handshake(start);
  } catch (...) {
    stop();
    throw;
  }
}

void Daemon::handshake(Clock::time_point start) {
  for (;;) {
    const int fd = SocketTransport::try_connect(socket_path_);
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("race2dd exited during start-up");
    }
    if (seconds_between(start, Clock::now()) > 30.0)
      throw std::runtime_error("race2dd did not listen within 30 s");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  SocketTransport t(socket_path_);
  Request open;
  open.verb = Verb::kOpen;
  double us = 0.0;
  const Response opened = t.call(open, us);
  setup_s_ = seconds_between(start, Clock::now());
  if (opened.status != ServiceStatus::kOk)
    throw std::runtime_error("race2dd refused the first OPEN");
  Request close;
  close.verb = Verb::kClose;
  close.session = opened.session;
  t.call(close, us);
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
}

double Daemon::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name start at field 3; utime
  // and stime are fields 14 and 15.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0.0;
}

}  // namespace perfbench
