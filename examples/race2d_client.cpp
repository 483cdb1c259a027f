// race2d_client: command-line client for the race2dd detection service.
//
//   $ race2d_client --spawn ./race2dd detect prog.trace [more...]
//   $ race2d_client --socket /tmp/r2d.sock detect prog.btrace
//   $ race2d_client --socket /tmp/r2d.sock stats
//   $ race2d_client --socket /tmp/r2d.sock snapshot 7 session.snap
//   $ race2d_client --socket /tmp/r2d.sock restore session.snap prog.btrace
//
// detect opens one session per file, streams it (text traces are encoded to
// the binary wire format on the fly; binary traces are streamed as-is),
// drains incrementally — honoring the service's backpressure — and prints
// EXACTLY one line per race report to stdout, in detection order. All
// summaries and errors go to stderr, so stdout diffs cleanly against
// `example_trace_analyzer --reports` on the same trace; scripts/check.sh
// holds the two bit-identical.
//
// snapshot serializes a live session to a blob file; restore rebuilds it
// under a FRESH session id (possibly on a different worker or a different
// daemon) and, when the trace file is given, resumes the stream exactly
// where the snapshot left off (the blob records how many wire bytes it
// covers), drains and closes — stdout then carries the remaining reports.
//
// Options: --policy=first|all (default all), --frame=BYTES (feed frame
// size, default 64Ki).
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "io/text_reader.hpp"
#include "service/protocol.hpp"
#include "service/snapshot.hpp"

namespace {

using namespace race2d;

bool read_exact(int fd, void* buf, std::size_t size) {
  unsigned char* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(buf);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, p + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// A connected frame channel: fds to write requests to / read responses
/// from. Either a spawned race2dd's pipes or one AF_UNIX socket (same fd
/// twice).
struct Channel {
  int wfd = -1;
  int rfd = -1;
  pid_t child = -1;

  bool call(const Request& request, Response& response) {
    std::string frame;
    append_frame(frame, encode_request(request));
    if (!write_all(wfd, frame.data(), frame.size())) {
      std::fprintf(stderr, "race2d_client: server pipe broke on send\n");
      return false;
    }
    char prefix[4];
    if (!read_exact(rfd, prefix, 4)) {
      std::fprintf(stderr, "race2d_client: server closed the connection\n");
      return false;
    }
    std::uint32_t rlen = 0;
    std::string error;
    if (!frame_length(std::string_view(prefix, 4), rlen, error)) {
      std::fprintf(stderr, "race2d_client: oversized response frame\n");
      return false;
    }
    std::string body(rlen, '\0');
    if (rlen > 0 && !read_exact(rfd, body.data(), rlen)) {
      std::fprintf(stderr, "race2d_client: truncated response frame\n");
      return false;
    }
    if (!decode_response(body, response, error)) {
      std::fprintf(stderr, "race2d_client: bad response: %s\n", error.c_str());
      return false;
    }
    return true;
  }

  void shutdown() {
    if (wfd >= 0) ::close(wfd);
    if (rfd >= 0 && rfd != wfd) ::close(rfd);
    wfd = rfd = -1;
    if (child > 0) {
      int status = 0;
      ::waitpid(child, &status, 0);
      child = -1;
    }
  }
};

bool spawn_daemon(const char* binary, Channel& ch) {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(binary, binary, "--pipe", static_cast<char*>(nullptr));
    std::perror(binary);
    _exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  ch.wfd = to_child[1];
  ch.rfd = from_child[0];
  ch.child = pid;
  return true;
}

bool connect_socket(const char* path, Channel& ch) {
  sockaddr_un addr{};
  if (std::strlen(path) >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", path);
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path, std::strlen(path) + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "connect %s: %s\n", path, std::strerror(errno));
    ::close(fd);
    return false;
  }
  ch.wfd = ch.rfd = fd;
  return true;
}

/// Drains every pending report of `session`, printing one line each.
bool drain_all(Channel& ch, std::uint32_t session) {
  for (;;) {
    Request req;
    req.verb = Verb::kDrain;
    req.session = session;
    Response rsp;
    if (!ch.call(req, rsp)) return false;
    if (rsp.status != ServiceStatus::kOk) {
      std::fprintf(stderr, "drain: %s: %s\n", service_status_id(rsp.status),
                   rsp.message.c_str());
      return false;
    }
    for (const RaceReport& r : rsp.drain.reports)
      std::printf("%s\n", to_string(r).c_str());
    if (!rsp.drain.more) return true;
  }
}

/// Normalizes `path` to the binary wire format: binary files load as-is,
/// text files are encoded through the streaming reader+writer pair. The
/// encoding is deterministic, so the byte offsets a snapshot records are
/// stable across client runs.
int load_wire(const char* path, std::string& wire) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  try {
    if (sniff_binary_trace(in)) {
      std::ostringstream buf;
      buf << in.rdbuf();
      wire = buf.str();
    } else {
      std::ostringstream buf;
      BinaryTraceWriter writer(buf);
      TextTraceReader reader(in);
      TraceEvent e;
      while (reader.next(e)) writer.add(e);
      writer.finish();
      wire = buf.str();
    }
  } catch (const race2d::ContractViolation& e) {
    std::fprintf(stderr, "%s: %s\n", path, e.what());
    return 1;
  }
  return 0;
}

/// Feeds wire[offset..] in frames, draining on backpressure, then drains
/// the rest and closes the session. Shared by detect and restore.
int stream_and_close(Channel& ch, std::uint32_t session,
                     const std::string& wire, std::size_t offset,
                     const char* path, std::size_t frame_bytes) {
  Response rsp;
  for (std::size_t off = offset; off < wire.size();) {
    const std::size_t n = std::min(frame_bytes, wire.size() - off);
    Request feed;
    feed.verb = Verb::kFeed;
    feed.session = session;
    feed.bytes = wire.substr(off, n);
    if (!ch.call(feed, rsp)) return 2;
    if (rsp.status == ServiceStatus::kBackpressure) {
      // Drain the backlog (printing as we go), then resend this frame.
      if (!drain_all(ch, session)) return 2;
      continue;
    }
    if (rsp.status != ServiceStatus::kOk) {
      std::fprintf(stderr, "%s: feed: %s: %s\n", path,
                   service_status_id(rsp.status), rsp.message.c_str());
      return 1;
    }
    off += n;
    if (rsp.feed.backpressure && !drain_all(ch, session)) return 2;
  }
  if (!drain_all(ch, session)) return 2;

  Request close_req;
  close_req.verb = Verb::kClose;
  close_req.session = session;
  if (!ch.call(close_req, rsp)) return 2;
  if (rsp.status != ServiceStatus::kOk) {
    std::fprintf(stderr, "%s: close: %s: %s\n", path,
                 service_status_id(rsp.status), rsp.message.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %llu event(s), %llu report(s)%s\n", path,
               static_cast<unsigned long long>(rsp.close.events),
               static_cast<unsigned long long>(rsp.close.reports),
               rsp.close.complete ? "" : " (stream incomplete)");
  return 0;
}

int detect_file(Channel& ch, const char* path, ReportPolicy policy,
                std::size_t frame_bytes) {
  std::string wire;
  const int load_rc = load_wire(path, wire);
  if (load_rc != 0) return load_rc;

  Request open;
  open.verb = Verb::kOpen;
  open.open.policy = policy;
  Response rsp;
  if (!ch.call(open, rsp)) return 2;
  if (rsp.status != ServiceStatus::kOk) {
    std::fprintf(stderr, "open: %s: %s\n", service_status_id(rsp.status),
                 rsp.message.c_str());
    return 1;
  }
  return stream_and_close(ch, rsp.session, wire, 0, path, frame_bytes);
}

/// snapshot <session-id> <blob-file>: serialize a live session to disk.
int snapshot_cmd(Channel& ch, std::uint32_t session, const char* out_path) {
  Request req;
  req.verb = Verb::kSnapshot;
  req.session = session;
  Response rsp;
  if (!ch.call(req, rsp)) return 2;
  if (rsp.status != ServiceStatus::kOk) {
    std::fprintf(stderr, "snapshot: %s: %s\n", service_status_id(rsp.status),
                 rsp.message.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out || !out.write(rsp.blob.data(),
                         static_cast<std::streamsize>(rsp.blob.size()))) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 2;
  }
  std::uint64_t fed = 0;
  std::string error;
  snapshot_fed_bytes(rsp.blob, fed, error);
  std::fprintf(stderr, "%s: %zu blob byte(s), %llu wire byte(s) covered\n",
               out_path, rsp.blob.size(), static_cast<unsigned long long>(fed));
  return 0;
}

/// restore <blob-file> [trace-file]: rebuild a session under a fresh id;
/// with a trace file, resume the stream at the blob's recorded offset.
int restore_cmd(Channel& ch, const char* blob_path, const char* trace_path,
                std::size_t frame_bytes) {
  std::ifstream in(blob_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", blob_path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();

  Request req;
  req.verb = Verb::kRestore;
  req.bytes = blob;
  Response rsp;
  if (!ch.call(req, rsp)) return 2;
  if (rsp.status != ServiceStatus::kOk) {
    std::fprintf(stderr, "restore: %s: %s\n", service_status_id(rsp.status),
                 rsp.message.c_str());
    return 1;
  }
  const std::uint32_t session = rsp.session;
  std::fprintf(stderr, "%s: restored as session %u\n", blob_path, session);
  if (trace_path == nullptr) return 0;

  std::string wire;
  const int load_rc = load_wire(trace_path, wire);
  if (load_rc != 0) return load_rc;
  std::uint64_t fed = 0;
  std::string error;
  if (!snapshot_fed_bytes(blob, fed, error)) {
    std::fprintf(stderr, "%s: %s\n", blob_path, error.c_str());
    return 1;
  }
  if (fed > wire.size()) {
    std::fprintf(stderr,
                 "%s: snapshot covers %llu wire byte(s) but %s encodes only "
                 "%zu — wrong trace file?\n",
                 blob_path, static_cast<unsigned long long>(fed), trace_path,
                 wire.size());
    return 1;
  }
  return stream_and_close(ch, session, wire, static_cast<std::size_t>(fed),
                          trace_path, frame_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that hangs up mid-exchange must surface as a failed write (the
  // channel reports it), not a SIGPIPE killing the client.
  std::signal(SIGPIPE, SIG_IGN);
  const char* spawn_binary = nullptr;
  const char* socket_path = nullptr;
  ReportPolicy policy = ReportPolicy::kAll;
  std::size_t frame_bytes = 64 * 1024;
  std::vector<const char*> files;
  bool want_stats = false;
  bool detect = false;
  bool want_snapshot = false;
  bool want_restore = false;
  std::vector<const char*> sub_args;  // snapshot/restore operands
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spawn") == 0 && i + 1 < argc) {
      spawn_binary = argv[++i];
    } else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      const char* p = argv[i] + 9;
      if (std::strcmp(p, "first") == 0) {
        policy = ReportPolicy::kFirstOnly;
      } else if (std::strcmp(p, "all") == 0) {
        policy = ReportPolicy::kAll;
      } else {
        std::fprintf(stderr, "--policy takes first|all\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--frame=", 8) == 0) {
      frame_bytes = std::strtoull(argv[i] + 8, nullptr, 10);
      if (frame_bytes == 0) {
        std::fprintf(stderr, "--frame needs a positive byte count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "detect") == 0) {
      detect = true;
    } else if (std::strcmp(argv[i], "stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "snapshot") == 0) {
      want_snapshot = true;
    } else if (std::strcmp(argv[i], "restore") == 0) {
      want_restore = true;
    } else if (detect) {
      files.push_back(argv[i]);
    } else if (want_snapshot || want_restore) {
      sub_args.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  const int subcommands = static_cast<int>(detect) +
                          static_cast<int>(want_stats) +
                          static_cast<int>(want_snapshot) +
                          static_cast<int>(want_restore);
  if ((spawn_binary == nullptr) == (socket_path == nullptr) ||
      subcommands != 1 || (detect && files.empty()) ||
      (want_snapshot && sub_args.size() != 2) ||
      (want_restore && (sub_args.empty() || sub_args.size() > 2))) {
    std::fprintf(stderr,
                 "usage: %s (--spawn <race2dd> | --socket <path>) "
                 "[--policy=first|all] [--frame=BYTES]\n"
                 "          detect <trace-file>... | stats\n"
                 "        | snapshot <session-id> <blob-file>\n"
                 "        | restore <blob-file> [trace-file]\n",
                 argv[0]);
    return 2;
  }
  std::uint32_t snapshot_session = 0;
  if (want_snapshot) {
    char* end = nullptr;
    const unsigned long long id = std::strtoull(sub_args[0], &end, 10);
    if (end == sub_args[0] || *end != '\0' || id == 0 || id > 0xffffffffull) {
      std::fprintf(stderr, "snapshot: bad session id: %s\n", sub_args[0]);
      return 2;
    }
    snapshot_session = static_cast<std::uint32_t>(id);
  }

  Channel ch;
  if (spawn_binary != nullptr ? !spawn_daemon(spawn_binary, ch)
                              : !connect_socket(socket_path, ch))
    return 2;

  int rc = 0;
  if (want_stats) {
    Request req;
    req.verb = Verb::kStats;
    Response rsp;
    if (ch.call(req, rsp) && rsp.status == ServiceStatus::kOk) {
      std::printf("%s\n", rsp.message.c_str());
    } else {
      rc = 2;
    }
  } else if (want_snapshot) {
    rc = snapshot_cmd(ch, snapshot_session, sub_args[1]);
  } else if (want_restore) {
    rc = restore_cmd(ch, sub_args[0],
                     sub_args.size() == 2 ? sub_args[1] : nullptr,
                     frame_bytes);
  } else {
    for (const char* path : files) {
      const int file_rc = detect_file(ch, path, policy, frame_bytes);
      if (file_rc != 0 && rc == 0) rc = file_rc;
    }
  }
  ch.shutdown();
  return rc;
}
