#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <latch>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace race2d {

std::uint64_t serve_pipe(std::istream& in, std::ostream& out,
                         WorkerPool& pool) {
  std::uint64_t answered = 0;
  std::string payload;
  std::string error;
  while (read_frame(in, payload, error)) {
    write_frame(out, encode_response(pool.handle_frame(payload)));
    out.flush();  // pipe clients lockstep on responses
    ++answered;
  }
  if (!error.empty()) {
    // Frame boundaries are lost: answer once and stop parsing the stream.
    write_frame(out, encode_response(pool.framing_fault(std::move(error))));
    out.flush();
    ++answered;
  }
  return answered;
}

namespace {

/// One connection, owned by the shard loop it was handed to.
struct Conn {
  int fd = -1;
  std::uint32_t interest = 0;  ///< epoll events registered; 0 = not in the set
  std::string in;  ///< reassembly buffer: bytes not yet framed
  std::uint64_t next_request_seq = 0;  ///< seq of the next parsed request
  std::uint64_t next_flush_seq = 0;    ///< next response due on the wire
  std::map<std::uint64_t, std::string> ready;  ///< framed, awaiting order
  std::string out;  ///< wire bytes the socket has not accepted yet
  std::size_t out_pos = 0;
  bool peer_eof = false;
  bool broken = false;  ///< framing failed: answer, flush, then drop
  std::uint64_t inflight = 0;  ///< forwarded to another shard, unanswered
  std::set<std::uint32_t> sessions;  ///< created by this connection's requests
};

/// The connections one shard loop serves. Only that shard's thread touches
/// it: through WorkerPool::Io::on_ready and through tasks posted to the
/// shard (hand-offs, forwarded completions, the final drain).
class ShardConns {
 public:
  ShardConns(WorkerPool& pool, std::size_t shard, std::latch& drained)
      : pool_(pool), shard_(shard), epfd_(pool.loop_fd(shard)),
        drained_(drained) {}
  ShardConns(const ShardConns&) = delete;
  ShardConns& operator=(const ShardConns&) = delete;

  /// Takes over a freshly accepted connection.
  void adopt(int fd) {
    const std::uint64_t id = next_conn_id_++;
    Conn& c = conns_[id];
    c.fd = fd;
    by_fd_.emplace(fd, id);
    watch(c);
  }

  void on_ready(int fd, std::uint32_t events) {
    auto idit = by_fd_.find(fd);
    if (idit == by_fd_.end()) return;
    const std::uint64_t id = idit->second;
    auto it = conns_.find(id);
    Conn& c = it->second;
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !c.peer_eof)
      read_all(id, c);
    flush(c);
    maybe_close(it);
  }

  /// Stops reading every connection, then — once no forwarded request is
  /// outstanding — closes them all and counts down the server's latch.
  /// Sessions of still-open connections are left to the pool.
  void drain() {
    for (auto& [id, c] : conns_) {
      if (c.interest != 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
      c.interest = 0;
    }
    draining_ = true;
    finish_drain();
  }

 private:
  /// Keeps the fd's epoll interest in step with the connection: EPOLLIN
  /// until the peer's EOF, EPOLLOUT only while wire bytes wait (a
  /// level-triggered EPOLLOUT with nothing to send would spin the loop). A
  /// connection that wants neither leaves the set — a hung-up socket
  /// reports EPOLLHUP whatever its interest.
  void watch(Conn& c) {
    if (draining_) return;
    std::uint32_t want = 0;
    if (!c.peer_eof) want |= EPOLLIN;
    if (!c.out.empty()) want |= EPOLLOUT;
    if (want == c.interest) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c.fd;
    const int op = c.interest == 0 ? EPOLL_CTL_ADD
                   : want == 0     ? EPOLL_CTL_DEL
                                   : EPOLL_CTL_MOD;
    ::epoll_ctl(epfd_, op, c.fd, &ev);
    c.interest = want;
  }

  void read_all(std::uint64_t id, Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        if (!c.broken) c.in.append(buf, static_cast<std::size_t>(n));
        // A short read emptied the socket; the level-triggered set reports
        // anything that arrives later, so skip the read that would EAGAIN.
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      c.peer_eof = true;  // EOF, or a hard error: treat as disconnect
      break;
    }
    ingest(id, c);
    if (c.peer_eof && !c.in.empty() && !c.broken) {
      // Bytes left that can never complete a frame: truncated frame.
      c.broken = true;
      answer(c, c.next_request_seq++,
             pool_.framing_fault(truncated_frame(c.in.size())));
    }
  }

  /// Parses complete frames out of the reassembly buffer and runs them.
  /// Each request is decoded from its frame in place.
  void ingest(std::uint64_t id, Conn& c) {
    const std::string_view in = c.in;
    std::size_t pos = 0;
    std::uint32_t len = 0;
    std::string error;
    while (!c.broken && in.size() - pos >= 4) {
      if (!frame_length(in.substr(pos), len, error)) {
        c.broken = true;
        answer(c, c.next_request_seq++,
               pool_.framing_fault(std::move(error)));
        break;
      }
      if (in.size() - pos - 4 < len) break;  // partial frame: wait
      const std::string_view payload = in.substr(pos + 4, len);
      pos += 4 + len;
      const std::uint64_t seq = c.next_request_seq++;
      Request request;
      Response bad;
      if (pool_.accept_frame(payload, request, bad))
        dispatch(id, c, seq, std::move(request));
      else
        answer(c, seq, bad);  // framing is intact: the stream goes on
    }
    c.in.erase(0, pos);
  }

  /// Runs a request inline when this shard may, otherwise forwards it to
  /// the shard that owns its session; the owner posts the response back
  /// through this shard's mailbox, and `seq` puts it in its place.
  void dispatch(std::uint64_t id, Conn& c, std::uint64_t seq,
                Request&& request) {
    const std::size_t owner = pool_.route(request, shard_);
    if (owner == shard_) {
      const Response response = pool_.handle_on_shard(shard_, request);
      // Only a creating request makes a session this connection owns; a
      // blobless RESTORE naming someone else's session gets an OK too.
      if (creates_session(request) && response.status == ServiceStatus::kOk)
        c.sessions.insert(response.session);
      answer(c, seq, response);
      return;
    }
    c.inflight++;
    pool_.submit_to(owner, std::move(request), [this, id, seq](Response r) {
      pool_.post_task(shard_, [this, id, seq, r = std::move(r)] {
        on_forwarded(id, seq, r);
      });
    });
  }

  void on_forwarded(std::uint64_t id, std::uint64_t seq,
                    const Response& response) {
    // A connection waits for its in-flight answers before it goes, and
    // creating requests never leave their shard, so none is lost here.
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    c.inflight--;
    answer(c, seq, response);
    flush(c);
    maybe_close(it);
    finish_drain();
  }

  /// Queues `response` as the answer to request `seq`, behind every
  /// earlier answer still missing. Never destroys the connection.
  void answer(Conn& c, std::uint64_t seq, const Response& response) {
    track_sessions(c, response);
    std::string framed;
    append_frame(framed, encode_response(response));
    c.ready.emplace(seq, std::move(framed));
    for (auto it = c.ready.begin();
         it != c.ready.end() && it->first == c.next_flush_seq;) {
      c.out.append(it->second);
      ++c.next_flush_seq;
      it = c.ready.erase(it);
    }
  }

  /// Drops the sessions the response stream shows are gone (dispatch
  /// records the ones this connection creates).
  static void track_sessions(Conn& c, const Response& r) {
    if (r.verb == Verb::kClose) c.sessions.erase(r.session);
    // An evicted session is already gone server-side; stop tracking so the
    // disconnect cleanup does not re-close it.
    if (r.status == ServiceStatus::kQuotaEvicted) c.sessions.erase(r.session);
  }

  /// Pushes queued wire bytes into the socket until it would block.
  void flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      // MSG_NOSIGNAL: a peer that disconnects before reading its responses
      // must surface as EPIPE here, not as a SIGPIPE that kills the daemon.
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        c.broken = true;  // peer vanished mid-write
        c.out.clear();
        c.out_pos = 0;
        break;
      }
      c.out_pos += static_cast<std::size_t>(n);
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    watch(c);
  }

  void close_session(std::uint32_t session) {
    Request close;
    close.verb = Verb::kClose;
    close.session = session;
    pool_.submit(std::move(close), nullptr);  // routes to the owner by id
  }

  /// Destroys the connection once nothing is pending: closes its sessions
  /// (fire-and-forget, on whichever shard owns each), closes the fd,
  /// forgets the state.
  void maybe_close(std::unordered_map<std::uint64_t, Conn>::iterator it) {
    Conn& c = it->second;
    const bool done_sending = c.ready.empty() && c.out.empty();
    if (!(c.peer_eof || c.broken) || c.inflight != 0 || !done_sending) return;
    for (const std::uint32_t session : c.sessions) close_session(session);
    if (c.interest != 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    by_fd_.erase(c.fd);
    ::close(c.fd);
    conns_.erase(it);
  }

  void finish_drain() {
    if (!draining_) return;
    for (const auto& [id, c] : conns_)
      if (c.inflight != 0) return;
    for (const auto& [id, c] : conns_) ::close(c.fd);
    conns_.clear();
    by_fd_.clear();
    draining_ = false;
    drained_.count_down();  // last: the server may be gone right after
  }

  WorkerPool& pool_;
  const std::size_t shard_;
  const int epfd_;
  std::latch& drained_;
  std::unordered_map<std::uint64_t, Conn> conns_;  ///< by connection id
  std::unordered_map<int, std::uint64_t> by_fd_;
  std::uint64_t next_conn_id_ = 1;
  bool draining_ = false;
};

/// The socket transport: one ShardConns per shard loop, plus the latch the
/// accepting thread waits on while the loops drain.
class SocketServer final : public WorkerPool::Io {
 public:
  explicit SocketServer(WorkerPool& pool)
      : pool_(pool), drained_(static_cast<std::ptrdiff_t>(pool.worker_count())) {
    for (std::size_t w = 0; w < pool.worker_count(); ++w)
      shards_.push_back(std::make_unique<ShardConns>(pool, w, drained_));
  }

  void on_ready(std::size_t shard, int fd, std::uint32_t events) override {
    shards_[shard]->on_ready(fd, events);
  }

  /// Hands an accepted connection to the next shard, round-robin.
  void hand_off(int fd) {
    const std::size_t w = next_shard_++ % shards_.size();
    ShardConns* shard = shards_[w].get();
    pool_.post_task(w, [shard, fd] { shard->adopt(fd); });
  }

  /// Drains every shard (each answers its in-flight forwarded requests
  /// first) and returns once no loop touches this server any more.
  void drain() {
    for (std::size_t w = 0; w < shards_.size(); ++w) {
      ShardConns* shard = shards_[w].get();
      pool_.post_task(w, [shard] { shard->drain(); });
    }
    drained_.wait();
  }

 private:
  WorkerPool& pool_;
  std::latch drained_;
  std::vector<std::unique_ptr<ShardConns>> shards_;
  std::size_t next_shard_ = 0;
};

}  // namespace

int serve_unix_socket(const std::string& path, WorkerPool& pool,
                      std::ostream& log, const std::atomic<bool>* stop) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    log << "socket path too long: " << path << "\n";
    return -1;
  }
  const int listener =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listener < 0) {
    log << "socket(): " << std::strerror(errno) << "\n";
    return -1;
  }
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    log << "bind/listen " << path << ": " << std::strerror(errno) << "\n";
    ::close(listener);
    return -1;
  }
  SocketServer server(pool);
  pool.attach(&server);
  log << "race2dd listening on " << path << " (" << pool.worker_count()
      << " worker(s))\n";

  // This thread only accepts; the shard loops serve.
  using Clock = std::chrono::steady_clock;
  Clock::time_point resume_accept{};
  while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
    const Clock::time_point now = Clock::now();
    if (now < resume_accept) {
      std::this_thread::sleep_for(std::min<Clock::duration>(
          resume_accept - now, std::chrono::milliseconds(50)));
      continue;
    }
    pollfd pfd{listener, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;  // tick: re-check the stop flag
    for (;;) {
      const int fd = ::accept4(listener, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        server.hand_off(fd);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds/buffers. The listener stays readable while the backlog
        // is pending, so polling it again at once would spin this thread at
        // full CPU until an fd frees. Pause accepting for a grace period.
        resume_accept = Clock::now() + std::chrono::milliseconds(100);
      }
      break;  // EAGAIN, the pause, or a transient per-connection error
    }
  }

  // The stop flag only ends accepting. Every loop stops reading, waits for
  // the answers to its in-flight forwarded requests, and closes its
  // connections before this returns, so the caller may shut the pool down
  // straight after and no task of this server outlives it.
  server.drain();
  pool.attach(nullptr);
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace race2d
