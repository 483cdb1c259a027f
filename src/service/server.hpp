// Frame transports for the WorkerPool.
//
//  * serve_pipe — frames over an (istream, ostream) pair into a WorkerPool:
//    race2dd's stdin pipe mode, and what tests and the check.sh smoke stage
//    drive. Strictly sequential — the pipe client waits for each response —
//    so a fixed request script yields a byte-deterministic response stream
//    whatever the pool's worker count.
//
//  * serve_unix_socket — an AF_UNIX listener served by the WorkerPool's
//    shard loops, run to completion. The calling thread only accepts, and
//    deals each new connection to the next shard round-robin. From then on
//    that shard's epoll loop owns it: non-blocking reads, frame reassembly
//    (partial frames across arbitrary byte splits), request decode,
//    WorkerPool::handle_on_shard, encode and send, with no thread crossing. An
//    OPEN (or RESTORE with a blob) creates its session on the connection's
//    shard; a request naming a session another shard owns is forwarded
//    through the owner's mailbox and answered back through the origin's.
//    Responses go out IN REQUEST ORDER per connection (a per-connection
//    sequence number holds back answers that overtook a forwarded one). A
//    connection owns exactly the sessions its own creating requests made
//    (creates_session: an OPEN, or a RESTORE with a blob); a blobless
//    RESTORE or any other request naming a session does not adopt it. A
//    disconnect closes the connection's own sessions — no leak — and never
//    touches other connections'.
//
// Both transports parse frames with the one frame codec (protocol.hpp) and
// hand them to the pool's frame entry (WorkerPool::accept_frame,
// framing_fault), so both count a frame and word a fault alike. A framing
// fault (an oversized length prefix, or a stream that ends inside a frame)
// gets one kBadFrame answer and then the byte stream is dropped — after it
// the boundary of the next frame is unknowable, so continuing would
// misparse everything after it. A payload that frames correctly but fails
// request decode answers kBadFrame and the stream continues (the framing
// layer is intact).
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>

#include "service/worker_pool.hpp"

namespace race2d {

/// Serves frames from `in` to `out` through `pool` until EOF or a framing
/// error. Returns the number of frames answered; the pool counts them.
std::uint64_t serve_pipe(std::istream& in, std::ostream& out,
                         WorkerPool& pool);

/// Binds `path` (unlinking any stale socket first) and serves connections
/// on `pool`'s shard loops until `*stop` becomes true (checked every 50 ms;
/// pass nullptr to serve forever). Before returning it drains every request
/// in flight. Returns 0 on a clean shutdown, -1 with a message on `log` if
/// the socket could not be set up. Blocks the calling thread, which accepts;
/// one socket server per pool at a time.
int serve_unix_socket(const std::string& path, WorkerPool& pool,
                      std::ostream& log,
                      const std::atomic<bool>* stop = nullptr);

}  // namespace race2d
