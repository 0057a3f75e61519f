#pragma once
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/core/status.h"
#include "src/net/framing.h"
#include "src/net/socket.h"
#include "src/serve/batcher.h"
#include "src/serve/hot_swap.h"
#include "src/serve/metrics.h"

namespace adpa::net {

struct ServerOptions {
  /// Bind address. Port 0 picks an ephemeral port; read it back from
  /// Server::port() (the harness and tests depend on this).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Per-connection line cap; a longer line is answered with a framing
  /// error and the connection is closed (LineFramer latches — see
  /// src/net/framing.h for why resync is unsafe).
  size_t max_line_bytes = LineFramer::kDefaultMaxLineBytes;
  /// Per-connection reply backlog cap; a client that stops reading while
  /// replies accumulate past this is dropped (bounded memory under
  /// slow-consumer abuse).
  size_t max_write_buffer_bytes = 4u << 20;
  /// Accepted-connection ceiling; extra connects are closed immediately.
  int64_t max_connections = 1024;

  /// Connection hygiene (DESIGN.md §15); 0 disables each timeout, which is
  /// the default so timing never leaks into unit-test harnesses. Idle: a
  /// connection that has sent no bytes for this long and is owed nothing
  /// (no queued replies, write buffer flushed) is closed cleanly — the
  /// client sees an orderly FIN. An unfinished partial line is discarded,
  /// exactly as drain discards one.
  int64_t idle_timeout_ms = 0;
  /// Read-stall (slow-loris) timeout: a connection whose current request
  /// line has been sitting incomplete for this long is dropped without a
  /// reply. The clock starts when the oldest unconsumed byte of the
  /// partial arrives and is NOT reset by further bytes of the same line,
  /// so a 1-byte-per-second trickle cannot hold a connection open.
  int64_t stall_timeout_ms = 0;

  /// Queue-full reject and deadline-shed semantics are the batcher's
  /// (DESIGN.md §10 degradation matrix) — they apply per request on every
  /// connection, stdio included.
  serve::MicroBatcher::Options batcher;

  /// When false, {"reload": ...} admin requests are answered with an error
  /// instead of swapping checkpoints, and reload wakes (SIGHUP,
  /// RequestReload) are ignored.
  bool allow_reload = true;
};

/// Counters the single-threaded event loop keeps outside ServeMetrics
/// (which tracks requests; these track connections). Read them after
/// Serve() returns, or from the loop thread.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed_by_peer = 0;       ///< clean EOF from the client
  uint64_t dropped = 0;              ///< oversized line / write-buffer cap
  uint64_t io_errors = 0;            ///< read/write/accept syscall failures
  uint64_t over_capacity = 0;        ///< connects refused at max_connections
  uint64_t reloads = 0;              ///< successful checkpoint swaps
  uint64_t reload_failures = 0;      ///< rejected swaps (old session kept)
  uint64_t idle_closed = 0;          ///< reaped by the idle timeout
  uint64_t stall_dropped = 0;        ///< reaped by the read-stall timeout
  uint64_t fd_exhausted = 0;         ///< EMFILE accepts absorbed via the
                                     ///< reserved emergency fd
};

/// epoll-based JSONL inference server (DESIGN.md §14).
///
/// One thread runs Serve(): it owns every connection, the LineFramer per
/// connection, and the batcher, so the network layer needs no locks at
/// all — concurrency lives in the kernel (epoll) and in the ParallelFor
/// worker pool under each coalesced forward. A connection is either a TCP
/// client (Create) or the process's own stdin/stdout (CreateStdio); both
/// run through the same loop and handlers. Clients write one JSONL request
/// per line and read one reply line per request, in order, per connection.
/// Requests read in one loop turn coalesce into shared batches through the
/// MicroBatcher, keeping its queue-full reject and deadline-shed semantics
/// per request.
///
/// Admin: {"reload": "path"} loads the checkpoint and atomically swaps it
/// into the SessionRegistry; queries already received ahead of the reload
/// are answered by the old session before the swap (the queue is flushed
/// first), so every connection sees a clean old→new reply boundary.
///
/// Shutdown: RequestStop() (or a signal handler writing 'T' to wake_fd())
/// stops accepting and reading, answers everything already received,
/// flushes every write buffer, and returns from Serve(). Serve() also
/// returns on its own once there is no listener and no open connection —
/// for a stdio server, once stdin reached EOF and the replies are written.
/// RequestReload() / 'H' re-reads the last loaded checkpoint path (the
/// SIGHUP convention).
class Server {
 public:
  /// TCP server bound to options.host:options.port. `registry` and
  /// `metrics` must outlive the server; `metrics` may be null. The registry
  /// may be empty (no session yet) — queries are then answered with a
  /// structured error until a reload succeeds.
  static Result<std::unique_ptr<Server>> Create(
      const ServerOptions& options, serve::SessionRegistry* registry,
      serve::ServeMetrics* metrics);

  /// Server over one connection that reads requests from `in_fd` and writes
  /// replies to `out_fd` (stdin/stdout); options.host/port are unused.
  /// The descriptors stay the caller's: they are never closed and never
  /// switched to non-blocking (fd 0 and 1 are shared with the parent
  /// process). An input epoll cannot watch (a regular file, /dev/null)
  /// counts as always readable. Output is written blocking, so a slow
  /// reader applies backpressure instead of hitting the write-buffer cap.
  static Result<std::unique_ptr<Server>> CreateStdio(
      const ServerOptions& options, serve::SessionRegistry* registry,
      serve::ServeMetrics* metrics, int in_fd, int out_fd);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (== options.port unless that was 0; 0 for stdio).
  uint16_t port() const { return port_; }

  /// Write end of the self-pipe. Async-signal-safe wakeups: write a single
  /// byte 'T' (drain and stop) or 'H' (reload current checkpoint path).
  int wake_fd() const { return wake_writer_.get(); }

  /// Thread-safe wakeups for tests and embedders (write to the self-pipe).
  void RequestStop() const;
  void RequestReload() const;

  /// Serves until a stop request, then drains: stops accepting and
  /// reading, answers every request already received, flushes replies
  /// (bounded by a 5 s drain budget per loop exit), closes all
  /// connections. Returns once there is no listener and no open connection.
  /// Only environmental failures (epoll itself breaking) return non-OK;
  /// per-connection errors are counted in stats() and survived.
  ADPA_NODISCARD Status Serve();

  const ServerStats& stats() const { return stats_; }

 private:
  struct PendingReply {
    int64_t id = 0;
    /// A submitted query's answer, filled by the batcher; empty for a
    /// reply formatted at once.
    serve::MicroBatcher::Slot answer;
    std::string immediate;  ///< pre-formatted reply (errors, reload acks)
  };

  struct Connection {
    Connection(FdOwner socket, int in, int out, size_t max_line_bytes)
        : socket(std::move(socket)),
          in_fd(in),
          out_fd(out),
          framer(max_line_bytes) {}

    FdOwner socket;  ///< a TCP client's descriptor; invalid for stdio
    int in_fd;       ///< read side, and the epoll/connections_ key
    int out_fd;      ///< write side (== in_fd for TCP)
    LineFramer framer;
    /// Replies owed, in request order. A deque keeps each element's
    /// `answer` slot at a stable address while the batcher holds it.
    std::deque<PendingReply> pending;
    std::string out;                   ///< bytes owed to out_fd
    size_t out_offset = 0;
    bool peer_eof = false;           ///< no more requests; close once idle
    bool close_after_flush = false;  ///< condemned (oversized line)
    bool dead = false;               ///< close at end of loop iteration
    uint32_t interest = 0;           ///< epoll event mask currently armed

    /// Hygiene clocks, stamped by the loop thread only. `last_read` is the
    /// accept time or the last time bytes arrived; `partial_since` is when
    /// the oldest unconsumed byte of the current incomplete line arrived
    /// (valid only while `has_partial`).
    std::chrono::steady_clock::time_point last_read;
    std::chrono::steady_clock::time_point partial_since;
    bool has_partial = false;
  };

  Server(const ServerOptions& options, serve::SessionRegistry* registry,
         serve::ServeMetrics* metrics);

  /// A server with its epoll set and wake self-pipe (both factories).
  static Result<std::unique_ptr<Server>> New(const ServerOptions& options,
                                             serve::SessionRegistry* registry,
                                             serve::ServeMetrics* metrics);
  /// Adds `fd` to the epoll set for EPOLLIN; false (errno set) on failure.
  bool Watch(int fd);
  /// Takes ownership of a new connection, keyed by its in_fd.
  void Adopt(std::unique_ptr<Connection> conn);
  /// Whether the loop still reads requests from `conn`.
  bool Reading(const Connection& conn) const {
    return !conn.dead && !conn.close_after_flush && !conn.peer_eof &&
           !draining_;
  }
  void HandleWake();
  void HandleAccept();
  /// EMFILE/ENFILE on accept: burn the reserved emergency fd to accept one
  /// queued connection, close it immediately (shedding the newcomer, not
  /// an established client), then re-arm the reserve. Without this the
  /// level-triggered listener would re-report the same pending connection
  /// on every wakeup, forever, while the client hangs in connect().
  void DrainAcceptWithReserveFd();
  void HandleReadable(int fd);
  void ProcessLines(Connection* conn);
  void HandleLine(Connection* conn, const std::string& line);
  /// Answers everything queued, pinning the registry's current session
  /// for the whole flush.
  void FlushQueue();
  void ResolvePending(Connection* conn);
  void FlushWrites(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CollectFinished();
  void StartDrain();
  bool HygieneEnabled() const {
    return options_.idle_timeout_ms > 0 || options_.stall_timeout_ms > 0;
  }
  /// Milliseconds until the earliest idle/stall deadline, or -1 when no
  /// connection has one armed. Bounds the epoll_wait timeout.
  int NextHygieneDelayMs(std::chrono::steady_clock::time_point now) const;
  /// Reaps connections past their idle/stall deadline (marks them dead;
  /// CollectFinished closes them).
  void EnforceHygiene();

  const ServerOptions options_;
  serve::SessionRegistry* const registry_;
  serve::MicroBatcher batcher_;

  ListenSocket listener_;  ///< invalid for stdio and once draining
  uint16_t port_ = 0;
  FdOwner epoll_;
  FdOwner wake_reader_;
  FdOwner wake_writer_;
  /// Reserved emergency descriptor (/dev/null), closed and re-opened to
  /// absorb EMFILE storms on accept — see DrainAcceptWithReserveFd.
  FdOwner reserve_fd_;
  /// The stdio input epoll refused (regular file, /dev/null), or -1. The
  /// loop never sleeps while it can still deliver bytes and reads it once
  /// per turn.
  int unpolled_fd_ = -1;

  std::map<int, std::unique_ptr<Connection>> connections_;
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;
  ServerStats stats_;
};

}  // namespace adpa::net
