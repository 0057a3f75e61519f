#include "src/net/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "src/serve/jsonl.h"

namespace adpa::net {
namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + " failed: " + std::strerror(errno));
}

/// Async-signal-safe single-byte write to the self-pipe. The pipe is
/// non-blocking: if it is somehow full, commands are already queued and
/// dropping this one is harmless (wake commands are idempotent).
void SendWakeByte(int fd, char command) {
  while (true) {
    const ssize_t wrote = ::write(fd, &command, 1);
    if (wrote >= 0 || errno != EINTR) return;
  }
}

/// Drain budget once a stop request lands: connections that cannot absorb
/// their replies within this window are force-closed so shutdown cannot
/// hang on a stalled client.
constexpr std::chrono::seconds kDrainBudget{5};

}  // namespace

Server::Server(const ServerOptions& options, serve::SessionRegistry* registry,
               serve::ServeMetrics* metrics)
    : options_(options),
      registry_(registry),
      batcher_(metrics, options.batcher) {}

Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::New(const ServerOptions& options,
                                            serve::SessionRegistry* registry,
                                            serve::ServeMetrics* metrics) {
  if (registry == nullptr) {
    return Status::InvalidArgument("net::Server: registry must not be null");
  }
  std::unique_ptr<Server> server(new Server(options, registry, metrics));
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return ErrnoStatus("epoll_create1");
  server->epoll_.Reset(epoll_fd);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return ErrnoStatus("pipe2");
  }
  server->wake_reader_.Reset(pipe_fds[0]);
  server->wake_writer_.Reset(pipe_fds[1]);
  if (!server->Watch(pipe_fds[0])) return ErrnoStatus("epoll_ctl(wake pipe)");
  return server;
}

Result<std::unique_ptr<Server>> Server::Create(
    const ServerOptions& options, serve::SessionRegistry* registry,
    serve::ServeMetrics* metrics) {
  Result<std::unique_ptr<Server>> made = New(options, registry, metrics);
  if (!made.ok()) return made.status();
  std::unique_ptr<Server> server = std::move(*made);
  Result<ListenSocket> listener = ListenTcp(options.host, options.port);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(*listener);
  server->port_ = server->listener_.port;
  if (!server->Watch(server->listener_.fd.get())) {
    return ErrnoStatus("epoll_ctl(listener)");
  }

  // Emergency descriptor for EMFILE storms on accept. Held open from the
  // start so the reserve exists even once the table is full.
  const int reserve = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (reserve < 0) return ErrnoStatus("open(/dev/null)");
  server->reserve_fd_.Reset(reserve);
  return server;
}

Result<std::unique_ptr<Server>> Server::CreateStdio(
    const ServerOptions& options, serve::SessionRegistry* registry,
    serve::ServeMetrics* metrics, int in_fd, int out_fd) {
  // Checked before the loop opens descriptors of its own, which would
  // otherwise take over a closed stdin's number.
  if (::fcntl(in_fd, F_GETFL) < 0 || ::fcntl(out_fd, F_GETFL) < 0) {
    return ErrnoStatus("stdio descriptor check");
  }
  Result<std::unique_ptr<Server>> made = New(options, registry, metrics);
  if (!made.ok()) return made.status();
  std::unique_ptr<Server> server = std::move(*made);
  auto conn = std::make_unique<Connection>(FdOwner(), in_fd, out_fd,
                                           options.max_line_bytes);
  if (server->Watch(in_fd)) {
    conn->interest = EPOLLIN;
  } else if (errno == EPERM) {
    server->unpolled_fd_ = in_fd;  // regular file or /dev/null
  } else {
    return ErrnoStatus("epoll_ctl(stdin)");
  }
  server->Adopt(std::move(conn));
  return server;
}

bool Server::Watch(int fd) {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = fd;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event) == 0;
}

void Server::Adopt(std::unique_ptr<Connection> conn) {
  if (HygieneEnabled()) {
    // lint:allow(deterministic-randomness) — hygiene clock, not results
    conn->last_read = std::chrono::steady_clock::now();
  }
  const int key = conn->in_fd;
  connections_.emplace(key, std::move(conn));
}

void Server::RequestStop() const { SendWakeByte(wake_writer_.get(), 'T'); }

void Server::RequestReload() const { SendWakeByte(wake_writer_.get(), 'H'); }

Status Server::Serve() {
  std::array<epoll_event, 64> events;
  while (listener_.fd.valid() || !connections_.empty()) {
    int timeout_ms = -1;
    if (draining_) {
      // lint:allow(deterministic-randomness) — drain budget, not results
      const auto now = std::chrono::steady_clock::now();
      if (now >= drain_deadline_) {
        connections_.clear();  // budget exhausted: force-close stragglers
        break;
      }
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              drain_deadline_ - now)
              .count()) +
          1;
    }
    if (HygieneEnabled() && !connections_.empty()) {
      // lint:allow(deterministic-randomness) — hygiene clock, not results
      const int hygiene_ms = NextHygieneDelayMs(std::chrono::steady_clock::now());
      if (hygiene_ms >= 0 && (timeout_ms < 0 || hygiene_ms < timeout_ms)) {
        timeout_ms = hygiene_ms;
      }
    }
    // An input epoll refused is always readable: poll without sleeping and
    // read it once per turn, like a level-triggered report.
    const auto unpolled = connections_.find(unpolled_fd_);
    const bool read_unpolled =
        unpolled != connections_.end() && Reading(*unpolled->second);
    if (read_unpolled) timeout_ms = 0;

    const int ready = ::epoll_wait(epoll_.get(), events.data(),
                                   static_cast<int>(events.size()),
                                   timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("epoll_wait");
    }

    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_reader_.get()) {
        HandleWake();
      } else if (fd == listener_.fd.get()) {
        HandleAccept();
      } else if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        HandleReadable(fd);
      }
    }
    if (read_unpolled) HandleReadable(unpolled_fd_);

    if (HygieneEnabled()) EnforceHygiene();

    // All requests harvested this turn — including lines from several
    // connections readable at once — coalesce through one flush.
    FlushQueue();
    for (auto& [fd, conn] : connections_) {
      if (conn->dead) continue;
      ResolvePending(conn.get());
      FlushWrites(conn.get());
    }
    CollectFinished();
  }
  return Status::OK();
}

void Server::HandleWake() {
  char commands[64];
  while (true) {
    const ssize_t got =
        ::read(wake_reader_.get(), commands, sizeof(commands));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EAGAIN: the pipe is drained
    for (ssize_t i = 0; i < got; ++i) {
      if (commands[i] == 'T') {
        StartDrain();
      } else if (commands[i] == 'H' && options_.allow_reload) {
        // SIGHUP convention: re-read the last loaded checkpoint path.
        // Answer everything already queued with the old session first so
        // the reply stream has a clean swap boundary.
        FlushQueue();
        const Result<serve::SessionRegistry::ReloadInfo> info =
            registry_->ReloadCurrent();
        if (info.ok()) {
          ++stats_.reloads;
        } else {
          ++stats_.reload_failures;
        }
      }
    }
  }
}

void Server::HandleAccept() {
  while (!draining_) {
    Result<AcceptResult> accepted = AcceptConnection(listener_.fd.get());
    if (!accepted.ok()) {
      // A peer that vanished mid-handshake (or the net.accept failpoint):
      // count it and keep listening. Level-triggered epoll re-reports any
      // still-pending connection on the next wakeup.
      ++stats_.io_errors;
      break;
    }
    if (accepted->would_block) break;
    if (accepted->fd_exhausted) {
      ++stats_.fd_exhausted;
      DrainAcceptWithReserveFd();
      break;  // level-triggered epoll re-reports any remaining backlog
    }
    if (static_cast<int64_t>(connections_.size()) >=
        options_.max_connections) {
      ++stats_.over_capacity;
      continue;  // the AcceptResult closes the surplus fd
    }
    const int fd = accepted->fd.get();
    if (!Watch(fd)) {
      ++stats_.io_errors;
      continue;  // the AcceptResult closes the fd
    }
    auto conn = std::make_unique<Connection>(std::move(accepted->fd), fd, fd,
                                             options_.max_line_bytes);
    conn->interest = EPOLLIN;
    Adopt(std::move(conn));
    ++stats_.accepted;
  }
}

void Server::DrainAcceptWithReserveFd() {
  if (!reserve_fd_.valid()) return;  // already lost the reserve: nothing to do
  reserve_fd_.Reset();               // free one descriptor
  {
    // With one fd free, accept the queued connection and close it at scope
    // exit: the newcomer gets an orderly refusal instead of hanging in
    // connect() while the listener busy-reports EMFILE forever.
    Result<AcceptResult> shed = AcceptConnection(listener_.fd.get());
    if (shed.ok() && shed->fd.valid()) ++stats_.over_capacity;
  }
  const int reserve = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (reserve >= 0) reserve_fd_.Reset(reserve);
  // If even /dev/null will not open, the table is still full: the reserve
  // stays lost until descriptors free up, and the next EMFILE report is a
  // no-op rather than a busy loop.
}

void Server::HandleReadable(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;  // closed earlier in this batch
  Connection* conn = it->second.get();
  if (!Reading(*conn)) return;
  // Exactly one read per readiness report: stdin stays blocking (it is
  // shared with the parent process), so a second read could stall the
  // loop, and level-triggered epoll re-reports whatever is left. It also
  // bounds what one turn can queue between flushes.
  char chunk[16384];
  const Result<IoResult> got = ReadSome(fd, chunk, sizeof(chunk));
  if (!got.ok()) {
    // Mid-stream read failure: the protocol state is unknown, so there
    // is nothing meaningful left to answer — drop the connection.
    ++stats_.io_errors;
    conn->dead = true;
    return;
  }
  if (got->closed) {
    conn->peer_eof = true;
    ++stats_.closed_by_peer;
    // Serve a final unterminated line.
    std::string last;
    if (conn->framer.TakeRemainder(&last)) HandleLine(conn, last);
  } else if (got->bytes > 0) {
    const size_t buffered_before = conn->framer.buffered_bytes();
    conn->framer.Append(chunk, static_cast<size_t>(got->bytes));
    ProcessLines(conn);
    if (HygieneEnabled()) {
      // lint:allow(deterministic-randomness) — hygiene clock, not results
      const auto now = std::chrono::steady_clock::now();
      conn->last_read = now;
      const size_t buffered_after = conn->framer.buffered_bytes();
      if (buffered_after == 0) {
        conn->has_partial = false;
      } else if (!conn->has_partial ||
                 buffered_after <
                     buffered_before + static_cast<size_t>(got->bytes)) {
        // The oldest unconsumed byte arrived in this read (buffer was
        // empty, or a completed line consumed the older bytes). Pure
        // growth of an existing partial keeps the original clock — that
        // is what defeats a 1-byte-per-second trickle.
        conn->has_partial = true;
        conn->partial_since = now;
      }
    }
  }
  UpdateInterest(conn);
}

void Server::ProcessLines(Connection* conn) {
  std::string line;
  while (!conn->close_after_flush) {
    const LineFramer::Next next = conn->framer.NextLine(&line);
    if (next == LineFramer::Next::kLine) {
      HandleLine(conn, line);
      continue;
    }
    if (next == LineFramer::Next::kOversized) {
      ++stats_.dropped;
      PendingReply reply;
      reply.immediate = serve::FormatErrorReply(
          -1, "request line exceeds " +
                  std::to_string(conn->framer.max_line_bytes()) +
                  " bytes; closing connection");
      conn->pending.push_back(std::move(reply));
      conn->close_after_flush = true;
    }
    break;
  }
}

void Server::HandleLine(Connection* conn, const std::string& line) {
  if (line.empty()) return;  // blank lines are ignored
  Result<serve::ServeRequest> request = serve::ParseRequestLine(line);
  conn->pending.emplace_back();
  PendingReply& reply = conn->pending.back();
  if (!request.ok()) {
    reply.immediate = serve::FormatErrorReply(-1, request.status().message());
  } else if (request->is_reload) {
    if (!options_.allow_reload) {
      reply.immediate = serve::FormatErrorReply(
          request->id, "reload is disabled on this server");
    } else {
      // Flush queries received ahead of the reload so they are answered by
      // the old session: the swap lands on a clean reply boundary.
      FlushQueue();
      const Result<serve::SessionRegistry::ReloadInfo> info =
          registry_->Reload(request->reload_path);
      if (info.ok()) {
        ++stats_.reloads;
        reply.immediate = serve::FormatReloadReply(request->id, info->path,
                                                   info->generation);
      } else {
        ++stats_.reload_failures;
        reply.immediate =
            serve::FormatErrorReply(request->id, info.status().message());
      }
    }
  } else {
    reply.id = request->id;
    batcher_.Submit(std::move(request->nodes), request->deadline_ms,
                    &reply.answer);
  }
}

void Server::FlushQueue() {
  if (batcher_.queue_depth() == 0) return;
  // Pin the serving session for the whole flush: even a reload from
  // another thread cannot release the model under an in-flight forward.
  const std::shared_ptr<const serve::InferenceSession> session =
      registry_->Current();
  batcher_.Flush(session.get());
}

void Server::ResolvePending(Connection* conn) {
  while (!conn->pending.empty()) {
    PendingReply& front = conn->pending.front();
    std::string reply;
    if (!front.answer) {
      reply = std::move(front.immediate);
    } else {
      // The queue was flushed before this runs, so every submitted query
      // is already answered.
      const Result<std::vector<int64_t>>& classes = *front.answer;
      if (classes.ok()) {
        reply = serve::FormatClassesReply(front.id, *classes);
      } else if (classes.status().code() == StatusCode::kUnavailable) {
        reply = serve::FormatOverloadedReply(front.id,
                                             classes.status().message());
      } else {
        reply = serve::FormatErrorReply(front.id, classes.status().message());
      }
    }
    conn->out += reply;
    conn->out += '\n';
    conn->pending.pop_front();
    if (conn->out.size() - conn->out_offset >
        options_.max_write_buffer_bytes) {
      // Slow consumer: replies are piling up faster than the client reads.
      // Dropping the connection bounds per-connection memory.
      ++stats_.dropped;
      conn->dead = true;
      return;
    }
  }
}

void Server::FlushWrites(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const Result<IoResult> wrote =
        WriteSome(conn->out_fd, conn->out.data() + conn->out_offset,
                  conn->out.size() - conn->out_offset);
    // A separate output (stdout) is written blocking and is not polled, so
    // EAGAIN there is a failure too: the descriptor was left non-blocking.
    if (!wrote.ok() || (wrote->would_block && conn->out_fd != conn->in_fd)) {
      ++stats_.io_errors;
      conn->dead = true;
      return;
    }
    if (wrote->closed) {
      conn->dead = true;  // peer vanished; nothing left to deliver to
      return;
    }
    if (wrote->would_block) break;
    conn->out_offset += static_cast<size_t>(wrote->bytes);
  }
  if (conn->out_offset >= conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
    if (conn->close_after_flush ||
        ((conn->peer_eof || draining_) && conn->pending.empty())) {
      conn->dead = true;
      return;
    }
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection* conn) {
  if (conn->dead || conn->in_fd == unpolled_fd_) return;
  uint32_t want = 0;
  // Once reading stops (EOF, condemned stream, drain), EPOLLIN must come
  // off the mask: a level-triggered EOF or unread payload would otherwise
  // wake the loop continuously.
  if (Reading(*conn)) want |= EPOLLIN;
  if (conn->out_fd == conn->in_fd && conn->out_offset < conn->out.size()) {
    want |= EPOLLOUT;
  }
  if (want == conn->interest) return;
  epoll_event event{};
  event.events = want;
  event.data.fd = conn->in_fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->in_fd, &event) != 0) {
    ++stats_.io_errors;
    conn->dead = true;
    return;
  }
  conn->interest = want;
}

void Server::CollectFinished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->dead) {
      // Closing a TCP socket (FdOwner destructor) deregisters it from
      // epoll; a stdio connection closes nothing, and Serve() returns.
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

int Server::NextHygieneDelayMs(
    std::chrono::steady_clock::time_point now) const {
  std::chrono::steady_clock::time_point earliest{};
  bool have_deadline = false;
  for (const auto& [fd, conn] : connections_) {
    const Connection* c = conn.get();
    if (c->dead) continue;
    if (options_.stall_timeout_ms > 0 && c->has_partial) {
      const auto deadline =
          c->partial_since +
          std::chrono::milliseconds(options_.stall_timeout_ms);
      if (!have_deadline || deadline < earliest) earliest = deadline;
      have_deadline = true;
    }
    if (options_.idle_timeout_ms > 0 && c->pending.empty() &&
        c->out_offset >= c->out.size()) {
      const auto deadline =
          c->last_read + std::chrono::milliseconds(options_.idle_timeout_ms);
      if (!have_deadline || deadline < earliest) earliest = deadline;
      have_deadline = true;
    }
  }
  if (!have_deadline) return -1;
  if (earliest <= now) return 0;
  return static_cast<int>(
             std::chrono::duration_cast<std::chrono::milliseconds>(earliest -
                                                                   now)
                 .count()) +
         1;
}

void Server::EnforceHygiene() {
  if (connections_.empty()) return;
  // lint:allow(deterministic-randomness) — hygiene clock, not results
  const auto now = std::chrono::steady_clock::now();
  for (auto& [fd, conn] : connections_) {
    Connection* c = conn.get();
    if (c->dead) continue;
    if (options_.stall_timeout_ms > 0 && c->has_partial &&
        now - c->partial_since >=
            std::chrono::milliseconds(options_.stall_timeout_ms)) {
      // Slow-loris: the line never completed, so there is no reply to owe.
      // Abrupt drop — buffered replies for earlier requests die with it.
      ++stats_.stall_dropped;
      c->dead = true;
      continue;
    }
    if (options_.idle_timeout_ms > 0 && c->pending.empty() &&
        c->out_offset >= c->out.size() &&
        now - c->last_read >=
            std::chrono::milliseconds(options_.idle_timeout_ms)) {
      // Nothing owed in either direction: orderly FIN. A dangling partial
      // line is discarded, exactly as drain discards one.
      ++stats_.idle_closed;
      c->dead = true;
    }
  }
}

void Server::StartDrain() {
  if (draining_) return;
  draining_ = true;
  // lint:allow(deterministic-randomness) — drain budget, not results
  drain_deadline_ = std::chrono::steady_clock::now() + kDrainBudget;
  // Stop accepting: closing the listener both refuses new connections and
  // removes it from the epoll set. Serve() returns once the last
  // connection closes.
  listener_.fd.Reset();
  // Answer every complete request already buffered; an unterminated
  // partial line was never finished by the client and is discarded.
  for (auto& [fd, conn] : connections_) {
    if (conn->dead) continue;
    ProcessLines(conn.get());
    UpdateInterest(conn.get());
  }
}

}  // namespace adpa::net
