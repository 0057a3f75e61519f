#pragma once
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/core/status.h"

/// Thin Status-returning wrappers over the POSIX socket API. This file and
/// its .cc are (with framing/server) the only places in src/ allowed to
/// touch raw socket/epoll syscalls — the `socket-isolation` lint rule
/// mirrors `simd-isolation` so the network surface stays auditable in one
/// directory. Sockets are non-blocking: the event loop in
/// src/net/server.cc owns all waiting.
namespace adpa::net {

/// Owned POSIX file descriptor: closes on destruction, move-only. A default
/// constructed (or moved-from) owner holds -1 and closes nothing.
class FdOwner {
 public:
  FdOwner() = default;
  explicit FdOwner(int fd) : fd_(fd) {}
  ~FdOwner() { Reset(); }

  FdOwner(FdOwner&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  FdOwner& operator=(FdOwner&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  FdOwner(const FdOwner&) = delete;
  FdOwner& operator=(const FdOwner&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Closes the held descriptor (if any) and adopts `fd`.
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// "host:port" split for --listen specs. The host part is a numeric IPv4
/// address or a name resolvable by getaddrinfo; port 0 asks the kernel for
/// an ephemeral port (the bound port comes back from ListenTcp).
struct HostPort {
  std::string host;
  uint16_t port = 0;
};
ADPA_NODISCARD Result<HostPort> ParseHostPort(const std::string& spec);

/// A bound, listening, non-blocking TCP socket plus the port it actually
/// bound (meaningful when the requested port was 0).
struct ListenSocket {
  FdOwner fd;
  uint16_t port = 0;
};

/// socket + SO_REUSEADDR + bind + listen, all non-blocking. IPv4 only —
/// the serving surface is explicit about its address family rather than
/// half-supporting IPv6.
ADPA_NODISCARD Result<ListenSocket> ListenTcp(const std::string& host,
                                              uint16_t port,
                                              int backlog = 128);

/// Blocking connect to host:port (clients — tests, the load generator —
/// want simple blocking sockets; the server never calls this).
ADPA_NODISCARD Result<FdOwner> ConnectTcp(const std::string& host,
                                          uint16_t port);

/// Outcome of one non-blocking read/write attempt. `would_block` and
/// `closed` are ordinary states, not errors: only genuine syscall failures
/// come back as a non-OK Status.
struct IoResult {
  int64_t bytes = 0;  ///< bytes actually transferred (may be short)
  bool would_block = false;
  bool closed = false;  ///< read: peer sent EOF; write: peer vanished
};

/// One ::read attempt (retries EINTR) — on a socket, the same as recv with
/// no flags, and it also reads pipes and files (stdin). Failpoints:
/// `net.read` injects a syscall-level failure, `net.read.short` caps the
/// read at 1 byte so every framing path is exercised under byte-at-a-time
/// delivery.
ADPA_NODISCARD Result<IoResult> ReadSome(int fd, char* buffer, size_t cap);

/// One ::send attempt (MSG_NOSIGNAL, retries EINTR), falling back to
/// ::write on ENOTSOCK (pipes and files: stdout). A caller writing to a
/// non-socket must ignore SIGPIPE. Failpoints: `net.write` injects a
/// failure, `net.write.short` caps the write at 1 byte (short-count path).
ADPA_NODISCARD Result<IoResult> WriteSome(int fd, const char* data,
                                          size_t size);

/// One non-blocking ::accept attempt on a listening socket. The accepted
/// fd is made non-blocking before it is returned. `would_block` (with an
/// invalid fd) means no pending connection. Per-connection accept errors
/// (a peer that vanished mid-handshake, the `net.accept` failpoint) come
/// back as a non-OK Status: the caller counts them and keeps listening —
/// an accept error never tears the server down. EMFILE/ENFILE is reported
/// separately via `fd_exhausted` (also an OK result, no fd): the process
/// is out of descriptors, and the server answers with its reserved-fd
/// drain (DESIGN.md §15) instead of error-counting a condition that would
/// otherwise re-trigger on every epoll wakeup. The `net.accept.emfile`
/// failpoint forces this path deterministically.
struct AcceptResult {
  FdOwner fd;
  bool would_block = false;
  bool fd_exhausted = false;  ///< accept failed with EMFILE or ENFILE
};
ADPA_NODISCARD Result<AcceptResult> AcceptConnection(int listen_fd);

Status SetNonBlocking(int fd);

}  // namespace adpa::net
