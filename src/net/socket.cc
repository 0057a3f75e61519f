#include "src/net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/core/failpoint.h"

namespace adpa::net {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Numeric-only IPv4 resolution: the serving surface binds explicit
/// addresses ("127.0.0.1", "0.0.0.0"), not names — no DNS in the server.
Status ResolveIpv4(const std::string& host, uint16_t port,
                   sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (host.empty() || host == "*") {
    addr->sin_addr.s_addr = htonl(INADDR_ANY);
    return Status::OK();
  }
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument(
        "not a numeric IPv4 address: \"" + host +
        "\" (use e.g. 127.0.0.1, or * / empty for INADDR_ANY)");
  }
  return Status::OK();
}

}  // namespace

void FdOwner::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Result<HostPort> ParseHostPort(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("expected host:port, got \"" + spec +
                                   "\"");
  }
  HostPort out;
  out.host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("port must be a number in [0, 65535], "
                                   "got \"" + port_text + "\"");
  }
  // 6 digits always overflow; shorter strings fit in a long.
  if (port_text.size() > 5 || std::stol(port_text) > 65535) {
    return Status::InvalidArgument("port must be a number in [0, 65535], "
                                   "got \"" + port_text + "\"");
  }
  out.port = static_cast<uint16_t>(std::stol(port_text));
  return out;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

Result<ListenSocket> ListenTcp(const std::string& host, uint16_t port,
                               int backlog) {
  sockaddr_in addr;
  ADPA_RETURN_IF_ERROR(ResolveIpv4(host, port, &addr));
  FdOwner fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int enable = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &enable,
                   sizeof(enable)) < 0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) < 0) return Errno("listen");
  ADPA_RETURN_IF_ERROR(SetNonBlocking(fd.get()));

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    return Errno("getsockname");
  }
  ListenSocket out;
  out.fd = std::move(fd);
  out.port = ntohs(bound.sin_port);
  return out;
}

Result<FdOwner> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  ADPA_RETURN_IF_ERROR(ResolveIpv4(host.empty() ? "127.0.0.1" : host, port,
                                   &addr));
  FdOwner fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  while (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  // Request/reply lines are small; without TCP_NODELAY every closed-loop
  // client would eat a Nagle delay per request.
  const int enable = 1;
  if (::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &enable,
                   sizeof(enable)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return fd;
}

Result<IoResult> ReadSome(int fd, char* buffer, size_t cap) {
  ADPA_FAILPOINT("net.read");
  if (!ADPA_FAILPOINT_STATUS("net.read.short").ok() && cap > 1) cap = 1;
  IoResult result;
  while (true) {
    const ssize_t got = ::read(fd, buffer, cap);
    if (got > 0) {
      result.bytes = got;
      return result;
    }
    if (got == 0) {
      result.closed = true;
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    if (errno == ECONNRESET) {
      result.closed = true;
      return result;
    }
    return Errno("read");
  }
}

Result<IoResult> WriteSome(int fd, const char* data, size_t size) {
  ADPA_FAILPOINT("net.write");
  if (!ADPA_FAILPOINT_STATUS("net.write.short").ok() && size > 1) size = 1;
  IoResult result;
  while (true) {
    ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    // Pipes and files (stdout) are not sockets; the process ignores
    // SIGPIPE, so a plain write reports a vanished reader as EPIPE too.
    if (sent < 0 && errno == ENOTSOCK) sent = ::write(fd, data, size);
    if (sent >= 0) {
      result.bytes = sent;
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      result.closed = true;
      return result;
    }
    return Errno("write");
  }
}

Result<AcceptResult> AcceptConnection(int listen_fd) {
  ADPA_FAILPOINT("net.accept");
  AcceptResult result;
  if (!ADPA_FAILPOINT_STATUS("net.accept.emfile").ok()) {
    result.fd_exhausted = true;
    return result;
  }
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      result.fd.Reset(fd);
      ADPA_RETURN_IF_ERROR(SetNonBlocking(fd));
      const int enable = 1;
      if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable,
                       sizeof(enable)) < 0) {
        return Errno("setsockopt(TCP_NODELAY)");
      }
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    if (errno == EMFILE || errno == ENFILE) {
      result.fd_exhausted = true;
      return result;
    }
    // The peer hung up between connect and accept: a per-connection
    // condition, reported as an error so the server can count it without
    // treating the listener as broken.
    return Errno("accept");
  }
}

}  // namespace adpa::net
