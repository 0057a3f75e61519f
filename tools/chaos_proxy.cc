// chaos_proxy — deterministic byzantine TCP proxy (DESIGN.md §15).
//
// Sits between a client and an upstream server and injects transport-level
// misbehavior a real network produces but loopback tests never see:
//
//   split    a chunk is forwarded in several small writes (segmentation)
//   trickle  the first bytes of a chunk arrive one byte at a time
//   delay    the chunk is forwarded after a few milliseconds
//   garbage  a line of garbage bytes is injected ahead of the client's
//            real bytes (client→server only — replies must stay parseable)
//   rst      half the chunk is forwarded, then the client connection is
//            aborted with an RST (SO_LINGER{1,0} close) mid-line
//
// Every decision comes from a splitmix64 stream seeded by
// --seed ^ connection-index, so a run is a pure function of (--seed,
// connection arrival order): tools/soak.sh replays failures from the seed.
// The server→client direction only reorders time (split/trickle/delay),
// never bytes — corruption there would break the soak invariant that every
// reply line parses, which is exactly the property under test.
//
// Usage:
//   chaos_proxy --upstream=HOST:PORT [--listen=HOST:PORT] [--seed=N]
//               [--intensity=P]
//
// --intensity is the per-chunk fault probability. Port 0 (default) binds an
// ephemeral port announced on stderr as "proxy listening on HOST:PORT".
// Runs until killed.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "src/core/flags.h"
#include "src/core/random.h"
#include "src/net/socket.h"

namespace adpa {
namespace {

double UnitDraw(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

void SleepMs(int64_t ms) {
  timespec duration;
  duration.tv_sec = static_cast<time_t>(ms / 1000);
  duration.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000;
  nanosleep(&duration, nullptr);
}

/// Blocking send of the whole buffer. False on a vanished peer.
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t wrote = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(wrote);
  }
  return true;
}

enum class Fault { kNone, kSplit, kTrickle, kDelay, kGarbage, kRst };

/// One proxied connection, pumped by one thread: poll on both sockets,
/// forward each readable chunk through the fault policy. Single-threaded
/// per connection so the RST abort can close both fds without races.
class ConnectionPump {
 public:
  ConnectionPump(net::FdOwner client, net::FdOwner upstream, uint64_t seed,
                 double intensity)
      : client_(std::move(client)),
        upstream_(std::move(upstream)),
        state_(seed),
        intensity_(intensity) {}

  void Run() {
    (void)SplitMix64(&state_);  // decorrelate adjacent connection seeds
    pollfd fds[2];
    fds[0] = {client_.get(), POLLIN, 0};
    fds[1] = {upstream_.get(), POLLIN, 0};
    while (true) {
      fds[0].revents = fds[1].revents = 0;
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return;
      }
      for (int i = 0; i < 2; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const bool from_client = i == 0;
        if (!ForwardChunk(from_client)) return;
      }
    }
  }

 private:
  Fault DrawFault(bool hostile) {
    if (UnitDraw(&state_) >= intensity_) return Fault::kNone;
    // Hostile (client→server) direction gets the full menu; the reply
    // direction only bends time, never bytes.
    const uint64_t n = SplitMix64(&state_) % (hostile ? 5 : 3);
    switch (n) {
      case 0: return Fault::kSplit;
      case 1: return Fault::kTrickle;
      case 2: return Fault::kDelay;
      case 3: return Fault::kGarbage;
      default: return Fault::kRst;
    }
  }

  /// Reads one chunk from one side and forwards it through the fault
  /// policy. False ends the connection (EOF, error, or injected RST).
  bool ForwardChunk(bool from_client) {
    char chunk[4096];
    const int from = from_client ? client_.get() : upstream_.get();
    const int to = from_client ? upstream_.get() : client_.get();
    ssize_t got;
    do {
      got = ::recv(from, chunk, sizeof(chunk), 0);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return false;  // EOF or error: FdOwners close both (FIN)
    const size_t size = static_cast<size_t>(got);

    switch (DrawFault(from_client)) {
      case Fault::kNone:
        return SendAll(to, chunk, size);
      case Fault::kSplit: {
        size_t offset = 0;
        while (offset < size) {
          const size_t piece = std::min(
              size - offset,
              static_cast<size_t>(1 + SplitMix64(&state_) % 7));
          if (!SendAll(to, chunk + offset, piece)) return false;
          offset += piece;
        }
        return true;
      }
      case Fault::kTrickle: {
        // One byte at a time with a small gap for the first bytes: long
        // enough to land as separate segments, short enough that a sane
        // stall timeout (hundreds of ms) never fires on honest traffic.
        const size_t trickled = std::min<size_t>(size, 16);
        for (size_t i = 0; i < trickled; ++i) {
          if (!SendAll(to, chunk + i, 1)) return false;
          SleepMs(1);
        }
        return SendAll(to, chunk + trickled, size - trickled);
      }
      case Fault::kDelay:
        SleepMs(static_cast<int64_t>(1 + SplitMix64(&state_) % 10));
        return SendAll(to, chunk, size);
      case Fault::kGarbage: {
        // A line the restricted grammar must reject, injected ahead of the
        // real bytes. If it lands mid-line it corrupts that request too —
        // the server answers id -1 errors either way and stays up.
        const std::string garbage = "~chaos-garbage \x7f{]!~\n";
        if (!SendAll(to, garbage.data(), garbage.size())) return false;
        return SendAll(to, chunk, size);
      }
      case Fault::kRst: {
        // Forward half the chunk so the cut lands mid-line, then abort the
        // client side: SO_LINGER{on, 0} makes close() send RST, the
        // harshest client-visible failure a TCP server must survive.
        (void)SendAll(to, chunk, size / 2);
        linger abort{};
        abort.l_onoff = 1;
        abort.l_linger = 0;
        ::setsockopt(client_.get(), SOL_SOCKET, SO_LINGER, &abort,
                     sizeof(abort));
        return false;
      }
    }
    return false;
  }

  net::FdOwner client_;
  net::FdOwner upstream_;
  uint64_t state_;
  const double intensity_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Flags flags;
  const bool parsed = flags.Parse(argc, argv);
  const std::string upstream_address = flags.GetString("upstream", "");
  const std::string listen_address = flags.GetString("listen", "127.0.0.1:0");
  const std::optional<int64_t> seed = CountFlag(flags, "seed", 1, 0, kMaxSeed);
  const std::optional<double> intensity = RealFlag(
      flags, "intensity", 0.25, [](double p) { return p >= 0.0 && p <= 1.0; },
      "0 <= intensity <= 1");
  if (!parsed || upstream_address.empty() || !seed || !intensity ||
      !AllFlagsRead(flags)) {
    std::fprintf(stderr,
                 "usage: chaos_proxy --upstream=HOST:PORT "
                 "[--listen=HOST:PORT] [--seed=N] [--intensity=P]\n");
    return 2;
  }
  const Result<net::HostPort> upstream = net::ParseHostPort(upstream_address);
  if (!upstream.ok()) return Fail(upstream.status());
  const Result<net::HostPort> listen = net::ParseHostPort(listen_address);
  if (!listen.ok()) return Fail(listen.status());

  std::signal(SIGPIPE, SIG_IGN);

  Result<net::ListenSocket> listener =
      net::ListenTcp(listen->host, listen->port);
  if (!listener.ok()) return Fail(listener.status());
  // ListenTcp hands back a non-blocking listener for epoll servers; this
  // proxy is thread-per-connection and wants blocking accept.
  const int listen_flags = ::fcntl(listener->fd.get(), F_GETFL, 0);
  ::fcntl(listener->fd.get(), F_SETFL, listen_flags & ~O_NONBLOCK);

  std::fprintf(stderr,
               "proxy listening on %s:%u upstream %s:%u seed %llu "
               "intensity %g\n",
               listen->host.c_str(), static_cast<unsigned>(listener->port),
               upstream->host.c_str(), static_cast<unsigned>(upstream->port),
               static_cast<unsigned long long>(*seed), *intensity);
  std::fflush(stderr);

  uint64_t connection_index = 0;
  while (true) {
    const int fd = ::accept(listener->fd.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Fail(Status::Internal(std::string("accept: ") +
                                   std::strerror(errno)));
    }
    net::FdOwner client(fd);
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    Result<net::FdOwner> server_side =
        net::ConnectTcp(upstream->host, upstream->port);
    if (!server_side.ok()) {
      std::fprintf(stderr, "proxy: upstream connect failed: %s\n",
                   server_side.status().message().c_str());
      continue;  // drop the client (FdOwner closes it) and keep listening
    }
    const uint64_t conn_seed =
        static_cast<uint64_t>(*seed) ^ (connection_index * 2 + 1);
    ++connection_index;
    std::thread([client = std::move(client),
                 upstream_fd = std::move(*server_side), conn_seed,
                 intensity = *intensity]() mutable {
      ConnectionPump(std::move(client), std::move(upstream_fd), conn_seed,
                     intensity)
          .Run();
    }).detach();
  }
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }
