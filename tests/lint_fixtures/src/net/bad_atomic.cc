// Fixture: an atomic in the network layer must trip single-owner; only the
// event-loop thread touches the server's counters.
#include <atomic>
#include <cstdint>

namespace adpa::net {

struct Counters {
  std::atomic<uint64_t> accepted{0};
  uint64_t dropped = 0;
};

}  // namespace adpa::net
