#pragma once
#include <cstddef>
#include <cstdint>

namespace adpa {

/// Non-cryptographic hashing used by the persistence layer (src/io):
/// CRC32 guards checkpoint payloads against bit rot and truncation, and
/// FNV-1a fingerprints graph/feature content for cache keys. Both are
/// deterministic functions of the input bytes — no seeding, no wall clock —
/// so fingerprints are stable across processes, machines, and PRs.

/// CRC-32 (IEEE 802.3 polynomial, reflected), the same checksum used by
/// zlib/gzip/PNG. `Crc32(data, n)` is a convenience over the accumulator.
class Crc32Accumulator {
 public:
  void Update(const void* data, size_t size);

  /// Final checksum of everything fed so far. The accumulator stays usable
  /// (Digest is a pure read).
  uint32_t Digest() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

uint32_t Crc32(const void* data, size_t size);

/// 64-bit FNV-1a over a byte stream. Used to fingerprint dataset content
/// (edge lists, feature matrices) for checkpoint/cache validation; collisions
/// are astronomically unlikely for the "did the inputs change?" use case and
/// harmless (a stale cache is recomputed, never trusted blindly elsewhere).
class Fnv1aHasher {
 public:
  void Update(const void* data, size_t size);

  /// Convenience for POD values (hashes the object representation).
  template <typename T>
  void UpdateValue(const T& value) {
    Update(&value, sizeof(value));
  }

  uint64_t Digest() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

uint64_t Fnv1a64(const void* data, size_t size);

}  // namespace adpa
