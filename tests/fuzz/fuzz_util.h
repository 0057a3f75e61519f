#pragma once
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/tensor/matrix.h"

// Shared byte-consumption helper for the fuzz targets. Deliberately tiny:
// every Take* is total (exhausted input yields zeros) so a target never
// branches on "ran out of bytes" — short inputs just exercise the
// zero/empty corners of the parser under test.

namespace adpa {
namespace fuzz {

class Input {
 public:
  Input(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ >= size_; }

  uint8_t TakeByte() { return pos_ < size_ ? data_[pos_++] : 0; }

  uint32_t TakeU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | TakeByte();
    return v;
  }

  int64_t TakeInt64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | TakeByte();
    return static_cast<int64_t>(v);
  }

  /// Uniform-ish value in [lo, hi] (inclusive); requires lo <= hi.
  int64_t TakeInRange(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(TakeU32() % span);
  }

  /// Finite float in roughly [-8, 8]; fuzzed bytes never produce NaN/Inf
  /// here so targets can separately decide to test non-finite handling.
  float TakeFloat() {
    const uint32_t raw = TakeU32();
    return (static_cast<float>(raw % 65536) - 32768.0f) / 4096.0f;
  }

  /// A finite float from an alphabet built to tell accumulation chains
  /// apart: ±2^30 (cancelling products of 2^60 decide which small terms
  /// survive the rounding), +0 and -0 (the A^T*B zero skip), subnormals,
  /// and values with full 24-bit significands.
  float TakeChainFloat() {
    const uint8_t tag = TakeByte();
    const float sign = (tag & 0x80) != 0 ? -1.0f : 1.0f;
    switch (tag % 8) {
      case 0:
        return sign * 1073741824.0f;  // 2^30
      case 1:
        return sign * 0.0f;
      case 2:  // 2^-140 .. 16 * 2^-140, all below FLT_MIN
        return sign * std::ldexp(static_cast<float>(((tag >> 3) & 0xF) + 1),
                                 -140);
      default: {
        // A full 24-bit significand, |v| in [2^-8, 2^8): next to a 2^60
        // partial sum its product with 2^30 loses low bits, so the order of
        // the sum shows in the rounded result. (Coarser values would make
        // every partial sum exact, and every order would agree.)
        const uint32_t raw = TakeU32();
        const float significand =
            1.0f + static_cast<float>(raw & 0x7FFFFF) / 8388608.0f;
        return sign * std::ldexp(significand,
                                 static_cast<int>((raw >> 23) & 0xF) - 8);
      }
    }
  }

  /// Everything not yet consumed, as text.
  std::string TakeRemainder() {
    std::string out(reinterpret_cast<const char*>(data_ + pos_),
                    size_ - pos_);
    pos_ = size_;
    return out;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A rows x cols matrix of TakeChainFloat entries, row-major.
inline Matrix TakeChainMatrix(Input* in, int64_t rows, int64_t cols) {
  Matrix out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = in->TakeChainFloat();
  }
  return out;
}

inline bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

}  // namespace fuzz
}  // namespace adpa
