// Fuzz target: the backward GEMM layouts against their per-element oracle.
//
// Each input picks a dispatch level among those the host supports, the
// shapes (1..80 per dimension), and every operand entry from an alphabet
// built to tell accumulation chains apart: ±2^30 (cancelling products of
// 2^60 decide which small terms survive the rounding), +0 and -0 (the
// A^T*B zero skip), subnormals, and fuzzed values with full 24-bit
// significands.
//
// Invariant under test: MatMulTransposeA and MatMulTransposeB equal the
// loops of tests/gemm_oracle.h bit for bit. Under ASan a kernel that reads
// or writes past a tail fails as well.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/simd.h"
#include "tests/fuzz/fuzz_util.h"
#include "tests/gemm_oracle.h"

using adpa::Matrix;

namespace {

float TakeEntry(adpa::fuzz::Input* in) {
  const uint8_t tag = in->TakeByte();
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
      const uint32_t raw = in->TakeU32();
      const float significand =
          1.0f + static_cast<float>(raw & 0x7FFFFF) / 8388608.0f;
      return sign * std::ldexp(significand,
                               static_cast<int>((raw >> 23) & 0xF) - 8);
    }
  }
}

Matrix TakeMatrix(adpa::fuzz::Input* in, int64_t rows, int64_t cols) {
  Matrix out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] = TakeEntry(in);
  return out;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  adpa::fuzz::Input in(data, size);
  const std::vector<adpa::simd::Level> levels = adpa::simd::SupportedLevels();
  const adpa::simd::Level level = levels[in.TakeByte() % levels.size()];
  const int64_t n = in.TakeInRange(1, 80);
  const int64_t k = in.TakeInRange(1, 80);
  const int64_t m = in.TakeInRange(1, 80);
  const Matrix a = TakeMatrix(&in, n, k);
  const Matrix bt = TakeMatrix(&in, m, k);  // a * btᵀ
  const Matrix b = TakeMatrix(&in, n, m);   // aᵀ * b

  adpa::simd::SetLevel(level);
  if (!BitwiseEqual(adpa::MatMulTransposeB(a, bt),
                    adpa::oracle::MatMulTransposeB(
                        a, bt, adpa::oracle::DotLanes(level)))) {
    __builtin_trap();  // A*Bᵀ left the level's dot chain
  }
  if (!BitwiseEqual(adpa::MatMulTransposeA(a, b),
                    adpa::oracle::MatMulTransposeA(a, b))) {
    __builtin_trap();  // Aᵀ*B left the increasing-row chain or its skip
  }
  return 0;
}
