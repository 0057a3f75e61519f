// Fuzz target: the backward GEMM layouts against their per-element oracle.
//
// Each input picks a dispatch level among those the host supports, the
// shapes (1..80 per dimension), and every operand entry from the alphabet
// of Input::TakeChainFloat, built to tell accumulation chains apart.
//
// Invariant under test: MatMulTransposeA and MatMulTransposeB equal the
// loops of tests/gemm_oracle.h bit for bit. Under ASan a kernel that reads
// or writes past a tail fails as well.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/simd.h"
#include "tests/fuzz/fuzz_util.h"
#include "tests/gemm_oracle.h"

using adpa::Matrix;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  adpa::fuzz::Input in(data, size);
  const std::vector<adpa::simd::Level> levels = adpa::simd::SupportedLevels();
  const adpa::simd::Level level = levels[in.TakeByte() % levels.size()];
  const int64_t n = in.TakeInRange(1, 80);
  const int64_t k = in.TakeInRange(1, 80);
  const int64_t m = in.TakeInRange(1, 80);
  const Matrix a = adpa::fuzz::TakeChainMatrix(&in, n, k);
  const Matrix bt = adpa::fuzz::TakeChainMatrix(&in, m, k);  // a * btᵀ
  const Matrix b = adpa::fuzz::TakeChainMatrix(&in, n, m);   // aᵀ * b

  adpa::simd::SetLevel(level);
  if (!adpa::fuzz::BitwiseEqual(
          adpa::MatMulTransposeB(a, bt),
          adpa::oracle::MatMulTransposeB(a, bt,
                                         adpa::oracle::DotLanes(level)))) {
    __builtin_trap();  // A*Bᵀ left the level's dot chain
  }
  if (!adpa::fuzz::BitwiseEqual(adpa::MatMulTransposeA(a, b),
                                adpa::oracle::MatMulTransposeA(a, b))) {
    __builtin_trap();  // Aᵀ*B left the increasing-row chain or its skip
  }
  return 0;
}
