// Fuzz target: the checkpoint container on attacker-controlled bytes.
//
// Invariants under test:
//  * TryLoadCheckpointFromStream never aborts, over-allocates past
//    CheckpointLimits, or trips ASan/UBSan — truncation, bad magic, version
//    skew, CRC corruption, and hostile size fields all come back as a
//    non-OK Status;
//  * any container the loader accepts survives a save/reload round trip
//    bitwise (accepted implies well-formed implies serializable);
//  * under the default (production) limits, memory follows the bytes
//    present: a size field may claim gigabytes, but the loader allocates
//    only what the input can fill. CI runs this target with
//    -malloc_limit_mb=64, so an allocation the input does not justify
//    crashes the fuzzer.
//
// The tight-limits pass keeps the fuzzer exploring the ceiling checks with
// small inputs instead of wasting its budget growing megabyte corpora.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "src/io/checkpoint.h"

namespace {

using adpa::Checkpoint;
using adpa::CheckpointLimits;
using adpa::Matrix;
using adpa::Result;

CheckpointLimits TightLimits() {
  CheckpointLimits limits;
  limits.max_payload_bytes = 4096;
  limits.max_name_bytes = 64;
  limits.max_tensors = 8;
  limits.max_tensor_entries = 256;
  limits.max_patterns = 4;
  limits.max_pattern_length = 4;
  return limits;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

void CheckCheckpointRoundTrip(const Checkpoint& loaded,
                              const CheckpointLimits& limits) {
  std::ostringstream out;
  if (!SaveCheckpointToStream(loaded, out).ok()) __builtin_trap();
  std::istringstream again(out.str());
  Result<Checkpoint> reloaded = TryLoadCheckpointFromStream(again, limits);
  if (!reloaded.ok()) __builtin_trap();
  if (reloaded->model_name != loaded.model_name ||
      reloaded->dataset_name != loaded.dataset_name ||
      reloaded->dataset_hash != loaded.dataset_hash ||
      reloaded->patterns != loaded.patterns ||
      reloaded->tensors.size() != loaded.tensors.size()) {
    __builtin_trap();
  }
  for (size_t i = 0; i < loaded.tensors.size(); ++i) {
    if (reloaded->tensors[i].name != loaded.tensors[i].name ||
        !BitwiseEqual(reloaded->tensors[i].value, loaded.tensors[i].value)) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  for (const CheckpointLimits& limits : {TightLimits(), CheckpointLimits{}}) {
    std::istringstream in(bytes);
    Result<Checkpoint> loaded = adpa::TryLoadCheckpointFromStream(in, limits);
    if (loaded.ok()) CheckCheckpointRoundTrip(loaded.value(), limits);
  }
  return 0;
}
