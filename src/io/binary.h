#pragma once
#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/core/status.h"
#include "src/tensor/matrix.h"

namespace adpa {

/// Checked little-endian binary (de)serialization primitives for the
/// checkpoint format (src/io/checkpoint.h). These are
/// the *only* sanctioned file-access surface for src/io/ and src/serve/ —
/// the `no-direct-io` lint rule rejects raw C stdio there — because every
/// read is bounds-checked and every failure is a Status, never a crash.
///
/// Format v1 stores all multi-byte values little-endian. Hosts are required
/// to be little-endian (x86-64, aarch64); a big-endian host gets a
/// FailedPrecondition from the readers/writers instead of silently mangled
/// floats.

/// True on little-endian hosts (the only ones format v1 supports).
bool HostIsLittleEndian();

/// Appends fixed-width values to an output stream. Write failures latch:
/// check `status()` once at the end instead of after every call.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out);

  void WriteBytes(const void* data, size_t size);
  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value);
  void WriteI64(int64_t value);
  void WriteF32(float value);
  void WriteF64(double value);

  /// Length-prefixed (u32) byte string.
  void WriteString(const std::string& text);

  /// Shape header (i64 rows, i64 cols) followed by the row-major f32 data.
  void WriteMatrix(const Matrix& matrix);

  /// OK iff the host is little-endian and no stream write failed so far.
  Status status() const { return status_; }

 private:
  std::ostream* out_;
  Status status_;
};

/// Consumes fixed-width values from an input stream. Every method returns a
/// non-OK Status on short reads or out-of-range sizes; once a read fails the
/// caller is expected to abandon the stream.
class BinaryReader {
 public:
  /// `size` is the number of bytes `in` holds from its current position,
  /// when the caller knows it (a CRC-verified payload in memory). No read
  /// goes past it, and ReadMatrix refuses a shape those bytes cannot fill.
  explicit BinaryReader(std::istream* in, uint64_t size = UINT64_MAX);

  Status ReadBytes(void* data, size_t size);
  Status ReadU8(uint8_t* value);
  Status ReadU32(uint32_t* value);
  Status ReadU64(uint64_t* value);
  Status ReadI32(int32_t* value);
  Status ReadI64(int64_t* value);
  Status ReadF32(float* value);
  Status ReadF64(double* value);

  /// Rejects strings longer than `max_size` *before* allocating.
  Status ReadString(std::string* text, uint64_t max_size);

  /// Rejects negative shapes, and matrices with more than `max_entries`
  /// elements or more than the bytes left can fill, before the dense
  /// allocation (hostile-header safety, same philosophy as DatasetLimits in
  /// src/data/io.h).
  Status ReadMatrix(Matrix* matrix, int64_t max_entries);

 private:
  std::istream* in_;
  uint64_t remaining_;  ///< bytes left before `size`
};

}  // namespace adpa
