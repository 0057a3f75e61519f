#include "src/io/binary.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "src/core/failpoint.h"

namespace adpa {

bool HostIsLittleEndian() {
  return std::endian::native == std::endian::little;
}

BinaryWriter::BinaryWriter(std::ostream* out) : out_(out) {
  if (!HostIsLittleEndian()) {
    status_ = Status::FailedPrecondition(
        "binary format v1 requires a little-endian host");
  }
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  if (!status_.ok()) return;
  // Injected failures latch exactly like a real stream error.
  status_ = ADPA_FAILPOINT_STATUS("binary.write");
  if (!status_.ok()) return;
  out_->write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  if (!out_->good()) status_ = Status::Internal("stream write failed");
}

void BinaryWriter::WriteU8(uint8_t value) { WriteBytes(&value, sizeof(value)); }
void BinaryWriter::WriteU32(uint32_t value) {
  WriteBytes(&value, sizeof(value));
}
void BinaryWriter::WriteU64(uint64_t value) {
  WriteBytes(&value, sizeof(value));
}
void BinaryWriter::WriteI32(int32_t value) {
  WriteBytes(&value, sizeof(value));
}
void BinaryWriter::WriteI64(int64_t value) {
  WriteBytes(&value, sizeof(value));
}
void BinaryWriter::WriteF32(float value) { WriteBytes(&value, sizeof(value)); }
void BinaryWriter::WriteF64(double value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteString(const std::string& text) {
  WriteU32(static_cast<uint32_t>(text.size()));
  WriteBytes(text.data(), text.size());
}

void BinaryWriter::WriteMatrix(const Matrix& matrix) {
  WriteI64(matrix.rows());
  WriteI64(matrix.cols());
  WriteBytes(matrix.data(),
             static_cast<size_t>(matrix.size()) * sizeof(float));
}

BinaryReader::BinaryReader(std::istream* in, uint64_t size)
    : in_(in), remaining_(size) {}

Status BinaryReader::ReadBytes(void* data, size_t size) {
  ADPA_FAILPOINT("binary.read");
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "binary format v1 requires a little-endian host");
  }
  if (size > remaining_) {
    return Status::InvalidArgument("truncated input: short read");
  }
  in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in_->gcount()) != size) {
    return Status::InvalidArgument("truncated input: short read");
  }
  remaining_ -= size;
  return Status::OK();
}

Status BinaryReader::ReadU8(uint8_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadU32(uint32_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadU64(uint64_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadI32(int32_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadI64(int64_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadF32(float* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadF64(double* value) {
  return ReadBytes(value, sizeof(*value));
}

Status BinaryReader::ReadString(std::string* text, uint64_t max_size) {
  uint32_t size = 0;
  ADPA_RETURN_IF_ERROR(ReadU32(&size));
  if (size > max_size) {
    return Status::InvalidArgument("string length exceeds limit");
  }
  text->resize(size);
  return size == 0 ? Status::OK() : ReadBytes(text->data(), size);
}

Status BinaryReader::ReadMatrix(Matrix* matrix, int64_t max_entries) {
  int64_t rows = 0, cols = 0;
  ADPA_RETURN_IF_ERROR(ReadI64(&rows));
  ADPA_RETURN_IF_ERROR(ReadI64(&cols));
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative matrix shape");
  }
  // Overflow-safe entry ceilings, enforced before the dense allocation: the
  // caller's limit, and what the bytes left can fill (a forged shape must
  // not size an allocation the input cannot back).
  if (cols > 0 && rows > max_entries / cols) {
    return Status::InvalidArgument("matrix exceeds entry limit");
  }
  const int64_t entries_left = static_cast<int64_t>(remaining_ / sizeof(float));
  if (cols > 0 && rows > entries_left / cols) {
    return Status::InvalidArgument("truncated input: matrix shape exceeds "
                                   "the bytes left");
  }
  *matrix = Matrix(rows, cols);
  if (matrix->size() == 0) return Status::OK();
  return ReadBytes(matrix->data(),
                   static_cast<size_t>(matrix->size()) * sizeof(float));
}

}  // namespace adpa
