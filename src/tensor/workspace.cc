#include "src/tensor/workspace.h"

namespace adpa {

Matrix* Workspace::Acquire(int64_t rows, int64_t cols) {
  if (next_ == slots_.size()) {
    // Slot-pool growth: only the first pass at a new high-water shape
    // allocates; Reset() rewinds without releasing capacity.
    slots_.push_back(std::make_unique<Matrix>(rows, cols));  // analyze:allow(alloc): slot-pool growth
    return slots_[next_++].get();
  }
  Matrix* slot = slots_[next_++].get();
  slot->Resize(rows, cols);
  return slot;
}

std::vector<const Matrix*>& Workspace::AcquireList(int64_t size) {
  if (next_list_ == lists_.size()) {
    lists_.push_back(std::make_unique<std::vector<const Matrix*>>());  // analyze:allow(alloc): list-pool growth
  }
  std::vector<const Matrix*>& list = *lists_[next_list_++];
  // assign() reallocates only past the list's high-water size.
  list.assign(static_cast<size_t>(size), nullptr);  // analyze:allow(alloc): list-pool growth
  return list;
}

}  // namespace adpa
