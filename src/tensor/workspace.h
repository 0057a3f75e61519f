#pragma once
#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/matrix.h"

namespace adpa {

/// Slot pool of reusable Matrix buffers for allocation-free hot paths
/// (DESIGN.md §12). A caller acquires matrices in a fixed order each pass;
/// Reset() rewinds the cursor without releasing capacity, so steady-state
/// passes perform zero heap allocations once every slot has grown to its
/// high-water size. Pointer lists (the parts of a concatenation, say) are
/// pooled the same way.
///
/// Not thread-safe: each thread owns its own Workspace (the serve path keeps
/// one in a thread_local).
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Returns the next slot shaped rows x cols with every element zeroed.
  /// The pointer stays valid until the Workspace is destroyed (slots are
  /// stable unique_ptrs; acquiring more slots never moves earlier ones).
  Matrix* Acquire(int64_t rows, int64_t cols);

  /// Returns the next pointer list, holding `size` nulls; stable and reused
  /// across Reset() like a slot.
  std::vector<const Matrix*>& AcquireList(int64_t size);

  /// Rewinds the slot and list cursors to the first entry. Existing buffers
  /// keep their capacity; the next Acquire sequence reuses them in order.
  void Reset() { next_ = next_list_ = 0; }

  /// Number of slots ever created (high-water mark across passes).
  int64_t slots() const { return static_cast<int64_t>(slots_.size()); }

  /// Number of pointer lists ever created (high-water mark across passes).
  int64_t lists() const { return static_cast<int64_t>(lists_.size()); }

 private:
  std::vector<std::unique_ptr<Matrix>> slots_;
  size_t next_ = 0;
  std::vector<std::unique_ptr<std::vector<const Matrix*>>> lists_;
  size_t next_list_ = 0;
};

}  // namespace adpa
