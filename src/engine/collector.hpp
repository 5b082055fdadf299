#pragma once
// Thread-safe, order-independent result accumulation for sweeps.
//
// The core trick is slotting, not locking: a collector pre-allocates one
// slot per task, each task writes only its own slot (no synchronization
// needed beyond the sweep's own join), and merge() folds slots in
// task-index order after all tasks finish. Because the fold order is fixed
// by task index — never by completion order — merged floating-point
// accumulations are bit-identical across thread counts.

#include <cstddef>
#include <vector>

namespace cisp::engine {

/// Per-task slots of an arbitrary value type with an index-ordered fold.
template <typename T>
class SlotCollector {
 public:
  explicit SlotCollector(std::size_t num_tasks) : slots_(num_tasks) {}

  /// The slot owned by `task_index`. Each task must touch only its own
  /// slot while the sweep is running.
  [[nodiscard]] T& slot(std::size_t task_index) {
    return slots_.at(task_index);
  }
  [[nodiscard]] const T& slot(std::size_t task_index) const {
    return slots_.at(task_index);
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Folds `merge(accumulator, slot)` over slots in task-index order.
  template <typename Acc, typename MergeFn>
  [[nodiscard]] Acc merge(Acc accumulator, MergeFn&& merge_fn) const {
    for (const T& s : slots_) merge_fn(accumulator, s);
    return accumulator;
  }

 private:
  std::vector<T> slots_;
};

}  // namespace cisp::engine
