// Ready queue for the discrete-event scheduler: an implicit 4-ary min-heap
// of 16-byte (virtual time, task id) entries.
//
// Why this shape:
//   * Entries sit in one flat array, so a sift touches a handful of
//     adjacent cache lines instead of chasing node pointers. Four children
//     share a cache line (4 x 16 bytes = 64), and the tree is half as deep
//     as a binary heap's, so one pop costs about log4(n) line loads.
//   * The scheduler's hot step is "the running task yields at a larger
//     key; the minimum runs next". push_pop() fuses that push and pop into
//     one sift-down from the root, and costs a single comparison when the
//     pushed key is still the minimum.
//
// Ordering is EXACTLY the scheduler's historical tie-break: smaller vt
// first, ties broken by smaller task id. This total order is pinned by the
// differential test in tests/test_scheduler_order.cpp, which drives this
// queue and a std::priority_queue reference model side by side.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace upcws::sim {

class ReadyQueue {
 public:
  struct Entry {
    std::uint64_t vt;
    int task;
  };

  /// Reserve storage for `ntasks` entries (each task has at most one).
  void ensure_tasks(int ntasks) {
    heap_.reserve(static_cast<std::size_t>(ntasks));
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Insert an entry for `task` at time `vt`. The task must not already
  /// be queued (each task has at most one entry).
  void push(std::uint64_t vt, int task) {
    heap_.push_back({vt, task});
    sift_up(heap_.size() - 1);
  }

  /// The minimum entry. Queue must be non-empty.
  Entry top() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  /// Remove and return the minimum entry.
  Entry pop() {
    assert(!heap_.empty());
    const Entry min = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return min;
  }

  /// push(vt, task) followed by pop(), in one sift: returns (vt, task)
  /// itself, leaving the queue untouched, when it is below every queued
  /// entry; otherwise returns the old minimum and files (vt, task) in its
  /// place.
  Entry push_pop(std::uint64_t vt, int task) {
    const Entry e{vt, task};
    if (heap_.empty() || less(e, heap_.front())) return e;
    const Entry min = heap_.front();
    sift_down(e);
    return min;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool less(const Entry& a, const Entry& b) {
    return a.vt != b.vt ? a.vt < b.vt : a.task < b.task;
  }

  /// Move the entry at `i` up to its place.
  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// File `e` into the hole at the root, moving smaller children up.
  void sift_down(const Entry& e) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (less(heap_[c], heap_[best])) best = c;
      if (!less(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
};

}  // namespace upcws::sim
