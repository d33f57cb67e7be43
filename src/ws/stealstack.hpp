// The chunked DFS steal-stack (paper Figure 2).
//
// One stack per thread, a contiguous array of fixed-size node slots split
// into two regions by node index:
//
//     [shared_base, local)   shared region — chunks eligible to be stolen
//     [local, top)           local region  — owner pushes/pops here freely
//
// The owner's push/pop at the top never needs synchronization. Chunks of k
// nodes move between the regions by sliding the `local` boundary
// (release: local += k, reacquire: local -= k), and thieves take chunks from
// the *bottom* of the shared region (the oldest nodes, nearest the root and
// hence statistically the largest subtrees) by sliding `shared_base` up.
//
// Concurrency discipline is decided by the algorithm on top:
//   * locked family (§3.1): thieves and the owner serialize region
//     bookkeeping through lock(); a reserved chunk is then copied *outside*
//     the critical section. The owner's growth never frees the block a
//     thief may be reading (old blocks are retired, not freed), and the
//     in-flight counter keeps the owner from compacting — or reclaiming
//     retired blocks — while a transfer is still reading them.
//   * lock-less family (§3.3.3): only the owner ever touches the stack;
//     thieves receive work through per-thief grant buffers, so no locking.
//
// The work_avail word is the remotely probed load indicator; its encoding
// (paper §3.3.1: -1 "no work at all" vs 0 "working, no surplus" vs n>0
// "n nodes stealable") is maintained by the algorithms.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgas/engine.hpp"

namespace upcws::ws {

class StealStack {
 public:
  StealStack() = default;

  /// Must be called before use. `owner` fixes the lock's affinity.
  void init(std::size_t node_bytes, int owner);

  int owner() const { return owner_; }
  std::size_t node_bytes() const { return node_bytes_; }

  // ---- owner-only operations (local region) ----

  /// Push one node onto the local region (grows storage on demand).
  void push(const std::byte* node);

  /// Push `count` packed nodes (count * node_bytes() bytes) onto the local
  /// region in order, with one capacity check and one copy — the bulk
  /// fast path for expand batches, chunk absorbs, and stack salvage.
  void push_n(const std::byte* nodes, std::size_t count);

  /// Pop one node from the local region. False if the local region is empty.
  bool pop(std::byte* out);

  std::size_t local_size() const { return top_ - local_; }
  // shared_base_ may be advanced by a thief (under the lock, in the locked
  // family) while the owner reads these sizes unlocked; the relaxed atomic
  // read can only over-estimate the shared size, and every consumer
  // re-checks under the proper exclusion before acting.
  std::size_t shared_size() const {
    return local_ - shared_base_.load(std::memory_order_relaxed);
  }
  std::size_t depth() const {
    return top_ - shared_base_.load(std::memory_order_relaxed);
  }

  /// Move the oldest `k` local nodes into the shared region.
  /// Caller must ensure local_size() >= k (and hold the lock in the locked
  /// family). Does not touch work_avail.
  void release(std::size_t k);

  /// Move the newest `k` shared nodes back into the local region.
  /// Caller must ensure shared_size() >= k.
  void reacquire(std::size_t k);

  /// Owner housekeeping: slide live data back to the start of the buffer
  /// when the dead prefix grows, and reset indices when totally empty.
  /// Requires the same exclusion as release() *and* no in-flight transfers.
  void maybe_compact();

  // ---- thief-side operations ----

  /// Claim `nodes` from the bottom of the shared region; returns the slot
  /// index of the first claimed node. Caller must have verified
  /// shared_size() >= nodes under the appropriate exclusion.
  std::size_t reserve(std::size_t nodes);

  /// Raw slot access (index in nodes). Thieves read reserved slots; the
  /// lock-less victim reads slots to fill outboxes. Goes through the
  /// atomically published data pointer, not the vector, so a thief's read
  /// never races with the owner's growth reallocation — and the block the
  /// pointer names stays alive until the transfer drains (see
  /// ensure_capacity's retire discipline).
  const std::byte* slot(std::size_t idx) const {
    return data_.load(std::memory_order_acquire) + idx * node_bytes_;
  }

  /// Mark a reserved-chunk transfer as started/finished (locked family).
  void begin_transfer() { inflight_.fetch_add(1, std::memory_order_acq_rel); }
  void end_transfer() { inflight_.fetch_sub(1, std::memory_order_release); }

  // ---- shared load indicator ----

  std::atomic<std::int64_t>& work_avail() { return work_avail_; }
  const std::atomic<std::int64_t>& work_avail() const { return work_avail_; }

  /// The stack's lock (locked family only; affinity = owner).
  pgas::Lock& lock() { return lock_; }

  /// Track "work source" status transitions (paper §3.3.2). The writer that
  /// changes work_avail calls this under the same exclusion as the write;
  /// returns true when the status actually flipped (an event to record).
  bool set_source_flag(bool is_source) {
    return was_source_.exchange(is_source, std::memory_order_acq_rel) !=
           is_source;
  }

  /// Peak total occupancy (nodes) over the stack's lifetime.
  std::uint64_t peak_depth() const { return peak_; }

  // ---- crash salvage (recovery paths only) ----
  //
  // A salvager reads a *dead* owner's whole live interval [salvage_begin,
  // salvage_end) — shared and local region alike; the owner is gone, so the
  // owner-only indices are stable — and then empties the stack. The locked
  // family additionally holds the (revoked) stack lock across the salvage to
  // exclude concurrent thieves.

  std::size_t salvage_begin() const {
    return shared_base_.load(std::memory_order_acquire);
  }
  std::size_t salvage_end() const { return top_; }

  /// Empty the stack after its contents were salvaged. Same exclusion
  /// requirements as the salvage read.
  void clear_after_salvage() {
    shared_base_.store(0, std::memory_order_release);
    local_ = 0;
    top_ = 0;
  }

 private:
  void ensure_capacity(std::size_t nodes);

  std::size_t node_bytes_ = 0;
  int owner_ = 0;
  std::vector<std::byte> buf_;
  // Buffer start, re-published (release) on every reallocating growth;
  // slot() acquire-loads it so thieves never touch the vector's internals.
  std::atomic<std::byte*> data_{nullptr};
  // Old buffers whose storage a mid-transfer thief may still be reading;
  // ensure_capacity() parks them here instead of freeing, and
  // maybe_compact() reclaims them once transfers have drained.
  std::vector<std::vector<std::byte>> retired_;
  std::atomic<std::size_t> shared_base_{0};  // node index
  std::size_t local_ = 0;                    // node index
  std::size_t top_ = 0;                      // node index
  std::uint64_t peak_ = 0;
  alignas(64) std::atomic<std::int64_t> work_avail_{0};
  alignas(64) std::atomic<int> inflight_{0};
  std::atomic<bool> was_source_{false};
  pgas::Lock lock_;
};

}  // namespace upcws::ws
