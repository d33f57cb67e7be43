// The "global address space" of one work-stealing run: everything that is
// shared between ranks, with an explicit affinity for cost accounting.
//
// Affinities follow the paper's UPC program:
//   * each steal stack (and its lock and work_avail word) lives at its owner
//   * the cancelable-barrier variables and the barrier counter live at rank 0
//     (which is why spinning on them from other ranks is expensive — §3.1)
//   * each rank's termination flag, steal-request word, and steal-response
//     word live at that rank (so spinning on one's *own* flag is cheap —
//     the point of §3.3.1's tree announcement and §3.3.3's local polling)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pgas/engine.hpp"
#include "ws/stealstack.hpp"

namespace upcws::ws {

/// work_avail encoding (paper §3.3.1): a rank with no work at all publishes
/// kNoWorkAtAll; a working rank with an empty shared region publishes 0;
/// otherwise the number of stealable nodes.
inline constexpr std::int64_t kNoWorkAtAll = -1;

/// steal_request: rank id of the requesting thief, or kNoRequest.
inline constexpr int kNoRequest = -1;

/// steal_request: the victim has claimed the pending request and is
/// committed to answering it (hardened protocol only). A thief that wants
/// to abandon a timed-out request CASes thief->kNoRequest; once the victim
/// has CASed thief->kServicing that cancellation can no longer succeed, so
/// a grant is never orphaned (exactly-once chunk transfer).
inline constexpr int kServicing = -2;

/// steal response word: kRespPending until the victim answers with the node
/// count granted (0 = denied).
inline constexpr std::int64_t kRespPending = -1;

/// Lifeline park word: kUnparked while the rank is running or sweeping;
/// kParked while it waits on its lifelines inside the termination barrier.
/// A victim wakes a parked thief by CASing kParked -> its own rank id; the
/// thief polls its own word (a cheap local read) and pulls from that victim.
inline constexpr int kUnparked = -1;
inline constexpr int kParked = -2;

/// Per-rank protocol slots for the lock-less request/response steal (§3.3.3)
/// and the tree-based termination announcement (§3.3.1).
struct alignas(64) RankSlots {
  /// Thieves CAS their rank here; the owner polls it locally.
  std::atomic<int> steal_request{kNoRequest};

  /// This rank's *own* pending steal response, written remotely by its
  /// victim (amount granted); the thief spins on it locally.
  std::atomic<std::int64_t> resp_amount{kRespPending};

  /// Termination-announcement flag; each rank spins on its own.
  std::atomic<int> term_flag{0};

  // --- lifeline victim policy (Algo::kLifeline) only ---------------------

  /// Lifeline park word (see kUnparked/kParked above); lives at the thief
  /// so its park-poll is a local read, like resp_amount.
  std::atomic<int> park{kUnparked};

  /// Distress bitmask: bit d set means this rank's hypercube neighbor
  /// across dimension d (rank ^ (1 << d)) is parked and asking to be woken
  /// when surplus appears. Thieves set bits remotely (CAS loop); the owner
  /// polls and clears locally.
  std::atomic<std::uint64_t> distress{0};

  /// This rank's *own* incoming grant: its victim copies the granted run
  /// here and the thief reads it with a one-sided get charged to that
  /// victim. A thief never issues a new request before consuming its
  /// previous grant, so one buffer per thief suffices.
  std::vector<std::byte> grant;
};

struct SharedState {
  SharedState(int nranks, std::size_t node_bytes);

  int nranks;
  std::size_t node_bytes;

  std::vector<StealStack> stacks;
  std::vector<RankSlots> slots;

  // --- cancelable barrier (§3.1); affinity rank 0 ---
  pgas::Lock cb_lock;
  std::atomic<int> cb_count{0};
  std::atomic<int> cb_cancel{0};
  std::atomic<int> cb_done{0};

  // --- probe-then-barrier termination (§3.3.1); affinity rank 0 ---
  std::atomic<int> bar_count{0};
  std::atomic<int> term_root{-1};

  /// Crash-recovery board (lineage records, salvage claims, barrier
  /// membership mirror); null unless the fault plan injects crashes.
  class RecoveryBoard* recovery = nullptr;
};

}  // namespace upcws::ws
