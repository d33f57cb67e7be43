// Crash-recovery state shared by all ranks of one run (the "resilient
// store" of the global address space).
//
// The recovery model follows the resilient-APGAS line of work (Finnerty et
// al., arXiv:2207.05452): work in flight between two ranks is journaled in
// a recovery log that survives the death of either endpoint, and a dead
// rank's steal stack is treated as relocatable memory that survivors may
// salvage. Concretely:
//
//   * Every chunk transfer performed while crash injection is active first
//     publishes a *lineage record* — the raw node descriptors (UTS: SHA-1
//     state + depth) plus (victim, thief) — into a per-rank-pair slot of
//     the TransferLog. The rank responsible for completing the transfer
//     (always the thief: it pushes the nodes) retires the record with a
//     CAS kPending -> kDone right after the nodes land on its stack.
//   * If a rank dies, survivors (a) salvage the dead rank's stack interval
//     [shared_base, top) exactly once (the salvage word arbitrates), and
//     (b) replay any record still kPending whose thief is dead, claiming
//     each with a CAS kPending -> kClaimed so the replay happens exactly
//     once even with many recoverers.
//   * The pending -> {done, claimed} CAS race is what makes the traversal
//     visit every node exactly once: a chunk is either retired by its thief
//     or replayed by a recoverer, never both. Reservations leave the stack
//     before the record is published (no interaction point between), so a
//     salvage interval and a pending record are disjoint by construction —
//     no descriptor-level dedup is needed, and none is done: a node can
//     legitimately flow through recovery more than once in its lifetime
//     (recovered, recirculated unvisited, re-stolen, orphaned again), so
//     dropping "seen before" descriptors would lose live subtrees.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgas/engine.hpp"

namespace upcws::ws {

class StealStack;

/// One journaled in-flight transfer. `state` arbitrates exactly-once:
/// kPending -> kDone   (thief retired it: nodes are on the thief's stack)
/// kPending -> kClaimed (a recoverer replays it: thief died first)
struct TransferRec {
  enum : int { kFree = 0, kPending = 1, kDone = 2, kClaimed = 3 };

  std::atomic<int> state{kFree};
  int victim = -1;
  int thief = -1;
  std::uint32_t nnodes = 0;
  std::vector<std::byte> payload;
};

/// Per-run recovery state. Constructed by the driver when the fault plan
/// injects crashes; algorithms reach it through SharedState::recovery (UPC
/// family) or a parameter (message-passing family). A null board means
/// crash mode is off and no recovery code runs at all.
class RecoveryBoard {
 public:
  RecoveryBoard(int nranks, std::size_t node_bytes);

  int nranks() const { return n_; }
  std::size_t node_bytes() const { return nb_; }

  /// The run's steal stacks (index = rank), set by the driver so salvagers
  /// can read a dead rank's stack. Non-owning.
  std::vector<StealStack>* stacks = nullptr;

  /// The transfer record for a (writer, peer) rank pair. Each writer uses
  /// only its own row, and at most one transfer per peer is in flight, so
  /// slots are never contended on the write side.
  TransferRec& rec(int writer, int peer) { return recs_[writer * n_ + peer]; }
  const TransferRec& rec(int writer, int peer) const {
    return recs_[writer * n_ + peer];
  }

  /// Journal an outgoing transfer into rec(writer, peer). Raw stores plus a
  /// release on `state` — deliberately free of Ctx charges so no crash can
  /// land between a stack reservation and its lineage record (the caller
  /// charges the journaling cost afterwards).
  void publish(int writer, int peer, int victim, int thief,
               const std::byte* data, std::uint32_t count);

  /// Recoverer side: claim a pending record for replay (exactly one
  /// claimer wins).
  static bool claim(TransferRec& r) {
    int expect = TransferRec::kPending;
    return r.state.compare_exchange_strong(expect, TransferRec::kClaimed,
                                           std::memory_order_acq_rel);
  }

  // ---- arbitration entry points (routed so the checker can sabotage) ----
  //
  // All pending -> {done, claimed} transitions in the algorithms go through
  // retire()/claim_rec() below. With bug_weak_claim false (always, outside
  // the schedule checker's self-test) they are exactly a CAS out of
  // kPending — no extra Ctx charges, no behavior change. With it
  // true they become a read / yield / write with a deliberate TOCTOU window:
  // a live thief's retire can then race a survivor's replay claim on the
  // same record, so both sides keep the chunk and the race double-counts
  // it — but only under schedules that interleave another rank into the
  // window. This is the seeded bug `schedule_check` is validated against.

  /// When true, retire()/claim_rec() use the weakened non-atomic
  /// arbitration. Set by the driver from WsConfig::bug_weak_claim.
  bool bug_weak_claim = false;

  /// Route for the thief-side retire (both a thief absorbing its own grant
  /// and a live rank retiring a dead peer's record). Equivalent to
  /// `rec.state CAS kPending -> kDone` unless bug_weak_claim.
  bool retire(pgas::Ctx& ctx, TransferRec& r);

  /// Route for the recoverer-side replay claim. Equivalent to claim(r)
  /// unless bug_weak_claim.
  bool claim_rec(pgas::Ctx& ctx, TransferRec& r);

  // ---- per-dead-rank stack salvage arbitration ----

  /// Claim the (single) salvage of dead rank `r`; false if someone else
  /// already has it or finished it.
  bool claim_salvage(int r) {
    int expect = 0;
    return salvage_[r].compare_exchange_strong(expect, 1,
                                               std::memory_order_acq_rel);
  }
  void finish_salvage(int r) {
    salvage_[r].store(2, std::memory_order_release);
    recoveries_.fetch_add(1, std::memory_order_acq_rel);
  }
  bool salvage_done(int r) const {
    return salvage_[r].load(std::memory_order_acquire) == 2;
  }
  /// Raw salvage word of rank `r` (0 untouched, 1 claimed, 2 finished) —
  /// read by the membership-safety oracle to catch salvage of a live rank
  /// and salvage left mid-flight at termination.
  int salvage_state(int r) const {
    return salvage_[r].load(std::memory_order_acquire);
  }

  /// Monotonic count of completed recovery actions (salvages + replays);
  /// the token-ring leader snapshots it to invalidate rounds that raced
  /// with a recovery.
  std::uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_acquire);
  }
  void note_replay() { recoveries_.fetch_add(1, std::memory_order_acq_rel); }

  /// Any record still pending whose thief `viewer` sees as dead? While one
  /// exists, termination must wait: its nodes are reachable only through a
  /// replay.
  bool orphan_pending(pgas::Ctx& viewer) const;

  /// Records currently pending, by a raw scan that charges no Ctx time —
  /// the recovery_backlog gauge.
  std::int64_t backlog() const;

  // ---- failure-aware barrier bookkeeping (UPC family) ----

  /// in_barrier[r] mirrors whether rank r's +1 is currently included in the
  /// termination-barrier count. Maintained crash-atomically (flag and
  /// counter mutate with no interaction point between), so survivors can
  /// tell a dead rank's ghost entry from a dead rank that never entered.
  std::atomic<int>& in_barrier(int r) { return in_barrier_[r]; }

 private:
  int n_;
  std::size_t nb_;
  std::vector<TransferRec> recs_;
  std::vector<std::atomic<int>> salvage_;
  std::vector<std::atomic<int>> in_barrier_;
  std::atomic<std::uint64_t> recoveries_{0};
};

}  // namespace upcws::ws
