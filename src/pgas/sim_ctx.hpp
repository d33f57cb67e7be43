// SimCtx: the virtual-clock rank context shared by SimEngine and PsimEngine.
//
// Internal to the engines. A SimCtx drives one fiber (local task `task`) of
// a sim::Scheduler on behalf of global rank `rank`; the two differ only
// under PsimEngine, whose shard schedulers number their tasks from 0. All
// clock, charge, yield, stall and lock behavior lives here once, so the
// sequential and the parallel engine produce the same clocks, RNG draws and
// interaction points by construction; PsimEngine adds only the cross-shard
// mediated_op override (src/psim/engine.cpp).
#pragma once

#include <cstdint>

#include "pgas/engine.hpp"
#include "sim/scheduler.hpp"

namespace upcws::pgas {

/// The sim::Scheduler settings a RunConfig asks for: the virtual-time guard
/// (0 = 10^13 ns), fiber stack size, progress watchdog and hang report, and
/// the schedule-exploration policy.
inline sim::Scheduler::Config scheduler_config(const RunConfig& cfg) {
  sim::Scheduler::Config s;
  s.vt_limit_ns =
      cfg.vt_limit_ns != 0 ? cfg.vt_limit_ns : 10'000'000'000'000ull;
  s.stack_bytes = cfg.fiber_stack_bytes;
  s.watchdog_ns = cfg.watchdog_ns;
  s.hang_report = cfg.hang_reporter;
  s.policy = cfg.schedule_policy;
  s.policy_window_ns = cfg.schedule_window_ns;
  return s;
}

class SimCtx : public Ctx {
 public:
  SimCtx(sim::Scheduler& sched, int task, int rank, int nranks,
         const NetModel& net, std::uint64_t seed, FaultInjector* faults,
         Liveness* live, std::uint64_t lease_ns, ObsSink* obs)
      : Ctx(rank, nranks, net, seed, faults, live, lease_ns, obs),
        sched_(sched),
        task_(task) {}

  std::uint64_t now_ns() override { return sched_.now(task_); }
  // The current slice began when the accumulated quantum was last reset:
  // everything charged since then belongs to the slice keyed at now - acc.
  std::uint64_t slice_now_ns() override { return sched_.now(task_) - acc_; }

  void charge(std::uint64_t ns) override {
    if (dead_) return;  // a crashed rank's clock is frozen at its death
    // Zero-latency local ops (the free/shared-memory cost models return 0
    // for local references) change neither the clock nor the accumulated
    // quantum; skip the whole interaction bookkeeping. Only sound without
    // a fault plan: maybe_crash() may owe a crash at this instant.
    if (ns == 0 && faults_ == nullptr) return;
    if (advance_quantum(ns)) sched_.yield();
  }

  void yield() override {
    if (dead_) return;
    maybe_crash();
    // A fault-plan stall lands at the interaction point — including inside
    // a critical section, which is exactly how a frozen lock holder is
    // modeled (the stalled rank's clock jumps; contenders spin behind it).
    maybe_stall();
    // Guarantee progress in virtual time on every interaction so that spin
    // loops cannot livelock the scheduler at a frozen clock.
    sched_.advance(net().poll_ns > 0 ? net().poll_ns : 1);
    acc_ = 0;
    if (obs_ != nullptr) obs_->on_tick(rank(), now_ns());
    sched_.yield();
  }

  void lock(Lock& l) override {
    // One reference to reach the lock word; further spins each pay a
    // reference too (remote spinning is exactly what makes contended remote
    // locks so costly in UPC, paper §3.1/§3.3.3).
    charge_ref(l.owner);
    // Cooperative fibers: no preemption between the check and the store, so
    // compare_exchange never spuriously races here — the spin models time,
    // not memory contention. Under crash injection the acquire attempt also
    // revokes a dead holder's expired lease, so a crashed lock holder stalls
    // contenders for at most detect latency + lease. Under PsimEngine the
    // lock word is accessed raw, which is only safe within one shard: the
    // locked protocols never promise mediation, so they take its serial
    // lane.
    if (lock_word_acquire(l)) return;
    const std::uint64_t wait_from = now_ns();
    do {
      sched_.yield();
      charge_ref(l.owner);
    } while (!lock_word_acquire(l));
    if (obs_ != nullptr) {
      const std::uint64_t now = now_ns();
      obs_->on_lock_wait(rank(), now, now - wait_from);
    }
  }

 protected:
  void note_progress() override { sched_.note_progress(); }

  /// Advance the clock by `ns` (after the crash check) and add it to the
  /// accumulated quantum. Causality bound: a fiber that charges a lot of
  /// virtual time without reaching an explicit interaction point must not
  /// keep executing (its stores would become visible to fibers far behind
  /// it in virtual time). So once a quantum accumulates, this ends it —
  /// reset, due stall, telemetry tick — and returns true: the caller then
  /// owes the scheduler a step (charge() yields; PsimEngine's cross-shard
  /// mediated_op parks instead).
  bool advance_quantum(std::uint64_t ns) {
    maybe_crash();
    sched_.advance(ns);
    acc_ += ns;
    if (acc_ < kChargeQuantumNs) return false;
    acc_ = 0;
    maybe_stall();
    if (obs_ != nullptr) obs_->on_tick(rank(), now_ns());
    return true;
  }

  sim::Scheduler& sched_;
  const int task_;

 private:
  void maybe_stall() {
    if (faults_ == nullptr) return;
    const std::uint64_t t = now_ns();
    const std::uint64_t s = faults_->stall_due(t);
    if (s > 0) {
      sched_.advance(s);
      if (obs_ != nullptr) obs_->on_stall(rank(), t, s);
    }
  }

  std::uint64_t acc_ = 0;
};

}  // namespace upcws::pgas
