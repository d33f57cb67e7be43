// Per-thread instrumentation mirroring the paper's thread state machine
// (Figure 1): Working, Work Discovery (searching), Work Stealing, and
// Termination Detection. The §6.2 analysis — "93% efficiency of threads in
// the working state" — is exactly a time-in-state breakdown, so every
// algorithm drives a StateTimer and a counter block, and RunStats aggregates
// them into the numbers the paper reports (nodes/s, speedup, efficiency,
// steals/s).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "stats/histogram.hpp"

namespace upcws::stats {

enum class State : int {
  kWorking = 0,     ///< popping/expanding nodes from the local stack
  kSearching = 1,   ///< probing other threads for available work
  kStealing = 2,    ///< executing a steal (reserve + transfer)
  kTermination = 3, ///< in the termination-detection barrier
  kCount = 4,
};

const char* state_name(State s);

/// Counters one thread accumulates during a search.
struct Counters {
  std::uint64_t nodes = 0;            ///< tree nodes visited
  std::uint64_t leaves = 0;           ///< childless nodes visited
  std::uint64_t releases = 0;         ///< local->shared chunk moves
  std::uint64_t reacquires = 0;       ///< shared->local chunk moves
  std::uint64_t probes = 0;           ///< work_avail examinations of victims
  std::uint64_t steal_attempts = 0;   ///< steal operations started
  std::uint64_t steals = 0;           ///< steal operations that got work
  std::uint64_t failed_steals = 0;    ///< attempts that found nothing
  std::uint64_t chunks_stolen = 0;    ///< chunks received by this thief
  std::uint64_t nodes_stolen = 0;     ///< nodes received by this thief
  std::uint64_t requests_serviced = 0;///< steal requests this victim granted
  std::uint64_t requests_denied = 0;  ///< steal requests this victim refused
  std::uint64_t barrier_entries = 0;  ///< entries into the termination barrier
  int max_depth = 0;                  ///< deepest node seen
  /// Always 0: names the bytes after max_depth so that Counters has no
  /// padding. Runs are compared bytewise, and a rank's counters are built
  /// on its fiber stack, which is not zero-filled.
  std::int32_t pad0 = 0;
  std::uint64_t max_stack = 0;        ///< peak DFS stack occupancy (nodes)

  // --- cooperative deadline cancellation (0 unless cancel_at_ns fired) ----
  std::uint64_t spawned = 0;    ///< children actually pushed by expand()
  std::uint64_t reclaimed = 0;  ///< unvisited nodes discarded after cancel
  std::uint64_t cancels = 0;    ///< this rank observed its deadline (0 or 1)

  // --- hardened-protocol recovery actions (0 unless WsConfig::hardened) ---
  std::uint64_t steal_timeouts = 0;   ///< distmem: steal requests withdrawn
  std::uint64_t retransmits = 0;      ///< mpi-ws: requests/replies/tokens resent
  std::uint64_t dups_suppressed = 0;  ///< mpi-ws: duplicate messages discarded

  // --- injected-fault tallies (copied from this rank's FaultInjector) -----
  std::uint64_t faults_stalls = 0;      ///< rank stalls injected
  std::uint64_t faults_stall_ns = 0;    ///< total injected stall time
  std::uint64_t faults_spikes = 0;      ///< latency spikes injected
  std::uint64_t faults_dropped = 0;     ///< messages silently dropped
  std::uint64_t faults_duplicated = 0;  ///< messages duplicated

  // --- elastic membership + partitions (0 unless the plan uses them) ------
  std::uint64_t faults_drains = 0;          ///< this rank drained out (0 or 1)
  std::uint64_t faults_joins = 0;           ///< this rank joined mid-run (0/1)
  std::uint64_t faults_partition_delays = 0;///< ops delayed by a partition
  std::uint64_t faults_partition_delay_ns = 0; ///< total partition delay

  // --- crash-fault tolerance (0 unless the plan injects crashes) ----------
  std::uint64_t faults_crashes = 0;   ///< this rank fail-stopped (0 or 1)
  std::uint64_t locks_revoked = 0;    ///< dead holders' leases this rank broke
  std::uint64_t stale_unlocks = 0;    ///< unlocks rejected from revoked epochs
  std::uint64_t salvages = 0;         ///< dead-rank stacks this rank salvaged
  std::uint64_t replays = 0;          ///< orphaned transfer records replayed
  std::uint64_t recovered_nodes = 0;  ///< nodes reintroduced by this rank
  std::uint64_t dedup_drops = 0;      ///< always 0 (recovery keeps every
                                      ///< node); retained for stat-format
                                      ///< stability

  friend bool operator==(const Counters&, const Counters&) = default;
};
static_assert(std::has_unique_object_representations_v<Counters>,
              "Counters must have no padding bytes (see pad0)");

/// Tracks which Figure-1 state a thread is in and accumulates ns per state.
class StateTimer {
 public:
  /// Begin timing in `s` at time `now_ns`.
  void start(State s, std::uint64_t now_ns) {
    cur_ = s;
    last_ns_ = now_ns;
  }

  /// Switch to state `s` at `now_ns`, crediting the elapsed interval to the
  /// previous state. No-op if already in `s`.
  void transition(State s, std::uint64_t now_ns) {
    if (s == cur_) return;
    acc_[static_cast<int>(cur_)] += now_ns - last_ns_;
    cur_ = s;
    last_ns_ = now_ns;
  }

  /// Close out timing at `now_ns` (credits the final interval).
  void stop(std::uint64_t now_ns) {
    acc_[static_cast<int>(cur_)] += now_ns - last_ns_;
    last_ns_ = now_ns;
  }

  State current() const { return cur_; }
  std::uint64_t ns_in(State s) const { return acc_[static_cast<int>(s)]; }
  std::uint64_t total_ns() const {
    std::uint64_t t = 0;
    for (auto v : acc_) t += v;
    return t;
  }

 private:
  State cur_ = State::kWorking;
  std::uint64_t last_ns_ = 0;
  std::array<std::uint64_t, static_cast<int>(State::kCount)> acc_{};
};

/// A change in a rank's "work source" status (paper §3.3.2): +1 when the
/// rank's shared region became non-empty (it can now be stolen from),
/// -1 when it emptied. Timestamps are Ctx time (virtual ns under the
/// simulator).
struct SourceEvent {
  std::uint64_t t_ns;
  int delta;  // +1 or -1
};

/// Everything one thread reports at the end of a run.
struct ThreadStats {
  Counters c;
  StateTimer timer;
  std::vector<SourceEvent> source_events;
  /// Distribution of nodes received per successful steal/transfer.
  LogHistogram steal_sizes;
};

/// Merge per-thread source events into a step series of the number of
/// concurrently available work sources over time, bucketed to `buckets`
/// equal time slices over [0, horizon_ns]. Returns the per-bucket *maximum*
/// source count (max is more informative than mean for diffusion bursts).
std::vector<int> work_source_timeline(
    const std::vector<ThreadStats>& per_thread, std::uint64_t horizon_ns,
    int buckets);

/// Whole-run aggregate, in the units the paper reports.
struct RunStats {
  int nranks = 0;
  std::uint64_t total_nodes = 0;
  std::uint64_t total_leaves = 0;
  std::uint64_t total_steals = 0;
  std::uint64_t total_probes = 0;
  std::uint64_t total_releases = 0;
  std::uint64_t total_failed_steals = 0;
  /// Deadline-cancellation totals (all 0 when cancel_at_ns is unset).
  std::uint64_t total_spawned = 0;
  std::uint64_t total_reclaimed = 0;
  std::uint64_t total_cancels = 0;
  /// Hardened-protocol recovery + injected-fault totals (all 0 for a clean
  /// unhardened run; see Counters).
  std::uint64_t total_steal_timeouts = 0;
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_dups_suppressed = 0;
  std::uint64_t total_faults_stalls = 0;
  std::uint64_t total_faults_stall_ns = 0;
  std::uint64_t total_faults_spikes = 0;
  std::uint64_t total_faults_dropped = 0;
  std::uint64_t total_faults_duplicated = 0;
  /// Elastic-membership + partition totals (all 0 when the plan has none).
  std::uint64_t total_faults_drains = 0;
  std::uint64_t total_faults_joins = 0;
  std::uint64_t total_partition_delays = 0;
  std::uint64_t total_partition_delay_ns = 0;
  /// Crash-fault tolerance totals (all 0 for a crash-free run).
  std::uint64_t total_crashes = 0;
  std::uint64_t total_locks_revoked = 0;
  std::uint64_t total_stale_unlocks = 0;
  std::uint64_t total_salvages = 0;
  std::uint64_t total_replays = 0;
  std::uint64_t total_recovered_nodes = 0;
  std::uint64_t total_dedup_drops = 0;
  int max_depth = 0;
  double elapsed_s = 0.0;

  double nodes_per_sec = 0.0;
  double steals_per_sec = 0.0;
  /// Speedup vs. an ideal single thread at `seq_nodes_per_sec`.
  double speedup = 0.0;
  /// speedup / nranks.
  double efficiency = 0.0;
  /// Fraction of total thread-time spent in each Figure-1 state.
  std::array<double, static_cast<int>(State::kCount)> state_frac{};
  /// §6.2 metric: working-state time / (nranks * elapsed).
  double working_frac = 0.0;

  /// Load-balance quality: coefficient of variation (stddev/mean) of
  /// per-rank visited-node counts. 0 = perfectly even.
  double nodes_cov = 0.0;
  /// max(per-rank nodes) / mean(per-rank nodes). 1 = perfectly even.
  double nodes_max_over_mean = 0.0;

  /// Merged distribution of nodes moved per successful steal.
  LogHistogram steal_sizes;

  std::string summary() const;
};

/// Aggregate per-thread stats. `seq_nodes_per_sec` is the sequential
/// baseline rate used for speedup (for sim runs: 1e9 / work_ns_per_node).
RunStats aggregate(const std::vector<ThreadStats>& per_thread,
                   double elapsed_s, double seq_nodes_per_sec);

}  // namespace upcws::stats
