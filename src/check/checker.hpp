// The schedule checker: drives full ws::driver runs under exploration
// policies, probes invariant oracles between fiber slices, shrinks failing
// decision trails by delta debugging, and reproduces violations from replay
// files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "pgas/faults.hpp"
#include "pgas/netmodel.hpp"
#include "sim/schedule_policy.hpp"
#include "uts/params.hpp"
#include "ws/config.hpp"

namespace upcws::check {

/// Everything that defines the system under test for one exploration: the
/// problem, the protocol configuration, and the fault plan. Serialized
/// verbatim into replay files, so a violation reproduces from the file
/// alone.
struct CheckSpec {
  ws::Algo algo = ws::Algo::kUpcDistMem;
  int nranks = 4;
  int chunk = 2;
  /// Net profile name: "shared", "dist", or "smp<tpn>" (hierarchical).
  std::string net = "dist";
  uts::Params tree = uts::test_small(0);
  std::uint64_t run_seed = 1;
  std::uint64_t steal_timeout_ns = 30'000;
  /// Progress watchdog (virtual ns): converts livelocks the explorer steers
  /// into to diagnosable "hang" violations instead of vt-limit aborts.
  std::uint64_t watchdog_ns = 200'000'000;
  std::uint64_t vt_limit_ns = 0;
  std::vector<pgas::CrashSpec> crashes;
  std::uint64_t crash_detect_ns = 5'000;
  /// Transient faults, threaded verbatim into the run's FaultPlan (all off
  /// by default; replay files record them only when non-default).
  std::uint64_t stall_ns = 0;
  std::uint64_t stall_period_ns = 0;
  int stall_rank = -1;
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  /// Elastic membership: graceful leaves, mid-run joins, and correlated
  /// network partitions (see pgas/faults.hpp).
  std::vector<pgas::DrainSpec> drains;
  std::vector<pgas::JoinSpec> joins;
  std::vector<pgas::PartitionSpec> partitions;
  /// Victim-selection knobs (lifeline/sampling variants; see config.hpp).
  /// Recorded in replay files only when non-default.
  double sample_frac = 0.5;
  double quantile = 0.8;
  int lifeline_dim = 0;
  /// Seeded-bug switch: weakened claim-CAS arbitration (see recovery.hpp).
  bool bug_weak_claim = false;
  /// Seeded-bug switch: a woken lifeline thief pulls without leaving the
  /// termination barrier first (see config.hpp bug_drop_distress).
  bool bug_drop_distress = false;

  /// The run's FaultPlan: every fault field above, verbatim.
  pgas::FaultPlan fault_plan() const;
};

enum class Strategy { kRandom, kPct, kDfs };

struct CheckConfig {
  Strategy strategy = Strategy::kRandom;
  /// Number of schedules to explore (full driver runs).
  int budget = 50;
  /// Exploration seed (schedule seed; independent of CheckSpec::run_seed).
  std::uint64_t seed = 1;
  /// PCT preemption-point budget d.
  int pct_depth = 3;
  /// DFS: decision-prefix depth bound (branch only within the first N
  /// decisions).
  std::size_t dfs_depth = 24;
  /// Fairness window handed to the scheduler (sim::Scheduler::Config::
  /// policy_window_ns). Bounds how far a policy can starve a rank.
  std::uint64_t window_ns = 100'000;
  /// Shrink failing trails by delta debugging (extra runs, same spec).
  bool shrink = true;
  int shrink_budget = 200;
};

/// Outcome of driving one schedule through the full driver.
struct RunOutcome {
  bool completed = false;  ///< run_search returned (no violation/hang)
  bool violated = false;
  std::string oracle;   ///< violated oracle name; "hang" / "vt-limit" for
                        ///< scheduler aborts
  std::string message;
  std::uint64_t nodes = 0;
  double elapsed_s = 0.0;
  std::uint64_t switches = 0;
  std::vector<sim::Decision> trail;    ///< recorded decisions
  std::vector<std::uint16_t> choices;  ///< trail projected to choice indices
};

/// A confirmed violation with its schedules.
struct Violation {
  std::string oracle;
  std::string message;
  std::vector<std::uint16_t> trail;     ///< minimal (post-shrink) choices
  std::vector<std::uint16_t> original;  ///< choices of the finding run
  int schedule_index = -1;              ///< which explored schedule found it
};

struct CheckResult {
  bool found = false;
  Violation violation;
  int schedules_run = 0;
  int shrink_runs = 0;
  std::uint64_t distinct_states = 0;  ///< DFS: distinct schedule hashes
};

/// Sequential-reference node count for the spec's tree (the exactly-once
/// oracle's expectation). Throws if the tree exceeds the safety budget.
std::uint64_t expected_nodes(const CheckSpec& spec);

/// Drive one run of the spec under `policy` (null = default order, still
/// recorded), probing `oracles` (may be null) at every scheduling step.
/// Never throws on violations — they are folded into the outcome. `tr`, if
/// non-null, receives the run's trace (e.g. to render a violation window).
RunOutcome run_schedule(const CheckSpec& spec, sim::SchedulePolicy* policy,
                        std::uint64_t window_ns,
                        const std::vector<std::unique_ptr<Oracle>>* oracles,
                        trace::Trace* tr = nullptr);

/// Explore the spec's schedule space per `cfg`; on the first violation,
/// shrink its trail (if cfg.shrink) and return.
CheckResult check(const CheckSpec& spec, const CheckConfig& cfg);

/// Delta-debug a failing choice trail down to a 1-minimal set of
/// non-default decisions that still violates `oracle`. Returns the minimal
/// trail (trailing default choices trimmed); `runs` accumulates the number
/// of verification runs spent.
std::vector<std::uint16_t> shrink_trail(const CheckSpec& spec,
                                        std::uint64_t window_ns,
                                        const std::string& oracle,
                                        std::vector<std::uint16_t> choices,
                                        int budget, int* runs);

/// Parse helpers shared with the CLIs (throw std::invalid_argument).
ws::Algo algo_from_label(const std::string& s);
pgas::NetModel net_by_name(const std::string& s);

}  // namespace upcws::check
