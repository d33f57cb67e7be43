// Host-time ledger for the traced benchmark run, taken entirely at the
// program's public interfaces: a decorating ws::Problem / ws::NodeSink pair
// stamps node expansion and StealStack pushes, and a pgas::ObsSink passed
// through RunConfig::obs stamps every engine interaction point (on_tick,
// just before the fiber yields to the scheduler).
//
// On each host thread every stamp closes the interval since that thread's
// previous stamp and charges it to the layer the interval lies in:
//   expand-enter .. push-enter, push-exit .. expand-exit  -> uts
//   push-enter .. push-exit                               -> ws.push_n
//   on_tick .. next stamp                                 -> sim.dispatch
//   everything else (protocol code between stamps)        -> ws.residual
// Time on a stamping thread before its first stamp is residual, so the
// layers of each thread sum to the search's wall time by construction.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pgas/engine.hpp"
#include "ws/problem.hpp"

namespace perfbench {

enum Layer : int { kUts, kPushN, kDispatch, kResidual, kLayerCount };

inline constexpr int kOpKinds = 6;  // pgas::ObsSink::OpKind members

/// Everything one host thread recorded. Mergeable across threads and
/// searches with +=.
struct LedgerTotals {
  std::array<std::uint64_t, kLayerCount> ns{};
  std::uint64_t threads = 0;       ///< host threads that stamped
  std::uint64_t thread_wall_ns = 0;  ///< per-thread search wall, summed
  std::uint64_t expand_calls = 0;
  std::uint64_t children = 0;
  std::uint64_t push_calls = 0;
  std::uint64_t ticks = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_wait_vt_ns = 0;
  std::array<std::uint64_t, kOpKinds> remote{};

  // psim window telemetry (zero on the sequential engines).
  std::uint64_t windows = 0;
  std::uint64_t min_shard_switches = 0;
  std::uint64_t max_shard_switches = 0;
  std::vector<std::uint64_t> window_wall_ns;  ///< host time per window
  std::uint64_t fallbacks = 0;

  LedgerTotals& operator+=(const LedgerTotals& o);
  std::uint64_t layer_sum() const;
};

/// One traced search's ledger. Create one per run_search call; bracket the
/// call with begin()/end() on the calling thread.
class Ledger final : public upcws::pgas::ObsSink {
 public:
  Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  void begin();
  void end();

  /// Close the calling thread's open interval and open one in `next`.
  LedgerTotals& stamp(Layer next);

  /// Totals over every thread that stamped; valid after end().
  LedgerTotals totals() const;

  void on_tick(int rank, std::uint64_t now_ns) override;
  void on_lock_wait(int rank, std::uint64_t now_ns,
                    std::uint64_t wait_ns) override;
  void on_stall(int rank, std::uint64_t t_ns, std::uint64_t stall_ns) override;
  void on_remote_op(int rank, int owner, OpKind kind,
                    std::uint64_t now_ns) override;
  void on_psim_window(const PsimWindow& w) override;
  void on_psim_fallback(const char* reason) override;

 private:
  struct Thread {
    LedgerTotals t;
    std::uint64_t last_ns = 0;
    int cur = kResidual;
  };
  Thread& local();

  const std::uint64_t id_;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::mutex mu_;  // guards threads_ (registration only)
  std::vector<std::unique_ptr<Thread>> threads_;
  // Written only from psim's single-threaded barrier completion.
  LedgerTotals windows_;
  std::uint64_t last_window_ns_ = 0;
};

/// Decorates a Problem so every expand() and every push into the engine's
/// sink is stamped on `ledger`.
class LedgerProblem final : public upcws::ws::Problem {
 public:
  LedgerProblem(const upcws::ws::Problem& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  std::size_t node_bytes() const override { return inner_.node_bytes(); }
  void root(std::byte* out) const override { inner_.root(out); }
  int expand(const std::byte* node,
             upcws::ws::NodeSink& sink) const override;
  int depth(const std::byte* node) const override {
    return inner_.depth(node);
  }

 private:
  const upcws::ws::Problem& inner_;
  Ledger& ledger_;
};

}  // namespace perfbench
