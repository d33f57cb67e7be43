#include "ws/driver.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "mp/comm.hpp"
#include "obs/observer.hpp"
#include "trace/trace.hpp"
#include "ws/algo_mpi.hpp"
#include "ws/algo_push.hpp"
#include "ws/algo_upc.hpp"
#include "ws/recorder.hpp"
#include "ws/recovery.hpp"
#include "ws/shared_state.hpp"

namespace upcws::ws {

namespace {

/// Per-rank liveness view for hang reports: who is dead, since when, and
/// what detection latency viewers apply.
std::string liveness_report(const pgas::Liveness* lv) {
  if (lv == nullptr) return {};
  std::ostringstream os;
  os << "liveness board (detect_ns=" << lv->detect_ns() << "):\n  ";
  for (int r = 0; r < lv->nranks(); ++r) {
    const std::uint64_t d = lv->death_ns(r);
    os << "r" << r << "=";
    if (d == pgas::Liveness::kAlive)
      os << "alive ";
    else
      os << "dead@" << d << " ";
  }
  os << "\n";
  return os.str();
}

/// Tail of the trace, newest last, for hang reports.
std::string trace_tail(const trace::Trace* tr, std::size_t n) {
  if (tr == nullptr) return {};
  std::ostringstream os;
  const std::vector<trace::Event> all = tr->merged();
  const std::size_t begin = all.size() > n ? all.size() - n : 0;
  os << "last " << (all.size() - begin) << " trace events:\n";
  for (std::size_t i = begin; i < all.size(); ++i)
    os << "  t=" << all[i].t_ns << " rank=" << all[i].rank << " "
       << trace::kind_name(all[i].kind) << " arg0=" << all[i].arg0
       << " arg1=" << all[i].arg1 << "\n";
  return os.str();
}

}  // namespace

SearchResult run_search(pgas::Engine& engine, const pgas::RunConfig& rcfg,
                        const Problem& prob, const WsConfig& cfg,
                        double seq_nodes_per_sec) {
  cfg.validate();
  if (rcfg.nranks < 1) throw std::invalid_argument("nranks < 1");

  SearchResult result;
  result.per_thread.resize(rcfg.nranks);
  std::vector<stats::ThreadStats>& per_thread = result.per_thread;
  pgas::RunConfig rc = rcfg;  // may gain a default hang reporter below

  if (cfg.trace != nullptr && cfg.trace_cap > 0)
    cfg.trace->set_ring_capacity(cfg.trace_cap);
  if (cfg.obs != nullptr) {
    cfg.obs->start_run(rcfg.nranks, cfg.obs_sample_ns);
    rc.obs = cfg.obs;  // engines call the sampler / lock-wait / stall hooks
  }

  // Crash-mode plumbing. The liveness board is created here (not inside the
  // engine) so hang reporters and post-run code can read it; the recovery
  // board journals in-flight transfers and exposes dead ranks' stacks as a
  // resilient store the survivors can salvage.
  std::optional<pgas::Liveness> live_store;
  std::optional<RecoveryBoard> board_store;
  RecoveryBoard* board = nullptr;
  if (rc.faults.crashes_enabled() || rc.faults.membership_enabled()) {
    if (rc.liveness == nullptr) {
      live_store.emplace(rcfg.nranks, rc.faults.crash_detect_ns);
      rc.liveness = &*live_store;
    }
    board_store.emplace(rcfg.nranks, prob.node_bytes());
    board = &*board_store;
  }
  const pgas::Liveness* live_view = rc.liveness;

  // Mediation promise for the parallel PDES engine (src/psim): these
  // protocols perform every cross-rank access through the mediated Ctx
  // surface (get/put/add/cas/bulk) or mp::Comm — the token-ring family
  // (mpi-ws, work-push) and the lock-less request/response family with
  // probe-barrier termination. The locked family reads victim stacks raw
  // under the stack lock, and cancelable-barrier termination predates the
  // audit; both stay on the sequential lane.
  rc.remote_ops_mediated =
      cfg.termination == Termination::kToken ||
      (cfg.protocol == StackProtocol::kRequestResponse &&
       cfg.termination == Termination::kProbeBarrier);

  if (cfg.termination == Termination::kToken) {
    mp::Comm comm(rcfg.nranks);
    // mpi-ws keeps a purely local stack per rank.
    std::vector<StealStack> stacks(rcfg.nranks);
    for (int r = 0; r < rcfg.nranks; ++r)
      stacks[r].init(prob.node_bytes(), r);
    if (board != nullptr) {
      board->stacks = &stacks;
      board->bug_weak_claim = cfg.bug_weak_claim;
    }
    if (cfg.check_attach) cfg.check_attach(nullptr, board);
    if (rc.watchdog_ns > 0 && !rc.hang_reporter)
      rc.hang_reporter = [&comm, tr = cfg.trace, live_view] {
        return liveness_report(live_view) + comm.debug_report() +
               trace_tail(tr, 24);
      };
    result.run = engine.run(rc, [&](pgas::Ctx& ctx) {
      per_thread[ctx.rank()] =
          cfg.push_based
              ? run_push_rank(ctx, comm, stacks[ctx.rank()], prob, cfg)
              : run_mpi_rank(ctx, comm, stacks[ctx.rank()], prob, cfg,
                             board);
    });
    if (cfg.check_detach) cfg.check_detach();
  } else {
    SharedState g(rcfg.nranks, prob.node_bytes());
    g.recovery = board;
    if (board != nullptr) {
      board->stacks = &g.stacks;
      board->bug_weak_claim = cfg.bug_weak_claim;
    }
    if (cfg.check_attach) cfg.check_attach(&g, board);
    if (cfg.termination == Termination::kProbeBarrier) {
      // Ranks without work advertise "no work at all" from the start so the
      // streamlined termination probe sees a consistent encoding.
      for (int r = 1; r < rcfg.nranks; ++r)
        g.stacks[r].work_avail().store(kNoWorkAtAll,
                                       std::memory_order_relaxed);
    }
    if (rc.watchdog_ns > 0 && !rc.hang_reporter)
      rc.hang_reporter = [&g, nr = rcfg.nranks, tr = cfg.trace, live_view] {
        // Fibers are parked when this runs, so plain relaxed reads give a
        // consistent picture of the stuck protocol.
        std::ostringstream os;
        os << liveness_report(live_view);
        os << "shared-state snapshot:\n";
        for (int r = 0; r < nr; ++r) {
          StealStack& ss = g.stacks[r];
          os << "  rank " << r << ": work_avail="
             << ss.work_avail().load(std::memory_order_relaxed)
             << " lock_holder=" << ss.lock().holder()
             << " lock_epoch=" << ss.lock().epoch()
             << " lease_expiry="
             << ss.lock().lease_expiry_ns.load(std::memory_order_relaxed)
             << " steal_request="
             << g.slots[r].steal_request.load(std::memory_order_relaxed)
             << " resp_amount="
             << g.slots[r].resp_amount.load(std::memory_order_relaxed)
             << " term_flag="
             << g.slots[r].term_flag.load(std::memory_order_relaxed)
             << " park=" << g.slots[r].park.load(std::memory_order_relaxed)
             << " distress="
             << g.slots[r].distress.load(std::memory_order_relaxed) << "\n";
        }
        os << "  cb_lock_holder=" << g.cb_lock.holder()
           << " cb_lock_epoch=" << g.cb_lock.epoch()
           << " cb_count=" << g.cb_count.load(std::memory_order_relaxed)
           << " cb_cancel=" << g.cb_cancel.load(std::memory_order_relaxed)
           << " cb_done=" << g.cb_done.load(std::memory_order_relaxed)
           << " bar_count=" << g.bar_count.load(std::memory_order_relaxed)
           << " term_root=" << g.term_root.load(std::memory_order_relaxed)
           << "\n";
        os << trace_tail(tr, 24);
        return os.str();
      };
    result.run = engine.run(rc, [&](pgas::Ctx& ctx) {
      per_thread[ctx.rank()] = run_upc_rank(ctx, g, prob, cfg);
    });
    if (cfg.check_detach) cfg.check_detach();
  }

  const double seq_rate =
      seq_nodes_per_sec > 0.0
          ? seq_nodes_per_sec
          : 1e9 / static_cast<double>(rcfg.net.work_ns_per_node);
  result.agg = stats::aggregate(per_thread, result.run.elapsed_s, seq_rate);
  return result;
}

namespace {

/// Plain per-rank DFS over an explicit stack, no balancing.
class StaticRank final : public NodeSink {
 public:
  StaticRank(pgas::Ctx& ctx, const Problem& prob)
      : ctx_(ctx), prob_(prob), rec_(ctx, st_, kUnobserved) {
    stack_.init(prob.node_bytes(), ctx.rank());
    nodebuf_.resize(prob.node_bytes());
  }

  stats::ThreadStats run() {
    rec_.start();
    // Expand the root on every rank (cheap, once), keep our share of its
    // children. The root itself is credited to rank 0.
    std::vector<std::byte> root(prob_.node_bytes());
    prob_.root(root.data());
    keep_modulo_ = true;
    child_idx_ = 0;
    prob_.expand(root.data(), *this);
    keep_modulo_ = false;
    if (ctx_.rank() == 0) {
      ctx_.charge_node_work();
      ++st_.c.nodes;
    }
    while (stack_.pop(nodebuf_.data())) {
      ctx_.charge_node_work();
      ++st_.c.nodes;
      st_.c.max_depth =
          std::max(st_.c.max_depth, prob_.depth(nodebuf_.data()));
      if (prob_.expand(nodebuf_.data(), *this) == 0) ++st_.c.leaves;
      st_.c.max_stack =
          std::max<std::uint64_t>(st_.c.max_stack, stack_.depth());
      ctx_.yield();
    }
    rec_.finish();
    return st_;
  }

  void push(const std::byte* node) override {
    if (keep_modulo_ &&
        (child_idx_++ % ctx_.nranks()) != ctx_.rank())
      return;  // someone else's share of the root fan-out
    stack_.push(node);
  }

 private:
  /// No trace, no observer: the static baseline records stats only.
  static inline const WsConfig kUnobserved{};

  pgas::Ctx& ctx_;
  const Problem& prob_;
  StealStack stack_;
  stats::ThreadStats st_;
  Recorder rec_;
  std::vector<std::byte> nodebuf_;
  bool keep_modulo_ = false;
  int child_idx_ = 0;
};

}  // namespace

SearchResult run_static_partition(pgas::Engine& engine,
                                  const pgas::RunConfig& rcfg,
                                  const Problem& prob,
                                  double seq_nodes_per_sec) {
  if (rcfg.nranks < 1) throw std::invalid_argument("nranks < 1");
  SearchResult result;
  result.per_thread.resize(rcfg.nranks);
  std::vector<stats::ThreadStats>& per_thread = result.per_thread;
  result.run = engine.run(rcfg, [&](pgas::Ctx& ctx) {
    StaticRank r(ctx, prob);
    per_thread[ctx.rank()] = r.run();
  });
  const double seq_rate =
      seq_nodes_per_sec > 0.0
          ? seq_nodes_per_sec
          : 1e9 / static_cast<double>(rcfg.net.work_ns_per_node);
  result.agg = stats::aggregate(per_thread, result.run.elapsed_s, seq_rate);
  return result;
}

SearchResult run_algo(pgas::Engine& engine, const pgas::RunConfig& rcfg,
                      Algo algo, const Problem& prob, int chunk_size,
                      double seq_nodes_per_sec) {
  return run_search(engine, rcfg, prob, WsConfig::for_algo(algo, chunk_size),
                    seq_nodes_per_sec);
}

}  // namespace upcws::ws
