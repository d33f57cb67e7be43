// uts_cli: a command-line UTS runner in the spirit of the original
// benchmark's driver — pick a tree, an algorithm, an engine, and a network
// model from the command line; get the paper's metrics back.
//
// Examples:
//   ./uts_cli                                   # defaults
//   ./uts_cli -t 1 -b 2000 -q 0.4995 -r 5 -n 32 -c 10 -A upc-distmem
//   ./uts_cli -A mpi-ws --net shmem -n 8 -v
//   ./uts_cli -e threads -n 4 --net free
//
// Flags:
//   -t 0|1        tree type: 0 geometric, 1 binomial (default 1)
//   -b B          root branching factor b0 (default 2000)
//   -q Q          binomial non-leaf probability (default 0.4995)
//   -m M          binomial non-leaf child count (default 2)
//   -g G          geometric depth horizon gen_mx (default 8)
//   -r R          root seed (default 5)
//   -A LABEL      upc-sharedmem|upc-term|upc-term-rapdif|upc-distmem|mpi-ws
//   -n N          ranks / simulated UPC threads (default 16)
//   -c K          chunk size (default 10)
//   -i I          poll interval in nodes (default 1)
//   --sample-frac F  sampling variant: fraction of the other ranks a thief
//                 probes per selection round, in (0,1] (default 0.5)
//   --quantile Q  sampling variant: load quantile of the sampled victims
//                 to steal from, in [0,1] (default 0.8)
//   --lifeline-dim D  lifeline variant: cap on hypercube lifeline
//                 dimensions (0 = all ceil(log2 n); default 0)
//   -e ENGINE     sim|psim|threads (default sim). psim is the parallel
//                 PDES engine: same virtual-time semantics and
//                 byte-identical output as sim, executed on multiple OS
//                 worker threads (docs/simulator.md)
//   --workers N   psim only: OS worker threads driving the shards
//                 (default: hardware concurrency; must be in
//                 [1, hardware concurrency])
//   --net NET     dist|shmem|hier:<tpn>|free (default dist)
//   -S SEED       run seed for probe order (default 1)
//   -v            per-rank statistics table
//   --trace FILE  write a Chrome/Perfetto trace of the run to FILE
//                 (open at https://ui.perfetto.dev); with telemetry on,
//                 completed steal spans are stitched in as flow events
//   --trace-csv FILE  write the raw event trace as CSV
//   --trace-cap N bound each rank's trace buffer to N events (ring:
//                 newest win; the overwrite count is reported)
//
// Run telemetry (see docs/observability.md):
//   --metrics FILE  sample every rank's metric registry on a virtual-time
//                 cadence and stream the time-series to FILE as JSONL;
//                 also prints ASCII sparklines of each metric
//   --report FILE   write the idle-time autopsy report (JSON) to FILE and
//                 print the per-rank cause table
//   --spans       print the steal-transaction span summary
//   --timeline FILE  standalone Perfetto export of the steal-transaction
//                 spans (one slice per steal on the thief's track, flow
//                 arrows for completed steals); requires --report
//   --psim-window-metrics  print the conservative-PDES window telemetry
//                 (windows, events, spans, shard imbalance, serial-lane
//                 fallback reason); requires -e psim
//   --obs-sample NS  telemetry sampling cadence in virtual ns
//                 (default 100000)
//   --csv         emit one machine-readable CSV result line (plus a header)
//                 instead of the human-readable summary
//   --replay FILE re-execute a schedule recorded by schedule_check (an
//                 `upcws-replay v1` file): the full configuration comes
//                 from the file, every other flag is ignored. Exit 0 iff
//                 the outcome matches the file's expectation.
//
// Fault injection / robustness (see docs/fault_injection.md):
//   --stall DUR[:PERIOD[:RANK]]  inject transient rank stalls: freeze for
//                 ~DUR ns roughly every PERIOD ns (default PERIOD=10*DUR),
//                 on RANK only (default: all ranks)
//   --drop-prob P   drop each mpi-ws message with probability P
//   --dup-prob P    duplicate each mpi-ws message with probability P
//   --steal-timeout NS  harden the steal protocols: thief timeout/retry
//                 (default when any fault is active: 10x remote latency)
//   --watchdog-ms M   abort with a structured hang report if no rank
//                 visits a node for M virtual milliseconds (sim engine)
//   --deadline-ns NS  cooperative deadline (also spelled --deadline): every
//                 rank cancels the search once its clock reaches NS. The
//                 run returns the partial count plus exact reclaimed-node
//                 accounting (nodes + reclaimed == 1 + spawned) instead of
//                 the sequential-match check
//   --crash R@NS[,R@NS...]  permanent fail-stop: rank R crashes at ~NS of
//                 its own virtual time. Survivors detect the death, revoke
//                 the dead rank's lock leases, salvage its stack, and replay
//                 orphaned in-flight transfers, so the traversal still
//                 visits every node exactly once (docs/fault_injection.md)
//   --crash-in-lock    make every --crash land while the rank holds a lock
//   --crash-mid-steal  make every --crash land inside a steal transfer
//   --crash-detect NS  failure-detection latency: survivors see a death
//                 only NS ns (of their own clock) after it happened
//
// Elastic membership / partitions (docs/fault_injection.md):
//   --drain R@NS[,R@NS...]  graceful leave: rank R drains at ~NS of its own
//                 virtual time — stops stealing at a safe point, hands its
//                 remaining chunks off through the recovery machinery, and
//                 exits the termination membership cleanly
//   --join R@NS[,R@NS...]   late join: rank R starts outside the membership
//                 and enters at ~NS (rank 0 seeds the root and cannot join)
//   --partition MASK:START:HEAL[,...]  correlated network partition: ranks
//                 with their bit set in MASK are cut off from the rest for
//                 virtual ns [START, HEAL); cross-cut traffic is delayed
//                 until the heal, never lost
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <fstream>
#include <memory>

#include "check/replay.hpp"
#include "cli_args.hpp"
#include "obs/autopsy.hpp"
#include "obs/observer.hpp"
#include "pgas/faults.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "psim/engine.hpp"
#include "sim/scheduler.hpp"
#include "stats/table.hpp"
#include "trace/trace.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

using namespace upcws;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "uts_cli: %s (see header comment for flags)\n",
               msg.c_str());
  std::exit(2);
}

ws::Algo parse_algo(const std::string& s) {
  for (ws::Algo a : ws::kAllAlgosExtended)
    if (s == ws::algo_label(a)) return a;
  usage("unknown algorithm label");
}

/// Run one call into the shared fault-plan codec; a malformed operand is a
/// usage error.
template <class F>
auto codec(F&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  uts::Params tree;
  tree.type = uts::TreeType::kBinomial;
  tree.b0 = 2000;
  tree.q = 0.4995;
  tree.m = 2;
  tree.gen_mx = 8;
  tree.root_seed = 5;

  ws::Algo algo = ws::Algo::kUpcDistMem;
  int nranks = 16;
  int chunk = 10;
  int poll = 1;
  double sample_frac = 0.5;
  double quantile = 0.8;
  int lifeline_dim = 0;
  bool verbose = false;
  bool csv = false;
  std::string engine_name = "sim";
  std::string net_name = "dist";
  int workers = 0;  // psim worker threads; 0 = hardware concurrency
  bool workers_set = false;
  std::string trace_json, trace_csv, replay_path;
  std::string metrics_path, report_path, timeline_path;
  bool spans = false;
  bool psim_window_metrics = false;
  std::uint64_t obs_sample_ns = 100'000;
  std::size_t trace_cap = 0;
  std::uint64_t run_seed = 1;
  pgas::FaultPlan faults;
  pgas::CrashSpec::Where crash_where = pgas::CrashSpec::Where::kAnywhere;
  std::uint64_t steal_timeout_ns = 0;
  bool steal_timeout_set = false;
  double watchdog_ms = 0.0;
  std::uint64_t deadline_ns = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "-t")
      tree.type = cli::parse_u64(next(), "-t", usage, 0, 1) == 0
                      ? uts::TreeType::kGeometric
                      : uts::TreeType::kBinomial;
    else if (a == "-b")
      tree.b0 = cli::parse_double(next(), "-b", usage, 0.0);
    else if (a == "-q")
      tree.q = cli::parse_double(next(), "-q", usage, 0.0, 1.0);
    else if (a == "-m")
      tree.m = cli::parse_int(next(), "-m", usage);
    else if (a == "-g")
      tree.gen_mx = cli::parse_int(next(), "-g", usage);
    else if (a == "-r")
      tree.root_seed = static_cast<std::uint32_t>(
          cli::parse_u64(next(), "-r", usage, 0, UINT32_MAX));
    else if (a == "-A")
      algo = parse_algo(next());
    else if (a == "-n")
      nranks = cli::parse_int(next(), "-n", usage, 1);
    else if (a == "-c")
      chunk = cli::parse_int(next(), "-c", usage, 1);
    else if (a == "-i")
      poll = cli::parse_int(next(), "-i", usage, 1);
    else if (a == "--sample-frac")
      sample_frac = cli::parse_double(next(), "--sample-frac", usage);
    else if (a == "--quantile")
      quantile = cli::parse_double(next(), "--quantile", usage);
    else if (a == "--lifeline-dim")
      lifeline_dim = cli::parse_int(next(), "--lifeline-dim", usage);
    else if (a == "-e")
      engine_name = next();
    else if (a == "--workers") {
      workers = cli::parse_int(next(), "--workers", usage);
      workers_set = true;
    }
    else if (a == "--net")
      net_name = next();
    else if (a == "-S")
      run_seed = cli::parse_u64(next(), "-S", usage);
    else if (a == "-v")
      verbose = true;
    else if (a == "--trace")
      trace_json = next();
    else if (a == "--trace-csv")
      trace_csv = next();
    else if (a == "--trace-cap")
      trace_cap = cli::parse_u64(next(), "--trace-cap", usage);
    else if (a == "--metrics")
      metrics_path = next();
    else if (a == "--report")
      report_path = next();
    else if (a == "--spans")
      spans = true;
    else if (a == "--timeline")
      timeline_path = next();
    else if (a == "--psim-window-metrics")
      psim_window_metrics = true;
    else if (a == "--obs-sample")
      obs_sample_ns = cli::parse_u64(next(), "--obs-sample", usage);
    else if (a == "--csv")
      csv = true;
    else if (a == "--replay")
      replay_path = next();
    else if (a == "--stall")
      codec([&] { pgas::parse_stall(next(), "--stall", faults); });
    else if (a == "--drop-prob")
      faults.drop_prob = cli::parse_double(next(), "--drop-prob", usage);
    else if (a == "--dup-prob")
      faults.dup_prob = cli::parse_double(next(), "--dup-prob", usage);
    else if (a == "--steal-timeout") {
      steal_timeout_ns = cli::parse_u64(next(), "--steal-timeout", usage);
      steal_timeout_set = true;
    }
    else if (a == "--watchdog-ms")
      watchdog_ms =
          cli::parse_double(next(), "--watchdog-ms", usage, 0.0, 1e13);
    else if (a == "--deadline-ns" || a == "--deadline")
      deadline_ns = cli::parse_u64(next(), "--deadline-ns", usage);
    else if (a == "--crash") {
      for (const pgas::RankAt& ra : codec([&] {
             return pgas::parse_rank_at_list(next(), "--crash");
           }))
        faults.crashes.push_back({ra.rank, ra.at_ns});
    } else if (a == "--crash-in-lock")
      crash_where = pgas::CrashSpec::Where::kInLock;
    else if (a == "--crash-mid-steal")
      crash_where = pgas::CrashSpec::Where::kMidSteal;
    else if (a == "--crash-detect")
      faults.crash_detect_ns = cli::parse_u64(next(), "--crash-detect", usage);
    else if (a == "--drain") {
      for (const pgas::RankAt& ra : codec([&] {
             return pgas::parse_rank_at_list(next(), "--drain");
           }))
        faults.drains.push_back({ra.rank, ra.at_ns});
    } else if (a == "--join") {
      for (const pgas::RankAt& ra : codec([&] {
             return pgas::parse_rank_at_list(next(), "--join");
           }))
        faults.joins.push_back({ra.rank, ra.at_ns});
    } else if (a == "--partition") {
      for (const pgas::PartitionSpec& ps : codec([&] {
             return pgas::parse_partition_list(next(), "--partition");
           }))
        faults.partitions.push_back(ps);
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }

  if (!replay_path.empty()) {
    try {
      const check::ReplayFile rf = check::load_replay(replay_path);
      std::printf("uts_cli: replaying %s  algo=%s ranks=%d chunk=%d "
                  "seed=%llu  %zu recorded decisions, expected outcome: %s\n",
                  replay_path.c_str(), ws::algo_label(rf.spec.algo),
                  rf.spec.nranks, rf.spec.chunk,
                  static_cast<unsigned long long>(rf.spec.run_seed),
                  rf.trail.size(), rf.oracle.c_str());
      const check::RunOutcome o = check::run_replay(rf);
      if (o.violated)
        std::printf("outcome: VIOLATION %s\n  %s\n", o.oracle.c_str(),
                    o.message.c_str());
      else
        std::printf("outcome: clean run, %llu nodes\n",
                    static_cast<unsigned long long>(o.nodes));
      const bool match = check::replay_matches(rf, o);
      std::printf("replay %s the recorded expectation\n",
                  match ? "MATCHES" : "DOES NOT MATCH");
      return match ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "uts_cli: %s\n", e.what());
      return 2;
    }
  }

  // Validate the fault plan against the run shape before any work happens:
  // a nonsensical plan dies with one clear line instead of hanging, crashing
  // deep in the runtime, or silently injecting nothing.
  auto fault_error = [](const std::string& msg) {
    std::fprintf(stderr, "uts_cli: %s\n", msg.c_str());
    std::exit(2);
  };
  if (workers_set) {
    const unsigned hc = std::thread::hardware_concurrency();
    const int max_workers = hc > 0 ? static_cast<int>(hc) : 1;
    if (workers < 1 || workers > max_workers)
      fault_error("--workers wants a thread count in [1," +
                  std::to_string(max_workers) + "] (hardware concurrency)");
  }
  if (!(sample_frac > 0.0) || sample_frac > 1.0)
    fault_error("--sample-frac wants a value in (0,1]");
  if (quantile < 0.0 || quantile > 1.0)
    fault_error("--quantile wants a value in [0,1]");
  if (!timeline_path.empty() && report_path.empty())
    fault_error("--timeline requires --report (the span log it exports is "
                "only assembled for reported runs)");
  if (psim_window_metrics && engine_name != "psim")
    fault_error("--psim-window-metrics requires -e psim (window telemetry "
                "only exists under the conservative-PDES engine)");
  try {
    pgas::validate_plan(faults, nranks);
  } catch (const std::invalid_argument& e) {
    fault_error(e.what());
  }

  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.seed = run_seed;
  if (net_name == "dist")
    rcfg.net = pgas::NetModel::distributed();
  else if (net_name == "shmem")
    rcfg.net = pgas::NetModel::shared_memory();
  else if (net_name == "free")
    rcfg.net = pgas::NetModel::free();
  else if (net_name.rfind("hier:", 0) == 0)
    rcfg.net = pgas::NetModel::hierarchical(
        cli::parse_int(net_name.c_str() + 5, "--net hier:", usage, 1));
  else
    usage("unknown --net");

  for (pgas::CrashSpec& c : faults.crashes) c.where = crash_where;
  rcfg.faults = faults;
  rcfg.watchdog_ns = static_cast<std::uint64_t>(watchdog_ms * 1e6);

  const ws::UtsProblem prob(tree);
  ws::WsConfig cfg = ws::WsConfig::for_algo(algo, chunk);
  cfg.poll_interval = poll;
  cfg.sample_frac = sample_frac;
  cfg.quantile = quantile;
  cfg.lifeline_dim = lifeline_dim;
  cfg.steal_timeout_ns = steal_timeout_ns;
  cfg.cancel_at_ns = deadline_ns;
  if (faults.any() && !steal_timeout_set) {
    // Faults without hardening can stall steals indefinitely (and drops
    // would hang mpi-ws outright); default to timeouts at 10x the remote
    // latency. Pass --steal-timeout 0 explicitly to study the failure.
    cfg.steal_timeout_ns = 10 * rcfg.net.remote_ref_ns;
    if (!csv)
      std::printf("fault plan active: steal timeout defaulted to %llu ns\n",
                  static_cast<unsigned long long>(cfg.steal_timeout_ns));
  }
  std::unique_ptr<trace::Trace> tr;
  if (!trace_json.empty() || !trace_csv.empty()) {
    tr = std::make_unique<trace::Trace>(nranks);
    cfg.trace = tr.get();
    cfg.trace_cap = trace_cap;
  }
  std::unique_ptr<obs::Observer> observer;
  if (!metrics_path.empty() || !report_path.empty() || spans ||
      psim_window_metrics) {
    observer = std::make_unique<obs::Observer>();
    cfg.obs = observer.get();
    cfg.obs_sample_ns = obs_sample_ns;
  }

  if (!csv)
    std::printf("uts_cli: %s  algo=%s ranks=%d chunk=%d engine=%s net=%s\n",
                tree.describe().c_str(), ws::algo_label(algo), nranks, chunk,
                engine_name.c_str(), net_name.c_str());
  // Always state the effective seeds (stderr, so --csv stays parseable): a
  // reported run is reproducible only with tree seed + run seed in hand.
  std::fprintf(stderr, "seeds: tree=%u run=%llu (repeat with -r %u -S %llu)\n",
               tree.root_seed, static_cast<unsigned long long>(run_seed),
               tree.root_seed, static_cast<unsigned long long>(run_seed));

  ws::SearchResult res;
  try {
    if (engine_name == "sim") {
      pgas::SimEngine eng;
      res = ws::run_search(eng, rcfg, prob, cfg);
    } else if (engine_name == "psim") {
      psim::PsimEngine eng(workers);
      res = ws::run_search(eng, rcfg, prob, cfg);
    } else if (engine_name == "threads") {
      pgas::ThreadEngine eng;
      res = ws::run_search(eng, rcfg, prob, cfg);
    } else {
      usage("unknown -e engine");
    }
  } catch (const sim::HangDetected& e) {
    std::fprintf(stderr, "uts_cli: HANG DETECTED\n%s\n", e.what());
    return 3;
  } catch (const sim::TimeLimitExceeded& e) {
    std::fprintf(stderr, "uts_cli: virtual time limit exceeded\n%s\n",
                 e.what());
    return 4;
  }

  if (tr) {
    if (!trace_json.empty()) {
      std::ofstream f(trace_json);
      if (observer) {
        // Stitch completed steal spans into the timeline as Perfetto flow
        // events (arrows from the thief's request to its absorb).
        tr->write_chrome_json(f, observer->spans().flow_events());
      } else {
        tr->write_chrome_json(f);
      }
      std::printf("wrote %zu trace events to %s (chrome://tracing)\n",
                  tr->total_events(), trace_json.c_str());
      if (tr->dropped_events() > 0)
        std::printf("trace ring overflow: %llu events dropped (oldest first; "
                    "raise --trace-cap)\n",
                    static_cast<unsigned long long>(tr->dropped_events()));
    }
    if (!trace_csv.empty()) {
      std::ofstream f(trace_csv);
      tr->write_csv(f);
      std::printf("wrote event CSV to %s\n", trace_csv.c_str());
    }
  }
  if (observer) {
    if (!metrics_path.empty()) {
      std::ofstream f(metrics_path);
      observer->write_metrics_jsonl(f);
      std::printf("wrote %zu metric samples to %s\n",
                  observer->samples().total_points(), metrics_path.c_str());
      const std::string charts = observer->sparklines();
      if (!charts.empty()) std::fputs(charts.c_str(), stdout);
    }
    if (spans) {
      const std::vector<obs::Span> sp = observer->spans().assemble();
      std::size_t completed = 0, denied = 0, abandoned = 0, incomplete = 0,
                  salvaged = 0, timeouts = 0;
      for (const obs::Span& s : sp) {
        switch (s.outcome) {
          case obs::Span::Outcome::kCompleted: ++completed; break;
          case obs::Span::Outcome::kDenied: ++denied; break;
          case obs::Span::Outcome::kAbandoned: ++abandoned; break;
          case obs::Span::Outcome::kIncomplete: ++incomplete; break;
        }
        if (s.salvaged) ++salvaged;
        timeouts += s.timeouts;
      }
      std::printf(
          "steal spans: %zu total  %zu completed  %zu denied  %zu abandoned  "
          "%zu incomplete  (%zu salvaged, %zu timeouts)\n",
          sp.size(), completed, denied, abandoned, incomplete, salvaged,
          timeouts);
    }
    if (!report_path.empty()) {
      const obs::RunReport report = obs::autopsy(*observer, tr.get());
      std::ofstream f(report_path);
      report.write_json(f);
      std::printf("%s", report.ascii_table().c_str());
      std::printf("wrote idle-time autopsy to %s\n", report_path.c_str());
    }
    if (!timeline_path.empty()) {
      std::ofstream f(timeline_path);
      observer->spans().write_chrome_json(f);
      std::printf("wrote steal-span timeline to %s (chrome://tracing)\n",
                  timeline_path.c_str());
    }
    if (psim_window_metrics) {
      const std::vector<pgas::ObsSink::PsimWindow>& wins =
          observer->psim_windows();
      std::uint64_t events = 0, imbalance = 0;
      for (const pgas::ObsSink::PsimWindow& w : wins) {
        events += w.events;
        imbalance = std::max(
            imbalance, w.max_shard_switches - w.min_shard_switches);
      }
      std::printf("psim windows: %zu  events %llu  max shard imbalance %llu "
                  "switches/window\n",
                  wins.size(), static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(imbalance));
      for (const auto& [reason, count] : observer->psim_fallbacks())
        std::printf("psim fallback: serial lane (%s) x%llu\n", reason.c_str(),
                    static_cast<unsigned long long>(count));
    }
  }
  if (csv) {
    std::printf(
        "algo,ranks,chunk,net,tree,nodes,elapsed_s,mnodes_per_s,speedup,"
        "efficiency,steals,steals_per_s,working_frac\n");
    std::printf("%s,%d,%d,%s,\"%s\",%llu,%.9f,%.4f,%.4f,%.4f,%llu,%.1f,%.4f\n",
                ws::algo_label(algo), nranks, chunk, net_name.c_str(),
                tree.describe().c_str(),
                static_cast<unsigned long long>(res.agg.total_nodes),
                res.agg.elapsed_s, res.agg.nodes_per_sec / 1e6,
                res.agg.speedup, res.agg.efficiency,
                static_cast<unsigned long long>(res.agg.total_steals),
                res.agg.steals_per_sec, res.agg.working_frac);
  } else {
    std::printf("result: %s\n", res.agg.summary().c_str());
    std::printf("states: working %.1f%% searching %.1f%% stealing %.1f%% "
                "termination %.1f%%\n",
                100 * res.agg.state_frac[0], 100 * res.agg.state_frac[1],
                100 * res.agg.state_frac[2], 100 * res.agg.state_frac[3]);
  }

  if (deadline_ns > 0) {
    // A deadline run is judged on its accounting, not the full count: every
    // materialized node must be either visited or reclaimed, exactly once.
    std::printf("deadline: %llu ns  cancelled ranks %llu  visited %llu  "
                "reclaimed %llu  spawned %llu\n",
                static_cast<unsigned long long>(deadline_ns),
                static_cast<unsigned long long>(res.agg.total_cancels),
                static_cast<unsigned long long>(res.agg.total_nodes),
                static_cast<unsigned long long>(res.agg.total_reclaimed),
                static_cast<unsigned long long>(res.agg.total_spawned));
    if (res.agg.total_nodes + res.agg.total_reclaimed !=
        1 + res.agg.total_spawned) {
      std::printf("MISMATCH: nodes + reclaimed != 1 + spawned\n");
      return 1;
    }
    if (res.agg.total_cancels > 0) {
      std::printf("partial traversal (deadline fired): accounting OK\n");
      return 0;  // a fired deadline makes the sequential count moot
    }
  }

  // Verify against sequential (skip for paper-scale trees).
  const double expect = tree.expected_size();
  if (expect < 5e7) {
    const auto seq = uts::search_sequential(tree, 200'000'000);
    if (seq && seq->nodes != res.total_nodes()) {
      std::printf("MISMATCH: parallel %llu != sequential %llu\n",
                  static_cast<unsigned long long>(res.total_nodes()),
                  static_cast<unsigned long long>(seq->nodes));
      return 1;
    }
    if (seq && !csv)
      std::printf("verified against sequential traversal: OK\n");
  }

  if (verbose) {
    stats::Table t({"rank", "nodes", "releases", "steals", "probes",
                    "failed", "peak stack", "working%"});
    for (int r = 0; r < nranks; ++r) {
      const auto& s = res.per_thread[r];
      const double tot = static_cast<double>(s.timer.total_ns());
      t.add_row({stats::Table::fmt(r), stats::Table::fmt(s.c.nodes),
                 stats::Table::fmt(s.c.releases), stats::Table::fmt(s.c.steals),
                 stats::Table::fmt(s.c.probes),
                 stats::Table::fmt(s.c.failed_steals),
                 stats::Table::fmt(s.c.max_stack),
                 stats::Table::fmt(
                     tot > 0 ? 100.0 * s.timer.ns_in(stats::State::kWorking) /
                                   tot
                             : 0.0,
                     1)});
    }
    t.print(std::cout);
  }
  return 0;
}
