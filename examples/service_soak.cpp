// service_soak: the service-level robustness gate for the resident job
// service (src/svc, docs/service.md).
//
// An open-loop Poisson stream of mixed jobs — UTS searches, knapsack and
// max-clique branch-and-bound — arrives in virtual time at two services
// (one per engine: deterministic sim and real threads), cycling through
// every variant in the canonical list (the five paper variants plus
// work-push, lifeline, and sampling), under chaos:
//
//   * ~30% of jobs carry fail-stop crashes or graceful drains (absorbed
//     in-run by recovery; the hit pool slots go down for repair, so later
//     jobs degrade to fewer ranks);
//   * ~25% carry a deadline drawn around the typical makespan (some die in
//     the queue, some cancel mid-run with exact reclaimed-node accounting);
//   * a few % are hang-seeded (a rank stalls forever under a tight
//     watchdog): the first attempt burns the fence, the hardened retry
//     completes — exercising the exponential-backoff ladder (sim only:
//     the virtual-time watchdog is a sim feature);
//   * a pinch of invalid and impossible specs exercise every typed
//     load-shedding rejection, and the arrival rate is chosen to overrun
//     the bounded queue now and then (kQueueFull backpressure).
//
// Pass criteria, checked here and again by tools/validate_report.py on the
// emitted JSON (schema upcws-service-report-v1):
//
//   * every job lands in EXACTLY ONE terminal state (completed / rejected /
//     cancelled / retries-exhausted) — the counts must add up;
//   * completed jobs returned the exact sequential answer (the service
//     cross-checks internally; any mismatch shows up in the job record);
//   * the job-state oracle (check::check_jobs) finds no violation: legal
//     transitions only, one terminal entry per job, no rank leaked to a
//     finished job, no pool over-subscription;
//   * p50/p90/p99 latency and throughput are reported from exact sorted
//     latencies (virtual ns), so the numbers are reproducible run to run.
//
// Flags:
//   --jobs N     total jobs across both services (default 240, min 16)
//   --algo LABEL pin every job to one algorithm (default: rotate through
//                the canonical kAllAlgosExtended list)
//   --seed S     generator seed (default 1)
//   --json FILE  write the upcws-service-report-v1 JSON report
//   --report FILE    write the upcws-service-timeline-v1 latency autopsy
//                    (also prints the ASCII breakdown and gates on >=99%
//                    per-job attribution)
//   --timeline FILE  Perfetto Chrome-JSON job lanes of the sim service
//                    (requires --report, which turns job logging on)
//   --budget-smoke  bounded CI mode: 72 jobs
//   -v           per-job terminal lines
#include <algorithm>
#include <chrono>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/job_oracle.hpp"
#include "cli_args.hpp"
#include "obs/autopsy.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "svc/service.hpp"
#include "ws/driver.hpp"

using namespace upcws;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "service_soak: %s (see header comment for flags)\n",
               msg.c_str());
  std::exit(2);
}

/// Exact nearest-rank percentile of a sorted vector.
std::uint64_t pctl(const std::vector<std::uint64_t>& sorted, int p) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size();
  std::size_t idx = (n * static_cast<std::size_t>(p) + 99) / 100;
  if (idx == 0) idx = 1;
  return sorted[std::min(idx, n) - 1];
}

/// One job draw. All randomness flows from the caller's generator, so the
/// whole soak reproduces from --seed.
svc::JobSpec draw_job(std::mt19937_64& g, int index, bool sim_engine,
                      const ws::Algo* pin_algo) {
  auto pick = [&g](int lo, int hi) {  // inclusive
    return lo +
           static_cast<int>(g() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  auto chance = [&g](int pct) { return static_cast<int>(g() % 100) < pct; };

  svc::JobSpec s;
  const int wl = pick(0, 99);
  if (wl < 70) {
    s.workload = svc::Workload::kUts;
    s.tree = uts::test_small(pick(0, 7));
  } else if (wl < 85) {
    s.workload = svc::Workload::kKnapsack;
    s.bnb_size = pick(12, 18);
    s.bnb_seed = g() % 1000 + 1;
  } else {
    s.workload = svc::Workload::kMaxClique;
    s.bnb_size = pick(9, 13);
    s.bnb_seed = g() % 1000 + 1;
  }
  // Rotate through THE canonical list (config.hpp) so new variants join
  // the soak automatically; a pinned --algo replaces the rotation.
  s.algo = ws::kAllAlgosExtended[static_cast<std::size_t>(index) %
                                 std::size(ws::kAllAlgosExtended)];
  if (pin_algo != nullptr) s.algo = *pin_algo;
  s.chunk = pick(2, 5);
  s.run_seed = g() % 100'000 + 1;
  s.max_retries = 1;

  const bool push = s.algo == ws::Algo::kWorkPush;
  if (chance(30) && !push) {  // crash/drain chaos (hardened)
    s.steal_timeout_ns = 30'000;
    if (chance(60)) {
      pgas::CrashSpec c;
      c.rank = pick(1, 5);
      c.at_ns = static_cast<std::uint64_t>(pick(5, 100)) * 1000;
      s.faults.crashes.push_back(c);
    } else {
      s.faults.drains.push_back(
          {pick(1, 5), static_cast<std::uint64_t>(pick(10, 120)) * 1000});
    }
  }
  if (chance(25))  // deadline around the typical makespan
    s.deadline_ns = static_cast<std::uint64_t>(pick(100, 3000)) * 1000;
  // Hang-seeded jobs: a rank stalls forever, the tight watchdog fails the
  // attempt, the hardened retry (stalls do not recur) wins. A few are
  // forced deterministically so the retry ladder — and, for the ones with
  // no retry budget, the retries-exhausted terminal — always gets traffic;
  // the rest arrive by chance. Sim only: the watchdog is virtual-time.
  const bool force_hang = sim_engine && index % 48 == 12;
  if (force_hang || (sim_engine && chance(2))) {
    s.algo = ws::Algo::kUpcTerm;  // the stall proxy needs net-model polls
    s.min_ranks = 2;              // keep the stalled rank inside the run
    s.faults.stall_ns = 1'000'000'000'000ull;
    s.faults.stall_period_ns = 10'000;
    s.faults.stall_rank = 1;
    s.watchdog_ns = 5'000'000;
    s.deadline_ns = 0;  // let the retry ladder play out
    s.max_retries = index % 96 == 60 ? 0 : 2;
    return s;  // keep the seeded hang; no spec overrides below
  }
  if (chance(2)) s.chunk = 0;      // invalid spec: typed rejection
  if (chance(2)) s.min_ranks = 99;  // impossible spec: pool-exhausted
  return s;
}

std::string json_escape(const std::string& s) {
  std::string o;
  o.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') (o += '\\') += c;
    else if (c == '\n') o += "\\n";
    else if (static_cast<unsigned char>(c) < 0x20) o += ' ';
    else o += c;
  }
  return o;
}

void write_map(std::ostream& os, const std::map<std::string, int>& m) {
  bool first = true;
  os << "{";
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  int total_jobs = 240;
  std::uint64_t seed = 1;
  ws::Algo pin_algo{};  // valid only when algo_set
  bool algo_set = false;
  std::string json_path, report_path, timeline_path;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--jobs")
      total_jobs = cli::parse_int(next(), "--jobs", usage);
    else if (a == "--algo") {
      try {
        pin_algo = check::algo_from_label(next());
      } catch (const std::exception& e) {
        usage(e.what());
      }
      algo_set = true;
    }
    else if (a == "--seed")
      seed = cli::parse_u64(next(), "--seed", usage);
    else if (a == "--json")
      json_path = next();
    else if (a == "--report")
      report_path = next();
    else if (a == "--timeline")
      timeline_path = next();
    else if (a == "--budget-smoke")
      total_jobs = 72;
    else if (a == "-v")
      verbose = true;
    else
      usage("unknown flag " + a);
  }
  if (total_jobs < 16)
    usage("--jobs wants at least 16 (all eight algorithms on both engines)");
  if (!timeline_path.empty() && report_path.empty())
    usage("--timeline requires --report (it is what turns job logging on)");

  const auto t0 = std::chrono::steady_clock::now();

  pgas::SimEngine sim_eng;
  pgas::ThreadEngine thr_eng;
  svc::ServiceConfig scfg;
  scfg.pool_ranks = 6;
  scfg.queue_cap = 12;
  // Repair must be commensurate with the soak horizon (tens of ms of
  // virtual time), or a few early crashes degrade the pool for good and
  // every later job runs single-rank.
  scfg.repair_ns = 2'000'000;
  // Job-lifecycle logging rides on --report. Pure observation: the soak's
  // terminal states and stdout are identical with or without it.
  obs::JobLog sim_log, thr_log;
  svc::ServiceConfig sim_cfg = scfg, thr_cfg = scfg;
  if (!report_path.empty()) {
    sim_cfg.observe_jobs = thr_cfg.observe_jobs = true;
    sim_cfg.job_log = &sim_log;
    thr_cfg.job_log = &thr_log;
  }
  svc::Service sim_svc(sim_eng, sim_cfg);
  svc::Service thr_svc(thr_eng, thr_cfg);

  // Open-loop Poisson arrivals (inverse-CDF exponential inter-arrivals),
  // one independent clock per service. The sim stream is deliberately a
  // little faster than the service drains so the bounded queue overruns
  // now and then; the threads stream runs in wall time, so its mean is
  // scaled to real makespans.
  std::mt19937_64 g(seed);
  std::uniform_real_distribution<double> uni(1e-12, 1.0);
  const double sim_mean_ns = 300'000.0;
  const double thr_mean_ns = 1'500'000.0;
  std::uint64_t sim_t = 0, thr_t = 0;
  int sim_jobs = 0, thr_jobs = 0;
  std::map<std::string, int> by_workload, by_algo;

  for (int i = 0; i < total_jobs; ++i) {
    const bool threads = i % 6 == 5;  // every 6th job: real-thread service
    const svc::JobSpec spec =
        draw_job(g, i, !threads, algo_set ? &pin_algo : nullptr);
    ++by_workload[svc::workload_name(spec.workload)];
    ++by_algo[ws::algo_label(spec.algo)];
    if (threads) {
      thr_t += static_cast<std::uint64_t>(-thr_mean_ns * std::log(uni(g)));
      thr_svc.submit(spec, thr_t);
      ++thr_jobs;
    } else {
      sim_t += static_cast<std::uint64_t>(-sim_mean_ns * std::log(uni(g)));
      sim_svc.submit(spec, sim_t);
      ++sim_jobs;
    }
  }
  sim_svc.drain();
  thr_svc.drain();

  // ---- verdicts -----------------------------------------------------------
  int mismatches = 0;
  std::map<std::string, int> by_state, by_reject;
  std::vector<std::uint64_t> latencies;
  auto absorb = [&](const svc::Service& s, const char* engine) {
    for (const auto& j : s.jobs()) {
      ++by_state[svc::state_name(j.state)];
      if (j.state == svc::JobState::kRejected)
        ++by_reject[svc::reject_name(j.reject)];
      if (j.state == svc::JobState::kCompleted) {
        latencies.push_back(j.finish_ns - j.arrival_ns);
        if (!j.error.empty()) {
          ++mismatches;
          std::printf("job %s/%llu COMPLETED WITH ERROR: %s\n", engine,
                      static_cast<unsigned long long>(j.id),
                      j.error.c_str());
        }
      }
      if (!svc::state_terminal(j.state)) {
        ++mismatches;
        std::printf("job %s/%llu NOT TERMINAL after drain (%s)\n", engine,
                    static_cast<unsigned long long>(j.id),
                    svc::state_name(j.state));
      }
      if (verbose)
        std::printf(
            "job %s/%llu %-9s %-15s -> %-17s attempts=%d ranks=%d "
            "nodes=%llu reclaimed=%llu\n",
            engine, static_cast<unsigned long long>(j.id),
            svc::workload_name(j.spec.workload), ws::algo_label(j.spec.algo),
            svc::state_name(j.state), j.attempts, j.ranks_used,
            static_cast<unsigned long long>(j.nodes),
            static_cast<unsigned long long>(j.reclaimed));
    }
  };
  absorb(sim_svc, "sim");
  absorb(thr_svc, "threads");

  const auto sim_rep = check::check_jobs(sim_svc.views(), sim_svc.pool_ranks());
  const auto thr_rep = check::check_jobs(thr_svc.views(), thr_svc.pool_ranks());
  std::vector<std::string> violations = sim_rep.violations;
  violations.insert(violations.end(), thr_rep.violations.begin(),
                    thr_rep.violations.end());

  const svc::Summary ssum = sim_svc.summary();
  const svc::Summary tsum = thr_svc.summary();
  std::sort(latencies.begin(), latencies.end());
  const std::uint64_t p50 = pctl(latencies, 50), p90 = pctl(latencies, 90),
                      p99 = pctl(latencies, 99);
  const std::uint64_t lmax = latencies.empty() ? 0 : latencies.back();
  const std::uint64_t completed = ssum.completed + tsum.completed;
  const std::uint64_t rejected = ssum.rejected + tsum.rejected;
  const std::uint64_t cancelled = ssum.cancelled + tsum.cancelled;
  const std::uint64_t exhausted =
      ssum.retries_exhausted + tsum.retries_exhausted;
  const bool sums_ok =
      completed + rejected + cancelled + exhausted ==
      static_cast<std::uint64_t>(total_jobs);
  // Throughput over the sim service's virtual horizon (the deterministic,
  // reproducible half of the story).
  const double sim_horizon_s = static_cast<double>(ssum.now_ns) / 1e9;
  const double throughput =
      sim_horizon_s > 0 ? static_cast<double>(ssum.completed) / sim_horizon_s
                        : 0.0;

  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf(
      "service_soak: %d jobs (%d sim, %d threads)  completed=%llu "
      "rejected=%llu cancelled=%llu retries-exhausted=%llu  retries=%llu\n",
      total_jobs, sim_jobs, thr_jobs,
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(exhausted),
      static_cast<unsigned long long>(ssum.retry_attempts +
                                      tsum.retry_attempts));
  std::printf(
      "  chaos absorbed: %llu crashes, %llu drains; %llu nodes reclaimed "
      "after deadlines\n",
      static_cast<unsigned long long>(ssum.crashes + tsum.crashes),
      static_cast<unsigned long long>(ssum.drains + tsum.drains),
      static_cast<unsigned long long>(ssum.nodes_reclaimed +
                                      tsum.nodes_reclaimed));
  std::printf(
      "  latency (ns): p50=%llu p90=%llu p99=%llu max=%llu over %zu "
      "completed;  sim throughput %.1f jobs/s (virtual), queue depth max "
      "%llu\n",
      static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p90),
      static_cast<unsigned long long>(p99),
      static_cast<unsigned long long>(lmax), latencies.size(), throughput,
      static_cast<unsigned long long>(
          std::max(ssum.queue_depth_max, tsum.queue_depth_max)));
  std::printf("  oracle: %llu jobs checked, %zu violation(s)\n",
              static_cast<unsigned long long>(sim_rep.checked +
                                              thr_rep.checked),
              violations.size());
  for (const std::string& v : violations) std::printf("    %s\n", v.c_str());
  if (!sums_ok)
    std::printf("TERMINAL-STATE SUM MISMATCH: %llu + %llu + %llu + %llu != %d\n",
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(cancelled),
                static_cast<unsigned long long>(exhausted), total_jobs);

  if (!json_path.empty()) {
    std::ofstream f(json_path);
    if (!f) usage("cannot write --json " + json_path);
    f << "{\n  \"schema\": \"upcws-service-report-v1\",\n";
    f << "  \"jobs\": " << total_jobs << ",\n";
    f << "  \"terminal\": {\"completed\": " << completed
      << ", \"rejected\": " << rejected << ", \"cancelled\": " << cancelled
      << ", \"retries_exhausted\": " << exhausted << "},\n";
    f << "  \"engines\": {\"sim\": " << sim_jobs << ", \"threads\": "
      << thr_jobs << "},\n";
    f << "  \"workloads\": ";
    write_map(f, by_workload);
    f << ",\n  \"algos\": ";
    write_map(f, by_algo);
    f << ",\n  \"reject_reasons\": ";
    write_map(f, by_reject);
    f << ",\n  \"retry_attempts\": " << ssum.retry_attempts + tsum.retry_attempts
      << ",\n";
    f << "  \"chaos\": {\"crashes\": " << ssum.crashes + tsum.crashes
      << ", \"drains\": " << ssum.drains + tsum.drains << "},\n";
    f << "  \"nodes\": {\"visited\": "
      << ssum.nodes_visited + tsum.nodes_visited
      << ", \"reclaimed\": " << ssum.nodes_reclaimed + tsum.nodes_reclaimed
      << "},\n";
    f << "  \"latency_ns\": {\"count\": " << latencies.size()
      << ", \"p50\": " << p50 << ", \"p90\": " << p90 << ", \"p99\": " << p99
      << ", \"max\": " << lmax << "},\n";
    f << "  \"queue_depth_max\": "
      << std::max(ssum.queue_depth_max, tsum.queue_depth_max) << ",\n";
    f << "  \"throughput_jobs_per_s\": " << throughput << ",\n";
    f << "  \"oracle\": {\"checked\": " << sim_rep.checked + thr_rep.checked
      << ", \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i)
      f << (i > 0 ? ", " : "") << "\"" << json_escape(violations[i]) << "\"";
    f << "]},\n";
    f << "  \"result_mismatches\": " << mismatches << ",\n";
    f << "  \"elapsed_s\": " << elapsed_s << "\n}\n";
    std::printf("wrote report to %s\n", json_path.c_str());
  }

  bool timeline_ok = true;
  if (!report_path.empty()) {
    const obs::ServiceTimeline tl = obs::service_autopsy({&sim_log, &thr_log});
    std::printf("%s", tl.ascii_table().c_str());
    timeline_ok = tl.min_job_attributed_frac >= 0.99 &&
                  tl.jobs == static_cast<std::uint64_t>(total_jobs) &&
                  tl.unfinished == 0;
    if (!timeline_ok)
      std::printf(
          "SERVICE TIMELINE ATTRIBUTION FAILED: worst job %.2f%%, "
          "%llu jobs logged, %llu unfinished\n",
          100.0 * tl.min_job_attributed_frac,
          static_cast<unsigned long long>(tl.jobs),
          static_cast<unsigned long long>(tl.unfinished));
    std::ofstream f(report_path);
    if (!f) usage("cannot write --report " + report_path);
    tl.write_json(f);
    std::printf("wrote service timeline to %s\n", report_path.c_str());
    if (!timeline_path.empty()) {
      std::ofstream tf(timeline_path);
      if (!tf) usage("cannot write --timeline " + timeline_path);
      sim_log.write_chrome_json(tf);
      std::printf("wrote Perfetto job lanes to %s\n", timeline_path.c_str());
    }
  }

  return (violations.empty() && mismatches == 0 && sums_ok && timeline_ok)
             ? 0
             : 1;
}
