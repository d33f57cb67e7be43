// schedule_check: systematic schedule exploration over the deterministic
// simulator — search the interleaving space of a work-stealing
// configuration for protocol violations, shrink any failing schedule to a
// minimal decision trail, and emit a replay file that reproduces the bug in
// one run (re-execute with --replay, or uts_cli --replay).
//
// Examples:
//   ./schedule_check                                   # defaults, random walk
//   ./schedule_check -A upc-sharedmem --strategy pct --budget 100
//   ./schedule_check --crash 0@120000 --strategy random --budget 60
//                    --emit-replay bug.replay          # (one command)
//   ./schedule_check --replay bug.replay
//   ./schedule_check --budget-smoke                    # CI self-test
//
// Flags:
//   -A LABEL        algorithm (Figure-3 label; default upc-distmem)
//   -n N            ranks (default 4)
//   -c K            chunk size (default 2)
//   --net NET       dist|shared|shmem|free|smp<tpn> (default dist)
//   --preset P      tree preset: test-small|geo|hybrid (default test-small)
//   -r R            tree root seed (default 0)
//   -S SEED         run seed (probe order; default 1)
//   --strategy S    random|pct|dfs (default random)
//   --budget N      schedules to explore (default 50)
//   --seed S        exploration seed (default 1)
//   --pct-depth D   PCT preemption points (default 3)
//   --dfs-depth D   DFS decision-prefix bound (default 24)
//   --window NS     scheduler fairness window (default 100000)
//   --steal-timeout NS   hardened-protocol timeout (default 30000)
//   --watchdog-ms M      progress watchdog, virtual ms (default 200)
//   --crash R@NS[,R@NS...]   fail-stop crash plan
//   --crash-detect NS        failure-detection latency (default 5000)
//   --seed-bug claim-cas     enable the deliberately weakened claim-CAS
//                            (checker self-test; see docs/schedule_checking.md)
//   --seed-bug drop-distress enable the lifeline hand-off bug (a woken thief
//                            pulls without leaving the barrier first)
//   --sample-frac F          sampling policy: fraction of ranks probed
//   --quantile Q             sampling policy: load quantile stolen from
//   --lifeline-dim D         lifeline policy: hypercube dimension cap
//   --no-shrink     keep the first failing trail as found
//   --emit-replay FILE   write the (shrunk) failing schedule as a replay file
//   --trace FILE    Chrome-JSON trace of the failing (shrunk) schedule
//   --replay FILE   re-execute a recorded schedule; exit 0 iff the outcome
//                   matches the file's expectation
//   --budget-smoke  fixed-budget CI self-test: correct configurations
//                   (including the lifeline and sampling variants) must check
//                   clean, and the seeded claim-CAS and drop-distress bugs
//                   must be found, shrunk, and reproduced from their emitted
//                   replays. Exit 0 iff all hold.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "check/checker.hpp"
#include "check/replay.hpp"
#include "cli_args.hpp"
#include "trace/trace.hpp"

using namespace upcws;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "schedule_check: %s (see header comment for flags)\n",
               msg.c_str());
  std::exit(2);
}

check::Strategy strategy_from(const std::string& s) {
  if (s == "random") return check::Strategy::kRandom;
  if (s == "pct") return check::Strategy::kPct;
  if (s == "dfs") return check::Strategy::kDfs;
  usage("unknown --strategy " + s);
}

const char* strategy_name(check::Strategy s) {
  switch (s) {
    case check::Strategy::kRandom: return "random";
    case check::Strategy::kPct: return "pct";
    case check::Strategy::kDfs: return "dfs";
  }
  return "?";
}

/// "RANK@NS[,RANK@NS...]" through the shared fault-plan codec; a malformed
/// spec is a usage error.
std::vector<pgas::RankAt> rank_at_list(const char* spec, const char* flag) {
  try {
    return pgas::parse_rank_at_list(spec, flag);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

std::string trail_str(const std::vector<std::uint16_t>& t) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < t.size(); ++i)
    os << (i > 0 ? " " : "") << t[i];
  os << "]";
  return os.str();
}

void report_violation(const check::CheckSpec& spec,
                      const check::CheckResult& r, std::uint64_t window_ns,
                      const std::string& emit_replay,
                      const std::string& trace_path) {
  std::printf("VIOLATION: %s\n  %s\n", r.violation.oracle.c_str(),
              r.violation.message.c_str());
  std::printf("  found on schedule %d after %d runs; shrink used %d runs\n",
              r.violation.schedule_index, r.schedules_run, r.shrink_runs);
  std::printf("  original trail: %zu decisions, %s non-default\n",
              r.violation.original.size(),
              trail_str(r.violation.original).c_str());
  std::printf("  minimal trail:  %s\n", trail_str(r.violation.trail).c_str());
  check::ReplayFile rf;
  rf.spec = spec;
  rf.window_ns = window_ns;
  rf.oracle = r.violation.oracle;
  rf.trail = r.violation.trail;
  if (!emit_replay.empty()) {
    check::save_replay(emit_replay, rf);
    std::printf("  replay file: %s\n", emit_replay.c_str());
  }
  if (!trace_path.empty()) {
    // Render the offending window: re-run the minimal schedule with the
    // trace sink attached and export Chrome JSON.
    trace::Trace tr(spec.nranks);
    const check::RunOutcome o = check::run_replay(rf, &tr);
    std::ofstream f(trace_path);
    tr.write_chrome_json(f);
    std::printf("  trace of minimal schedule (%s again: %s): %s\n",
                o.violated ? "violates" : "does NOT violate",
                o.oracle.c_str(), trace_path.c_str());
  }
}

/// The canned CI self-test (--budget-smoke). Small fixed budgets so the
/// whole thing stays in CI-seconds territory.
int budget_smoke() {
  int failures = 0;

  // 1. A correct configuration (crash plan, hardened distmem) must check
  //    clean under every strategy.
  check::CheckSpec clean;
  clean.algo = ws::Algo::kUpcDistMem;
  clean.nranks = 4;
  clean.chunk = 2;
  clean.tree = uts::test_small(0);
  // Crash timing tuned so the seeded claim-CAS bug below is schedule-
  // reachable: rank 0 must die inside a grant-service window, leaving a
  // pending lineage record that a live thief and a recoverer then race for.
  clean.crashes.push_back({0, 10'000, pgas::CrashSpec::Where::kAnywhere});
  for (const check::Strategy s :
       {check::Strategy::kRandom, check::Strategy::kPct,
        check::Strategy::kDfs}) {
    check::CheckConfig cc;
    cc.strategy = s;
    cc.budget = s == check::Strategy::kPct ? 6 : 10;
    const check::CheckResult r = check::check(clean, cc);
    std::printf("smoke[clean/%s]: %d schedules, %s\n", strategy_name(s),
                r.schedules_run, r.found ? "VIOLATION (unexpected!)" : "ok");
    if (r.found) {
      std::printf("  %s: %s\n", r.violation.oracle.c_str(),
                  r.violation.message.c_str());
      ++failures;
    }
  }

  // 2. The extension variants (lifeline parking, sampling selection) must
  //    also check clean — same crash plan, random walk.
  for (const ws::Algo a : {ws::Algo::kLifeline, ws::Algo::kSampling}) {
    check::CheckSpec v = clean;
    v.algo = a;
    check::CheckConfig vc;
    vc.strategy = check::Strategy::kRandom;
    vc.budget = 10;
    const check::CheckResult r = check::check(v, vc);
    std::printf("smoke[clean/%s]: %d schedules, %s\n", ws::algo_label(a),
                r.schedules_run, r.found ? "VIOLATION (unexpected!)" : "ok");
    if (r.found) {
      std::printf("  %s: %s\n", r.violation.oracle.c_str(),
                  r.violation.message.c_str());
      ++failures;
    }
  }

  // 3. Each seeded bug must be found within the smoke budget, shrink, and
  //    reproduce from its replay file. claim-cas breaks crash-recovery
  //    arbitration on the base algorithm; drop-distress breaks the lifeline
  //    wake/barrier hand-off (no crash plan needed — the window is in the
  //    termination protocol itself).
  struct SeededBug {
    const char* name;
    check::CheckSpec spec;
    int budget;
  };
  check::CheckSpec claim = clean;
  claim.bug_weak_claim = true;
  check::CheckSpec distress;
  distress.algo = ws::Algo::kLifeline;
  distress.nranks = 4;
  distress.chunk = 2;
  distress.tree = uts::test_small(0);
  distress.bug_drop_distress = true;
  for (const SeededBug& b : {SeededBug{"claim-cas", claim, 40},
                             SeededBug{"drop-distress", distress, 40}}) {
    check::CheckConfig cc;
    cc.strategy = check::Strategy::kRandom;
    cc.budget = b.budget;
    const check::CheckResult r = check::check(b.spec, cc);
    if (!r.found) {
      std::printf("smoke[seeded-bug/%s]: NOT FOUND in %d schedules\n", b.name,
                  r.schedules_run);
      ++failures;
      continue;
    }
    std::printf("smoke[seeded-bug/%s]: found %s on schedule %d, shrunk %zu "
                "-> %zu decisions\n",
                b.name, r.violation.oracle.c_str(),
                r.violation.schedule_index, r.violation.original.size(),
                r.violation.trail.size());
    check::ReplayFile rf;
    rf.spec = b.spec;
    rf.window_ns = cc.window_ns;
    rf.oracle = r.violation.oracle;
    rf.trail = r.violation.trail;
    std::stringstream round;
    check::write_replay(round, rf);
    const check::ReplayFile loaded = check::read_replay(round);
    const check::RunOutcome o = check::run_replay(loaded);
    if (!check::replay_matches(loaded, o)) {
      std::printf("smoke[seeded-bug/%s]: replay did NOT reproduce (%s)\n",
                  b.name, o.violated ? o.oracle.c_str() : "clean run");
      ++failures;
    } else {
      std::printf("smoke[seeded-bug/%s]: replay reproduces "
                  "deterministically\n",
                  b.name);
    }
  }

  std::printf("budget-smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  check::CheckSpec spec;
  check::CheckConfig cc;
  std::string emit_replay, trace_path, replay_path, preset = "test-small";
  std::uint32_t root_seed = 0;
  auto crash_where = pgas::CrashSpec::Where::kAnywhere;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "-A")
      spec.algo = check::algo_from_label(next());
    else if (a == "-n")
      spec.nranks = cli::parse_int(next(), "-n", usage, 1);
    else if (a == "-c")
      spec.chunk = cli::parse_int(next(), "-c", usage, 1);
    else if (a == "--net")
      spec.net = next();
    else if (a == "--preset")
      preset = next();
    else if (a == "-r")
      root_seed = static_cast<std::uint32_t>(
          cli::parse_u64(next(), "-r", usage, 0, UINT32_MAX));
    else if (a == "-S")
      spec.run_seed = cli::parse_u64(next(), "-S", usage);
    else if (a == "--strategy")
      cc.strategy = strategy_from(next());
    else if (a == "--budget")
      cc.budget = cli::parse_int(next(), "--budget", usage, 1);
    else if (a == "--seed")
      cc.seed = cli::parse_u64(next(), "--seed", usage);
    else if (a == "--pct-depth")
      cc.pct_depth = cli::parse_int(next(), "--pct-depth", usage);
    else if (a == "--dfs-depth")
      cc.dfs_depth = cli::parse_u64(next(), "--dfs-depth", usage);
    else if (a == "--window")
      cc.window_ns = cli::parse_u64(next(), "--window", usage);
    else if (a == "--steal-timeout")
      spec.steal_timeout_ns = cli::parse_u64(next(), "--steal-timeout", usage);
    else if (a == "--watchdog-ms")
      spec.watchdog_ns = static_cast<std::uint64_t>(
          cli::parse_double(next(), "--watchdog-ms", usage, 0.0, 1e13) * 1e6);
    else if (a == "--crash") {
      for (const pgas::RankAt& ra : rank_at_list(next(), "--crash"))
        spec.crashes.push_back({ra.rank, ra.at_ns});
    } else if (a == "--crash-in-lock")
      crash_where = pgas::CrashSpec::Where::kInLock;
    else if (a == "--crash-mid-steal")
      crash_where = pgas::CrashSpec::Where::kMidSteal;
    else if (a == "--crash-detect")
      spec.crash_detect_ns = cli::parse_u64(next(), "--crash-detect", usage);
    else if (a == "--seed-bug") {
      const std::string b = next();
      if (b == "claim-cas")
        spec.bug_weak_claim = true;
      else if (b == "drop-distress")
        spec.bug_drop_distress = true;
      else
        usage("unknown --seed-bug " + b);
    } else if (a == "--sample-frac")
      spec.sample_frac = cli::parse_double(next(), "--sample-frac", usage);
    else if (a == "--quantile")
      spec.quantile = cli::parse_double(next(), "--quantile", usage);
    else if (a == "--lifeline-dim")
      spec.lifeline_dim = cli::parse_int(next(), "--lifeline-dim", usage);
    else if (a == "--no-shrink")
      cc.shrink = false;
    else if (a == "--emit-replay")
      emit_replay = next();
    else if (a == "--trace")
      trace_path = next();
    else if (a == "--replay")
      replay_path = next();
    else if (a == "--budget-smoke")
      smoke = true;
    else
      usage("unknown flag " + a);
  }

  for (pgas::CrashSpec& c : spec.crashes) c.where = crash_where;
  try {
    pgas::validate_plan(spec.fault_plan(), spec.nranks);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  if (smoke) return budget_smoke();

  try {
    if (!replay_path.empty()) {
      const check::ReplayFile rf = check::load_replay(replay_path);
      std::printf("replaying %s: algo=%s ranks=%d expected=%s, %zu recorded "
                  "decisions\n",
                  replay_path.c_str(), ws::algo_label(rf.spec.algo),
                  rf.spec.nranks, rf.oracle.c_str(), rf.trail.size());
      trace::Trace tr(rf.spec.nranks);
      const check::RunOutcome o =
          check::run_replay(rf, trace_path.empty() ? nullptr : &tr);
      if (!trace_path.empty()) {
        std::ofstream f(trace_path);
        tr.write_chrome_json(f);
        std::printf("trace of the replayed schedule: %s\n",
                    trace_path.c_str());
      }
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
    }

    spec.tree = preset == "test-small" ? uts::test_small(root_seed)
                : preset == "geo"      ? uts::geo_test(root_seed)
                : preset == "hybrid"   ? uts::hybrid_test(root_seed)
                                       : throw std::invalid_argument(
                                             "unknown --preset " + preset);

    std::printf("schedule_check: algo=%s ranks=%d chunk=%d net=%s tree=%s\n",
                ws::algo_label(spec.algo), spec.nranks, spec.chunk,
                spec.net.c_str(), spec.tree.describe().c_str());
    std::printf("  strategy=%s budget=%d seed=%llu window=%llu ns "
                "crashes=%zu%s\n",
                strategy_name(cc.strategy), cc.budget,
                static_cast<unsigned long long>(cc.seed),
                static_cast<unsigned long long>(cc.window_ns),
                spec.crashes.size(),
                spec.bug_weak_claim      ? " seed-bug=claim-cas"
                : spec.bug_drop_distress ? " seed-bug=drop-distress"
                                         : "");

    const check::CheckResult r = check::check(spec, cc);
    if (!r.found) {
      std::printf("no violation in %d schedules", r.schedules_run);
      if (cc.strategy == check::Strategy::kDfs)
        std::printf(" (%llu distinct)",
                    static_cast<unsigned long long>(r.distinct_states));
      std::printf("\n");
      return 0;
    }
    report_violation(spec, r, cc.window_ns, emit_replay, trace_path);
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "schedule_check: %s\n", e.what());
    return 2;
  }
}
