// perfbench: the repository benchmark's measuring program.
//
// Runs one of four fixed UTS workloads through ws::run_search and prints one
// JSON object (last line of stdout) with the workload's metrics, the
// correctness verdict of every search, and a host fingerprint. run.py
// builds this program, adds the set-up time measured by --setup-probe
// processes, and prints the benchmark's result line. See README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--wrong-ref]
//   perfbench --setup-probe --workload NAME --seed N [--small]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ledger.hpp"
#include "micro.hpp"
#include "pgas/sim_engine.hpp"
#include "psim/engine.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace pgas = upcws::pgas;
namespace psim = upcws::psim;
namespace uts = upcws::uts;
namespace ws = upcws::ws;
using perfbench::Ledger;
using perfbench::LedgerTotals;

enum class EngineKind { kSim, kPsim };

struct Workload {
  const char* name;
  int ranks;
  EngineKind engine;
  ws::Algo algo;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"bin16-sim", 16, EngineKind::kSim, ws::Algo::kUpcDistMem},
    {"bin512-sim", 512, EngineKind::kSim, ws::Algo::kUpcDistMem},
    {"bin256-psim", 256, EngineKind::kPsim, ws::Algo::kUpcDistMem},
    {"bin64-mpi", 64, EngineKind::kSim, ws::Algo::kMpiWs},
};

constexpr int kChunk = 10;

/// Host speed the timings are scaled to, in host_calibration_ns() units (a
/// round figure near the kernel's speed on a 4-core Xeon). Shared hosts
/// drift: over minutes the same search ran 0.69-0.91 s while the
/// calibration kernel drifted with it, and the ratio of the two held within
/// a few percent.
constexpr double kNominalCalNs = 500;

/// The binomial tree every workload searches; root seed 0 gives 1,058,865
/// nodes. The tree is fixed and --seed drives the run seed (every rank's
/// victim-selection stream), because UTS binomial shapes are heavy-tailed:
/// across root seeds 1-5 the 512-rank virtual efficiency ranged 0.063 to
/// 0.130 at near-equal sizes, as the longest chain of the tree sets the
/// makespan. A per-seed tree would swamp every bound with input variance.
uts::Params tree_params(bool small) {
  uts::Params p;
  p.type = uts::TreeType::kBinomial;
  p.b0 = small ? 200 : 2000;
  p.m = 2;
  p.q = small ? 0.49 : 0.499;
  p.root_seed = 0;
  return p;
}

/// Worker threads for bin256-psim. Two, not min(4, nproc): with four
/// workers on a four-core shared host every core is in use, and the
/// windowed lane's barriers then stall whenever the host deschedules any
/// one of them. In five alternating run pairs, four workers read 2,620 to
/// 13,884 host ns per node, two workers 3,343 to 4,386.
constexpr int kPsimWorkers = 2;

/// Host threads a search of `w` runs on.
int host_threads(const Workload& w) {
  return w.engine == EngineKind::kPsim ? kPsimWorkers : 1;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

pgas::RunConfig run_config(const Workload& w, std::uint64_t seed,
                           pgas::ObsSink* obs) {
  pgas::RunConfig rc;
  rc.nranks = w.ranks;
  rc.net = pgas::NetModel::distributed();
  rc.seed = seed;
  rc.obs = obs;
  return rc;
}

ws::SearchResult search_on(const Workload& w, const pgas::RunConfig& rc,
                           const ws::Problem& prob,
                           psim::PsimEngine::Stats* psim_stats) {
  const ws::WsConfig cfg = ws::WsConfig::for_algo(w.algo, kChunk);
  if (w.engine == EngineKind::kSim) {
    pgas::SimEngine eng;
    return ws::run_search(eng, rc, prob, cfg);
  }
  psim::PsimEngine eng(kPsimWorkers);
  ws::SearchResult res = ws::run_search(eng, rc, prob, cfg);
  if (psim_stats != nullptr) *psim_stats = eng.last_stats();
  return res;
}

/// Simulated statistics that must not depend on tracing or repetition.
struct SimSig {
  double elapsed_s = 0;
  std::uint64_t steals = 0, probes = 0, switches = 0;
  bool operator==(const SimSig&) const = default;
};

struct Search {
  double wall_s = 0;
  double cpu_s = 0;
  double cal_ns = 0;  ///< calibration kernel timed around the search
  std::uint64_t nodes = 0;
  ws::SearchResult res;
  psim::PsimEngine::Stats psim;
  std::optional<LedgerTotals> ledger;
  std::string error;  ///< set when the search threw

  SimSig sig() const {
    return {res.run.elapsed_s, res.agg.total_steals, res.agg.total_probes,
            res.run.switches};
  }
  double ns_per_node() const { return wall_s * 1e9 / nodes; }
  /// Host time scaled to the nominal host speed.
  double scaled(double host_ns_per_node) const {
    return host_ns_per_node * kNominalCalNs / cal_ns;
  }
};

Search run_one(const Workload& w, const uts::Params& tree, std::uint64_t seed,
               bool traced) {
  Search s;
  std::optional<Ledger> ledger;
  if (traced) ledger.emplace();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (ledger) ledger->begin();
  try {
    const ws::UtsProblem plain(tree);
    std::optional<perfbench::LedgerProblem> stamped;
    if (ledger) stamped.emplace(plain, *ledger);
    const ws::Problem& prob =
        stamped ? static_cast<const ws::Problem&>(*stamped) : plain;
    s.res = search_on(w, run_config(w, seed, ledger ? &*ledger : nullptr), prob,
                      &s.psim);
    s.nodes = s.res.total_nodes();
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  if (ledger) {
    ledger->end();
    s.ledger = ledger->totals();
  }
  s.wall_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - cpu0;
  return s;
}

/// Empty when the search is correct; otherwise why it counts as failed.
std::string verdict(const Workload& w, const Search& s, std::uint64_t ref,
                    const std::optional<SimSig>& expect) {
  if (!s.error.empty()) return "threw: " + s.error;
  if (s.nodes != ref)
    return "visited " + std::to_string(s.nodes) + " nodes, reference " +
           std::to_string(ref);
  if (expect && s.sig() != *expect)
    return "simulated stats (elapsed, steals, probes, switches) differ "
           "from the cold untraced search";
  // Read the lane back from the engine: a serial-lane run leaves the window
  // counters zero and, with a sink attached, reports its fallback.
  if (w.engine == EngineKind::kPsim && s.psim.windows == 0)
    return "psim ran the serial lane (0 windows)";
  if (s.ledger) {
    const LedgerTotals& t = *s.ledger;
    if (t.fallbacks != 0) return "psim reported a serial-lane fallback";
    if (w.engine == EngineKind::kPsim && t.windows != s.psim.windows)
      return "window callbacks disagree with the engine's window count";
    if (t.layer_sum() != t.thread_wall_ns)
      return "ledger does not sum to the traced wall time";
  }
  return {};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto i =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return static_cast<double>(v[i]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool wrong_ref = false;
  bool setup_probe = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--small] [--wrong-ref]\n"
               "       perfbench --setup-probe --workload NAME --seed N "
               "[--small]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads)
        if (name == w.name) a.workload = &w;
      if (a.workload == nullptr) usage("unknown workload " + name);
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      a.trace = v == "1";
    } else if (k == "--small") {
      a.small = true;
    } else if (k == "--wrong-ref") {
      a.wrong_ref = true;
    } else if (k == "--setup-probe") {
      a.setup_probe = true;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

/// Stops the process at the first expand() and prints the time since
/// `t0`: the cold set-up cost of the workload (engine, ranks, fibers, problem).
class FirstExpandProbe final : public ws::Problem {
 public:
  FirstExpandProbe(const ws::Problem& inner, Clock::time_point t0)
      : inner_(inner), t0_(t0) {}
  std::size_t node_bytes() const override { return inner_.node_bytes(); }
  void root(std::byte* out) const override { inner_.root(out); }
  int expand(const std::byte*, ws::NodeSink&) const override {
    std::printf("{\"setup_s\": %s}\n", json_num(seconds_since(t0_)).c_str());
    std::fflush(stdout);
    std::_Exit(0);
  }

 private:
  const ws::Problem& inner_;
  Clock::time_point t0_;
};

int setup_probe(const Args& a) {
  const auto t0 = Clock::now();
  const ws::UtsProblem plain(tree_params(a.small));
  const FirstExpandProbe probe(plain, t0);
  search_on(*a.workload, run_config(*a.workload, a.seed, nullptr), probe,
            nullptr);
  std::fprintf(stderr, "perfbench: search finished without expanding\n");
  return 1;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

using Metrics = std::map<std::string, double>;

void end_to_end_metrics(const std::vector<Search>& timed, const Search& cold,
                        int attempted, int failed, Metrics& m) {
  std::vector<double> ns, cpu;
  for (const Search& s : timed) {
    if (s.nodes == 0) continue;
    ns.push_back(s.scaled(s.ns_per_node()));
    cpu.push_back(s.scaled(s.cpu_s * 1e9 / s.nodes));
  }
  m["ns_per_node"] = median(ns);
  m["cpu_ns_per_node"] = median(cpu);
  m["peak_rss_mb"] = peak_rss_mb();
  m["sim_efficiency"] = cold.res.agg.efficiency;
  m["ok_frac"] = ratio(attempted - failed, attempted);
}

void per_layer_metrics(const Workload& w, const Search& cold,
                       const std::vector<Search>& plain,
                       const std::vector<Search>& traced, Metrics& m) {
  LedgerTotals t;
  std::vector<double> traced_ns, plain_ns, raw_ns, cal, cpu_util,
      ns_per_event;
  double n_traced = 0;
  for (const Search& s : traced) {
    if (s.nodes == 0 || !s.ledger) continue;
    t += *s.ledger;
    traced_ns.push_back(s.scaled(s.ns_per_node()));
    n_traced += 1;
  }
  const int workers = host_threads(w);
  for (const Search& s : plain) {
    if (s.nodes == 0) continue;
    plain_ns.push_back(s.scaled(s.ns_per_node()));
    raw_ns.push_back(s.ns_per_node());
    cal.push_back(s.cal_ns);
    cpu_util.push_back(ratio(s.cpu_s, s.wall_s * workers));
    ns_per_event.push_back(ratio(s.wall_s * 1e9, s.psim.events));
  }
  const double nodes = static_cast<double>(cold.nodes);
  const double sum = static_cast<double>(t.layer_sum());
  auto per_search = [&](std::uint64_t v) { return ratio(v, n_traced); };
  auto share = [&](perfbench::Layer l) { return ratio(t.ns[l], sum); };

  upcws::stats::Counters c;
  for (const upcws::stats::ThreadStats& ts : cold.res.per_thread) {
    c.steal_attempts += ts.c.steal_attempts;
    c.steals += ts.c.steals;
    c.probes += ts.c.probes;
    c.releases += ts.c.releases;
    c.reacquires += ts.c.reacquires;
    c.nodes_stolen += ts.c.nodes_stolen;
    c.barrier_entries += ts.c.barrier_entries;
    c.requests_serviced += ts.c.requests_serviced;
    c.requests_denied += ts.c.requests_denied;
  }
  const auto& frac = cold.res.agg.state_frac;
  using upcws::stats::State;

  m["uts.expand_calls"] = per_search(t.expand_calls);
  m["uts.children"] = per_search(t.children);
  m["uts.expand_ns"] = ratio(t.ns[perfbench::kUts], t.expand_calls);
  m["uts.expand_share"] = share(perfbench::kUts);

  m["ws.push_n_calls"] = per_search(t.push_calls);
  m["ws.push_n_ns"] = ratio(t.ns[perfbench::kPushN], t.push_calls);
  m["ws.push_n_share"] = share(perfbench::kPushN);
  m["ws.steal_attempts"] = c.steal_attempts;
  m["ws.steals"] = c.steals;
  m["ws.steal_success_ratio"] = ratio(c.steals, c.steal_attempts);
  m["ws.probes"] = c.probes;
  m["ws.probes_per_steal"] = ratio(c.probes, c.steals);
  m["ws.releases"] = c.releases;
  m["ws.reacquires"] = c.reacquires;
  m["ws.nodes_stolen"] = c.nodes_stolen;
  m["ws.barrier_entries"] = c.barrier_entries;
  m["ws.vt_working_frac"] = frac[static_cast<int>(State::kWorking)];
  m["ws.vt_searching_frac"] = frac[static_cast<int>(State::kSearching)];
  m["ws.vt_stealing_frac"] = frac[static_cast<int>(State::kStealing)];
  m["ws.vt_termination_frac"] = frac[static_cast<int>(State::kTermination)];
  m["ws.residual_share"] = share(perfbench::kResidual);

  m["pgas.ticks_per_node"] = ratio(per_search(t.ticks), nodes);
  using OK = pgas::ObsSink::OpKind;
  for (OK k : {OK::kGet, OK::kPut, OK::kAdd, OK::kCas, OK::kBulkGet,
               OK::kBulkPut})
    m[std::string("pgas.remote_") + pgas::ObsSink::op_kind_name(k)] =
        per_search(t.remote[static_cast<int>(k)]);
  m["pgas.lock_waits"] = per_search(t.lock_waits);
  m["pgas.lock_wait_vt_ns"] = per_search(t.lock_wait_vt_ns);

  m["sim.switches_per_node"] = ratio(cold.res.run.switches, nodes);
  m["sim.dispatch_ns"] = ratio(t.ns[perfbench::kDispatch], t.ticks);
  m["sim.dispatch_share"] = share(perfbench::kDispatch);
  m["sim.ready_queue_op_ns"] = perfbench::ready_queue_op_ns(w.ranks);
  m["sim.fiber_switch_ns"] = perfbench::fiber_switch_ns();

  const bool is_psim = w.engine == EngineKind::kPsim;
  m["psim.windows"] = cold.psim.windows;
  m["psim.events"] = cold.psim.events;
  m["psim.events_per_window"] = ratio(cold.psim.events, cold.psim.windows);
  m["psim.window_wall_us_p50"] = percentile(t.window_wall_ns, 0.50) / 1e3;
  m["psim.window_wall_us_p99"] = percentile(t.window_wall_ns, 0.99) / 1e3;
  m["psim.shard_imbalance"] = ratio(
      t.max_shard_switches - t.min_shard_switches, t.max_shard_switches);
  m["psim.cpu_util"] = is_psim ? median(cpu_util) : 0;
  m["psim.host_ns_per_event"] = is_psim ? median(ns_per_event) : 0;

  const bool is_mp = w.algo == ws::Algo::kMpiWs;
  m["mp.requests_serviced"] = is_mp ? c.requests_serviced : 0;
  m["mp.requests_denied"] = is_mp ? c.requests_denied : 0;
  m["mp.grant_ratio"] =
      is_mp ? ratio(c.requests_serviced,
                    c.requests_serviced + c.requests_denied)
            : 0;
  m["mp.send_recv_ns"] = perfbench::mp_send_recv_ns();

  m["host.cal_ns"] = median(cal);
  m["host.raw_ns_per_node"] = median(raw_ns);
  m["trace.overhead_frac"] = ratio(median(traced_ns), median(plain_ns)) - 1;
  m["ledger.sum_over_wall"] = ratio(sum, t.thread_wall_ns);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload& w = *a.workload;
  if (a.setup_probe) return setup_probe(a);

  const uts::Params tree = tree_params(a.small);
  // The sequential reference count, outside every timed region.
  std::uint64_t ref = uts::search_sequential(tree)->nodes;
  if (a.wrong_ref) ref += 1;  // self-test: every search must fail
  const double sha1_ns = perfbench::sha1_compress_ns(tree);

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::optional<SimSig> expect;
  const int threads = host_threads(w);
  auto run = [&](bool traced) {
    const double cal_before = perfbench::host_calibration_ns(threads);
    Search s = run_one(w, tree, a.seed, traced);
    s.cal_ns = 0.5 * (cal_before + perfbench::host_calibration_ns(threads));
    ++attempted;
    const std::string why = verdict(w, s, ref, expect);
    if (!why.empty()) {
      ++failed;
      if (failures.size() < 8) failures.push_back(why);
    }
    std::fprintf(stderr,
                 "  %s search: %.3f s wall, calibration %.1f ns, %llu "
                 "nodes%s%s\n",
                 traced ? "traced" : "plain ", s.wall_s, s.cal_ns,
                 static_cast<unsigned long long>(s.nodes),
                 why.empty() ? "" : "  FAILED: ", why.c_str());
    return s;
  };
  auto loop = [&](double budget_s, bool traced) {
    std::vector<Search> out;
    const auto t0 = Clock::now();
    do out.push_back(run(traced));
    while (seconds_since(t0) < budget_s);
    return out;
  };

  std::fprintf(stderr, "perfbench: %s seed=%llu reference nodes=%llu\n",
               w.name, static_cast<unsigned long long>(a.seed),
               static_cast<unsigned long long>(ref));
  const Search cold = run(false);
  if (cold.error.empty()) expect = cold.sig();

  Metrics m;
  if (!a.trace) {
    const std::vector<Search> timed = loop(a.seconds, false);
    end_to_end_metrics(timed, cold, attempted, failed, m);
  } else {
    const std::vector<Search> plain = loop(a.seconds / 2, false);
    const std::vector<Search> traced = loop(a.seconds / 2, true);
    m["sha1.compress_ns"] = sha1_ns;
    per_layer_metrics(w, cold, plain, traced, m);
  }

  std::string out = "{\"workload\": " + json_str(w.name) +
                    ", \"reference_nodes\": " + std::to_string(ref) +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    out += (i ? ", " : "") + json_str(failures[i]);
  out += "], \"fingerprint\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_str(cpu_model()) +
         ", \"compiler\": " + json_str(kCompiler) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"sha1_compress_ns\": " + json_num(sha1_ns) +
         ", \"calibration_ns\": " + json_num(cold.cal_ns) +
         ", \"psim_workers\": " +
         std::to_string(w.engine == EngineKind::kPsim ? kPsimWorkers : 0) +
         "}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    out += (first ? "" : ", ") + json_str(name) + ": " + json_num(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
