// Reproduces the paper's §3.3.2 "rapid diffusion" argument quantitatively:
// "Each thread that steals a large number of chunks becomes itself a viable
// victim to other threads. The addition of more work sources decreases the
// number of probes required to find a victim..."
//
// We trace work-source status changes (a rank's shared region becoming
// stealable / emptying) and print the number of concurrently available work
// sources over time for the one-chunk policy vs the steal-half policy, plus
// the resulting probe counts.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "pgas/sim_engine.hpp"
#include "stats/table.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

using namespace upcws;
using benchutil::Mode;

int main(int argc, char** argv) {
  const Mode mode = benchutil::mode_from_args(argc, argv);

  const int nranks = mode == Mode::kQuick ? 16 : 32;
  const uts::Params tree = mode == Mode::kFull ? uts::scaled_bench(0)
                                               : uts::scaled_bench(5);
  const int chunk = 4;
  const int buckets = 12;

  benchutil::print_banner(
      "bench_diffusion -- Sect. 3.3.2: rapid diffusion of work sources",
      "steal-half 'rapidly increases the number of work sources', reducing "
      "probes and contention (qualitative claim; no figure)",
      std::string("mode=") + benchutil::mode_name(mode) +
          " nranks=" + std::to_string(nranks) + " tree=" + tree.describe() +
          " chunk=" + std::to_string(chunk) + " net=distributed");

  const ws::UtsProblem prob(tree);
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 21;

  struct Row {
    const char* name;
    ws::Algo algo;
    ws::SearchResult res;
  };
  std::vector<Row> rows;
  rows.push_back({"one-chunk (upc-term)", ws::Algo::kUpcTerm, {}});
  rows.push_back({"steal-half (upc-term-rapdif)", ws::Algo::kUpcTermRapdif, {}});

  std::uint64_t horizon = 0;
  for (auto& r : rows) {
    r.res = ws::run_algo(eng, rcfg, r.algo, prob, chunk);
    horizon = std::max(horizon,
                       static_cast<std::uint64_t>(r.res.run.elapsed_s * 1e9));
  }

  std::vector<std::string> head{"policy"};
  for (int b = 0; b < buckets; ++b) {
    std::string col = "t";
    col += std::to_string((b + 1) * 100 / buckets);
    col += '%';
    head.push_back(col);
  }
  stats::Table t(head);
  for (auto& r : rows) {
    const auto series =
        stats::work_source_timeline(r.res.per_thread, horizon, buckets);
    std::vector<std::string> row{r.name};
    for (int v : series) row.push_back(stats::Table::fmt(v));
    t.add_row(row);
  }
  std::printf("\nPeak concurrent work sources per time slice "
              "(shared horizon = slower policy's makespan):\n");
  t.print(std::cout);

  stats::Table t2({"policy", "Mnodes/s", "probes", "probes/steal",
                   "failed steals", "steals"});
  for (auto& r : rows) {
    const double pps =
        r.res.agg.total_steals
            ? static_cast<double>(r.res.agg.total_probes) /
                  static_cast<double>(r.res.agg.total_steals)
            : 0.0;
    t2.add_row({r.name, stats::Table::fmt(benchutil::mnps(r.res), 2),
                stats::Table::fmt(r.res.agg.total_probes),
                stats::Table::fmt(pps, 1),
                stats::Table::fmt(r.res.agg.total_failed_steals),
                stats::Table::fmt(r.res.agg.total_steals)});
  }
  std::printf("\nWork-discovery effort:\n");
  t2.print(std::cout);
  std::printf(
      "\nExpected shape: steal-half reaches more simultaneous work sources "
      "sooner and needs fewer probes per successful steal.\n");
  return 0;
}
