// Reproduces paper §4.1 "Sequential Performance".
//
// The paper reports 2.10 M nodes/s on Topsail (Xeon E5345) and 2.39 M
// nodes/s on Kitty Hawk (Xeon E5150), noting the rate "primarily reflects
// the speed at which the processor can calculate SHA-1 hash evaluations".
// This bench measures (a) raw SHA-1 throughput, (b) the cost of one
// compression through each SHA-1 kernel this CPU can run, (c) the real
// sequential UTS rate on this machine, and (d) the virtual-time rate the
// simulator's cost model is calibrated to. Every result notes which SHA-1
// compression kernel ran (`sha1_kernel`: sha-ni or portable, chosen from
// CPUID).
#include <cstdio>
#include <iostream>
#include <utility>

#include "common.hpp"
#include "sha1/kernels.hpp"
#include "sha1/sha1.hpp"
#include "stats/table.hpp"
#include "uts/sequential.hpp"
#include "uts/tree.hpp"

using namespace upcws;
using benchutil::Mode;

namespace {

double sha1_mbps(std::size_t block, double seconds_budget) {
  std::vector<std::uint8_t> buf(block, 0xAB);
  benchutil::Stopwatch sw;
  std::uint64_t bytes = 0;
  sha1::Digest d{};
  while (sw.seconds() < seconds_budget) {
    for (int i = 0; i < 64; ++i) {
      d = sha1::hash(buf.data(), buf.size());
      buf[0] = d[0];  // defeat dead-code elimination
      bytes += buf.size();
    }
  }
  return static_cast<double>(bytes) / sw.seconds() / 1e6;
}

// Keeps the compression chain's result observable.
volatile std::uint32_t g_sink = 0;

/// ns per compression through `kernel`, each block folding into the
/// previous state (a dependent chain, as one UTS path down the tree is).
double compress_ns(sha1::detail::Kernel kernel, double seconds_budget) {
  sha1::detail::State st = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                            0x10325476u, 0xC3D2E1F0u};
  std::uint8_t block[64] = {};
  block[24] = 0x80;
  block[63] = 192;
  benchutil::Stopwatch sw;
  std::uint64_t n = 0;
  while (sw.seconds() < seconds_budget) {
    for (int i = 0; i < 1024; ++i) kernel(st, block);
    n += 1024;
  }
  const double ns = sw.seconds() * 1e9 / static_cast<double>(n);
  g_sink = st[0];
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = benchutil::mode_from_args(argc, argv);
  const uts::Params tree = mode == Mode::kQuick ? uts::scaled_bench(5)
                           : mode == Mode::kFull ? uts::scaled_large(1)
                                                 : uts::scaled_bench(0);
  const std::string kernel = sha1::detail::selected_kernel_name();

  benchutil::print_banner(
      "bench_seq_perf -- sequential UTS rate (paper Sect. 4.1)",
      "Topsail E5345: 2.10 M nodes/s; Kitty Hawk E5150: 2.39 M nodes/s; "
      "SGI Altix Itanium2: 1.12 M nodes/s",
      std::string("mode=") + benchutil::mode_name(mode) +
          " tree=" + tree.describe() + " sha1_kernel=" + kernel);

  benchutil::BenchReporter rep("bench_seq_perf", mode);

  stats::Table sha({"SHA-1 block bytes", "MB/s", "hashes/s"});
  for (std::size_t block : {24u, 64u, 256u, 4096u}) {
    const double mbps = sha1_mbps(block, 0.2);
    sha.add_row({stats::Table::fmt(static_cast<std::uint64_t>(block)),
                 stats::Table::fmt(mbps, 1),
                 stats::Table::fmt(mbps * 1e6 / block, 0)});
    rep.result("sha1_block" + std::to_string(block))
        .metric("mb_per_sec", mbps)
        .metric("hashes_per_sec", mbps * 1e6 / static_cast<double>(block))
        .note("sha1_kernel", kernel);
  }
  std::printf("\nSHA-1 throughput (this machine):\n");
  sha.print(std::cout);

  stats::Table comp({"SHA-1 compression kernel", "ns/block"});
  const std::pair<const char*, sha1::detail::Kernel> kernels[] = {
      {"portable", &sha1::detail::compress_portable},
      {"sha-ni", sha1::detail::sha_ni_kernel()}};
  for (const auto& [name, fn] : kernels) {
    if (fn == nullptr) {
      comp.add_row({name, "skipped: CPU lacks SHA-NI or not an x86 build"});
      continue;
    }
    const double ns = compress_ns(fn, 0.2);
    comp.add_row({name, stats::Table::fmt(ns, 1)});
    rep.result(std::string("sha1_compress_") + name)
        .metric("ns_per_block", ns);
  }
  std::printf("\nOne SHA-1 compression per kernel (dependent chain):\n");
  comp.print(std::cout);

  const auto r = uts::search_sequential(tree);
  if (!r) {
    std::printf("sequential search exceeded budget -- tree too large\n");
    return 1;
  }

  stats::Table t({"metric", "value"});
  t.add_row({"tree nodes", stats::Table::fmt(r->nodes)});
  t.add_row({"tree leaves", stats::Table::fmt(r->leaves)});
  t.add_row({"max depth", stats::Table::fmt(r->max_depth)});
  t.add_row({"max DFS stack", stats::Table::fmt(
                                  static_cast<std::uint64_t>(r->max_stack))});
  t.add_row({"elapsed s", stats::Table::fmt(r->seconds, 3)});
  t.add_row({"measured M nodes/s (real)",
             stats::Table::fmt(r->nodes_per_sec() / 1e6, 2)});
  t.add_row({"simulator-calibrated M nodes/s (450 ns/node)",
             stats::Table::fmt(1e3 / 450.0, 2)});
  t.add_row({"paper Topsail M nodes/s", "2.10"});
  t.add_row({"paper Kitty Hawk M nodes/s", "2.39"});
  std::printf("\nSequential UTS traversal:\n");
  t.print(std::cout);

  rep.result("seq_uts")
      .metric("nodes", static_cast<double>(r->nodes))
      .metric("wall_s", r->seconds)
      .metric("nodes_per_sec", r->nodes_per_sec())
      .note("tree", tree.describe())
      .note("sha1_kernel", kernel);
  if (!rep.write_json_file("BENCH_seq.json"))
    std::fprintf(stderr, "warning: could not write BENCH_seq.json\n");
  std::printf("\nwrote BENCH_seq.json\n");
  return 0;
}
