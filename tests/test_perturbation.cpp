// Perturbation-injection tests: timing jitter must change schedules (and
// therefore timings/steal patterns) without ever changing results — the
// protocols' correctness cannot depend on timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

TEST(Jitter, CountsExactUnderHeavyJitter) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.net.jitter_frac = 2.0;  // remote ops cost 1x..3x nominal
  for (ws::Algo a : ws::kAllAlgos) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      rcfg.seed = seed;
      const auto r = ws::run_algo(eng, rcfg, a, prob, 2);
      EXPECT_EQ(r.total_nodes(), want)
          << ws::algo_label(a) << " seed " << seed;
    }
  }
}

TEST(Jitter, ChangesTimingButStaysDeterministic) {
  const ws::UtsProblem prob(uts::test_small(6));
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 4;

  const auto base = ws::run_algo(eng, rcfg, ws::Algo::kUpcDistMem, prob, 2);
  rcfg.net.jitter_frac = 1.0;
  const auto j1 = ws::run_algo(eng, rcfg, ws::Algo::kUpcDistMem, prob, 2);
  const auto j2 = ws::run_algo(eng, rcfg, ws::Algo::kUpcDistMem, prob, 2);

  // Jitter slows remote ops (strictly additive), and identical seeds give
  // identical jittered runs.
  EXPECT_GT(j1.run.elapsed_s, base.run.elapsed_s);
  EXPECT_EQ(j1.run.elapsed_s, j2.run.elapsed_s);
  EXPECT_EQ(j1.agg.total_steals, j2.agg.total_steals);
}

TEST(Jitter, MessagePassingToleratesReordering) {
  // With strong jitter, messages between distinct pairs arrive far out of
  // their send order; mpi-ws (token + acks) must still terminate correctly.
  const uts::Params p = uts::test_small(7);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 12;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.net.jitter_frac = 4.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    rcfg.seed = seed;
    const auto r = ws::run_algo(eng, rcfg, ws::Algo::kMpiWs, prob, 2);
    EXPECT_EQ(r.total_nodes(), want) << "seed " << seed;
  }
}

TEST(Timeline, SyntheticEventsBucketCorrectly) {
  std::vector<stats::ThreadStats> per(2);
  // Rank 0: source during [100, 500). Rank 1: source during [300, 900).
  per[0].source_events = {{100, +1}, {500, -1}};
  per[1].source_events = {{300, +1}, {900, -1}};
  const auto series = stats::work_source_timeline(per, 1000, 10);
  ASSERT_EQ(series.size(), 10u);
  EXPECT_EQ(series[0], 1);  // (0,100]: +1 at 100
  EXPECT_EQ(series[1], 1);
  EXPECT_EQ(series[2], 2);  // 300 joins
  EXPECT_EQ(series[4], 2);  // peak before 500's -1... 500 lands in bucket 4
  EXPECT_EQ(series[5], 1);
  EXPECT_EQ(series[8], 1);  // 900's -1 lands in bucket 8; peak was 1
  EXPECT_EQ(series[9], 0);
}

TEST(Timeline, EmptyAndDegenerate) {
  EXPECT_TRUE(stats::work_source_timeline({}, 0, 0).empty());
  const auto flat = stats::work_source_timeline({}, 100, 4);
  EXPECT_EQ(flat, (std::vector<int>{0, 0, 0, 0}));
}

TEST(Timeline, RealRunProducesBalancedEvents) {
  const ws::UtsProblem prob(uts::scaled_medium(3));
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  const auto r = ws::run_algo(eng, rcfg, ws::Algo::kUpcTermRapdif, prob, 4);
  int sum = 0;
  std::uint64_t events = 0;
  for (const auto& t : r.per_thread) {
    for (const auto& e : t.source_events) {
      ASSERT_TRUE(e.delta == 1 || e.delta == -1);
      sum += e.delta;
      ++events;
    }
  }
  EXPECT_GT(events, 0u);
  // Every +1 is eventually matched by a -1: at termination no stack has
  // stealable work.
  EXPECT_EQ(sum, 0);
  const auto series = stats::work_source_timeline(
      r.per_thread, static_cast<std::uint64_t>(r.run.elapsed_s * 1e9), 8);
  int peak = 0;
  for (int v : series) peak = std::max(peak, v);
  EXPECT_GT(peak, 1) << "diffusion should create multiple work sources";
  EXPECT_LE(peak, 8);
}

// ---------------------------------------------------------------------------
// The same perturbations on ThreadEngine: real threads, real (wall-clock)
// delays via inject_scale, real races. Timings are not reproducible here,
// so only the exact-count invariant is asserted.

TEST(ThreadPerturbation, JitterExactUnderRealRaces) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::ThreadEngine::Options opt;
  opt.inject_scale = 0.05;  // distributed-model delays at 5% scale, for real
  pgas::ThreadEngine eng(opt);
  pgas::RunConfig rcfg;
  rcfg.nranks = 4;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.net.jitter_frac = 2.0;
  for (ws::Algo a : ws::kAllAlgos) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      rcfg.seed = seed;
      const auto r = ws::run_algo(eng, rcfg, a, prob, 2);
      EXPECT_EQ(r.total_nodes(), want)
          << ws::algo_label(a) << " seed " << seed;
    }
  }
}

TEST(ThreadPerturbation, StragglerExactAndRoutedAround) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::ThreadEngine::Options opt;
  opt.inject_scale = 0.05;
  pgas::ThreadEngine eng(opt);
  pgas::RunConfig rcfg;
  rcfg.nranks = 4;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.net.straggler_rank = 1;
  // 450 ns x 400 x 0.05 = 9 us of busy-wait per node, far above the host's
  // own per-node cost (well under 1 us), so the straggler is by far the
  // slowest rank on any host.
  rcfg.net.straggler_work_factor = 400.0;
  // Work stealing routes load away from the slow rank: it must not end up
  // doing the largest share. Shares on real threads follow the host's
  // scheduling, which can stop the other ranks for longer than a run lasts,
  // so the claim is made on the median over repeats; every run must still
  // count exactly.
  constexpr int kRepeats = 5;
  for (ws::Algo a : ws::kAllAlgos) {
    std::vector<std::uint64_t> straggler, most_other;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto r = ws::run_algo(eng, rcfg, a, prob, 2);
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a);
      std::uint64_t most = 0;
      for (std::size_t i = 0; i < r.per_thread.size(); ++i)
        if (i != 1) most = std::max(most, r.per_thread[i].c.nodes);
      straggler.push_back(r.per_thread[1].c.nodes);
      most_other.push_back(most);
    }
    std::sort(straggler.begin(), straggler.end());
    std::sort(most_other.begin(), most_other.end());
    EXPECT_LT(straggler[kRepeats / 2], most_other[kRepeats / 2])
        << ws::algo_label(a);
  }
}

TEST(ThreadPerturbation, FaultPlanStallsExact) {
  // Fault-plan stalls on ThreadEngine freeze the OS thread for real wall
  // time (times are wall-clock nanoseconds since the run epoch).
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::ThreadEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 4;
  rcfg.net = pgas::NetModel::free();
  pgas::FaultPlan plan;
  plan.stall_ns = 50'000;        // 50 us real freezes...
  plan.stall_period_ns = 200'000;  // ...a few times per millisecond
  rcfg.faults = plan;
  for (ws::Algo a : ws::kAllAlgos) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      rcfg.seed = seed;
      const auto r = ws::run_algo(eng, rcfg, a, prob, 2);
      EXPECT_EQ(r.total_nodes(), want)
          << ws::algo_label(a) << " seed " << seed;
    }
  }
}

TEST(ThreadPerturbation, HardenedMpiDropDupExact) {
  // Message drop/duplication with the hardened mpi-ws on real threads:
  // retransmit timers run on the wall clock.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::ThreadEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 4;
  rcfg.net = pgas::NetModel::free();
  pgas::FaultPlan plan;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.05;
  rcfg.faults = plan;
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kMpiWs, 2);
  cfg.steal_timeout_ns = 200'000;  // 0.2 ms wall-clock retransmit timer
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    rcfg.seed = seed;
    const auto r = ws::run_search(eng, rcfg, prob, cfg);
    EXPECT_EQ(r.total_nodes(), want) << "seed " << seed;
  }
}

TEST(Driver, InvalidConfigsThrow) {
  const ws::UtsProblem prob(uts::test_small());
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 0;
  EXPECT_THROW(
      ws::run_search(eng, rcfg, prob, ws::WsConfig::for_algo(ws::Algo::kUpcTerm)),
      std::invalid_argument);
  rcfg.nranks = 2;
  ws::WsConfig bad = ws::WsConfig::for_algo(ws::Algo::kUpcTerm);
  bad.chunk_size = -5;
  EXPECT_THROW(ws::run_search(eng, rcfg, prob, bad), std::invalid_argument);
}

TEST(Driver, SequentialRateOverrideScalesSpeedup) {
  const ws::UtsProblem prob(uts::test_small(6));
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 4;
  const auto a =
      ws::run_algo(eng, rcfg, ws::Algo::kUpcDistMem, prob, 2, 1e6);
  const auto b =
      ws::run_algo(eng, rcfg, ws::Algo::kUpcDistMem, prob, 2, 2e6);
  // Same run, doubled baseline rate -> halved speedup.
  EXPECT_NEAR(a.agg.speedup, 2.0 * b.agg.speedup, 1e-9);
}

}  // namespace
