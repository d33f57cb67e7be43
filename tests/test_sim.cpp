// Fiber and discrete-event-scheduler tests: determinism, virtual-time
// ordering, livelock guard, cooperative interleaving semantics, and the
// direct fiber-to-fiber switch against the scheduler's physical loop.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/schedule_policy.hpp"
#include "sim/scheduler.hpp"

namespace {

using upcws::sim::Candidate;
using upcws::sim::Fiber;
using upcws::sim::HangDetected;
using upcws::sim::SchedulePolicy;
using upcws::sim::Scheduler;
using upcws::sim::TimeLimitExceeded;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::yield_current();
    trace.push_back(2);
    Fiber::yield_current();
    trace.push_back(3);
  });
  f.resume();
  trace.push_back(10);
  f.resume();
  trace.push_back(20);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 10, 2, 20, 3}));
}

TEST(Fiber, NestedFibers) {
  std::string log;
  Fiber inner([&] { log += "I"; });
  Fiber outer([&] {
    log += "a";
    inner.resume();
    log += "b";
  });
  outer.resume();
  EXPECT_EQ(log, "aIb");
}

TEST(Fiber, ResumeFinishedThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, YieldOutsideFiberThrows) {
  EXPECT_THROW(Fiber::yield_current(), std::logic_error);
}

TEST(Fiber, SwitchToUnstartedFiber) {
  std::string log;
  Fiber b([&] {
    log += "B";
    Fiber::yield_current();  // lands in a's resumer: this test body
    log += "b";
  });
  Fiber a([&] {
    log += "A";
    Fiber::switch_to(b);
    log += "a";
  });
  a.resume();
  log += "|";
  EXPECT_TRUE(b.started());
  EXPECT_FALSE(a.finished());
  EXPECT_FALSE(b.finished());
  a.resume();  // a wakes inside switch_to
  b.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(log, "AB|ab");
}

TEST(Fiber, SwitchToChainEndsAtResumer) {
  std::string log;
  std::unique_ptr<Fiber> a, b, c;
  c = std::make_unique<Fiber>([&] {
    log += "C";
    Fiber::yield_current();
    log += "c";
    Fiber::switch_to(*a);  // a resumes where it left off; so does c later
    log += "z";
  });
  b = std::make_unique<Fiber>([&] {
    log += "B";
    Fiber::switch_to(*c);
    log += "b";
  });
  a = std::make_unique<Fiber>([&] {
    log += "A";
    Fiber::switch_to(*b);
    log += "a";
  });
  a->resume();  // A -> B -> C, and C's yield returns here
  log += "|";
  c->resume();  // C -> A, and A's finish returns here
  log += "|";
  EXPECT_TRUE(a->finished());
  b->resume();
  c->resume();
  EXPECT_TRUE(b->finished());
  EXPECT_TRUE(c->finished());
  EXPECT_EQ(log, "ABC|ca|bz");
}

TEST(Fiber, FinishAfterSwitchToReturnsToResumer) {
  std::string log;
  Fiber b([&] { log += "B"; });
  Fiber a([&] {
    log += "A";
    Fiber::switch_to(b);
    log += "a";
  });
  a.resume();  // b was entered by switch_to; its return lands here
  EXPECT_TRUE(b.finished());
  EXPECT_FALSE(a.finished());
  // b is finished: a switch into it is refused, inside or outside a fiber.
  bool refused = false;
  Fiber c([&] {
    try {
      Fiber::switch_to(b);
    } catch (const std::logic_error&) {
      refused = true;
    }
  });
  c.resume();
  EXPECT_TRUE(refused);
  EXPECT_THROW(Fiber::switch_to(b), std::logic_error);
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(log, "ABa");
}

// Counts its destructions: an object on a fiber stack whose teardown a
// test checks.
struct GuardCount {
  int* n;
  ~GuardCount() { ++*n; }
};

TEST(Fiber, CancelAfterSwitchToRunsDestructors) {
  int destroyed = 0;
  Fiber b([&] {
    const GuardCount g{&destroyed};
    Fiber::yield_current();
  });
  Fiber a([&] {
    const GuardCount g{&destroyed};
    Fiber::switch_to(b);
    ADD_FAILURE() << "a must not run past its cancelled switch_to";
  });
  a.resume();
  EXPECT_EQ(destroyed, 0);
  a.cancel();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(destroyed, 1);
  b.cancel();
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(destroyed, 2);
}

// Resident set size of this process, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

// Resident memory added by spawning `n` fibers with `stack_bytes` stacks
// and running each once. The scheduler is handed to `keep` so that the next
// batch cannot reuse its memory.
std::int64_t batch_growth(int n, std::size_t stack_bytes,
                          std::vector<std::unique_ptr<Scheduler>>& keep) {
  Scheduler::Config cfg;
  cfg.stack_bytes = stack_bytes;
  auto s = std::make_unique<Scheduler>(cfg);
  const std::int64_t before = resident_bytes();
  for (int i = 0; i < n; ++i)
    s->spawn([] {
      Scheduler::current().advance(1);
      Scheduler::current().yield();
    });
  s->run();
  const std::int64_t grown = resident_bytes() - before;
  keep.push_back(std::move(s));
  return grown;
}

TEST(Fiber, StacksCommitOnTouch) {
  // Two batches of 512 fibers that touch the same few pages each: one with
  // 16 KiB stacks, one with 256 KiB. Only untouched stack pages separate
  // them, 120 MiB if stacks were committed up front. Comparing the batches
  // cancels per-fiber costs that are not the stack (scheduler bookkeeping,
  // a sanitizer's per-fiber state).
  constexpr int kFibers = 512;
  std::vector<std::unique_ptr<Scheduler>> keep;
  const std::int64_t small = batch_growth(kFibers, 16 * 1024, keep);
  const std::int64_t large = batch_growth(kFibers, 256 * 1024, keep);
  EXPECT_LT(large - small, std::int64_t{32} << 20)
      << "256 KiB stacks grew resident memory by " << (large >> 20)
      << " MiB, 16 KiB stacks by " << (small >> 20) << " MiB";
}

TEST(Scheduler, RunsAllTasks) {
  Scheduler s;
  int done = 0;
  for (int i = 0; i < 10; ++i) s.spawn([&] { ++done; });
  s.run();
  EXPECT_EQ(done, 10);
}

TEST(Scheduler, MinClockRunsFirst) {
  // Task 0 charges big time slices; task 1 small ones. After each yield the
  // scheduler must pick the task with the smaller clock.
  Scheduler s;
  std::vector<int> order;
  s.spawn([&] {
    auto& sc = Scheduler::current();
    order.push_back(0);
    sc.advance(1000);
    sc.yield();
    order.push_back(0);
  });
  s.spawn([&] {
    auto& sc = Scheduler::current();
    order.push_back(1);
    sc.advance(10);
    sc.yield();
    order.push_back(1);
    sc.advance(10);
    sc.yield();
    order.push_back(1);
  });
  s.run();
  // t0 runs first (tie at 0, lower id), charges 1000, yields. t1 runs at 0,
  // 10, 20 before t0's 1000 comes up again.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 1, 1, 0}));
}

TEST(Scheduler, MakespanIsMaxClock) {
  Scheduler s;
  s.spawn([] { Scheduler::current().advance(500); });
  s.spawn([] { Scheduler::current().advance(1500); });
  s.run();
  EXPECT_EQ(s.makespan_ns(), 1500u);
}

TEST(Scheduler, DeterministicTieBreakById) {
  for (int rep = 0; rep < 3; ++rep) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
      s.spawn([&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  }
}

TEST(Scheduler, TimeLimitGuardsLivelock) {
  Scheduler::Config cfg;
  cfg.vt_limit_ns = 10'000;
  Scheduler s(cfg);
  s.spawn([] {
    auto& sc = Scheduler::current();
    for (;;) {  // never terminates on its own
      sc.advance(100);
      sc.yield();
    }
  });
  EXPECT_THROW(s.run(), TimeLimitExceeded);
}

TEST(Scheduler, PingPongThroughSharedFlag) {
  // Two tasks alternate through a shared variable, each advancing its
  // clock; the virtual-time order forces strict alternation.
  Scheduler s;
  int turn = 0;
  std::vector<int> seq;
  auto body = [&](int id) {
    auto& sc = Scheduler::current();
    for (int i = 0; i < 5; ++i) {
      while (turn != id) {
        sc.advance(10);
        sc.yield();
      }
      seq.push_back(id);
      turn = 1 - id;
      sc.advance(10);
      sc.yield();
    }
  };
  s.spawn([&] { body(0); });
  s.spawn([&] { body(1); });
  s.run();
  ASSERT_EQ(seq.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seq[i], i % 2);
}

TEST(Scheduler, SwitchCountIsTracked) {
  Scheduler s;
  s.spawn([] {
    for (int i = 0; i < 3; ++i) {
      Scheduler::current().advance(1);
      Scheduler::current().yield();
    }
  });
  s.run();
  EXPECT_GE(s.switches(), 4u);  // 3 yields + final completion resume
}

TEST(Scheduler, ManyFibers) {
  Scheduler::Config cfg;
  cfg.stack_bytes = 64 * 1024;
  Scheduler s(cfg);
  const int n = 512;
  std::uint64_t sum = 0;
  for (int i = 0; i < n; ++i) {
    s.spawn([&sum, i] {
      auto& sc = Scheduler::current();
      sc.advance(static_cast<std::uint64_t>(i));
      sc.yield();
      sum += static_cast<std::uint64_t>(i);
    });
  }
  s.run();
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
  EXPECT_EQ(s.makespan_ns(), static_cast<std::uint64_t>(n - 1));
}

// Always resumes candidate 0, the default (vt, id) minimum: the policy loop
// then runs the same schedule as run(), but every step switches through the
// scheduler's own context.
class PickFirst final : public SchedulePolicy {
 public:
  std::size_t pick(const std::vector<Candidate>&) override { return 0; }
};

struct RunTrail {
  std::vector<std::pair<int, std::uint64_t>> slices;  // (task, vt) per slice
  std::uint64_t switches = 0;
  std::uint64_t makespan = 0;
};

// n tasks with seeded random bodies: each charges random time, yields a
// random number of times, and may finish early.
RunTrail random_run(int n, std::uint64_t seed, bool physical) {
  PickFirst pick_first;
  Scheduler::Config cfg;
  cfg.stack_bytes = 64 * 1024;
  if (physical) cfg.policy = &pick_first;
  Scheduler s(cfg);
  RunTrail trail;
  for (int t = 0; t < n; ++t) {
    s.spawn([&trail, seed, t] {
      auto& sc = Scheduler::current();
      std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(t));
      const int steps = static_cast<int>(rng() % 40);
      for (int i = 0; i < steps; ++i) {
        trail.slices.emplace_back(sc.current_task(), sc.now());
        if (rng() % 16 == 0) return;  // early finish
        // Often 0, so ties in (vt, id) are common.
        sc.advance(rng() % 4 == 0 ? 0 : rng() % 500);
        if (rng() % 4 != 0) sc.yield();
      }
      trail.slices.emplace_back(sc.current_task(), sc.now());
    });
  }
  s.run();
  trail.switches = s.switches();
  trail.makespan = s.makespan_ns();
  return trail;
}

TEST(Scheduler, DirectSwitchMatchesPhysicalLoop) {
  for (const int n : {1, 2, 64, 512}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const RunTrail direct = random_run(n, seed, /*physical=*/false);
      const RunTrail physical = random_run(n, seed, /*physical=*/true);
      EXPECT_EQ(direct.slices, physical.slices)
          << "n " << n << " seed " << seed;
      EXPECT_EQ(direct.switches, physical.switches)
          << "n " << n << " seed " << seed;
      EXPECT_EQ(direct.makespan, physical.makespan)
          << "n " << n << " seed " << seed;
    }
  }
}

// Spinners that never make progress; each holds a destructor-counted object
// on its fiber stack. Most of them are suspended inside a direct switch
// when a guard fires.
void spawn_spinners(Scheduler& s, int n, int* destroyed) {
  for (int t = 0; t < n; ++t) {
    s.spawn([destroyed, t] {
      const GuardCount g{destroyed};
      auto& sc = Scheduler::current();
      for (;;) {
        sc.advance(10 + static_cast<std::uint64_t>(t % 7));
        sc.yield();
      }
    });
  }
}

// Where the vt-limit and watchdog guards stop a run of spinners, and how
// many fiber-stack destructors the teardown ran.
struct GuardStop {
  int limit_task = -1;
  std::uint64_t limit_clock = 0;
  std::uint64_t stuck_at = 0;
  int destroyed = 0;
};

GuardStop guard_stop(int n, bool physical) {
  PickFirst pick_first;
  Scheduler::Config cfg;
  cfg.stack_bytes = 64 * 1024;
  if (physical) cfg.policy = &pick_first;
  GuardStop stop;
  {
    Scheduler::Config c = cfg;
    c.vt_limit_ns = 5'000;
    Scheduler s(c);
    spawn_spinners(s, n, &stop.destroyed);
    try {
      s.run();
      ADD_FAILURE() << "expected TimeLimitExceeded";
    } catch (const TimeLimitExceeded& e) {
      stop.limit_task = e.task;
      stop.limit_clock = e.clock_ns;
    }
  }
  {
    Scheduler::Config c = cfg;
    c.watchdog_ns = 3'000;
    Scheduler s(c);
    spawn_spinners(s, n, &stop.destroyed);
    try {
      s.run();
      ADD_FAILURE() << "expected HangDetected";
    } catch (const HangDetected& e) {
      stop.stuck_at = e.stuck_at_ns;
    }
  }
  return stop;
}

TEST(Scheduler, GuardsFireFromRunWithDirectSwitches) {
  constexpr int kTasks = 64;
  const GuardStop direct = guard_stop(kTasks, /*physical=*/false);
  const GuardStop physical = guard_stop(kTasks, /*physical=*/true);
  EXPECT_GT(direct.limit_clock, 5'000u);
  EXPECT_GT(direct.stuck_at, 3'000u);
  EXPECT_EQ(direct.limit_task, physical.limit_task);
  EXPECT_EQ(direct.limit_clock, physical.limit_clock);
  EXPECT_EQ(direct.stuck_at, physical.stuck_at);
  // Both scheduler teardowns cancel-unwound every spinner.
  EXPECT_EQ(direct.destroyed, 2 * kTasks);
  EXPECT_EQ(physical.destroyed, 2 * kTasks);
}

}  // namespace
