// Differential property test for the scheduler's 4-ary-heap ready queue.
//
// The ReadyQueue replaced std::priority_queue<QEntry> on the engine's hot
// path; the scheduler's pop order — including the (vt, task-id) tie-break —
// is part of its deterministic output (switch counts and traces depend on
// it). This test drives the heap and a priority_queue reference model
// through identical randomized op sequences and requires identical
// observable behavior at every step: top/pop/push_pop order and size.
#include <cstdint>
#include <queue>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/ready_queue.hpp"

namespace upcws::sim {
namespace {

struct RefEntry {
  std::uint64_t vt;
  int task;
};

struct RefGreater {
  bool operator()(const RefEntry& a, const RefEntry& b) const {
    return a.vt != b.vt ? a.vt > b.vt : a.task > b.task;
  }
};

/// Reference model: the scheduler's original std::priority_queue, plus the
/// set of queued tasks (each task has at most one entry).
class RefQueue {
 public:
  bool empty() const { return pq_.empty(); }
  std::size_t size() const { return pq_.size(); }
  bool contains(int task) const { return queued_.count(task) != 0; }

  void push(std::uint64_t vt, int task) {
    ASSERT_FALSE(contains(task));
    queued_.insert(task);
    pq_.push({vt, task});
  }

  RefEntry top() const { return pq_.top(); }

  RefEntry pop() {
    const RefEntry e = pq_.top();
    pq_.pop();
    queued_.erase(e.task);
    return e;
  }

  /// The fused operation spelled out: push, then pop.
  RefEntry push_pop(std::uint64_t vt, int task) {
    push(vt, task);
    return pop();
  }

 private:
  std::priority_queue<RefEntry, std::vector<RefEntry>, RefGreater> pq_;
  std::set<int> queued_;
};

/// One randomized run: `ops` operations over `ntasks` task ids, comparing
/// every observable of ReadyQueue against the reference model.
void differential_run(std::uint64_t seed, int ntasks, int ops,
                      std::uint64_t vt_range, bool favor_ties) {
  std::mt19937_64 rng(seed);
  ReadyQueue rq;
  rq.ensure_tasks(ntasks);
  RefQueue ref;

  std::vector<int> out_tasks;  // pop order, for the failure message
  for (int step = 0; step < ops; ++step) {
    ASSERT_EQ(rq.empty(), ref.empty()) << "step " << step;
    ASSERT_EQ(rq.size(), ref.size()) << "step " << step;
    if (!rq.empty()) {
      const ReadyQueue::Entry a = rq.top();
      const RefEntry b = ref.top();
      ASSERT_EQ(a.vt, b.vt) << "step " << step;
      ASSERT_EQ(a.task, b.task) << "step " << step;
    }

    const int op = static_cast<int>(rng() % 100);
    if (op < 45 || ref.empty() || op >= 80) {
      // Push (or push_pop) a currently-unqueued task. With favor_ties,
      // draw vt from a tiny range so many entries collide and the id
      // tie-break is what actually orders the heap.
      std::vector<int> free;
      for (int t = 0; t < ntasks; ++t)
        if (!ref.contains(t)) free.push_back(t);
      if (free.empty()) continue;
      const int task = free[rng() % free.size()];
      const std::uint64_t vt =
          favor_ties ? rng() % 4 : rng() % (vt_range + 1);
      if (op < 80) {
        rq.push(vt, task);
        ref.push(vt, task);
        continue;
      }
      // The fused op hands back either the pushed key itself (still the
      // minimum) or the old head.
      const ReadyQueue::Entry a = rq.push_pop(vt, task);
      const RefEntry b = ref.push_pop(vt, task);
      ASSERT_EQ(a.vt, b.vt) << "push_pop diverged at step " << step;
      ASSERT_EQ(a.task, b.task) << "push_pop diverged at step " << step;
    } else {
      const ReadyQueue::Entry a = rq.pop();
      const RefEntry b = ref.pop();
      ASSERT_EQ(a.vt, b.vt) << "pop order diverged at step " << step;
      ASSERT_EQ(a.task, b.task) << "pop order diverged at step " << step;
      out_tasks.push_back(a.task);
    }
  }

  // Drain: the remaining pop order must match exactly.
  while (!ref.empty()) {
    ASSERT_FALSE(rq.empty());
    const ReadyQueue::Entry a = rq.pop();
    const RefEntry b = ref.pop();
    ASSERT_EQ(a.vt, b.vt);
    ASSERT_EQ(a.task, b.task);
  }
  ASSERT_TRUE(rq.empty());
  ASSERT_EQ(rq.size(), 0u);
}

TEST(SchedulerOrder, DifferentialRandomOps) {
  // ~10k ops per seed, wide vt range: general-position behavior.
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    differential_run(seed, /*ntasks=*/64, /*ops=*/10'000,
                     /*vt_range=*/1'000'000, /*favor_ties=*/false);
}

TEST(SchedulerOrder, DifferentialTieHeavy) {
  // vt drawn from {0..3}: nearly every comparison is decided by the task-id
  // tie-break, the part of the order the engine's determinism depends on.
  for (std::uint64_t seed = 100; seed <= 104; ++seed)
    differential_run(seed, /*ntasks=*/32, /*ops=*/10'000,
                     /*vt_range=*/3, /*favor_ties=*/true);
}

TEST(SchedulerOrder, DifferentialSmallAndDegenerate) {
  // 1-task and 2-task queues: exercises the empty and root-only edges.
  differential_run(7, /*ntasks=*/1, /*ops=*/2'000, /*vt_range=*/10,
                   /*favor_ties=*/false);
  differential_run(8, /*ntasks=*/2, /*ops=*/2'000, /*vt_range=*/2,
                   /*favor_ties=*/true);
}

TEST(SchedulerOrder, SchedulerStepPattern) {
  // The engine's actual access pattern: pop the min, re-push it with a
  // non-decreasing key. Order must equal the reference across 10k steps.
  std::mt19937_64 rng(42);
  ReadyQueue rq;
  RefQueue ref;
  const int kTasks = 16;
  rq.ensure_tasks(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    rq.push(0, t);
    ref.push(0, t);
  }
  for (int step = 0; step < 10'000; ++step) {
    ASSERT_EQ(rq.empty(), ref.empty()) << "step " << step;
    if (rq.empty()) {
      // All tasks "finished" — start a fresh run at the drained clock, as
      // a new Scheduler::run() would (spawn pushes everyone at one vt).
      for (int t = 0; t < kTasks; ++t) {
        rq.push(step, t);
        ref.push(step, t);
      }
    }
    const ReadyQueue::Entry a = rq.pop();
    const RefEntry b = ref.pop();
    ASSERT_EQ(a.vt, b.vt) << "step " << step;
    ASSERT_EQ(a.task, b.task) << "step " << step;
    if (rng() % 50 == 0) continue;  // task "finished"; queue shrinks
    const std::uint64_t nvt = a.vt + rng() % 1000;  // charge; often 0 (tie)
    rq.push(nvt, a.task);
    ref.push(nvt, a.task);
  }
}

TEST(SchedulerOrder, DirectYieldPattern) {
  // The direct-yield access pattern: the running task re-files itself with
  // a non-decreasing key and the minimum runs next, in one push_pop. Order
  // must equal the reference's push-then-pop across 10k steps.
  std::mt19937_64 rng(43);
  ReadyQueue rq;
  RefQueue ref;
  const int kTasks = 16;
  rq.ensure_tasks(kTasks);
  for (int t = 1; t < kTasks; ++t) {
    rq.push(0, t);
    ref.push(0, t);
  }
  ReadyQueue::Entry cur{0, 0};  // task 0 runs first
  for (int step = 0; step < 10'000; ++step) {
    const std::uint64_t nvt = cur.vt + rng() % 1000;  // often 0 (tie)
    const ReadyQueue::Entry a = rq.push_pop(nvt, cur.task);
    const RefEntry b = ref.push_pop(nvt, cur.task);
    ASSERT_EQ(a.vt, b.vt) << "step " << step;
    ASSERT_EQ(a.task, b.task) << "step " << step;
    ASSERT_EQ(rq.size(), ref.size()) << "step " << step;
    cur = a;
  }
}

}  // namespace
}  // namespace upcws::sim
