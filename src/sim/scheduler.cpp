#include "sim/scheduler.hpp"

#include <algorithm>
#include <sstream>

namespace upcws::sim {

namespace {
thread_local Scheduler* g_current_scheduler = nullptr;

std::string time_limit_msg(int task, std::uint64_t clock_ns,
                           std::uint64_t limit_ns) {
  std::ostringstream os;
  os << "simulated virtual time limit exceeded: rank " << task << " at vt="
     << clock_ns << " ns (limit " << limit_ns << " ns)";
  return os.str();
}
}  // namespace

TimeLimitExceeded::TimeLimitExceeded(int task, std::uint64_t clock_ns,
                                     std::uint64_t limit_ns)
    : std::runtime_error(time_limit_msg(task, clock_ns, limit_ns)),
      task(task),
      clock_ns(clock_ns),
      limit_ns(limit_ns) {}

Scheduler::Scheduler(Config cfg) : cfg_(cfg) {}

Scheduler::~Scheduler() { unwind_all(); }

void Scheduler::unwind_all() {
  // Abnormal teardown (time limit, hang watchdog): suspended fibers still
  // hold live objects on their stacks. Cancel each so destructors run.
  // current_ tracks the fiber being unwound — destructors may legitimately
  // charge time or query now() on the way out.
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (!fibers_[i]->started() || fibers_[i]->finished()) continue;
    current_ = static_cast<int>(i);
    fibers_[i]->cancel();
  }
  current_ = -1;
}

int Scheduler::spawn(std::function<void()> body) {
  if (mode_ != Mode::kIdle) throw std::logic_error("spawn() during run()");
  const int id = static_cast<int>(fibers_.size());
  fibers_.push_back(std::make_unique<Fiber>(
      std::move(body), cfg_.stack_bytes, static_cast<unsigned>(id)));
  clocks_.push_back(0);
  parked_.push_back(false);
  rq_.push(0, id);
  return id;
}

Scheduler& Scheduler::current() {
  if (g_current_scheduler == nullptr)
    throw std::logic_error("Scheduler::current() outside run()");
  return *g_current_scheduler;
}

bool Scheduler::direct_yield() {
  const int self = current_;
  const std::uint64_t vt = clocks_[self];
  // The run() loop is the only place allowed to throw TimeLimitExceeded /
  // HangDetected (they must come from scheduler context, not from inside a
  // fiber); leave the queue alone and take the physical switch whenever
  // either guard would fire on the step: the limit on the caller's clock,
  // the watchdog on the clock of the task that would run next.
  if (vt > cfg_.vt_limit_ns) return false;
  if (watchdog_trips(rq_.empty() ? vt : std::min(vt, rq_.top().vt)))
    return false;
  // Exactly the run() loop's step — re-queue the caller, resume the
  // minimum — counted the same way, since switch counts are part of the
  // engine's deterministic output. When the caller is still the minimum
  // there is nothing to switch to.
  ++switches_;
  const ReadyQueue::Entry next = rq_.push_pop(vt, self);
  if (next.task == self) return true;
  current_ = next.task;
  Fiber::switch_to(*fibers_[next.task]);
  // Woken by a direct switch or by run(); whoever it was set current_.
  return true;
}

bool Scheduler::fast_yield_ok() const {
  if (current_ < 0) return false;
  const std::uint64_t vt = clocks_[current_];
  // Same guards as direct_yield(): the driver's step() throws, not a fiber.
  if (vt > cfg_.vt_limit_ns || watchdog_trips(vt)) return false;
  // A fiber may never run inline past the step() bound — the
  // conservative-window horizon or the next pending external event, whose
  // application must interleave at its exact (vt, task) key.
  if (vt > bound_vt_ || (vt == bound_vt_ && current_ >= bound_task_))
    return false;
  if (rq_.empty()) return true;  // sole runnable task
  const ReadyQueue::Entry e = rq_.top();
  return vt != e.vt ? vt < e.vt : current_ < e.task;
}

void Scheduler::yield() {
  // run() hands control from fiber to fiber directly. A stepping driver
  // must regain control after every slice that leaves the fiber, so only
  // the no-switch case is short-cut there. A policy must see every
  // interaction point as a scheduling decision, and outside any driver
  // (cancel-unwind teardown) Fiber::yield_current owns the semantics.
  if (mode_ == Mode::kRun) {
    if (direct_yield()) return;
  } else if (mode_ == Mode::kStepping && fast_yield_ok()) {
    ++switches_;
    return;
  }
  Fiber::yield_current();
}

void Scheduler::run() {
  Scheduler* prev = g_current_scheduler;
  g_current_scheduler = this;
  try {
    if (cfg_.policy != nullptr) {
      mode_ = Mode::kPolicy;
      run_policy();
    } else {
      mode_ = Mode::kRun;
      run_loop();
    }
  } catch (...) {
    g_current_scheduler = prev;
    current_ = -1;
    mode_ = Mode::kIdle;
    throw;
  }
  g_current_scheduler = prev;
  current_ = -1;
  mode_ = Mode::kIdle;
}

void Scheduler::run_loop() {
  while (!rq_.empty()) {
    const ReadyQueue::Entry e = rq_.pop();
    // The head of the queue holds the global minimum virtual time: if even
    // the least-advanced task is past the progress window, every task has
    // spun without real work for watchdog_ns — a hang, not slowness.
    // Checked before resuming so the stuck state is intact for the report.
    if (watchdog_trips(e.vt)) throw_hang(e.vt);
    current_ = e.task;
    ++switches_;
    fibers_[e.task]->resume();
    // Fibers hand control to each other directly (direct_yield), so the
    // task that came back — by a physical yield or by finishing — is the
    // one last switched in, not necessarily the one resumed.
    const int t = current_;
    if (clocks_[t] > cfg_.vt_limit_ns)
      throw TimeLimitExceeded(t, clocks_[t], cfg_.vt_limit_ns);
    if (!fibers_[t]->finished()) rq_.push(clocks_[t], t);
  }
}

void Scheduler::run_policy() {
  // Exploration mode: the runnable set lives in a plain vector so the policy
  // can be offered every eligible task, not just the min-vt head. Drain the
  // spawn-time priority queue first (spawn() feeds rq_ in both modes).
  std::vector<ReadyQueue::Entry> runnable;
  while (!rq_.empty()) runnable.push_back(rq_.pop());
  decisions_.clear();
  std::vector<Candidate> cand;
  while (!runnable.empty()) {
    std::uint64_t min_vt = UINT64_MAX;
    for (const ReadyQueue::Entry& e : runnable) min_vt = std::min(min_vt, e.vt);
    // Same watchdog semantics as the default loop: the minimum virtual time
    // is the least-advanced task, so if even it is past the progress window
    // the whole system has spun without real work.
    if (watchdog_trips(min_vt)) throw_hang(min_vt);
    cand.clear();
    for (const ReadyQueue::Entry& e : runnable)
      if (cfg_.policy_window_ns == 0 || e.vt - min_vt <= cfg_.policy_window_ns)
        cand.push_back({e.vt, e.task});
    std::sort(cand.begin(), cand.end(), [](const Candidate& a,
                                           const Candidate& b) {
      return a.vt != b.vt ? a.vt < b.vt : a.task < b.task;
    });
    std::size_t choice = cfg_.policy->pick(cand);
    if (choice >= cand.size()) choice = 0;
    if (cand.size() >= 2)
      decisions_.push_back({static_cast<std::uint32_t>(decisions_.size()),
                            static_cast<std::uint16_t>(cand.size()),
                            static_cast<std::uint16_t>(choice),
                            cand[choice].task, cand[choice].vt});
    const int task = cand[choice].task;
    current_ = task;
    ++switches_;
    fibers_[task]->resume();
    if (clocks_[task] > cfg_.vt_limit_ns)
      throw TimeLimitExceeded(task, clocks_[task], cfg_.vt_limit_ns);
    for (std::size_t i = 0; i < runnable.size(); ++i) {
      if (runnable[i].task != task) continue;
      if (fibers_[task]->finished()) {
        runnable[i] = runnable.back();
        runnable.pop_back();
      } else {
        runnable[i].vt = clocks_[task];
      }
      break;
    }
  }
}

void Scheduler::begin_stepping() {
  if (mode_ != Mode::kIdle)
    throw std::logic_error("begin_stepping() during run()");
  if (cfg_.policy != nullptr)
    throw std::logic_error("stepping mode is incompatible with a policy");
  mode_ = Mode::kStepping;
  g_current_scheduler = this;
}

void Scheduler::end_stepping() {
  g_current_scheduler = nullptr;
  current_ = -1;
  mode_ = Mode::kIdle;
  bound_vt_ = UINT64_MAX;
  bound_task_ = 0;
}

bool Scheduler::step(std::uint64_t bound_vt, int bound_task) {
  if (rq_.empty()) return false;
  const ReadyQueue::Entry e = rq_.top();
  if (e.vt > bound_vt || (e.vt == bound_vt && e.task >= bound_task))
    return false;
  rq_.pop();
  bound_vt_ = bound_vt;
  bound_task_ = bound_task;
  current_ = e.task;
  ++switches_;
  fibers_[e.task]->resume();
  if (clocks_[e.task] > cfg_.vt_limit_ns)
    throw TimeLimitExceeded(e.task, clocks_[e.task], cfg_.vt_limit_ns);
  if (!fibers_[e.task]->finished() && !parked_[e.task])
    rq_.push(clocks_[e.task], e.task);
  return true;
}

std::optional<ReadyQueue::Entry> Scheduler::peek() const {
  if (rq_.empty()) return std::nullopt;
  return rq_.top();
}

void Scheduler::park_current() {
  parked_[current_] = true;
  ++parked_count_;
  Fiber::yield_current();
}

void Scheduler::wake(int task, std::uint64_t vt_ns) {
  parked_[task] = false;
  --parked_count_;
  clocks_[task] = vt_ns;
  rq_.push(vt_ns, task);
}

void Scheduler::throw_hang(std::uint64_t stuck_at_ns) const {
  std::ostringstream os;
  os << "progress watchdog: no rank made node-count progress for "
     << (stuck_at_ns - progress_ns_) << " virtual ns (window "
     << cfg_.watchdog_ns << " ns; last progress at vt=" << progress_ns_
     << " ns, stuck at vt=" << stuck_at_ns << " ns)\n";
  os << "per-task state:\n";
  for (std::size_t i = 0; i < fibers_.size(); ++i)
    os << "  task " << i << ": vt=" << clocks_[i] << " ns "
       << (fibers_[i]->finished() ? "finished" : "runnable") << "\n";
  if (!decisions_.empty()) {
    // Tail of the schedule-exploration decision trail: makes a hang found
    // by the checker diagnosable (and re-runnable) straight from the report.
    constexpr std::size_t kTail = 16;
    const std::size_t from =
        decisions_.size() > kTail ? decisions_.size() - kTail : 0;
    os << "schedule decisions (last " << (decisions_.size() - from) << " of "
       << decisions_.size() << "):\n";
    for (std::size_t i = from; i < decisions_.size(); ++i)
      os << "  step " << decisions_[i].step << ": choice "
         << decisions_[i].choice << "/" << decisions_[i].n_candidates
         << " -> task " << decisions_[i].task << " at vt=" << decisions_[i].vt
         << " ns\n";
  }
  if (cfg_.hang_report) os << cfg_.hang_report();
  throw HangDetected(os.str(), cfg_.watchdog_ns, progress_ns_, stuck_at_ns);
}

std::uint64_t Scheduler::makespan_ns() const {
  std::uint64_t m = 0;
  for (std::uint64_t c : clocks_) m = std::max(m, c);
  return m;
}

}  // namespace upcws::sim
