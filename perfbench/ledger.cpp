#include "ledger.hpp"

#include <atomic>
#include <chrono>

namespace perfbench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<std::uint64_t> g_next_id{1};

class LedgerSink final : public upcws::ws::NodeSink {
 public:
  LedgerSink(upcws::ws::NodeSink& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  void push(const std::byte* node) override {
    LedgerTotals& t = ledger_.stamp(kPushN);
    ++t.push_calls;
    ++t.children;
    inner_.push(node);
    ledger_.stamp(kUts);
  }

  void push_n(const std::byte* nodes, std::size_t count,
              std::size_t node_bytes) override {
    LedgerTotals& t = ledger_.stamp(kPushN);
    ++t.push_calls;
    t.children += count;
    inner_.push_n(nodes, count, node_bytes);
    ledger_.stamp(kUts);
  }

 private:
  upcws::ws::NodeSink& inner_;
  Ledger& ledger_;
};

}  // namespace

LedgerTotals& LedgerTotals::operator+=(const LedgerTotals& o) {
  for (int i = 0; i < kLayerCount; ++i) ns[i] += o.ns[i];
  threads += o.threads;
  thread_wall_ns += o.thread_wall_ns;
  expand_calls += o.expand_calls;
  children += o.children;
  push_calls += o.push_calls;
  ticks += o.ticks;
  lock_waits += o.lock_waits;
  lock_wait_vt_ns += o.lock_wait_vt_ns;
  for (int i = 0; i < kOpKinds; ++i) remote[i] += o.remote[i];
  windows += o.windows;
  min_shard_switches += o.min_shard_switches;
  max_shard_switches += o.max_shard_switches;
  window_wall_ns.insert(window_wall_ns.end(), o.window_wall_ns.begin(),
                        o.window_wall_ns.end());
  fallbacks += o.fallbacks;
  return *this;
}

std::uint64_t LedgerTotals::layer_sum() const {
  std::uint64_t s = 0;
  for (std::uint64_t v : ns) s += v;
  return s;
}

Ledger::Ledger() : id_(g_next_id.fetch_add(1)) {}

void Ledger::begin() {
  begin_ns_ = now_ns();
  last_window_ns_ = begin_ns_;
}

void Ledger::end() { end_ns_ = now_ns(); }

Ledger::Thread& Ledger::local() {
  // One slot per (ledger, host thread). The id check makes a slot cached by
  // an earlier ledger on this thread (sim searches all run on the caller's
  // thread) unreachable.
  thread_local std::uint64_t cached_id = 0;
  thread_local Thread* cached = nullptr;
  if (cached_id != id_) {
    auto slot = std::make_unique<Thread>();
    cached = slot.get();
    cached_id = id_;
    std::lock_guard<std::mutex> g(mu_);
    threads_.push_back(std::move(slot));
  }
  return *cached;
}

LedgerTotals& Ledger::stamp(Layer next) {
  const std::uint64_t now = now_ns();
  Thread& th = local();
  if (th.t.threads == 0) {
    th.t.threads = 1;
    th.t.ns[kResidual] += now - begin_ns_;
  } else {
    th.t.ns[th.cur] += now - th.last_ns;
  }
  th.last_ns = now;
  th.cur = next;
  return th.t;
}

LedgerTotals Ledger::totals() const {
  LedgerTotals out = windows_;
  for (const auto& th : threads_) {
    LedgerTotals t = th->t;
    if (t.threads > 0) {
      t.ns[th->cur] += end_ns_ - th->last_ns;  // end() closes the interval
      t.thread_wall_ns = end_ns_ - begin_ns_;
    }
    out += t;
  }
  return out;
}

void Ledger::on_tick(int, std::uint64_t) { ++stamp(kDispatch).ticks; }

void Ledger::on_lock_wait(int, std::uint64_t, std::uint64_t wait_ns) {
  LedgerTotals& t = local().t;
  ++t.lock_waits;
  t.lock_wait_vt_ns += wait_ns;
}

void Ledger::on_stall(int, std::uint64_t, std::uint64_t) {}

void Ledger::on_remote_op(int, int, OpKind kind, std::uint64_t) {
  ++local().t.remote[static_cast<int>(kind)];
}

void Ledger::on_psim_window(const PsimWindow& w) {
  const std::uint64_t now = now_ns();
  windows_.window_wall_ns.push_back(now - last_window_ns_);
  last_window_ns_ = now;
  ++windows_.windows;
  windows_.min_shard_switches += w.min_shard_switches;
  windows_.max_shard_switches += w.max_shard_switches;
}

void Ledger::on_psim_fallback(const char*) { ++windows_.fallbacks; }

int LedgerProblem::expand(const std::byte* node,
                          upcws::ws::NodeSink& sink) const {
  ++ledger_.stamp(kUts).expand_calls;
  LedgerSink stamped(sink, ledger_);
  const int n = inner_.expand(node, stamped);
  ledger_.stamp(kResidual);
  return n;
}

}  // namespace perfbench
