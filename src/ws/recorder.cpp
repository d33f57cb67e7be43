#include "ws/recorder.hpp"

#include <iterator>
#include <utility>

#include "pgas/faults.hpp"

namespace upcws::ws {

Recorder::Recorder(pgas::Ctx& ctx, stats::ThreadStats& st,
                   const WsConfig& cfg)
    : ctx_(ctx),
      st_(st),
      me_(ctx.rank()),
      k_(static_cast<std::size_t>(cfg.chunk_size)),
      trace_(cfg.trace),
      obs_(cfg.obs) {
  if (obs_ == nullptr) return;
  obs::Registry& reg = obs_->registry(me_);
  reg.view("steals", st_.c.steals);
  reg.view("releases", st_.c.releases);
  // Work-push ranks never probe a victim or service a steal request.
  if (!cfg.push_based) {
    reg.view("probes", st_.c.probes);
    reg.view("requests_serviced", st_.c.requests_serviced);
  }
}

Recorder::~Recorder() {
  if (obs_ != nullptr) obs_->registry(me_).detach_views();
}

void Recorder::gauge(const char* name, std::function<std::int64_t()> fn) {
  if (obs_ != nullptr) obs_->registry(me_).gauge(name, std::move(fn));
}

void Recorder::track_lifelines() {
  if (obs_ == nullptr) return;
  parks_ = &obs_->registry(me_).counter("lifeline_parks");
  wakes_ = &obs_->registry(me_).counter("lifeline_wakes");
}

void Recorder::finish() {
  const std::uint64_t t = now();
  st_.timer.stop(t);
  if (trace_ != nullptr) trace_->finish(me_, t);
  if (obs_ != nullptr) obs_->finish(me_, t);

  // The injectors live only for the duration of Engine::run, so the rank
  // harvests its own tallies before its body returns.
  pgas::FaultInjector* fi = ctx_.faults();
  if (fi == nullptr) return;
  const pgas::FaultCounters& fc = fi->counters();
  st_.c.faults_stalls = fc.stalls;
  st_.c.faults_stall_ns = fc.stall_ns_total;
  st_.c.faults_spikes = fc.spikes;
  st_.c.faults_dropped = fc.msgs_dropped;
  st_.c.faults_duplicated = fc.msgs_duplicated;
  st_.c.faults_drains = fc.drains;
  st_.c.faults_joins = fc.joins;
  st_.c.faults_partition_delays = fc.partition_delays;
  st_.c.faults_partition_delay_ns = fc.partition_delay_ns_total;
  st_.c.faults_crashes = fc.crashes;
  st_.c.locks_revoked = ctx_.locks_revoked();
  st_.c.stale_unlocks = ctx_.stale_unlocks();
  if (trace_ == nullptr) return;
  // pgas::FaultEvent::Kind -> trace::Kind, in enumerator order.
  static constexpr trace::Kind kTraced[] = {
      trace::Kind::kStall,       trace::Kind::kSpike, trace::Kind::kMsgDrop,
      trace::Kind::kMsgDup,      trace::Kind::kRankCrashed,
      trace::Kind::kDrain,       trace::Kind::kJoin,
      trace::Kind::kPartitionDelay};
  static_assert(static_cast<std::size_t>(
                    pgas::FaultEvent::Kind::kPartitionDelay) + 1 ==
                std::size(kTraced));
  for (const pgas::FaultEvent& e : fi->events())
    trace_->fault(me_, e.t_ns, kTraced[static_cast<int>(e.kind)],
                  static_cast<std::int64_t>(e.ns));
  for (const pgas::Ctx::RevokeEvent& rv : ctx_.revocations())
    trace_->revoke(me_, rv.t_ns, rv.dead_holder);
}

}  // namespace upcws::ws
