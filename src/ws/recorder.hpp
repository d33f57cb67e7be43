// The recording seam of the steal protocols: one Recorder per rank, one call
// per protocol event. It always updates the rank's stats::ThreadStats (the
// paper's per-thread state machine and counter block, §6.2) and forwards
// the event to the trace (WsConfig::trace) and the observer (WsConfig::obs)
// only when attached, trace first, at the same Ctx instant. Registry
// counters that mirror a ThreadStats field are views of it, frozen when the
// Recorder dies.
//
// Steal spans (obs/spans.hpp): a thief has at most one open span. span()
// records a step on the thief's timeline, span_at_victim() the victim's
// step under the locked protocol (its victim runs no steal code). kAbsorb,
// kDeny and kAbandon close the span and withdraw its published id;
// span_drop() closes it when the victim recorded the terminal step itself.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "obs/observer.hpp"
#include "pgas/engine.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"
#include "ws/config.hpp"

namespace upcws::ws {

using obs::SpanPhase;

class Recorder {
 public:
  /// Records rank ctx.rank()'s events into `st` (which must outlive the
  /// Recorder) and into cfg.trace / cfg.obs when attached.
  Recorder(pgas::Ctx& ctx, stats::ThreadStats& st, const WsConfig& cfg);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Sample `fn` as gauge `name` when observed; it runs on this rank and
  /// must never charge.
  void gauge(const char* name, std::function<std::int64_t()> fn);
  /// This rank keeps lifelines: publish its park/wake counters.
  void track_lifelines();

  // ---- Figure-1 state machine ----
  void start() { set(stats::State::kWorking, true); }
  void state(stats::State s) { set(s, false); }
  /// Close the timeline; harvest injected-fault tallies and events.
  void finish();

  /// Visited a node at `depth` that spawned `children`, leaving
  /// `stack_nodes` on the stack.
  void visit(int depth, int children, std::size_t stack_nodes) {
    ++st_.c.nodes;
    st_.c.max_depth = std::max(st_.c.max_depth, depth);
    st_.c.spawned += static_cast<std::uint64_t>(children);
    if (children == 0) ++st_.c.leaves;
    st_.c.max_stack = std::max<std::uint64_t>(st_.c.max_stack, stack_nodes);
  }

  // ---- thief side ----
  void probe() { ++st_.c.probes; }
  void steal_attempt() { ++st_.c.steal_attempts; }

  /// `nodes` stolen (work-push: pushed) nodes landed on our stack.
  void absorb(std::size_t nodes) {
    st_.steal_sizes.add(nodes);
    ++st_.c.steals;
    st_.c.chunks_stolen += nodes / k_;
    st_.c.nodes_stolen += nodes;
    span(SpanPhase::kAbsorb, static_cast<std::int64_t>(nodes));
  }

  void steal_ok(int victim, std::size_t nodes) {
    if (trace_ != nullptr)
      trace_->steal(me_, now(), victim, static_cast<std::int64_t>(nodes),
                    true);
  }

  /// mpi-ws leaves failed steals out of its trace (its victims trace the
  /// denial), hence `traced`.
  void steal_fail(int victim, bool traced = true) {
    ++st_.c.failed_steals;
    if (traced && trace_ != nullptr)
      trace_->steal(me_, now(), victim, 0, false);
  }

  /// Hardened distmem: the request to `victim` was withdrawn unanswered.
  void timeout(int victim) {
    ++st_.c.steal_timeouts;
    if (trace_ != nullptr) trace_->timeout(me_, now(), victim);
    span(SpanPhase::kTimeout);
  }

  /// Hardened mpi-ws: a request, reply or token was resent to `peer`.
  void retransmit(int peer) {
    ++st_.c.retransmits;
    if (trace_ != nullptr) trace_->retransmit(me_, now(), peer);
  }

  // ---- owner / victim side ----

  /// `nodes` nodes released to the shared region (work-push: pushed).
  void release(std::size_t nodes) {
    ++st_.c.releases;
    if (trace_ != nullptr)
      trace_->release(me_, now(), static_cast<std::int64_t>(nodes));
  }

  /// Work-push drain: a received chunk passed on, counted as a release and
  /// traced by its pusher only.
  void relay() { ++st_.c.releases; }

  void grant(int thief, std::size_t nodes) {
    ++st_.c.requests_serviced;
    const auto n = static_cast<std::int64_t>(nodes);
    if (trace_ != nullptr) trace_->service(me_, now(), thief, n, true);
    victim_span(thief, SpanPhase::kService, n);
  }

  /// mpi-ws traces only some denials, hence `traced`.
  void deny(int thief, bool traced = true) {
    ++st_.c.requests_denied;
    if (traced && trace_ != nullptr)
      trace_->service(me_, now(), thief, 0, false);
    victim_span(thief, SpanPhase::kDeny, 0);
  }

  // ---- crash recovery ----
  void salvage(int dead, std::size_t nodes) {
    ++st_.c.salvages;
    recovered(dead, nodes);
  }
  void replay(int victim, std::size_t nodes) {
    ++st_.c.replays;
    recovered(victim, nodes);
  }
  /// A salvage or replay that began at `begin_ns` ends now.
  void recovery_interval(std::uint64_t begin_ns) {
    if (obs_ != nullptr) obs_->recovery_interval(me_, begin_ns, now());
  }

  // ---- lifeline victim policy ----
  void park() {
    if (parks_ != nullptr) ++*parks_;
  }
  void wake() {
    if (wakes_ != nullptr) ++*wakes_;
  }

  // ---- steal spans (no-ops without an observer) ----

  /// `publish` makes the id visible to the victim; it must precede the
  /// request becoming visible.
  void span_begin(int victim, bool publish) {
    if (obs_ == nullptr) return;
    obs::SpanLog& log = obs_->spans();
    span_ = log.begin(me_, victim);
    span_victim_ = victim;
    span_published_ = publish;
    if (publish) log.publish_active(me_, victim, span_);
    log.event(me_, span_, SpanPhase::kRequest, now(), me_, victim);
  }
  void span(SpanPhase p, std::int64_t nodes = 0) {
    span_step(p, me_, span_victim_, nodes);
  }
  void span_at_victim(SpanPhase p, std::int64_t nodes = 0) {
    span_step(p, span_victim_, me_, nodes);
  }
  void span_abandon() { span(SpanPhase::kAbandon); }
  void span_drop() {
    if (span_ != 0) close_span();
  }

 private:
  std::uint64_t now() const { return ctx_.now_ns(); }

  void set(stats::State s, bool first) {
    const std::uint64_t t = now();
    if (first)
      st_.timer.start(s, t);
    else
      st_.timer.transition(s, t);
    if (trace_ != nullptr) trace_->state(me_, t, s);
    if (obs_ != nullptr) obs_->state(me_, t, s);
  }

  void recovered(int from, std::size_t nodes) {
    st_.c.recovered_nodes += nodes;
    if (trace_ != nullptr)
      trace_->recover(me_, now(), from, static_cast<std::int64_t>(nodes));
  }

  void span_step(SpanPhase p, int track, int peer, std::int64_t nodes) {
    if (span_ == 0) return;
    obs_->spans().event(me_, span_, p, now(), track, peer, nodes);
    if (p == SpanPhase::kAbsorb || p == SpanPhase::kDeny ||
        p == SpanPhase::kAbandon)
      close_span();
  }

  void close_span() {
    if (span_published_) obs_->spans().clear_active(me_, span_victim_);
    span_ = 0;
  }

  /// The thief published its id before its request became visible, so the
  /// protocol's own acquire of the request orders this read (0: none).
  void victim_span(int thief, SpanPhase p, std::int64_t nodes) {
    if (obs_ == nullptr) return;
    const std::uint64_t sid = obs_->spans().active(thief, me_);
    if (sid != 0) obs_->spans().event(me_, sid, p, now(), me_, thief, nodes);
  }

  pgas::Ctx& ctx_;
  stats::ThreadStats& st_;
  const int me_;
  const std::size_t k_;
  trace::Trace* const trace_;
  obs::Observer* const obs_;
  std::uint64_t* parks_ = nullptr;
  std::uint64_t* wakes_ = nullptr;
  std::uint64_t span_ = 0;  ///< open steal span id (0 = none)
  int span_victim_ = -1;
  bool span_published_ = false;
};

}  // namespace upcws::ws
