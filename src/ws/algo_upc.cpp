#include "ws/algo_upc.hpp"

#include "ws/recorder.hpp"
#include "ws/recovery.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

namespace upcws::ws {
namespace {

using stats::State;

class UpcWorker final : public NodeSink {
 public:
  UpcWorker(pgas::Ctx& ctx, SharedState& g, const Problem& prob,
            const WsConfig& cfg)
      : ctx_(ctx),
        g_(g),
        prob_(prob),
        cfg_(cfg),
        me_(ctx.rank()),
        n_(ctx.nranks()),
        k_(static_cast<std::size_t>(cfg.chunk_size)),
        nb_(prob.node_bytes()),
        my_(g.stacks[me_]),
        rec_(ctx, st_, cfg),
        board_(g.recovery),
        crash_mode_(ctx.liveness() != nullptr && g.recovery != nullptr),
        member_mode_(ctx.faults() != nullptr &&
                     ctx.faults()->plan().membership_enabled()) {
    nodebuf_.resize(nb_);
    backoff_ns_ = cfg.steal_backoff_ns;
    // Gauges are polled from this rank's own fiber/thread at sample
    // boundaries, so owner-only reads are safe; they must not charge.
    rec_.gauge("queue_depth",
               [this] { return static_cast<std::int64_t>(my_.depth()); });
    rec_.gauge("release_region", [this] {
      return static_cast<std::int64_t>(my_.shared_size());
    });
    if (crash_mode_)
      rec_.gauge("recovery_backlog", [this] { return board_->backlog(); });
    perm_.resize(n_ > 1 ? n_ - 1 : 0);
    int v = 0;
    for (int i = 0; i < n_; ++i)
      if (i != me_) perm_[v++] = i;
    if (cfg.victim_policy == VictimPolicy::kLifeline && n_ > 1) {
      // Hypercube lifelines: neighbors me ^ (1 << d) for each dimension d,
      // skipping partners past the machine edge when n is not a power of
      // two. cfg.lifeline_dim caps the dimensionality (0 = all).
      int dims = 0;
      while (dims < 30 && (1 << dims) < n_) ++dims;
      if (cfg.lifeline_dim > 0) dims = std::min(dims, cfg.lifeline_dim);
      for (int d = 0; d < dims; ++d)
        if ((me_ ^ (1 << d)) < n_) lifeline_dims_.push_back(d);
      rec_.track_lifelines();
    }
  }

  stats::ThreadStats run() {
    // A joiner's flag is raised (release) before it touches any shared
    // protocol state, so barrier targets exclude it until then. Rank 0 is
    // never a joiner (it seeds the root).
    ctx_.join_when_due();
    rec_.start();
    if (me_ == 0) {
      prob_.root(nodebuf_.data());
      my_.push(nodebuf_.data());
    }
    try {
      for (;;) {
        do_work();
        if (drained_) break;
        publish_idle();
        if (!find_work()) break;
      }
      if (drained_) drain_out();
    } catch (const pgas::RankCrashed&) {
      // This rank fail-stopped. The Ctx is already in dead mode (its
      // remote stores no longer land), so all we do is preserve the node
      // popped-but-not-yet-expanded: re-pushing it locally makes the crash
      // indistinguishable from one that landed just before the pop, and a
      // salvager will pick it up with the rest of the stack. Partial
      // counters are returned as-is — visited-node counts are modeled as
      // durable (monotonic aggregation at a resilient store).
      if (visiting_) my_.push(nodebuf_.data());
    }
    rec_.finish();
    return st_;
  }

  // NodeSink: children of the node being visited land on the local region.
  void push(const std::byte* node) override { my_.push(node); }
  void push_n(const std::byte* nodes, std::size_t count,
              std::size_t /*node_bytes*/) override {
    my_.push_n(nodes, count);
  }

 private:
  // ---- elastic membership (no-ops unless the plan drains/joins ranks) ----

  /// Safe-point probe for a planned drain: only fires at the top of the
  /// pop loop and the search-cycle tops, never while a lock is held, a
  /// popped node is in flight, or our +1 stands in a barrier count.
  bool drain_check() {
    pgas::FaultInjector* fi = ctx_.faults();
    if (fi == nullptr || !fi->drain_due(ctx_.now_ns())) return false;
    drained_ = true;
    return true;
  }

  /// A graceful leave is a clean fail-stop at a safe point: everything
  /// still on our stack rides the crash-recovery machinery — survivors
  /// detect the death, salvage the stack interval exactly once, replay any
  /// orphaned lineage records, and the barrier target shrinks to the
  /// remaining membership.
  void drain_out() { ctx_.leave(); }

  /// Cooperative-deadline probe (cfg_.cancel_at_ns). Only ever raises the
  /// flag — each call site decides what a cancelled rank skips. One clock
  /// read, no charge: cancel-off runs are bit-for-bit untouched.
  void cancel_check() {
    if (cfg_.cancel_at_ns == 0 || cancelled_) return;
    if (ctx_.now_ns() >= cfg_.cancel_at_ns) {
      cancelled_ = true;
      st_.c.cancels = 1;
    }
  }

  /// Post-deadline replacement for visit(): the popped node is discarded
  /// and tallied instead of expanded. Counting strictly precedes the charge
  /// (the only interaction point), so a crash mid-reclaim never loses or
  /// double-counts the node — `nodes + reclaimed == 1 + spawned` holds.
  void reclaim() {
    ++st_.c.reclaimed;
    ctx_.charge_poll();
    ctx_.yield();
  }

  /// Victims worth probing: skip ranks that are not (yet) members. Gated on
  /// membership so pure-crash schedules keep their exact probe sequence.
  bool skip_victim(int v) { return member_mode_ && ctx_.rank_absent(v); }

  bool lockless() const {
    return cfg_.protocol == StackProtocol::kRequestResponse;
  }
  bool steal_half() const { return cfg_.steal_amount == StealAmount::kHalf; }
  bool probe_term() const {
    return cfg_.termination == Termination::kProbeBarrier;
  }
  bool lifeline() const {
    return cfg_.victim_policy == VictimPolicy::kLifeline;
  }

  // ---- work_avail publication (owner-local stores) ----

  /// Record a work-source status flip of `stk` (paper §3.3.2 analysis).
  void note_avail(StealStack& stk, std::int64_t avail) {
    const bool src = avail >= static_cast<std::int64_t>(k_);
    if (stk.set_source_flag(src))
      st_.source_events.push_back({ctx_.now_ns(), src ? +1 : -1});
  }

  void publish_avail() {
    ctx_.charge(ctx_.net().local_ref_ns);
    const auto v = static_cast<std::int64_t>(my_.shared_size());
    my_.work_avail().store(v, std::memory_order_release);
    note_avail(my_, v);
  }

  void publish_idle() {
    // In the locked family a thief may concurrently write our work_avail
    // (it updates the count under our stack lock when it reserves a chunk).
    // The idle marker must serialize through the same lock, or a stale "0"
    // from a thief could overwrite our "-1" and convince every searcher
    // that someone is still working — a termination livelock.
    std::optional<pgas::LockGuard> guard;
    if (!lockless()) guard.emplace(ctx_, my_.lock());
    ctx_.charge(ctx_.net().local_ref_ns);
    my_.work_avail().store(probe_term() ? kNoWorkAtAll : 0,
                           std::memory_order_release);
    note_avail(my_, 0);
  }

  // ---- working state ----

  void do_work() {
    int since_poll = 0;
    for (;;) {
      if (drain_check()) return;
      cancel_check();
      if (!my_.pop(nodebuf_.data())) {
        if (!reacquire_chunk()) break;  // stack completely empty
        continue;
      }
      if (cancelled_)
        reclaim();
      else
        visit();
      if (lockless() && ++since_poll >= cfg_.poll_interval) {
        since_poll = 0;
        service_requests();
        // Lifeline victims also close the missed-wake window here: a
        // neighbor that parked just after our last release is woken on the
        // next poll as long as we still hold surplus.
        if (lifeline() && my_.shared_size() >= k_) maybe_wake_lifeline();
      }
    }
  }

  void visit() {
    // `visiting_` brackets the window where nodebuf_ holds a node that is
    // on no stack and not yet counted: a crash inside charge_node_work()
    // re-pushes it (see run()). It is cleared the instant the node is
    // counted and its children pushed — both without interaction points —
    // so the re-push can never duplicate a visited node.
    visiting_ = true;
    ctx_.charge_node_work();
    const int nc = prob_.expand(nodebuf_.data(), *this);
    rec_.visit(prob_.depth(nodebuf_.data()), nc, my_.depth());
    visiting_ = false;
    while (my_.local_size() >=
           static_cast<std::size_t>(cfg_.release_threshold) * k_)
      do_release();
    ctx_.yield();
  }

  void do_release() {
    {
      // In the lock-less protocol the owner exclusively manages its stack;
      // otherwise the boundary move must exclude concurrent thieves.
      std::optional<pgas::LockGuard> guard;
      if (!lockless()) guard.emplace(ctx_, my_.lock());
      my_.release(k_);
      publish_avail();
      my_.maybe_compact();
    }
    rec_.release(k_);
    if (cfg_.termination == Termination::kCancelableBarrier)
      cancel_barrier_reset();
    // Fresh stealable surplus: hand it to a distressed lifeline neighbor.
    if (lifeline()) maybe_wake_lifeline();
  }

  bool reacquire_chunk() {
    if (my_.shared_size() < k_) return false;
    {
      std::optional<pgas::LockGuard> guard;
      if (!lockless()) guard.emplace(ctx_, my_.lock());
      // Re-check under the lock: a thief may have taken the chunk between
      // the unlocked pre-check and the acquisition.
      if (my_.shared_size() >= k_) {
        my_.reacquire(k_);
        publish_avail();
      }
    }
    ++st_.c.reacquires;
    return my_.local_size() > 0;
  }

  /// §3.1: "After each release() operation, the cancelable barrier is reset
  /// by the thread releasing work. This is a remote operation, and it delays
  /// a thread that might otherwise be doing useful work. Furthermore,
  /// barrier operations are performed under lock" — the very overhead
  /// §3.3.1 eliminates. Faithfully unconditional: every release pays the
  /// remote lock cycle on rank 0's barrier lock.
  void cancel_barrier_reset() {
    pgas::LockGuard guard(ctx_, g_.cb_lock);
    if (ctx_.get(g_.cb_count, 0) > 0) ctx_.put(g_.cb_cancel, 0, 1);
  }

  // ---- lock-less request servicing (victim side, §3.3.3) ----

  void service_requests() {
    ctx_.charge_poll();
    const int req = g_.slots[me_].steal_request.load(std::memory_order_acquire);
    if (req < 0) return;  // no request, or one we already claimed
    if (crash_mode_ && ctx_.rank_dead(req)) {
      // The requester died waiting. Granting would strand the chunk in a
      // lineage record until someone replays it; just drop the request.
      ctx_.charge(ctx_.net().local_ref_ns);
      g_.slots[me_].steal_request.store(kNoRequest, std::memory_order_release);
      return;
    }
    if (cfg_.hardened()) {
      // Claim the request before answering it. A timed-out thief abandons
      // its request by CASing thief->kNoRequest; this CAS and that one are
      // mutually exclusive, so either the thief withdrew (we do nothing) or
      // we are now committed and its cancellation will fail — the granted
      // chunk can never be orphaned.
      ctx_.charge(ctx_.net().local_ref_ns);
      int expect = req;
      if (!g_.slots[me_].steal_request.compare_exchange_strong(
              expect, kServicing, std::memory_order_acq_rel))
        return;  // thief gave up first
    }
    // A cancelled victim load-sheds: granting would only hand the thief
    // nodes it (or we) must bleed anyway, and could bounce work between
    // cancelled ranks indefinitely.
    const std::int64_t chunks =
        cancelled_ ? 0 : static_cast<std::int64_t>(my_.shared_size() / k_);
    if (chunks < 1) {
      rec_.deny(req);
      // One remote write tells the thief it was denied.
      ctx_.put(g_.slots[req].resp_amount, req, std::int64_t{0});
    } else {
      const std::int64_t take_chunks =
          steal_half() ? std::max<std::int64_t>(1, chunks / 2) : 1;
      const std::size_t take = static_cast<std::size_t>(take_chunks) * k_;
      const std::size_t begin = my_.reserve(take);
      // Lineage record first, directly after the reservation with no
      // interaction point between: once the chunk has left the stack it is
      // always reachable through the record, whichever side dies next.
      if (crash_mode_)
        board_->publish(me_, req, me_, req, my_.slot(begin),
                        static_cast<std::uint32_t>(take));
      publish_avail();
      auto& box = g_.slots[req].grant;
      box.resize(take * nb_);
      std::memcpy(box.data(), my_.slot(begin), take * nb_);
      ctx_.charge(ctx_.net().local_ref_ns);  // local staging copy
      my_.maybe_compact();
      rec_.grant(req, take);
      // Two remote writes: the amount granted and the work's location.
      ctx_.put(g_.slots[req].resp_amount, req,
               static_cast<std::int64_t>(take));
      ctx_.charge_ref(req);
    }
    ctx_.charge(ctx_.net().local_ref_ns);
    g_.slots[me_].steal_request.store(kNoRequest, std::memory_order_release);
  }

  // ---- searching / stealing ----

  std::int64_t probe(int v) {
    rec_.probe();
    return ctx_.get(g_.stacks[v].work_avail(), v);
  }

  bool attempt_steal(int v) {
    rec_.steal_attempt();
    pgas::StealScope scope(ctx_);  // kMidSteal crash specs land in here
    const bool ok = lockless() ? steal_reqresp(v) : steal_locked(v);
    if (ok)
      rec_.steal_ok(v, last_take_);
    else
      rec_.steal_fail(v);
    return ok;
  }

  /// §3.1 steal: lock the victim's stack, reserve a chunk run, unlock, then
  /// transfer outside the critical section with a one-sided get.
  bool steal_locked(int v) {
    StealStack& vs = g_.stacks[v];
    // Under the locked protocol the victim never executes steal code, so
    // the thief records the whole span itself — the service step lands on
    // the victim's timeline.
    rec_.span_begin(v, /*publish=*/false);
    std::size_t take = 0, begin = 0;
    {
      pgas::LockGuard guard(ctx_, vs.lock());
      ctx_.charge_ref(v);  // read the victim's region bookkeeping
      const std::int64_t chunks =
          static_cast<std::int64_t>(vs.shared_size() / k_);
      if (chunks >= 1) {
        const std::int64_t take_chunks =
            steal_half() ? std::max<std::int64_t>(1, chunks / 2) : 1;
        take = static_cast<std::size_t>(take_chunks) * k_;
        begin = vs.reserve(take);
        // Lineage record immediately after the reservation (no interaction
        // point between): if we die before the chunk lands on our stack, a
        // survivor replays it from the record.
        if (crash_mode_)
          board_->publish(me_, v, v, me_, vs.slot(begin),
                          static_cast<std::uint32_t>(take));
        const auto left = static_cast<std::int64_t>(vs.shared_size());
        ctx_.put(vs.work_avail(), v, left);
        note_avail(vs, left);
        vs.begin_transfer();
        rec_.span_at_victim(SpanPhase::kService,
                            static_cast<std::int64_t>(take));
      }
    }
    if (take == 0) {
      rec_.span_at_victim(SpanPhase::kDeny);
      return false;
    }
    xfer_.resize(take * nb_);
    ctx_.bulk_get(xfer_.data(), vs.slot(begin), take * nb_, v);
    vs.end_transfer();
    ctx_.charge_ref(v);  // remote completion notice for the in-flight count
    rec_.span(SpanPhase::kTransfer, static_cast<std::int64_t>(take));
    return absorb(take, crash_mode_ ? &board_->rec(me_, v) : nullptr);
  }

  /// §3.3.3 steal: CAS our id into the victim's request word, spin on our
  /// own (local) response word, then one-sided-get the granted run.
  ///
  /// Hardened variant (cfg_.steal_timeout_ns > 0): if the victim does not
  /// answer within the timeout (it may be stalled, possibly inside a
  /// critical section), withdraw the request with a CAS me->kNoRequest and
  /// back off exponentially before re-probing. The victim's claim-CAS
  /// (kServicing) in service_requests() makes withdrawal and grant mutually
  /// exclusive; once withdrawal fails the response is committed and we must
  /// consume it — exactly-once chunk transfer either way.
  bool steal_reqresp(int v) {
    auto& mine = g_.slots[me_];
    ctx_.charge(ctx_.net().local_ref_ns);
    mine.resp_amount.store(kRespPending, std::memory_order_release);
    // Publish the span id before the request CAS makes it visible: the
    // victim reads it when servicing and records its side under this id.
    rec_.span_begin(v, /*publish=*/true);
    int expect = kNoRequest;
    if (!ctx_.cas(g_.slots[v].steal_request, v, expect, me_)) {
      rec_.span_abandon();
      return false;  // another thief got there first; move on
    }
    const bool hardened = cfg_.hardened();
    const std::uint64_t deadline =
        hardened ? ctx_.now_ns() + cfg_.steal_timeout_ns : 0;
    bool cancelable = hardened;
    for (;;) {
      cancel_check();  // flag-flip only: an in-flight steal always completes
      ctx_.charge_poll();
      const std::int64_t a = mine.resp_amount.load(std::memory_order_acquire);
      if (a == 0) {
        // Denied; the victim recorded the span's kDeny when it answered.
        rec_.span_drop();
        backoff_ns_ = cfg_.steal_backoff_ns;  // the victim answered in time
        return false;                         // denied
      }
      if (a > 0) {
        const std::size_t take = static_cast<std::size_t>(a);
        xfer_.resize(take * nb_);
        ctx_.bulk_get(xfer_.data(), mine.grant.data(), take * nb_, v);
        rec_.span(SpanPhase::kTransfer, static_cast<std::int64_t>(take));
        const bool landed =
            absorb(take, crash_mode_ ? &board_->rec(v, me_) : nullptr);
        backoff_ns_ = cfg_.steal_backoff_ns;
        return landed;
      }
      if (crash_mode_ && ctx_.rank_dead(v)) {
        // The victim died mid-protocol. If it had committed a grant, the
        // chunk survives in its lineage record: retire the record and
        // absorb straight from the payload. Otherwise the steal failed
        // (a parked request in a dead rank's slot is harmless).
        ctx_.charge_ref(v);
        TransferRec& rec = board_->rec(v, me_);
        if (board_->retire(ctx_, rec)) {
          const std::size_t take = rec.nnodes;
          xfer_.assign(rec.payload.begin(), rec.payload.end());
          rec_.span(SpanPhase::kSalvage, static_cast<std::int64_t>(take));
          absorb(take);
          backoff_ns_ = cfg_.steal_backoff_ns;
          return true;
        }
        rec_.span_abandon();
        return false;
      }
      if (cancelable && ctx_.now_ns() >= deadline) {
        int still_me = me_;
        if (ctx_.cas(g_.slots[v].steal_request, v, still_me, kNoRequest)) {
          // Withdrawn before the victim claimed it; no response will come.
          rec_.timeout(v);
          rec_.span_abandon();
          ctx_.charge(backoff_ns_);
          backoff_ns_ = std::min(backoff_ns_ * 2, cfg_.steal_backoff_max_ns);
          return false;
        }
        // The victim already claimed (kServicing) or answered: a response
        // is committed, so stop trying to cancel and wait it out.
        rec_.span(SpanPhase::kTimeout);
        cancelable = false;
      }
      // Pending. Keep global liveness while we wait: deny steal requests
      // aimed at us, and abandon the wait if termination was announced
      // (the victim may have exited without seeing our request).
      if (lockless()) service_requests();
      if (probe_term() &&
          g_.slots[me_].term_flag.load(std::memory_order_acquire)) {
        rec_.span_abandon();
        return false;  // caller re-checks the flag and exits
      }
      ctx_.yield();
    }
  }

  /// Returns false when the lineage record was already replayed by a
  /// recoverer — the copied chunk must be discarded and the steal reported
  /// as failed (nothing landed on our stack).
  bool absorb(std::size_t take, TransferRec* rec = nullptr) {
    // Retire the lineage record *before* the pushes, with no interaction
    // point between retire and pushes: "record pending" is then exactly
    // "chunk in no stack". The claim CAS fails only if a survivor already
    // replayed this chunk after detecting our victim dead — then the chunk
    // is on the replayer's stack and we must not apply it a second time.
    if (rec != nullptr) {
      if (!board_->retire(ctx_, *rec)) {
        rec_.span_abandon();
        // Nothing landed: we are still a searcher, and must advertise as
        // one — leaving a stale "working, no surplus" here would keep every
        // peer out of the termination barrier forever.
        publish_idle();
        return false;
      }
    }
    last_take_ = take;
    my_.push_n(xfer_.data(), take);
    rec_.absorb(take);
    publish_avail();  // we are working again; shared region is empty
    return true;
  }

  void shuffle_perm() {
    std::shuffle(perm_.begin(), perm_.end(), ctx_.rng());
    if (cfg_.locality_first) {
      // Stable partition keeps each group's random order while trying
      // same-node victims (cheap refs) before off-node ones.
      std::stable_partition(perm_.begin(), perm_.end(), [&](int v) {
        return ctx_.net().same_node(me_, v);
      });
    }
  }

  // ---- lifeline victim policy (docs/protocols.md "Lifeline stealing") ----
  //
  // Distress/wake protocol: an idle thief sets its own park word to kParked,
  // raises its distress bit at every live hypercube neighbor, and waits in
  // the probe barrier polling only its *own* park word (a cheap local read —
  // no spin-probing). A victim that gains surplus scans its own distress
  // word at release/poll points and wakes ONE distressed neighbor by CASing
  // that thief's park word kParked -> its own rank; the woken thief leaves
  // the barrier FIRST and then pulls through the ordinary request/response
  // steal, so transfers, lineage records, and steal conservation are exactly
  // the upc-distmem machinery. A lost wake (victim died, bit raced) only
  // costs latency: the thief stays parked in the barrier and termination
  // stays exact, because parking requires an empty stack.

  /// Thief side: mark ourselves parked and distress all live lifelines.
  void park_lifelines() {
    ctx_.charge(ctx_.net().local_ref_ns);
    g_.slots[me_].park.store(kParked, std::memory_order_release);
    for (int d : lifeline_dims_) {
      const int v = me_ ^ (1 << d);
      if (skip_victim(v) || (crash_mode_ && ctx_.rank_dead(v))) continue;
      raise_distress(v, d);
    }
    rec_.park();
  }

  void unpark() {
    ctx_.charge(ctx_.net().local_ref_ns);
    g_.slots[me_].park.store(kUnparked, std::memory_order_release);
  }

  /// Set bit `d` in the neighbor's distress word (remote CAS loop; the
  /// owner is the only clearer, so the loop is one iteration in practice).
  void raise_distress(int v, int d) {
    const std::uint64_t bit = std::uint64_t{1} << d;
    for (;;) {
      const std::uint64_t cur = ctx_.get(g_.slots[v].distress, v);
      if ((cur & bit) != 0) return;
      std::uint64_t expect = cur;
      if (ctx_.cas(g_.slots[v].distress, v, expect, cur | bit)) return;
    }
  }

  /// Victim side: wake the lowest-dimension distressed lifeline neighbor
  /// that is still parked. Stale bits (dead, drained, or already-woken
  /// neighbors) are cleared along the way; a cleared thief re-raises its
  /// bit if it re-parks.
  void maybe_wake_lifeline() {
    ctx_.charge_poll();  // local read of our own distress word
    std::uint64_t d = g_.slots[me_].distress.load(std::memory_order_acquire);
    while (d != 0) {
      const int bit = std::countr_zero(d);
      d &= d - 1;
      const int t = me_ ^ (1 << bit);
      bool woke = false;
      if (t < n_ && !skip_victim(t) && !(crash_mode_ && ctx_.rank_dead(t))) {
        int expect = kParked;
        woke = ctx_.cas(g_.slots[t].park, t, expect, me_);
      }
      // Clear the bit either way: on a wake the hand-off is complete, on a
      // failed CAS the thief is no longer parked (stale distress).
      ctx_.charge(ctx_.net().local_ref_ns);
      g_.slots[me_].distress.fetch_and(~(std::uint64_t{1} << bit),
                                       std::memory_order_acq_rel);
      if (woke) {
        rec_.wake();
        return;  // one wake per surplus event; the thief pulls half and
                 // re-releases, propagating further wakes down the graph
      }
    }
  }

  // ---- crash recovery (crash_mode_ only) ----

  /// Survivor-side recovery sweep, called from the search loops: salvage
  /// any dead rank's stack (exactly once, arbitrated by the board) and
  /// replay any lineage record with a dead endpoint — a dead thief can no
  /// longer absorb its chunk, and a dead victim may have died before
  /// completing a grant its (live) thief has already given up on. The
  /// pending->claimed/done CAS arbitrates against a live thief that does
  /// still absorb, so the chunk lands exactly once either way. Returns
  /// true when nodes landed on our stack — the caller then has work again.
  bool maybe_recover() {
    if (!crash_mode_) return false;
    bool got = false;
    for (int r = 0; r < n_; ++r) {
      if (r == me_ || !ctx_.rank_dead(r) || board_->salvage_done(r)) continue;
      const std::uint64_t rb = ctx_.now_ns();
      if (salvage_stack(r)) got = true;
      rec_.recovery_interval(rb);
    }
    for (int w = 0; w < n_; ++w) {
      for (int p = 0; p < n_; ++p) {
        if (w == p) continue;
        TransferRec& rec = board_->rec(w, p);
        if (rec.state.load(std::memory_order_acquire) != TransferRec::kPending)
          continue;
        const bool victim_dead = rec.victim >= 0 && ctx_.rank_dead(rec.victim);
        const bool thief_dead = rec.thief >= 0 && ctx_.rank_dead(rec.thief);
        if (!victim_dead && !thief_dead) continue;
        const std::uint64_t rb = ctx_.now_ns();
        if (replay_record(rec)) got = true;
        rec_.recovery_interval(rb);
      }
    }
    return got;
  }

  /// Take over a dead rank's entire stack interval [shared_base, top).
  /// The mutation block runs with no interaction point, so a salvage is
  /// all-or-nothing even though the salvager itself may crash; the claim
  /// word makes it exactly-once across salvagers.
  bool salvage_stack(int r) {
    StealStack& ds = g_.stacks[r];
    // Locked family: acquire the dead owner's stack lock — revoking its
    // lease if it died inside the critical section — to exclude thieves
    // that are still legitimately stealing from the stale stack.
    std::optional<pgas::LockGuard> guard;
    if (!lockless()) guard.emplace(ctx_, ds.lock());
    if (!board_->claim_salvage(r)) return false;
    const std::size_t b = ds.salvage_begin();
    const std::size_t e = ds.salvage_end();
    const std::size_t taken = e > b ? e - b : 0;
    if (taken > 0) my_.push_n(ds.slot(b), taken);
    ds.clear_after_salvage();
    const std::int64_t idle = probe_term() ? kNoWorkAtAll : 0;
    ds.work_avail().store(idle, std::memory_order_release);
    note_avail(ds, 0);
    board_->finish_salvage(r);
    // Post-pay the transfer cost: the nodes are already safe on our stack,
    // so a crash landing in this charge cannot lose them (our own death
    // hands them to the next salvager).
    ctx_.charge(ctx_.net().bulk_ns(me_, r, taken * nb_));
    rec_.salvage(r, taken);
    return taken > 0;
  }

  /// Replay one orphaned transfer: an endpoint died mid-protocol, so the
  /// chunk may exist only in the record payload. The claim CAS against the
  /// (possibly live) thief's retire makes the replay exactly-once, and
  /// every replayed node is kept. Descriptor-level dedup would be wrong
  /// here: a node can legitimately flow through recovery more than once in
  /// its lifetime (recovered, released back into circulation unvisited,
  /// re-stolen, then orphaned by a second death), so "seen in a recovery
  /// before" does not mean "safe on some stack" — dropping it loses the
  /// node's whole subtree.
  bool replay_record(TransferRec& rec) {
    if (!board_->claim_rec(ctx_, rec)) return false;  // raced; other won
    board_->note_replay();
    my_.push_n(rec.payload.data(), rec.nnodes);
    ctx_.charge(ctx_.net().bulk_ns(me_, rec.victim, rec.nnodes * nb_));
    rec_.replay(rec.victim, rec.nnodes);
    return rec.nnodes > 0;
  }

  /// Crash-mode membership invariants for the termination barriers.
  ///
  /// The entry count at which the barrier means global termination: every
  /// rank we currently see as a present member, plus one ghost entry per
  /// dead rank that died *while counted in* (its in_barrier mirror is set —
  /// and a rank can only die in-barrier with an empty stack, so its ghost
  /// entry is as good as a live one). A not-yet-joined rank is excluded via
  /// its monotonic joined flag, never via a clocked view: the joiner raises
  /// the flag (release) before its first shared-protocol store, so any rank
  /// that could have granted it work already sees it as a member — a lagging
  /// view can therefore never declare termination around a working joiner.
  int barrier_target() {
    int absent = 0, ghosts = 0;
    for (int r = 0; r < n_; ++r) {
      if (r == me_ || !ctx_.rank_absent(r)) continue;
      ++absent;
      if (ctx_.rank_dead(r) &&
          board_->in_barrier(r).load(std::memory_order_acquire))
        ++ghosts;
    }
    return n_ - absent + ghosts;
  }

  /// No recoverable work may remain: every detected-dead rank salvaged and
  /// no orphaned lineage record pending.
  bool recovery_clean() {
    for (int r = 0; r < n_; ++r)
      if (r != me_ && ctx_.rank_dead(r) && !board_->salvage_done(r))
        return false;
    return !board_->orphan_pending(ctx_);
  }

  /// Cheap pre-check (no charges, no claims): recoverable work may exist.
  /// Barrier waiters use it to cancel out *before* touching that work — a
  /// rank must never claim a chunk while its +1 still stands in a barrier
  /// count, or a peer could see the board clean and the count full and
  /// declare termination with the chunk unvisited.
  bool recovery_possible() {
    if (!crash_mode_) return false;
    for (int r = 0; r < n_; ++r)
      if (r != me_ && ctx_.rank_dead(r) && !board_->salvage_done(r))
        return true;
    return board_->orphan_pending(ctx_);
  }

  /// Enter/leave the probe-family barrier. In crash mode the in_barrier
  /// mirror flag and the counter move with no interaction point between
  /// (flag pre-charged), so survivors can always tell whether a dead
  /// rank's +1 is in the count.
  int bar_enter() {
    if (!crash_mode_) return ctx_.add(g_.bar_count, 0, 1) + 1;
    ctx_.charge_ref(0);
    board_->in_barrier(me_).store(1, std::memory_order_release);
    return g_.bar_count.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  void bar_leave() {
    if (!crash_mode_) {
      ctx_.add(g_.bar_count, 0, -1);
      return;
    }
    ctx_.charge_ref(0);
    board_->in_barrier(me_).store(0, std::memory_order_release);
    g_.bar_count.fetch_add(-1, std::memory_order_acq_rel);
  }

  bool term_satisfied(int cnt) {
    if (!crash_mode_) return cnt == n_;
    return cnt >= barrier_target() && recovery_clean();
  }

  // ---- termination policies ----

  bool find_work() {
    if (n_ == 1) {
      // Single rank: out of work means done; still run the barrier protocol
      // once so its counters behave uniformly.
      return cfg_.termination == Termination::kCancelableBarrier
                 ? !single_rank_done_cb()
                 : !single_rank_done_probe();
    }
    if (cfg_.termination == Termination::kCancelableBarrier)
      return find_work_cb();
    switch (cfg_.victim_policy) {
      case VictimPolicy::kLifeline: return find_work_lifeline();
      case VictimPolicy::kSampling: return find_work_sample();
      case VictimPolicy::kRandom: break;
    }
    return find_work_probe();
  }

  bool single_rank_done_cb() {
    rec_.state(State::kTermination);
    ++st_.c.barrier_entries;
    return cancelable_barrier();  // count hits 1 == n -> done
  }

  bool single_rank_done_probe() {
    rec_.state(State::kTermination);
    ++st_.c.barrier_entries;
    bar_enter();
    announce_termination();
    return true;
  }

  /// §3.1 search loop: cycle victims; if a whole cycle fails, wait in the
  /// cancelable barrier and retry when cancelled.
  bool find_work_cb() {
    rec_.state(State::kSearching);
    for (;;) {
      if (drain_check()) return false;
      cancel_check();
      if (maybe_recover()) {
        // A cancelled rank still recovers (so no dead rank's work is ever
        // stranded) — the recovered nodes are then bled by do_work().
        publish_avail();
        rec_.state(State::kWorking);
        return true;
      }
      if (!cancelled_) {
        shuffle_perm();
        for (int v : perm_) {
          if (skip_victim(v)) continue;
          if (probe(v) >= static_cast<std::int64_t>(k_)) {
            rec_.state(State::kStealing);
            if (attempt_steal(v)) {
              rec_.state(State::kWorking);
              return true;
            }
            rec_.state(State::kSearching);
          }
          if (lockless()) service_requests();
          ctx_.yield();
        }
      }
      rec_.state(State::kTermination);
      ++st_.c.barrier_entries;
      if (cancelable_barrier()) return false;
      rec_.state(State::kSearching);
    }
  }

  /// Crash-atomic count update for the cancelable barrier: the in_barrier
  /// mirror flag and the counter move together (pre-charged, no interaction
  /// point between). Caller holds cb_lock.
  void cb_set_count(int cnt, int flag) {
    if (!crash_mode_) {
      ctx_.put(g_.cb_count, 0, cnt);
      return;
    }
    ctx_.charge_ref(0);
    board_->in_barrier(me_).store(flag, std::memory_order_release);
    g_.cb_count.store(cnt, std::memory_order_release);
  }

  /// §3.1 cancelable barrier. Returns true when global termination was
  /// detected (count reached the membership target), false when cancelled
  /// by new work. Failure-aware: dead ranks are excluded from the target
  /// (their ghost entries — deaths while counted in — still count, which is
  /// sound because a rank can only die in-barrier with an empty stack), and
  /// waiters run the recovery sweep so a crashed rank's work re-enters the
  /// search instead of deadlocking the barrier.
  bool cancelable_barrier() {
    {
      pgas::LockGuard guard(ctx_, g_.cb_lock);
      const int cnt = ctx_.get(g_.cb_count, 0) + 1;
      cb_set_count(cnt, 1);
      if (term_satisfied(cnt)) ctx_.put(g_.cb_done, 0, 1);
    }

    // Remote spin on the done/cancel flags (all owned by rank 0) — the
    // §3.1 cost center on distributed memory.
    for (;;) {
      cancel_check();  // flag-flip only; the barrier protocol is unchanged
      if (ctx_.get(g_.cb_done, 0) != 0) break;
      if (ctx_.get(g_.cb_cancel, 0) != 0) break;
      if (crash_mode_) {
        if (recovery_possible()) {
          // Leave the barrier first; the find-work cycle top performs the
          // actual salvage/replay once our +1 is withdrawn. If another
          // survivor wins the claim meanwhile, the pre-check goes false and
          // we simply re-enter.
          pgas::LockGuard guard(ctx_, g_.cb_lock);
          if (ctx_.get(g_.cb_done, 0) == 0) {
            cb_set_count(ctx_.get(g_.cb_count, 0) - 1, 0);
            return false;
          }
          break;  // termination already declared
        }
        // A death elsewhere may have lowered the target below the current
        // count; re-evaluate (cheap raw pre-check, confirmed under lock).
        if (term_satisfied(g_.cb_count.load(std::memory_order_acquire))) {
          pgas::LockGuard guard(ctx_, g_.cb_lock);
          if (term_satisfied(ctx_.get(g_.cb_count, 0)))
            ctx_.put(g_.cb_done, 0, 1);
        }
      }
      if (lockless()) service_requests();
      ctx_.yield();
    }

    bool done = false;
    {
      pgas::LockGuard guard(ctx_, g_.cb_lock);
      done = ctx_.get(g_.cb_done, 0) != 0;
      if (!done) {
        cb_set_count(ctx_.get(g_.cb_count, 0) - 1, 0);
        ctx_.put(g_.cb_cancel, 0, 0);
      }
    }
    return done;
  }

  /// §3.3.1 search loop: a full probe cycle distinguishing "working, no
  /// surplus" (0) from "no work at all" (-1); enter the barrier only when
  /// every other rank reports the latter.
  bool find_work_probe() {
    rec_.state(State::kSearching);
    for (;;) {
      if (drain_check()) return false;
      cancel_check();
      if (maybe_recover()) {
        publish_avail();
        rec_.state(State::kWorking);
        return true;
      }
      bool any_working = false;
      if (!cancelled_) {
        shuffle_perm();
        for (int v : perm_) {
          if (skip_victim(v)) continue;
          if (check_term_flag()) return false;
          const std::int64_t a = probe(v);
          if (a >= static_cast<std::int64_t>(k_)) {
            rec_.state(State::kStealing);
            if (attempt_steal(v)) {
              rec_.state(State::kWorking);
              return true;
            }
            rec_.state(State::kSearching);
          } else if (a != kNoWorkAtAll) {
            any_working = true;  // working, just no surplus published yet
          }
          if (lockless()) service_requests();
          ctx_.yield();
        }
      }
      if (!any_working) {
        const int r = barrier_probe();
        if (r == 1) return false;
        rec_.state(State::kWorking);
        return true;
      }
    }
  }

  /// Lifeline search loop (Algo::kLifeline): one sweep of the hypercube
  /// lifeline neighbors only — no global random probing — then park and
  /// wait in the probe barrier for a victim's wake. Parking early is safe:
  /// the barrier count can only reach the membership target when every
  /// rank is idle with an empty stack, so termination stays exact; a
  /// missed wake costs latency, never correctness.
  bool find_work_lifeline() {
    rec_.state(State::kSearching);
    for (;;) {
      if (drain_check()) return false;
      cancel_check();
      if (maybe_recover()) {
        publish_avail();
        rec_.state(State::kWorking);
        return true;
      }
      if (!cancelled_) {
        for (int d : lifeline_dims_) {
          const int v = me_ ^ (1 << d);
          if (skip_victim(v)) continue;
          if (check_term_flag()) return false;
          if (probe(v) >= static_cast<std::int64_t>(k_)) {
            rec_.state(State::kStealing);
            if (attempt_steal(v)) {
              rec_.state(State::kWorking);
              return true;
            }
            rec_.state(State::kSearching);
          }
          if (lockless()) service_requests();
          ctx_.yield();
        }
        park_lifelines();
      }
      const int r = barrier_probe();
      if (r == 1) return false;
      unpark();  // covers the recovery-leave path; wake path already unparked
      rec_.state(State::kWorking);
      return true;
    }
  }

  /// Sampling search loop (Algo::kSampling): per cycle, probe a random
  /// sample of sample_frac of the other ranks, then steal from the rank at
  /// the `quantile` point of the sampled load distribution (falling back
  /// down the sample on failed attempts). Barrier entry and in-barrier
  /// probing are the base §3.3.1 protocol.
  bool find_work_sample() {
    rec_.state(State::kSearching);
    const int m = std::max(
        1, static_cast<int>(std::lround(cfg_.sample_frac * (n_ - 1))));
    for (;;) {
      if (drain_check()) return false;
      cancel_check();
      if (maybe_recover()) {
        publish_avail();
        rec_.state(State::kWorking);
        return true;
      }
      bool any_working = false;
      if (!cancelled_) {
        // Draw m distinct victims (partial Fisher–Yates over perm_), probe
        // each, and collect those with stealable surplus.
        sampled_.clear();
        for (int i = 0; i < m; ++i) {
          std::uniform_int_distribution<int> pick(i, n_ - 2);
          std::swap(perm_[i], perm_[pick(ctx_.rng())]);
          const int v = perm_[i];
          if (skip_victim(v)) continue;
          if (check_term_flag()) return false;
          const std::int64_t a = probe(v);
          if (a >= static_cast<std::int64_t>(k_)) {
            sampled_.emplace_back(a, v);
          } else if (a != kNoWorkAtAll) {
            any_working = true;
          }
          if (lockless()) service_requests();
          ctx_.yield();
        }
        // Steal from the quantile of the sampled loads; on a failed attempt
        // drop that victim and retry at the (re-evaluated) quantile.
        while (!sampled_.empty()) {
          std::sort(sampled_.begin(), sampled_.end());
          const auto idx = std::min(
              sampled_.size() - 1,
              static_cast<std::size_t>(cfg_.quantile *
                                       static_cast<double>(sampled_.size())));
          const int v = sampled_[idx].second;
          rec_.state(State::kStealing);
          if (attempt_steal(v)) {
            rec_.state(State::kWorking);
            return true;
          }
          rec_.state(State::kSearching);
          sampled_.erase(sampled_.begin() +
                         static_cast<std::ptrdiff_t>(idx));
          if (lockless()) service_requests();
          ctx_.yield();
        }
      }
      if (!any_working) {
        const int r = barrier_probe();
        if (r == 1) return false;
        rec_.state(State::kWorking);
        return true;
      }
    }
  }

  /// §3.3.1 barrier with in-barrier probing of a single victim.
  /// Returns 1 on termination, 0 if work was stolen while waiting.
  /// Failure-aware: the entry target tracks live membership (plus ghost
  /// entries of ranks that died while counted in), waiters run the recovery
  /// sweep, and the termination condition is re-evaluated as deaths are
  /// detected.
  int barrier_probe() {
    rec_.state(State::kTermination);
    ++st_.c.barrier_entries;
    int cnt = bar_enter();
    if (term_satisfied(cnt)) {
      announce_termination();
      return 1;
    }
    std::uniform_int_distribution<int> pick(0, n_ - 2);
    for (;;) {
      cancel_check();
      if (check_term_flag()) return 1;
      if (crash_mode_) {
        if (recovery_possible()) {
          // Leave the barrier first; find_work_probe's cycle top performs
          // the actual salvage/replay once our +1 is withdrawn.
          bar_leave();
          return 0;
        }
        ctx_.charge_ref(0);
        if (term_satisfied(g_.bar_count.load(std::memory_order_acquire))) {
          announce_termination();
          return 1;
        }
        // The ref above also covers rank 0's announcement root. If
        // termination was declared but our flag never arrived — the tree
        // announcement can die with a crashed interior rank, or sit behind
        // a healing partition until every forwarder has exited — adopt it
        // straight from the root word and re-forward to our subtree.
        if (g_.term_root.load(std::memory_order_acquire) != -1) {
          ctx_.charge(ctx_.net().local_ref_ns);
          g_.slots[me_].term_flag.store(1, std::memory_order_release);
          forward_announcement();
          return 1;
        }
      }
      // A cancelled waiter never steals from inside the barrier — it only
      // waits for the count/flag (or leaves to recover a dead rank's work).
      if (!cancelled_ && lifeline()) {
        // Parked lifeline thief: no in-barrier probing — poll only our own
        // park word (a cheap local read) for a victim's wake.
        ctx_.charge_poll();
        const int w = g_.slots[me_].park.load(std::memory_order_acquire);
        if (w >= 0) {
          // Leave the barrier *before* pulling so that bar_count reaching
          // the target really implies no thread holds or is acquiring
          // work. bug_drop_distress (checker self-test) drops exactly this
          // step: the woken thief's departure never reaches the barrier's
          // books, so it resumes working while its +1 still stands — the
          // next rank to go idle closes a false termination the
          // barrier-work oracle flags.
          const bool buggy = cfg_.bug_drop_distress;
          if (!buggy) bar_leave();
          unpark();
          rec_.state(State::kStealing);
          bool ok = false;
          if (!(skip_victim(w) || (crash_mode_ && ctx_.rank_dead(w))))
            ok = attempt_steal(w);
          if (ok) return 0;
          // Wake went stale (victim drained its surplus or died): re-park,
          // re-raise distress, and re-enter the barrier.
          rec_.state(State::kTermination);
          park_lifelines();
          if (!buggy) {
            cnt = bar_enter();
            if (term_satisfied(cnt)) {
              announce_termination();
              return 1;
            }
          }
        }
      } else if (!cancelled_) {
        const int v = perm_[pick(ctx_.rng())];
        const std::int64_t a = probe(v);
        if (a >= static_cast<std::int64_t>(k_)) {
          // Leave the barrier *before* stealing so that bar_count reaching
          // the target really implies no thread holds or is acquiring work.
          bar_leave();
          rec_.state(State::kStealing);
          if (attempt_steal(v)) return 0;
          rec_.state(State::kTermination);
          cnt = bar_enter();
          if (term_satisfied(cnt)) {
            announce_termination();
            return 1;
          }
        }
      }
      if (lockless()) service_requests();
      ctx_.yield();
    }
  }

  /// Local check of our own flag; on announcement, forward down the tree.
  bool check_term_flag() {
    ctx_.charge_poll();
    if (g_.slots[me_].term_flag.load(std::memory_order_acquire) == 0)
      return false;
    forward_announcement();
    return true;
  }

  /// §3.3.1: the last thread into the barrier launches a tree-based
  /// termination announcement rooted at itself.
  void announce_termination() {
    int expect = -1;
    ctx_.cas(g_.term_root, 0, expect, me_);  // idempotent: first root wins
    ctx_.charge(ctx_.net().local_ref_ns);
    g_.slots[me_].term_flag.store(1, std::memory_order_release);
    forward_announcement();
  }

  /// Propagate the announcement to our children in the binomial tree
  /// rooted at term_root. In crash mode a dead child's subtree is adopted:
  /// we forward directly to its descendants so the announcement cannot be
  /// swallowed by a crashed interior node.
  void forward_announcement() {
    const int root = ctx_.get(g_.term_root, 0);
    const int pos = (me_ - root + n_) % n_;
    fwd_.clear();
    fwd_.push_back(2 * pos + 1);
    fwd_.push_back(2 * pos + 2);
    while (!fwd_.empty()) {
      const int c = fwd_.back();
      fwd_.pop_back();
      if (c >= n_) continue;
      const int dst = (root + c) % n_;
      if (crash_mode_ && ctx_.rank_dead(dst)) {
        fwd_.push_back(2 * c + 1);
        fwd_.push_back(2 * c + 2);
        continue;
      }
      ctx_.put(g_.slots[dst].term_flag, dst, 1);
    }
  }

  pgas::Ctx& ctx_;
  SharedState& g_;
  const Problem& prob_;
  const WsConfig& cfg_;
  const int me_;
  const int n_;
  const std::size_t k_;
  const std::size_t nb_;
  StealStack& my_;
  stats::ThreadStats st_;
  Recorder rec_;
  std::vector<std::byte> nodebuf_;
  std::vector<std::byte> xfer_;
  std::vector<int> perm_;
  std::vector<int> fwd_;  // scratch for forward_announcement
  /// Hypercube dimensions this rank keeps lifelines across (kLifeline).
  std::vector<int> lifeline_dims_;
  /// Scratch for the sampling policy: (avail, rank) pairs of this cycle's
  /// sampled victims with stealable surplus.
  std::vector<std::pair<std::int64_t, int>> sampled_;
  std::size_t last_take_ = 0;  // nodes moved by the most recent steal
  /// Hardened only: current exponential-backoff delay after a steal timeout.
  std::uint64_t backoff_ns_ = 0;
  /// Crash-fault tolerance (null / false unless the plan injects crashes).
  RecoveryBoard* board_;
  const bool crash_mode_;
  /// Elastic membership (false unless the plan drains or joins ranks).
  const bool member_mode_;
  /// This rank hit its planned drain point and is leaving gracefully.
  bool drained_ = false;
  /// This rank passed cfg_.cancel_at_ns: bleed instead of expand.
  bool cancelled_ = false;
  /// nodebuf_ holds a popped-but-uncounted node (see visit()).
  bool visiting_ = false;
};

}  // namespace

stats::ThreadStats run_upc_rank(pgas::Ctx& ctx, SharedState& g,
                                const Problem& prob, const WsConfig& cfg) {
  UpcWorker w(ctx, g, prob, cfg);
  return w.run();
}

}  // namespace upcws::ws
