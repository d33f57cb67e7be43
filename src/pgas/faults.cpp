#include "pgas/faults.hpp"

#include <algorithm>
#include <charconv>
#include <climits>

namespace upcws::pgas {

namespace {
/// Cap on the per-rank fault event log; counters keep accumulating past it.
constexpr std::size_t kMaxEvents = 1 << 16;
/// Seed mix distinct from the Ctx::rng() constant so the fault stream is
/// decorrelated from the algorithm's probe-order stream.
constexpr std::uint64_t kSeedMix = 0xD1B54A32D192ED03ull;
}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t run_seed,
                             int rank)
    : plan_(plan),
      rank_(rank),
      stall_here_(plan.stalls_enabled() &&
                  (plan.stall_rank < 0 || plan.stall_rank == rank)),
      rng_(run_seed * kSeedMix + 0x9E3779B97F4A7C15ull *
                                     (static_cast<std::uint64_t>(rank) + 1)) {
  if (stall_here_)
    next_stall_ns_ = static_cast<std::uint64_t>(
        static_cast<double>(plan_.stall_period_ns) * scale());
  for (const CrashSpec& cs : plan_.crashes) {
    if (cs.rank == rank) {
      crash_here_ = true;
      crash_spec_ = cs;
      break;  // at most one crash per rank; the first spec wins
    }
  }
  for (const DrainSpec& ds : plan_.drains) {
    if (ds.rank == rank) {
      drain_here_ = true;
      drain_at_ns_ = ds.at_ns;
      break;  // at most one drain per rank; the first spec wins
    }
  }
  for (const JoinSpec& js : plan_.joins) {
    if (js.rank == rank) {
      join_here_ = true;
      join_at_ns_ = js.at_ns;
      break;
    }
  }
}

bool FaultInjector::crash_due(std::uint64_t now_ns, bool in_lock,
                              bool in_steal) {
  if (!crash_here_ || now_ns < crash_spec_.at_ns) return false;
  if (crash_spec_.where == CrashSpec::Where::kInLock && !in_lock) return false;
  if (crash_spec_.where == CrashSpec::Where::kMidSteal && !in_steal)
    return false;
  crash_here_ = false;  // fail-stop fires exactly once
  ++c_.crashes;
  record(FaultEvent::Kind::kCrash, now_ns, 0);
  return true;
}

bool FaultInjector::drain_due(std::uint64_t now_ns) {
  if (!drain_here_ || now_ns < drain_at_ns_) return false;
  drain_here_ = false;  // a rank drains exactly once
  ++c_.drains;
  record(FaultEvent::Kind::kDrain, now_ns, 0);
  return true;
}

void FaultInjector::note_joined(std::uint64_t now_ns) {
  if (!join_here_) return;
  join_here_ = false;  // a rank joins exactly once
  ++c_.joins;
  record(FaultEvent::Kind::kJoin, now_ns, 0);
}

std::uint64_t FaultInjector::partition_extra_ns(int peer,
                                                std::uint64_t now_ns) {
  if (plan_.partitions.empty() || peer == rank_) return 0;
  std::uint64_t extra = 0;
  for (const PartitionSpec& ps : plan_.partitions) {
    if (!ps.active(now_ns) || !ps.separates(rank_, peer)) continue;
    extra = std::max(extra, ps.heal_ns - now_ns);
  }
  if (extra > 0) {
    ++c_.partition_delays;
    c_.partition_delay_ns_total += extra;
    record(FaultEvent::Kind::kPartitionDelay, now_ns, extra);
  }
  return extra;
}

double FaultInjector::scale() {
  std::uniform_real_distribution<double> u(0.5, 1.5);
  return u(rng_);
}

void FaultInjector::record(FaultEvent::Kind kind, std::uint64_t t_ns,
                           std::uint64_t ns) {
  if (events_.size() < kMaxEvents) events_.push_back({t_ns, kind, ns});
}

std::uint64_t FaultInjector::stall_due(std::uint64_t now_ns) {
  if (!stall_here_ || now_ns < next_stall_ns_) return 0;
  const auto dur = static_cast<std::uint64_t>(
      static_cast<double>(plan_.stall_ns) * scale());
  next_stall_ns_ =
      now_ns + dur +
      static_cast<std::uint64_t>(static_cast<double>(plan_.stall_period_ns) *
                                 scale());
  ++c_.stalls;
  c_.stall_ns_total += dur;
  record(FaultEvent::Kind::kStall, now_ns, dur);
  return dur;
}

std::uint64_t FaultInjector::spiked(std::uint64_t base_ns,
                                    std::uint64_t now_ns) {
  if (plan_.spike_prob <= 0.0 || base_ns == 0) return base_ns;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(rng_) >= plan_.spike_prob) return base_ns;
  std::exponential_distribution<double> tail(1.0);
  const auto extra = static_cast<std::uint64_t>(
      static_cast<double>(base_ns) * plan_.spike_mult * tail(rng_));
  ++c_.spikes;
  c_.spike_ns_total += extra;
  record(FaultEvent::Kind::kSpike, now_ns, extra);
  return base_ns + extra;
}

bool FaultInjector::drop_message(std::uint64_t now_ns) {
  if (plan_.drop_prob <= 0.0) return false;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(rng_) >= plan_.drop_prob) return false;
  ++c_.msgs_dropped;
  record(FaultEvent::Kind::kMsgDrop, now_ns, 0);
  return true;
}

std::uint64_t FaultInjector::duplicate_delay(std::uint64_t wire_ns,
                                             std::uint64_t now_ns) {
  if (plan_.dup_prob <= 0.0) return 0;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(rng_) >= plan_.dup_prob) return 0;
  // The duplicate trails the original by up to two wire times (plus a
  // floor so a zero-latency model still reorders).
  std::uniform_real_distribution<double> d(0.0, 1.0);
  const auto delay =
      1 + static_cast<std::uint64_t>(2.0 * static_cast<double>(wire_ns) *
                                     d(rng_));
  ++c_.msgs_duplicated;
  record(FaultEvent::Kind::kMsgDup, now_ns, delay);
  return delay;
}

namespace {

/// Split `spec` at commas and parse each piece with `one`.
template <class F>
auto parse_list(const std::string& spec, F one) {
  std::vector<decltype(one(spec))> out;
  for (std::size_t b = 0;;) {
    const std::size_t e = spec.find(',', b);
    out.push_back(one(spec.substr(b, e - b)));
    if (e == std::string::npos) return out;
    b = e + 1;
  }
}

/// Split `operand` at colons into whole unsigned decimals (from_chars into
/// an unsigned type takes digits only: no sign, no blanks). Empty on any
/// malformed piece.
std::vector<std::uint64_t> colon_fields(const std::string& operand) {
  std::vector<std::uint64_t> out;
  const char* p = operand.data();
  const char* const end = p + operand.size();
  for (;;) {
    std::uint64_t v = 0;
    const auto r = std::from_chars(p, end, v);
    if (r.ec != std::errc()) return {};
    out.push_back(v);
    if (r.ptr == end) return out;
    if (*r.ptr != ':') return {};
    p = r.ptr + 1;
  }
}

}  // namespace

RankAt parse_rank_at(const std::string& operand, const std::string& what) {
  // from_chars into unsigned types takes digits only: no sign, no blanks.
  const char* const end = operand.data() + operand.size();
  unsigned rank = 0;
  RankAt ra;
  const auto r = std::from_chars(operand.data(), end, rank);
  if (r.ec == std::errc() && r.ptr != end && *r.ptr == '@' &&
      rank <= INT_MAX) {
    const auto t = std::from_chars(r.ptr + 1, end, ra.at_ns);
    ra.rank = static_cast<int>(rank);
    if (t.ec == std::errc() && t.ptr == end) return ra;
  }
  throw std::invalid_argument("bad " + what + " operand '" + operand +
                              "' (want RANK@NS)");
}

std::vector<RankAt> parse_rank_at_list(const std::string& spec,
                                       const std::string& what) {
  return parse_list(spec, [&](const std::string& s) {
    return parse_rank_at(s, what);
  });
}

void parse_stall(const std::string& operand, const std::string& what,
                 FaultPlan& plan) {
  const std::vector<std::uint64_t> f = colon_fields(operand);
  // Without PERIOD the default 10 * DUR must not wrap.
  if (f.empty() || f.size() > 3 || f[0] == 0 ||
      (f.size() == 1 && f[0] > UINT64_MAX / 10) ||
      (f.size() >= 2 && f[1] == 0) || (f.size() == 3 && f[2] > INT_MAX))
    throw std::invalid_argument("bad " + what + " operand '" + operand +
                                "' (want DUR[:PERIOD[:RANK]], DUR and "
                                "PERIOD > 0)");
  plan.stall_ns = f[0];
  plan.stall_period_ns = f.size() >= 2 ? f[1] : f[0] * 10;
  plan.stall_rank = f.size() == 3 ? static_cast<int>(f[2]) : -1;
}

std::vector<PartitionSpec> parse_partition_list(const std::string& spec,
                                                const std::string& what) {
  return parse_list(spec, [&](const std::string& s) {
    const std::vector<std::uint64_t> f = colon_fields(s);
    if (f.size() != 3)
      throw std::invalid_argument("bad " + what + " operand '" + s +
                                  "' (want MASK:START:HEAL)");
    return PartitionSpec{f[0], f[1], f[2]};
  });
}

void validate_plan(const FaultPlan& plan, int nranks,
                   const std::string& prefix) {
  const std::string range = " out of range [0," + std::to_string(nranks) + ")";
  auto fail = [&](const std::string& msg) {
    throw std::invalid_argument(prefix + msg);
  };
  auto check_rank = [&](const char* kind, int rank) {
    if (rank < 0 || rank >= nranks)
      fail(std::string(kind) + " rank " + std::to_string(rank) + range);
  };
  if (plan.stalls_enabled() && plan.stall_rank >= nranks)
    fail("stall rank " + std::to_string(plan.stall_rank) + range +
         " (or -1 for all ranks)");
  if (plan.drop_prob < 0.0 || plan.drop_prob > 1.0)
    fail("drop-prob must be a probability in [0,1]");
  if (plan.dup_prob < 0.0 || plan.dup_prob > 1.0)
    fail("dup-prob must be a probability in [0,1]");
  for (const CrashSpec& c : plan.crashes) check_rank("crash", c.rank);
  for (const DrainSpec& d : plan.drains) check_rank("drain", d.rank);
  for (const JoinSpec& j : plan.joins) {
    check_rank("join", j.rank);
    if (j.rank == 0) fail("join rank 0 is invalid (rank 0 seeds the root)");
  }
  const std::uint64_t all =
      nranks >= 64 ? ~0ull : ((1ull << std::max(nranks, 0)) - 1);
  for (const PartitionSpec& ps : plan.partitions) {
    if (ps.heal_ns <= ps.start_ns)
      fail("partition heal time must be after its start time");
    if ((ps.group_mask & ~all) != 0)
      fail("partition mask names ranks >= " + std::to_string(nranks));
    if (ps.group_mask == 0 || ps.group_mask == all)
      fail("partition mask must leave both sides nonempty");
  }
}

}  // namespace upcws::pgas
