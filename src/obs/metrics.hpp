// Run-telemetry metrics: per-rank registries of named counters, gauges and
// distributions, plus the sampled time-series store the virtual-time
// sampler writes into (docs/observability.md).
//
// The registry is deliberately tiny: a counter is a plain uint64 the worker
// bumps through a cached reference (no map lookup on the hot path) or a
// view of a counter the rank already keeps elsewhere, a gauge is a callback
// the sampler polls at each cadence boundary, a histogram is a
// stats::LogHistogram. Every mutation happens from the owning rank's own
// fiber/thread, so registries need no synchronization under either engine.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "stats/histogram.hpp"

namespace upcws::obs {

/// One rank's named metrics. Owner-rank mutation only.
class Registry {
 public:
  /// Monotonic counter. The returned reference is stable across further
  /// registrations (std::map nodes never move), so hot paths cache it and
  /// increment without a lookup.
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }

  /// Counter `name` as a view of `field`, a counter the owner rank already
  /// keeps (ws::Recorder binds ThreadStats fields), not a second copy. It
  /// reads `field` at each sync_views() (the sampler syncs every sample)
  /// and keeps its last value after detach_views(), which the owner must
  /// call before `field` dies.
  void view(const std::string& name, const std::uint64_t& field) {
    views_.push_back({&counters_[name], &field});
  }
  void sync_views() {
    for (const View& v : views_) *v.cell = *v.field;
  }
  void detach_views() {
    sync_views();
    views_.clear();
  }

  /// Register a gauge: `fn` is polled at each sample boundary from the
  /// owner rank's own execution context, so it may read owner-only fields
  /// (e.g. StealStack::depth). It must be pure observation — in particular
  /// it must never charge Ctx time.
  void gauge(const std::string& name, std::function<std::int64_t()> fn) {
    gauges_[name] = std::move(fn);
  }

  /// Named distribution (merged across ranks by merged_histograms).
  stats::LogHistogram& histogram(const std::string& name) {
    return hists_[name];
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::function<std::int64_t()>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, stats::LogHistogram>& histograms() const {
    return hists_;
  }

  void clear() {
    views_.clear();
    counters_.clear();
    gauges_.clear();
    hists_.clear();
  }

 private:
  struct View {
    std::uint64_t* cell;
    const std::uint64_t* field;
  };
  std::map<std::string, std::uint64_t> counters_;
  std::vector<View> views_;
  std::map<std::string, std::function<std::int64_t()>> gauges_;
  std::map<std::string, stats::LogHistogram> hists_;
};

/// Cross-rank totals of every named counter.
std::map<std::string, std::uint64_t> merged_counters(
    const std::vector<Registry*>& regs);

/// Cross-rank merge of every named distribution.
std::map<std::string, stats::LogHistogram> merged_histograms(
    const std::vector<Registry*>& regs);

/// One sampled value of one metric on one rank at one (virtual) instant.
struct SamplePoint {
  std::uint64_t t_ns = 0;
  int rank = 0;
  std::string metric;
  std::int64_t value = 0;
};

/// Append-only store of sampled points, one buffer per rank (owner-only
/// writes, so concurrent sampling under the thread engine is race-free).
class SampleStore {
 public:
  void reset(int nranks);

  int nranks() const { return static_cast<int>(per_rank_.size()); }

  void add(int rank, std::uint64_t t_ns, const std::string& metric,
           std::int64_t value) {
    per_rank_[static_cast<std::size_t>(rank)].push_back(
        {t_ns, rank, metric, value});
  }

  /// All of `rank`'s points in sample order.
  const std::vector<SamplePoint>& points(int rank) const {
    return per_rank_[static_cast<std::size_t>(rank)];
  }

  std::size_t total_points() const;

  /// One (rank, metric) series in time order.
  std::vector<SamplePoint> series(int rank, const std::string& metric) const;

  /// Union of sampled metric names across ranks, sorted.
  std::vector<std::string> metric_names() const;

  /// Stream every point as one JSON object per line:
  ///   {"t_ns":1000,"rank":0,"metric":"queue_depth","value":42}
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<std::vector<SamplePoint>> per_rank_;
};

/// Parse write_jsonl output back into points (tests, offline tooling).
/// Lines that are not well-formed sample objects are skipped.
std::vector<SamplePoint> read_jsonl(std::istream& is);

}  // namespace upcws::obs
