#include "check/replay.hpp"

#include <charconv>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "check/strategies.hpp"

namespace upcws::check {

namespace {

const char* tree_type_name(uts::TreeType t) {
  switch (t) {
    case uts::TreeType::kBinomial: return "binomial";
    case uts::TreeType::kGeometric: return "geometric";
    case uts::TreeType::kHybrid: return "hybrid";
  }
  return "binomial";
}

uts::TreeType tree_type_from(const std::string& s) {
  if (s == "binomial") return uts::TreeType::kBinomial;
  if (s == "geometric") return uts::TreeType::kGeometric;
  if (s == "hybrid") return uts::TreeType::kHybrid;
  throw std::invalid_argument("replay: unknown tree type " + s);
}

const char* where_name(pgas::CrashSpec::Where w) {
  switch (w) {
    case pgas::CrashSpec::Where::kAnywhere: return "anywhere";
    case pgas::CrashSpec::Where::kInLock: return "in-lock";
    case pgas::CrashSpec::Where::kMidSteal: return "mid-steal";
  }
  return "anywhere";
}

pgas::CrashSpec::Where where_from(const std::string& s) {
  if (s == "anywhere") return pgas::CrashSpec::Where::kAnywhere;
  if (s == "in-lock") return pgas::CrashSpec::Where::kInLock;
  if (s == "mid-steal") return pgas::CrashSpec::Where::kMidSteal;
  throw std::invalid_argument("replay: unknown crash site " + s);
}

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("replay: " + what);
}

/// `is >> Digits{v}` reads the next word as a whole decimal that fits v's
/// type, and sets failbit otherwise. from_chars into an unsigned type takes
/// digits only: no sign, no blanks, so "-1" fails instead of wrapping.
template <class T>
struct Digits {
  T& v;

  friend std::istream& operator>>(std::istream& is, Digits d) {
    std::string word;
    if (!(is >> word)) return is;
    const char* const end = word.data() + word.size();
    std::uint64_t v = 0;
    const auto r = std::from_chars(word.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end ||
        v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
      is.setstate(std::ios::failbit);
    else
      d.v = static_cast<T>(v);
    return is;
  }
};

/// A crash/drain/join operand, through the shared fault-plan codec.
pgas::RankAt rank_at(const std::string& operand, const std::string& key) {
  try {
    return pgas::parse_rank_at(operand, key);
  } catch (const std::invalid_argument& e) {
    bad(e.what());
  }
}

}  // namespace

void write_replay(std::ostream& os, const ReplayFile& rf) {
  const CheckSpec& s = rf.spec;
  // Round-trip-exact doubles: the tree's q/b0 feed the SHA-1 node states,
  // so a replay must reconstruct bit-identical parameters.
  os << std::setprecision(17);
  os << "upcws-replay v1\n";
  os << "algo " << ws::algo_label(s.algo) << "\n";
  os << "nranks " << s.nranks << "\n";
  os << "chunk " << s.chunk << "\n";
  os << "net " << s.net << "\n";
  os << "tree " << tree_type_name(s.tree.type) << " " << s.tree.root_seed
     << " " << s.tree.b0 << " " << s.tree.m << " " << s.tree.q << " "
     << s.tree.gen_mx << " " << static_cast<int>(s.tree.shape) << " "
     << s.tree.shift_depth << "\n";
  os << "run-seed " << s.run_seed << "\n";
  os << "steal-timeout-ns " << s.steal_timeout_ns << "\n";
  os << "watchdog-ns " << s.watchdog_ns << "\n";
  os << "vt-limit-ns " << s.vt_limit_ns << "\n";
  for (const pgas::CrashSpec& c : s.crashes)
    os << "crash " << c.rank << "@" << c.at_ns << " " << where_name(c.where)
       << "\n";
  os << "crash-detect-ns " << s.crash_detect_ns << "\n";
  // Fault and membership keys are written only when non-default, so files
  // recorded before they existed stay valid and byte-stable.
  if (s.stall_ns > 0 || s.stall_period_ns > 0)
    os << "stall " << s.stall_ns << " " << s.stall_period_ns << " "
       << s.stall_rank << "\n";
  if (s.drop_prob > 0.0) os << "drop-prob " << s.drop_prob << "\n";
  if (s.dup_prob > 0.0) os << "dup-prob " << s.dup_prob << "\n";
  for (const pgas::DrainSpec& d : s.drains)
    os << "drain " << d.rank << "@" << d.at_ns << "\n";
  for (const pgas::JoinSpec& j : s.joins)
    os << "join " << j.rank << "@" << j.at_ns << "\n";
  for (const pgas::PartitionSpec& p : s.partitions)
    os << "partition " << p.group_mask << " " << p.start_ns << " "
       << p.heal_ns << "\n";
  if (s.sample_frac != 0.5) os << "sample-frac " << s.sample_frac << "\n";
  if (s.quantile != 0.8) os << "quantile " << s.quantile << "\n";
  if (s.lifeline_dim != 0) os << "lifeline-dim " << s.lifeline_dim << "\n";
  if (s.bug_weak_claim) os << "bug weak-claim\n";
  if (s.bug_drop_distress) os << "bug drop-distress\n";
  os << "window-ns " << rf.window_ns << "\n";
  os << "oracle " << (rf.oracle.empty() ? "none" : rf.oracle) << "\n";
  os << "trail";
  for (std::uint16_t c : rf.trail) os << " " << c;
  os << "\n";
}

void save_replay(const std::string& path, const ReplayFile& rf) {
  std::ofstream os(path);
  if (!os) bad("cannot write " + path);
  write_replay(os, rf);
}

ReplayFile read_replay(std::istream& is) {
  ReplayFile rf;
  rf.spec.crashes.clear();
  rf.spec.drains.clear();
  rf.spec.joins.clear();
  rf.spec.partitions.clear();
  std::string line;
  if (!std::getline(is, line) || line != "upcws-replay v1")
    bad("missing 'upcws-replay v1' header");
  bool have_trail = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "algo") {
      std::string v;
      ls >> v;
      rf.spec.algo = algo_from_label(v);
    } else if (key == "nranks") {
      ls >> Digits{rf.spec.nranks};
    } else if (key == "chunk") {
      ls >> Digits{rf.spec.chunk};
    } else if (key == "net") {
      ls >> rf.spec.net;
      net_by_name(rf.spec.net);  // validate
    } else if (key == "tree") {
      std::string t;
      int shape = 0;
      ls >> t >> Digits{rf.spec.tree.root_seed} >> rf.spec.tree.b0 >>
          Digits{rf.spec.tree.m} >> rf.spec.tree.q >>
          Digits{rf.spec.tree.gen_mx} >> Digits{shape} >>
          rf.spec.tree.shift_depth;
      rf.spec.tree.type = tree_type_from(t);
      rf.spec.tree.shape = static_cast<uts::GeomShape>(shape);
    } else if (key == "run-seed") {
      ls >> Digits{rf.spec.run_seed};
    } else if (key == "steal-timeout-ns") {
      ls >> Digits{rf.spec.steal_timeout_ns};
    } else if (key == "watchdog-ns") {
      ls >> Digits{rf.spec.watchdog_ns};
    } else if (key == "vt-limit-ns") {
      ls >> Digits{rf.spec.vt_limit_ns};
    } else if (key == "crash") {
      std::string at, where;
      ls >> at >> where;
      const pgas::RankAt ra = rank_at(at, key);
      rf.spec.crashes.push_back({ra.rank, ra.at_ns, where_from(where)});
    } else if (key == "crash-detect-ns") {
      ls >> Digits{rf.spec.crash_detect_ns};
    } else if (key == "stall") {
      // The rank may be -1: every rank stalls.
      ls >> Digits{rf.spec.stall_ns} >> Digits{rf.spec.stall_period_ns} >>
          rf.spec.stall_rank;
    } else if (key == "drop-prob") {
      ls >> rf.spec.drop_prob;
    } else if (key == "dup-prob") {
      ls >> rf.spec.dup_prob;
    } else if (key == "drain") {
      std::string at;
      ls >> at;
      const pgas::RankAt ra = rank_at(at, key);
      rf.spec.drains.push_back({ra.rank, ra.at_ns});
    } else if (key == "join") {
      std::string at;
      ls >> at;
      const pgas::RankAt ra = rank_at(at, key);
      rf.spec.joins.push_back({ra.rank, ra.at_ns});
    } else if (key == "partition") {
      pgas::PartitionSpec p;
      ls >> Digits{p.group_mask} >> Digits{p.start_ns} >> Digits{p.heal_ns};
      rf.spec.partitions.push_back(p);
    } else if (key == "sample-frac") {
      ls >> rf.spec.sample_frac;
    } else if (key == "quantile") {
      ls >> rf.spec.quantile;
    } else if (key == "lifeline-dim") {
      ls >> Digits{rf.spec.lifeline_dim};
    } else if (key == "bug") {
      std::string v;
      ls >> v;
      if (v == "weak-claim")
        rf.spec.bug_weak_claim = true;
      else if (v == "drop-distress")
        rf.spec.bug_drop_distress = true;
      else
        bad("unknown bug " + v);
    } else if (key == "window-ns") {
      ls >> Digits{rf.window_ns};
    } else if (key == "oracle") {
      ls >> rf.oracle;
    } else if (key == "trail") {
      have_trail = true;
      // Codes run to the end of the line; the eof() guards stop there
      // without a failed read.
      for (std::uint16_t c = 0;
           !ls.eof() && !(ls >> std::ws).eof() && ls >> Digits{c};)
        rf.trail.push_back(c);
    } else {
      bad("unknown key " + key);
    }
    // Every field must parse whole, with nothing after the last one (`trail`
    // reads to the end of the line and may be empty).
    std::string rest;
    if (ls.fail() || ls >> rest)
      bad("malformed value for key " + key);
  }
  if (!have_trail) bad("missing trail line");
  try {
    pgas::validate_plan(rf.spec.fault_plan(), rf.spec.nranks, "");
  } catch (const std::invalid_argument& e) {
    bad(e.what());
  }
  return rf;
}

ReplayFile load_replay(const std::string& path) {
  std::ifstream is(path);
  if (!is) bad("cannot read " + path);
  return read_replay(is);
}

RunOutcome run_replay(const ReplayFile& rf, trace::Trace* tr) {
  const auto oracles = default_oracles();
  ReplayPolicy rp(rf.trail);
  return run_schedule(rf.spec, &rp, rf.window_ns, &oracles, tr);
}

bool replay_matches(const ReplayFile& rf, const RunOutcome& out) {
  if (rf.oracle.empty() || rf.oracle == "none")
    return !out.violated && out.completed;
  return out.violated && out.oracle == rf.oracle;
}

}  // namespace upcws::check
