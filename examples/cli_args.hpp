// Strict numeric operands for the example CLIs. Each CLI passes its own
// `usage` (print "<tool>: <message>", exit 2), so a bad operand is reported
// the same way by every tool instead of being wrapped or zeroed by atoi/atof.
#pragma once

#include <cerrno>
#include <charconv>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace upcws::cli {

/// Strict integer in [lo, hi]: rejects "-5" (which atoll would silently
/// wrap to a huge unsigned), an empty operand, trailing junk and values out
/// of range, by calling `usage` (which must not return).
template <class Usage>
std::uint64_t parse_u64(const char* s, const char* flag, Usage&& usage,
                        std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
  bool ok = s != nullptr && *s != '\0' && *s != '-';
  unsigned long long v = 0;
  if (ok) {
    char* end = nullptr;
    errno = 0;
    v = std::strtoull(s, &end, 10);
    ok = end != s && *end == '\0' && errno != ERANGE && v >= lo && v <= hi;
  }
  if (!ok) {
    std::string msg = flag;
    if (lo == 0 && hi == UINT64_MAX) {
      msg += " wants a nonnegative integer";
    } else {
      msg += " wants an integer in [";
      msg += std::to_string(lo);
      msg += ", ";
      msg += std::to_string(hi);
      msg += "]";
    }
    usage(msg);
  }
  return static_cast<std::uint64_t>(v);
}

/// parse_u64 for an `int` setting: [lo, INT_MAX].
template <class Usage>
int parse_int(const char* s, const char* flag, Usage&& usage, int lo = 0) {
  return static_cast<int>(parse_u64(s, flag, usage,
                                    static_cast<std::uint64_t>(lo), INT_MAX));
}

/// Strict finite number in [lo, hi]: the whole operand must be one decimal
/// or scientific literal ("0.45zz", "", "nan" and "inf" are rejected, as are
/// values out of range), else `usage` is called.
template <class Usage>
double parse_double(const char* s, const char* flag, Usage&& usage,
                    double lo = -DBL_MAX, double hi = DBL_MAX) {
  double v = 0.0;
  const char* const end = s + std::strlen(s);
  const auto r = std::from_chars(s, end, v);
  if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v) || v < lo ||
      v > hi) {
    std::string msg = flag;
    char range[64];
    if (lo == -DBL_MAX && hi == DBL_MAX)
      range[0] = '\0';
    else if (hi == DBL_MAX)
      std::snprintf(range, sizeof range, " >= %g", lo);
    else
      std::snprintf(range, sizeof range, " in [%g, %g]", lo, hi);
    usage(msg + " wants a finite number" + range);
  }
  return v;
}

}  // namespace upcws::cli
