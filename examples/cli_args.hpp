// Strict integer operands for the example CLIs. Each CLI passes its own
// `usage` (print "<tool>: <message>", exit 2), so a bad operand is reported
// the same way by every tool instead of being wrapped or zeroed by atoi.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
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

}  // namespace upcws::cli
