// RunSetup: the per-run state every engine derives from a RunConfig the
// same way. Internal to the engines (SimEngine, ThreadEngine, PsimEngine).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pgas/engine.hpp"

namespace upcws::pgas {

/// The per-run fault and crash state every engine builds the same way from
/// a RunConfig, before any rank starts. Must outlive every Ctx of the run
/// (a cancel-unwound fiber may still charge through its injector).
struct RunSetup {
  explicit RunSetup(const RunConfig& cfg);

  /// Rank `r`'s injector; null when the plan injects nothing.
  FaultInjector* faults(int r) const { return injectors_[r].get(); }

  /// The liveness board, or null unless the plan crashes ranks or changes
  /// the membership: the caller's RunConfig::liveness (so post-run code and
  /// hang reporters can read it), else one owned for the run; the join plan
  /// is applied either way.
  Liveness* live = nullptr;
  /// RunConfig::lock_lease_ns, defaulted to 1 ms of Ctx time.
  std::uint64_t lease_ns = 0;

 private:
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::unique_ptr<Liveness> own_live_;
};

}  // namespace upcws::pgas
