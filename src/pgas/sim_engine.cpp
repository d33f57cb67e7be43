#include "pgas/sim_engine.hpp"

#include "pgas/run_setup.hpp"
#include "pgas/sim_ctx.hpp"

namespace upcws::pgas {

RunResult SimEngine::run(const RunConfig& cfg,
                         const std::function<void(Ctx&)>& body) {
  const RunSetup setup(cfg);
  // Declared after the setup on purpose: on abnormal teardown (time
  // limit, hang watchdog) ~Scheduler cancel-unwinds suspended fibers, and
  // destructors on those stacks may still charge time through a Ctx that
  // dereferences its injector.
  sim::Scheduler sched(scheduler_config(cfg));
  for (int r = 0; r < cfg.nranks; ++r) {
    sched.spawn([&, r] {
      SimCtx ctx(sched, r, r, cfg.nranks, cfg.net, cfg.seed, setup.faults(r),
                 setup.live, setup.lease_ns, cfg.obs);
      try {
        body(ctx);
      } catch (const RankCrashed&) {
        // Backstop for bodies that don't handle their own crash: the rank's
        // fiber simply ends here, its last words already on the liveness
        // board.
      }
    });
  }
  try {
    sched.run();
  } catch (...) {
    // The decision trail must survive abnormal exits (HangDetected,
    // TimeLimitExceeded, oracle violations thrown through the policy): a
    // schedule that *caused* the failure is exactly the one worth replaying.
    if (cfg.decision_trail != nullptr) *cfg.decision_trail = sched.decisions();
    throw;
  }
  if (cfg.decision_trail != nullptr) *cfg.decision_trail = sched.decisions();

  RunResult res;
  res.elapsed_s = static_cast<double>(sched.makespan_ns()) * 1e-9;
  res.switches = sched.switches();
  return res;
}

}  // namespace upcws::pgas
