// Standalone timing loops over single public APIs. Each returns host ns per
// operation as the median of several repetitions of a fixed-size loop.
#pragma once

#include "uts/params.hpp"

namespace perfbench {

/// Host-speed calibration: ns per block of a SHA-1 compression written in
/// this benchmark, not taken from the program's sha1 library, so that no
/// change to the program can move it. Runs on `threads` host threads at
/// once (the workload's own parallelism) and returns the slowest thread's
/// figure, since psim's windowed lane advances at its slowest worker's
/// pace. Timed around every search (about 10 ms) to scale out the host's
/// own speed drift; see README.md.
double host_calibration_ns(int threads);

/// sha1::compress_block over padded child blocks built from the tree's
/// first-level node descriptors (the blocks node expansion hashes).
double sha1_compress_ns(const upcws::uts::Params& tree);

/// One pop + push on a sim::ReadyQueue holding `size` tasks, each task
/// re-queued at a later virtual time (the scheduler's steady-state step).
double ready_queue_op_ns(int size);

/// One sim::Fiber resume + yield round trip.
double fiber_switch_ns();

/// One mp::Comm send to self + try_recv on a single-rank SimEngine body
/// under the distributed net model.
double mp_send_recv_ns();

}  // namespace perfbench
