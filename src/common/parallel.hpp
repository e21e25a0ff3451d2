/**
 * @file
 * Deterministic chunked parallelism for the functional hot loops
 * (DESIGN.md §13).
 *
 * parallelFor() splits an index range into fixed-size chunks whose
 * boundaries depend only on (total, grain) — never on the worker count —
 * and lets a small thread pool claim chunks in any order. Callers
 * guarantee chunks write disjoint outputs and keep each output element's
 * accumulation order internal to one chunk, so results are bit-identical
 * at any thread count (including 1). The same pool runs the sweeps'
 * grid points (one point per chunk, at the sweep's own worker count)
 * and the dense SPMM loops inside one large point (Reddit@4096), where a
 * single SPMM dominates wall clock.
 *
 * Nested calls degrade to serial execution: a parallelFor() issued from
 * inside a worker runs inline, so sweeps that parallelize across points
 * do not multiply their thread count. A call that runs inline (one
 * worker or one chunk) marks nothing, so a one-worker sweep still lets
 * its point use the intra-point threads.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace awb {

/**
 * Set the process-wide worker count for intra-point parallelism
 * (`awbsim --intra-threads N`). 0 (the default) means hardware
 * concurrency; 1 forces serial execution everywhere.
 */
void setIntraThreads(int n);

/** The resolved worker count (>= 1). */
int intraThreads();

/** Work below this many scalar operations is not worth spawning for. */
inline constexpr std::uint64_t kParallelMinWork = 1ULL << 20;

/**
 * True when a loop with `work` total scalar operations should use
 * parallelFor: enough work, more than one worker configured, and not
 * already inside a parallelFor worker.
 */
bool shouldParallelize(std::uint64_t work);

/**
 * Invoke fn(begin, end) over consecutive chunks covering [0, total) on
 * up to `workers` threads (0 = intraThreads()), the caller among them.
 * Chunk boundaries are multiples of `grain` (the last chunk may be
 * short), fixed for a given (total, grain) regardless of worker count.
 * Runs inline when shouldParallelize-style conditions do not hold
 * (single worker, single chunk, or nested call).
 */
void parallelFor(std::size_t total, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)> &fn,
                 int workers = 0);

} // namespace awb
