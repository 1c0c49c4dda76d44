/**
 * @file
 * Minimal deterministic-friendly parallelism: a parallelFor over an
 * index range backed by a per-call worker team.
 *
 * Design points:
 *  - The team's width is a parameter of each call. The process
 *    setting, parallelWorkerCount(), is setParallelWorkerCount() (a
 *    --threads flag), else the TLC_THREADS environment variable,
 *    else std::thread::hardware_concurrency(); a caller that wants
 *    it passes it. There is no scoped override: a sweep that runs at
 *    another width (SweepRequest::threads) passes that width, and
 *    the process setting never changes under it.
 *  - Callers own determinism: the body receives its index and must
 *    write only to per-index state, so results are ordered by input
 *    index regardless of which worker finishes first. The sweep
 *    engine relies on this to make parallel figure data
 *    byte-identical to serial figure data.
 *  - Exception-safe: the first exception thrown by any body stops
 *    further indices from being issued, the team is joined, and the
 *    exception is rethrown on the calling thread.
 *  - Nested calls are safe: a parallelFor issued from inside a
 *    worker runs serially on that worker instead of spawning a
 *    second team underneath the first.
 */

#ifndef TLC_UTIL_PARALLEL_HH
#define TLC_UTIL_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace tlc {

/**
 * The process's worker count: the programmatic setting if any, else
 * TLC_THREADS (when it parses to a positive integer), else
 * hardware_concurrency(), never 0.
 */
unsigned parallelWorkerCount();

/**
 * Set the process's worker count (the --threads flag of the
 * drivers), at setup, not while a sweep runs. @p n = 0 clears the
 * setting, returning control to TLC_THREADS / the hardware default.
 */
void setParallelWorkerCount(unsigned n);

/** True while the calling thread is executing a parallelFor body. */
bool inParallelWorker();

/**
 * Stable worker index of the calling thread within the current
 * parallelFor: the calling thread is worker 0, spawned team members
 * are 1..workers-1. Outside a parallelFor (and on the serial fast
 * path) this is 0. The trace-event exporter uses it to give each
 * worker its own timeline track.
 */
unsigned parallelWorkerId();

/**
 * Run @p body(i) for every i in [0, n), distributing indices across
 * a team of at most @p workers threads (the calling thread counts as
 * one) and blocking until all complete (or until a body throws, in
 * which case the remaining un-issued indices are skipped and the
 * first exception is rethrown here). Runs serially on the calling
 * thread when n <= 1, when @p workers <= 1, or when called from
 * inside another parallelFor.
 */
void parallelFor(std::size_t n, unsigned workers,
                 const std::function<void(std::size_t)> &body);

} // namespace tlc

#endif // TLC_UTIL_PARALLEL_HH
