/**
 * @file
 * Scoped phase profiler: RAII timers feeding per-phase wall-clock
 * aggregates, so a sweep can report where its time actually went
 * (trace load vs. cache simulation vs. timing/area/TPI models).
 *
 * Usage:
 *   {
 *       ScopedTimer t(phase::kSimBatch);
 *       BatchEngine::run(trace, warmup, group);
 *   } // merged into Profiler::global() at scope exit
 *
 * Thread safety: each ScopedTimer accumulates on its own thread (two
 * steady_clock reads, no shared state) and merges into the profiler
 * under one short mutex hold at scope exit, so the PR-2 worker team
 * can nest timers freely; phases are aggregated across threads.
 *
 * Overhead discipline: the profiler is disabled by default. A
 * ScopedTimer constructed while disabled reads one relaxed atomic
 * and never touches the clock, so instrumented code paths cost
 * nothing measurable when observability is off (bench/layers reports
 * the enabled cost as bench.tracing_overhead_frac). Timers also sit
 * at phase granularity — once per design point or file, never per
 * simulated reference.
 */

#ifndef TLC_UTIL_PROFILER_HH
#define TLC_UTIL_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace tlc {

/**
 * Canonical phase names, so call sites and dashboards agree on
 * spelling. Free-form names are also accepted.
 */
namespace phase {
inline constexpr const char *kTraceLoad = "trace.load";
inline constexpr const char *kSimBatch = "sim.batch";
inline constexpr const char *kModelTiming = "model.timing";
inline constexpr const char *kModelArea = "model.area";
inline constexpr const char *kModelTpi = "model.tpi";
inline constexpr const char *kSupervisorShard = "supervisor.shard";
inline constexpr const char *kSupervisorBackoff = "supervisor.backoff";
} // namespace phase

/** Aggregate wall-clock of one named phase across all threads. */
struct PhaseStats
{
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t maxNs = 0;

    double totalSeconds() const { return totalNs * 1e-9; }
    double meanNs() const
    {
        return calls ? static_cast<double>(totalNs) / calls : 0.0;
    }
};

/** Per-phase aggregate store. Use global(); tests build their own. */
class Profiler
{
  public:
    Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** The process-wide profiler all ScopedTimers default to. */
    static Profiler &global();

    /** Turn timing on/off (default off). Existing aggregates stay. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Merge one timed interval into @p phase (thread-safe). */
    void record(const char *phase, std::uint64_t ns);

    /**
     * Fold a whole foreign aggregate into @p phase: calls and total
     * time add, max takes the larger. This is how the shard
     * supervisor rolls a worker subprocess's streamed phase stats
     * into the parent profiler (docs/observability.md).
     */
    void merge(const std::string &phase, const PhaseStats &stats);

    /** Consistent copy of every phase aggregate, sorted by name. */
    std::map<std::string, PhaseStats> snapshot() const;

    /** Aligned text table: phase, calls, total ms, mean us, max us. */
    std::string toText() const;

    /** JSON object: {"phase": {"calls":N,"total_ms":..,...}, ...}. */
    std::string toJson(int indent = 2) const;

    /** Drop all aggregates (enabled state is unchanged). */
    void reset();

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::map<std::string, PhaseStats> phases_;
};

/**
 * RAII phase timer. Construction samples the clock only when the
 * target profiler is enabled; destruction merges the elapsed time.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *phase)
        : ScopedTimer(phase, Profiler::global())
    {
    }

    ScopedTimer(const char *phase, Profiler &profiler)
        : profiler_(profiler), phase_(phase), armed_(profiler.enabled())
    {
        if (armed_)
            start_ = std::chrono::steady_clock::now();
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        if (!armed_)
            return;
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
        profiler_.record(phase_, static_cast<std::uint64_t>(ns));
    }

  private:
    Profiler &profiler_;
    const char *phase_;
    bool armed_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace tlc

#endif // TLC_UTIL_PROFILER_HH
