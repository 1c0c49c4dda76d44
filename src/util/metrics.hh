/**
 * @file
 * Hierarchical, thread-safe metrics registry, in the spirit of
 * gem5's Stats package (whose scalar types util/stats.hh already
 * imitates).
 *
 * Every subsystem registers named metrics under a dotted namespace
 * ("cache.l1d.misses", "explore.timing_cache.hits", ...) and bumps
 * them as it works; at the end of a run the registry can be dumped
 * as aligned text or JSON (the run manifest embeds the JSON form),
 * so a sweep over thousands of design points can be audited post-hoc:
 * how many references were simulated, how often the memo caches hit,
 * how many points failed soft.
 *
 * Thread safety: counters and gauges are lock-free atomics, so sweep
 * workers bump them concurrently without coordination; histograms
 * take a private mutex per sample. Registration (create-or-get by
 * name) takes the registry mutex, and the returned references stay
 * valid for the registry's lifetime — register once, hold the
 * reference, and the hot path never touches the registry lock.
 *
 * Overhead discipline: nothing in this header is called from the
 * per-reference simulate loop. Instrumentation sites tick metrics at
 * design-point or file granularity (a handful of relaxed atomic adds
 * per point), which is unmeasurable next to the millions of
 * simulated references each point costs (bench/layers measures the
 * sweep end to end with the instrumentation in place).
 */

#ifndef TLC_UTIL_METRICS_HH
#define TLC_UTIL_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hh"
#include "util/status.hh"

namespace tlc {

/** What lives under a registered metric name. */
enum class MetricKind { Counter, Gauge, Histogram };

/** Monotonic event counter (lock-free). */
class MetricCounter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-value-wins instantaneous measurement (lock-free). */
class MetricGauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Power-of-two-bucket histogram (mutex per sample). */
class MetricHistogram
{
  public:
    explicit MetricHistogram(unsigned num_buckets = 32)
        : hist_(num_buckets)
    {
    }

    void sample(std::uint64_t x)
    {
        std::lock_guard<std::mutex> lock(mu_);
        hist_.sample(x);
    }

    /** A consistent copy of the underlying distribution. */
    Log2Histogram snapshot() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return hist_;
    }

    void reset()
    {
        std::lock_guard<std::mutex> lock(mu_);
        hist_.reset();
    }

  private:
    mutable std::mutex mu_;
    Log2Histogram hist_;
};

/**
 * Create-or-get registry of named metrics. Use the process-wide
 * global() instance for real instrumentation; tests build private
 * instances for isolation.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry all library instrumentation uses. */
    static MetricsRegistry &global();

    /**
     * The counter named @p name, created on first use. Asking for an
     * existing name returns the same object (so independent call
     * sites may share a metric); asking for a name already
     * registered as a different kind is a programming error and
     * panics.
     */
    MetricCounter &counter(const std::string &name);

    /** The gauge named @p name, created on first use. */
    MetricGauge &gauge(const std::string &name);

    /** The histogram named @p name, created on first use. */
    MetricHistogram &histogram(const std::string &name,
                               unsigned num_buckets = 32);

    /** True when a metric of any kind is registered under @p name. */
    bool has(const std::string &name) const;

    /**
     * The kind registered under @p name, or nullopt when absent.
     * Lets cross-process mergers (core/shard_runner.cc) skip a name
     * whose kind differs instead of tripping the create-or-get
     * mismatch panic on wire data.
     */
    std::optional<MetricKind> kindOf(const std::string &name) const;

    /**
     * Snapshot of every counter as (name, value), sorted by name —
     * the worker side of the telemetry frames serializes this.
     */
    std::vector<std::pair<std::string, std::uint64_t>>
    counterValues() const;

    /** Snapshot of every gauge as (name, value), sorted by name. */
    std::vector<std::pair<std::string, double>> gaugeValues() const;

    /** Number of registered metrics. */
    std::size_t size() const;

    /** Sorted names of every registered metric. */
    std::vector<std::string> names() const;

    /**
     * One-line-per-metric text dump, sorted by name:
     *   cache.l1d.misses                 123456
     */
    std::string toText() const;

    /**
     * Flat JSON object keyed by metric name, sorted. Counters and
     * gauges map to numbers; histograms to
     * {"count": N, "buckets": [...]} with trailing zero buckets
     * trimmed.
     */
    std::string toJson(int indent = 2) const;

    /** Zero every metric (registrations survive). */
    void resetAll();

  private:
    using Kind = MetricKind;

    struct Entry
    {
        Kind kind;
        std::unique_ptr<MetricCounter> counter;
        std::unique_ptr<MetricGauge> gauge;
        std::unique_ptr<MetricHistogram> histogram;
    };

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
};

/**
 * Write the global registry's JSON dump to @p path (the sweep
 * drivers' --metrics-out=FILE). IoError Status on failure.
 */
Status writeMetricsFile(const std::string &path);

} // namespace tlc

#endif // TLC_UTIL_METRICS_HH
