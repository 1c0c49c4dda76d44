/**
 * @file
 * Shared declarations of bench_layers, the layered benchmark: run
 * options, timing samples, the output digest, the harness's own
 * spans, the generated trace inputs, and the workload and layer-probe
 * entry points. README.md in this directory lists the workloads and
 * metrics.
 *
 * Every layer is measured from outside, by timing calls into its
 * public functions; nothing inside src/ is instrumented for the
 * benchmark.
 */

#ifndef TLC_BENCH_LAYERS_LAYERS_HH
#define TLC_BENCH_LAYERS_LAYERS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/evaluator.hh"
#include "core/explorer.hh"
#include "core/shard_runner.hh"

namespace tlc::layers {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double elapsedSince(Clock::time_point t0);

/** This process's peak resident set so far, in MiB. */
double peakRssMb();

/** Parameters of one benchmark run (one workload, one process). */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;    ///< trace variant and every Pcg32 draw
    double seconds = 10;       ///< measuring time of the run
    bool traced = false;       ///< per-layer run instead of end-to-end
    bool quick = false;        ///< refs/20, minimum work, quick pins
    unsigned nproc = 1;        ///< CPUs this process may run on
    unsigned threads = 0;      ///< --threads override (0 = workload's)
};

/** Timing samples summarised by nearest-rank percentiles. */
class Samples
{
  public:
    void add(double x) { v_.push_back(x); }
    std::size_t size() const { return v_.size(); }
    /** Nearest-rank @p p-th percentile, 0 < p <= 100; 0 when empty. */
    double percentile(double p) const;
    double median() const { return percentile(50); }
    /** At least ten samples lie above the @p p-th percentile. */
    bool tailValid(double p) const;

  private:
    std::vector<double> v_;
};

/** FNV-1a over the results a run must reproduce exactly. */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n);
    void u64(std::uint64_t v);
    void f64(double v);
    void str(const std::string &s);
    /** Every HierarchyStats field. */
    void stats(const HierarchyStats &s);
    /** A priced point: its statistics and its envelope projection. */
    void point(const DesignPoint &p);
    void envelope(const Envelope &e);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Output-check failures; each one counts toward "failed". */
class Checks
{
  public:
    /** Record one failure and print it to stderr (thread-safe). */
    void fail(const std::string &what);
    std::uint64_t failures() const;

  private:
    mutable std::mutex mu_;
    std::uint64_t failures_ = 0;
};

/** One harness span: a timed call, its cause, and its request. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;
    std::uint64_t rid = 0;
    std::uint32_t tid = 0;
};

/**
 * The in-memory span log of a traced run. Spans are recorded only by
 * SpanScope objects in the harness; it is off by default, when a
 * scope costs one relaxed load.
 */
class SpanLog
{
  public:
    static SpanLog &global();

    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Open a span and return its id (-1 when disabled). */
    std::int64_t open(std::string name, std::int64_t parent,
                      std::uint64_t rid, std::uint32_t tid);
    void close(std::int64_t id);
    std::vector<Span> snapshot() const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** A fresh request id for a span tree. */
std::uint64_t nextRequestId();

/** Id of the innermost open span on this thread (-1 if none). */
std::int64_t currentSpan();

/**
 * RAII span on the global log. A scope opened while another is open
 * on the same thread is its child and inherits its request id and
 * track unless given its own request id.
 */
class SpanScope
{
  public:
    explicit SpanScope(std::string name, std::uint64_t rid = 0);
    /** Root scope of a new thread: explicit parent, request, track. */
    SpanScope(std::string name, std::int64_t parent, std::uint64_t rid,
              std::uint32_t tid);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::int64_t id() const { return id_; }

  private:
    std::int64_t id_;
    std::int64_t prevParent_;
    std::uint64_t prevRid_;
    std::uint32_t prevTid_;
};

/** Per span name: calls, total and self time (children removed). */
std::string selfTimeTable(const std::vector<Span> &spans);

/** Write @p spans as a chrome://tracing document. */
Status writeChromeTrace(const std::string &path,
                        const std::vector<Span> &spans);

/** Value of a global metrics-registry counter. */
std::uint64_t counterValue(const char *name);

/**
 * The generated inputs of a run: each benchmark's trace, synthesized
 * from the seed and written as a TLCT v3 file. The library reads the
 * traces only through these files.
 */
struct TraceSet
{
    std::uint64_t refs = 0;
    std::map<Benchmark, std::string> files;
    /** One sample per build() call, ns per reference. */
    Samples synthNsPerRef;
    Samples writeNsPerRef;
    Samples loadNsPerRef;

    /**
     * Synthesize, write and load every benchmark of @p benches; the
     * loads go through @p pool under the key the evaluator uses, so
     * evaluators sharing the pool never load again. A load that does
     * not read back the synthesized records is a check failure.
     */
    void build(const std::vector<Benchmark> &benches, std::uint64_t refs,
               std::uint64_t seed, TracePool &pool, Checks &checks);

    /** Options routing every benchmark to its file, optionally
     *  through @p pool. */
    EvaluatorOptions evaluatorOptions(
        std::shared_ptr<TracePool> pool) const;
};

/** One unit of end-to-end work, or a group of them, on one benchmark. */
struct OpSpec
{
    Benchmark bench;
    std::vector<SystemConfig> configs;
    /** Keys of the measured ops this covers (see Tally::opMsByKey). */
    std::vector<std::string> keys;
};

/** Library counters read before a stretch of ops. */
struct OpMark
{
    std::uint64_t batchGroups;   ///< explore.batch.groups (trace passes)
    double simBatchSeconds;      ///< sim.batch profiler phase

    static OpMark now();
};

/** What measuring accumulated. */
struct Tally
{
    Samples opMs;                ///< latency of each op
    double busySeconds = 0;      ///< wall time ops were in flight
    std::uint64_t ops = 0;
    std::uint64_t attempted = 0; ///< points or requests, plus checks
    std::map<std::string, Samples> opMsByKey;
    std::uint64_t batchGroups = 0;
    double simBatchSeconds = 0;

    /** One op's latency. */
    void addLatency(const std::string &key, double seconds);
    /** One op of a sequential loop: latency and busy time. */
    void addOp(const std::string &key, double seconds);
    /** Library work done since @p mark. */
    void addWork(const OpMark &mark);
};

/** The fields of a served request's stats document the bench reads. */
struct ReplyStats
{
    double wallSeconds = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
};

/** Parse a "tlc-sweep-stats-v1" document; false when malformed. */
bool parseReplyStats(const std::string &json, ReplyStats &out);

/** Client-side view of served requests. */
struct ServiceSamples
{
    Samples serverMs; ///< stats document wall_seconds
    Samples waitMs;   ///< client latency minus server wall
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;

    /** One request that took @p latency seconds at the client. */
    void add(double latency, const ReplyStats &s);
};

/** Accounting of supervised (process-isolated) sweeps. */
struct SupervisorSamples
{
    SupervisionStats stats;
    std::uint64_t ops = 0;
    double seconds = 0;
};

/**
 * One named workload. setup() builds its inputs and long-lived state;
 * firstResult() is what a one-shot run waits for next; measure() runs
 * closed-loop ops for @p seconds, and on until at least @p min_ops
 * ops and the ops its digest covers are done, checking outputs as it
 * goes.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup() = 0;
    /** Seconds of the first result after setup(): one sweep rep, one
     *  priced point or one served request. */
    virtual double firstResult() = 0;
    virtual void measure(double seconds, std::uint64_t min_ops,
                         Tally &t) = 0;

    /** Digest of the run's pinned outputs ("" if none were made). */
    virtual std::string digest() const = 0;
    /** The ops the layer probes replay: one per benchmark. */
    virtual std::vector<OpSpec> probeOps() const = 0;
    /** Ops simulate through solo Hierarchy, not the batch engine. */
    virtual bool soloPath() const { return false; }
    /** Worker-team width of one op inside the engine. */
    virtual unsigned engineThreads() const { return 1; }
    /** Samples from the run itself, where it serves requests. */
    virtual const ServiceSamples *serviceSamples() const
    {
        return nullptr;
    }
    /** Samples from the run itself, where it supervises workers. */
    virtual const SupervisorSamples *supervisorSamples() const
    {
        return nullptr;
    }

    const TraceSet &traces() const { return traces_; }
    std::uint64_t refs() const { return refs_; }
    unsigned threadsRequested() const { return threadsRequested_; }
    unsigned threadsUsed() const { return threadsUsed_; }
    /** Completed reps (sweeps) or ops (others) so far. */
    std::uint64_t reps() const { return reps_.load(); }

  protected:
    Workload(const RunOptions &opt, Checks &checks, std::uint64_t refs,
             unsigned threads);

    const RunOptions &opt_;
    Checks &checks_;
    std::uint64_t refs_;
    unsigned threadsRequested_;
    unsigned threadsUsed_;
    std::atomic<std::uint64_t> reps_{0};
    TraceSet traces_;
};

/** Names accepted by makeWorkload, in suite order. */
const std::vector<std::string> &workloadNames();

/** The workload named by @p opt, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const RunOptions &opt,
                                       Checks &checks);

/** One per-layer metric. */
struct LayerMetric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Time each layer's public functions on the workload's own inputs
 * (its traces and probeOps()) and return every per-layer metric.
 * @p traced is the measuring pass run with spans and the profiler
 * on, @p untraced the same workload's pass with both off.
 */
std::vector<LayerMetric> probeLayers(const Workload &w,
                                     const Tally &traced,
                                     const Tally &untraced,
                                     Checks &checks);

/** Conservation of the cache.* counters between two snapshots. */
struct CacheCounters
{
    std::uint64_t simulations = 0;
    std::uint64_t refs = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;

    static CacheCounters now();
    /** L1 refs = hits + misses and L2 accesses = L1 misses over the
     *  interval since @p before; a violation is a check failure. */
    void checkSince(const CacheCounters &before, const char *where,
                    Checks &checks) const;
};

/** True when @p a and @p b agree on every HierarchyStats field. */
bool sameStats(const HierarchyStats &a, const HierarchyStats &b);

/** Every field of @p a, including the line size and L2 replacement
 *  that SystemAssumptions::toString leaves out. */
std::string describe(const SystemAssumptions &a);

} // namespace tlc::layers

#endif // TLC_BENCH_LAYERS_LAYERS_HH
