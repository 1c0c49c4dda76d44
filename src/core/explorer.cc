/**
 * @file
 * Explorer implementation.
 */

#include "explorer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <sstream>

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"
#include "util/table.hh"
#include "util/trace_event.hh"

namespace tlc {

namespace {

/** Sweep-engine metrics, registered once and shared by all sites. */
struct ExploreMetrics
{
    MetricCounter &priced;
    MetricCounter &failed;
    MetricCounter &timingHits;
    MetricCounter &timingMisses;
    MetricCounter &sweeps;

    static ExploreMetrics &get()
    {
        static ExploreMetrics m{
            MetricsRegistry::global().counter("explore.points.priced"),
            MetricsRegistry::global().counter("explore.points.failed"),
            MetricsRegistry::global().counter(
                "explore.timing_cache.hits"),
            MetricsRegistry::global().counter(
                "explore.timing_cache.misses"),
            MetricsRegistry::global().counter("explore.sweeps"),
        };
        return m;
    }
};

/**
 * Configurations per worker batch. Each batch's memo-missing
 * configs simulate as lanes of one trace pass; capping the batch
 * bounds the lane state resident at once and leaves enough batches
 * to keep the worker team fed.
 */
constexpr std::size_t kMaxBatchConfigs = 32;

} // namespace

std::function<void(const SweepProgress &)>
stderrProgressPrinter(std::string label)
{
    return [label = std::move(label)](const SweepProgress &p) {
        char line[256];
        int n = std::snprintf(
            line, sizeof(line),
            "progress: %s %zu/%zu (%.1f%%) %zu failed, %.1fs elapsed, "
            "eta %.1fs\n",
            label.c_str(), p.done, p.total,
            p.total ? 100.0 * static_cast<double>(p.done) /
                          static_cast<double>(p.total)
                    : 100.0,
            p.failed, p.elapsedSeconds, p.etaSeconds);
        if (n > 0) {
            std::fwrite(line, 1,
                        std::min(static_cast<std::size_t>(n),
                                 sizeof(line) - 1),
                        stderr);
        }
    };
}

// ---------------------------------------------------------------------
// FailureReport
// ---------------------------------------------------------------------

void
FailureReport::add(std::string subject, Status status)
{
    tlc_assert(!status.ok(), "recording an OK status for '%s'",
               subject.c_str());
    MetricsRegistry::global().counter("explore.failures.recorded").inc();
    std::lock_guard<std::mutex> lock(mu_);
    failures_.push_back({std::move(subject), std::move(status)});
}

bool
FailureReport::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_.empty();
}

std::size_t
FailureReport::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_.size();
}

std::vector<SweepFailure>
FailureReport::failures() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
}

bool
FailureReport::mentions(const std::string &needle) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &f : failures_) {
        if (f.subject.find(needle) != std::string::npos ||
            f.status.message().find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

std::string
FailureReport::summary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    if (failures_.empty()) {
        os << "sweep completed with no failures\n";
        return os.str();
    }
    os << "sweep skipped " << failures_.size() << " point"
       << (failures_.size() == 1 ? "" : "s") << ":\n";
    Table t({"subject", "error", "detail"});
    for (const auto &f : failures_) {
        t.beginRow();
        t.cell(f.subject);
        t.cell(statusCodeName(f.status.code()));
        t.cell(f.status.message());
    }
    t.printAscii(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

Explorer::Explorer(MissRateEvaluator &evaluator,
                   const AccessTimeModel &timing, const AreaModel &area)
    : evaluator_(evaluator), timing_(timing), area_(area)
{
}

const TimingResult &
Explorer::timingOf(std::uint64_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes)
{
    TimingKey key = timingKey(size_bytes, assoc, line_bytes);
    {
        std::lock_guard<std::mutex> lock(timingMu_);
        auto it = timingCache_.find(key);
        if (it != timingCache_.end()) {
            ExploreMetrics::get().timingHits.inc();
            return it->second;
        }
    }
    ExploreMetrics::get().timingMisses.inc();

    // Run the organization search outside the lock — it is the
    // expensive part, and two workers racing to price the same
    // geometry compute identical results (emplace keeps the first).
    SramGeometry g;
    g.sizeBytes = size_bytes;
    g.blockBytes = line_bytes;
    g.assoc = assoc;
    TimingResult r = [&] {
        ScopedTimer t(phase::kModelTiming);
        return timing_.optimize(g);
    }();

    std::lock_guard<std::mutex> lock(timingMu_);
    // std::map node addresses are stable, so the reference survives
    // later insertions by other workers.
    return timingCache_.emplace(key, std::move(r)).first->second;
}

std::size_t
Explorer::timingCacheSize() const
{
    std::lock_guard<std::mutex> lock(timingMu_);
    return timingCache_.size();
}

double
Explorer::areaOf(const SystemConfig &config)
{
    // Resolve the timing memo first so the area phase timer below
    // measures the area model alone, not a first-touch organization
    // search charged to the wrong phase.
    const std::uint32_t line = config.assume.lineBytes;
    const TimingResult &l1t =
        timingOf(config.l1Bytes, config.assume.l1Assoc, line);
    const TimingResult *l2t =
        config.hasL2()
            ? &timingOf(config.l2Bytes, config.assume.l2Assoc, line)
            : nullptr;

    ScopedTimer timer(phase::kModelArea);
    SramGeometry l1g;
    l1g.sizeBytes = config.l1Bytes;
    l1g.blockBytes = line;
    l1g.assoc = config.assume.l1Assoc;
    CellType l1cell = config.assume.dualPortedL1 ? CellType::DualPorted
                                                 : CellType::SinglePorted6T;
    double total = 2.0 * area_.area(l1g, l1t.dataOrg, l1t.tagOrg, l1cell);

    if (l2t) {
        SramGeometry l2g;
        l2g.sizeBytes = config.l2Bytes;
        l2g.blockBytes = line;
        l2g.assoc = config.assume.l2Assoc;
        total += area_.area(l2g, l2t->dataOrg, l2t->tagOrg,
                            CellType::SinglePorted6T);
    }
    return total;
}

DesignPoint
Explorer::pricePoint(const SystemConfig &config,
                     const HierarchyStats &miss)
{
    DesignPoint p;
    p.config = config;
    p.l1Timing = timingOf(config.l1Bytes, config.assume.l1Assoc,
                          config.assume.lineBytes);
    if (config.hasL2()) {
        p.l2Timing = timingOf(config.l2Bytes, config.assume.l2Assoc,
                              config.assume.lineBytes);
    }
    p.areaRbe = areaOf(config);
    p.miss = miss;

    TpiParams tp;
    tp.l1CycleNs = p.l1Timing.cycleNs;
    tp.l2CycleNsRaw = config.hasL2() ? p.l2Timing.cycleNs : 0.0;
    tp.offchipNs = config.assume.offchipNs;
    tp.issuePerCycle = config.assume.dualPortedL1 ? 2.0 : 1.0;
    tp.hasL2 = config.hasL2();
    {
        ScopedTimer t(phase::kModelTpi);
        p.tpi = computeTpi(p.miss, tp);
    }
    ExploreMetrics::get().priced.inc();
    return p;
}

DesignPoint
Explorer::evaluate(Benchmark b, const SystemConfig &config)
{
    Expected<DesignPoint> p = tryEvaluate(b, config);
    if (!p.ok()) {
        fatal("design point %s: %s", config.label().c_str(),
              p.status().message().c_str());
    }
    return std::move(p.value());
}

Expected<DesignPoint>
Explorer::tryEvaluate(Benchmark b, const SystemConfig &config)
{
    // Validate the geometry before pricing: both the cache model
    // and the timing model panic on degenerate shapes, and a sweep
    // must survive those as skipped points.
    Status cs = config.check();
    if (!cs.ok())
        return cs;

    Expected<HierarchyStats> miss = evaluator_.tryMissStats(b, config);
    if (!miss.ok())
        return miss.status();

    return pricePoint(config, miss.value());
}

void
Explorer::setProgressCallback(ProgressCallback cb,
                              double min_interval_seconds)
{
    progress_ = std::move(cb);
    progressIntervalSeconds_ =
        min_interval_seconds < 0.0 ? 0.0 : min_interval_seconds;
}

std::vector<DesignPoint>
Explorer::evaluateAll(Benchmark b, const std::vector<SystemConfig> &configs,
                      FailureReport *report)
{
    std::vector<DesignPoint> out;
    if (configs.empty())
        return out;

    // An unloadable benchmark trace fails every point the same way;
    // detect it once up front and report the benchmark, not every
    // config. With a persistent result store attached the preflight
    // is skipped — a fully warm sweep must not load or generate the
    // trace at all — and the same trace failure, should it surface
    // from the lanes that do simulate, is collapsed to one report
    // entry by the collector.
    if (!evaluator_.hasResultStore()) {
        Expected<const TraceBuffer *> t = evaluator_.tryTrace(b);
        if (!t.ok()) {
            if (!report) {
                fatal("benchmark '%s': %s", Workloads::info(b).name,
                      t.status().message().c_str());
            }
            report->add(std::string("benchmark ") +
                            Workloads::info(b).name,
                        t.status());
            return out;
        }
    }

    SweepCollector collector(*this, b, configs, report);

    // The trace-event recorder, inert unless switched on, adds one
    // slice per simulation batch plus one per design point on the
    // pricing worker's track; it cannot affect results.
    TraceEventRecorder *recorder = TraceEventRecorder::active();
    const char *benchName = Workloads::info(b).name;

    // Benchmark-major batching: the configuration list is split into
    // contiguous batches, each batch's memo-missing configs simulate
    // as lanes of one trace pass, and batches distribute across the
    // worker team. Batch shape cannot affect results — every lane
    // carries its own tag state and replacement RNG stream, exactly
    // as a standalone Hierarchy would — so the sweep stays
    // byte-identical to the point-major path whatever the worker
    // count. Each index writes only its own slot; the collector
    // gathers results and failures after the join, in input-index
    // order, which keeps the output deterministic.
    const std::size_t n = configs.size();
    std::size_t batchSize = (n + parallelWorkerCount() - 1) /
                            parallelWorkerCount();
    batchSize = std::clamp<std::size_t>(batchSize, 1, kMaxBatchConfigs);
    const std::size_t numBatches = (n + batchSize - 1) / batchSize;

    parallelFor(numBatches, [&](std::size_t bi) {
        const std::size_t lo = bi * batchSize;
        const std::size_t hi = std::min(lo + batchSize, n);
        auto bbegin = recorder ? TraceEventRecorder::Clock::now()
                               : TraceEventRecorder::Clock::time_point{};
        std::vector<Expected<HierarchyStats>> miss =
            evaluator_.tryMissStatsBatch(
                b, std::span<const SystemConfig>(configs).subspan(
                       lo, hi - lo));
        if (recorder) {
            recorder->complete(
                std::string(benchName) + " batch " + std::to_string(bi),
                "sim-batch", bbegin, TraceEventRecorder::Clock::now(),
                parallelWorkerId(),
                std::string("{\"benchmark\": \"") + benchName +
                    "\", \"first\": " + std::to_string(lo) +
                    ", \"count\": " + std::to_string(hi - lo) + "}");
        }
        for (std::size_t i = lo; i < hi; ++i) {
            auto begin = recorder
                             ? TraceEventRecorder::Clock::now()
                             : TraceEventRecorder::Clock::time_point{};
            Expected<DesignPoint> p =
                miss[i - lo].ok()
                    ? Expected<DesignPoint>(
                          pricePoint(configs[i], miss[i - lo].value()))
                    : Expected<DesignPoint>(miss[i - lo].status());
            if (recorder) {
                recorder->complete(
                    configs[i].label(), "design-point", begin,
                    TraceEventRecorder::Clock::now(), parallelWorkerId(),
                    std::string("{\"benchmark\": \"") + benchName +
                        "\", \"index\": " + std::to_string(i) + "}");
            }
            collector.record(i, std::move(p));
        }
    });
    return collector.finish();
}

std::vector<BenchmarkSweep>
Explorer::evaluateAll(const SweepRequest &request)
{
    // Scoped overrides: the request's thread width and progress
    // callback are in effect for this call only, restored even when
    // a body throws.
    struct Scope
    {
        Explorer &ex;
        const bool restoreWorkers;
        const unsigned prevWorkers;
        const bool restoreProgress;
        ProgressCallback prevProgress;
        double prevInterval;

        Scope(Explorer &e, const SweepRequest &req)
            : ex(e), restoreWorkers(req.threads != 0),
              prevWorkers(parallelWorkerOverride()),
              restoreProgress(static_cast<bool>(req.progress)),
              prevProgress(e.progress_),
              prevInterval(e.progressIntervalSeconds_)
        {
            if (restoreWorkers)
                setParallelWorkerCount(req.threads);
            if (restoreProgress) {
                e.setProgressCallback(req.progress,
                                      req.progressIntervalSeconds);
            }
        }

        ~Scope()
        {
            if (restoreWorkers)
                setParallelWorkerCount(prevWorkers);
            if (restoreProgress) {
                ex.progress_ = std::move(prevProgress);
                ex.progressIntervalSeconds_ = prevInterval;
            }
        }
    } scope(*this, request);

    std::vector<BenchmarkSweep> out;
    out.reserve(request.benchmarks.size());
    for (Benchmark b : request.benchmarks) {
        out.push_back(
            {b, evaluateAll(b, request.configs, request.report)});
    }
    return out;
}

std::vector<DesignPoint>
Explorer::sweep(Benchmark b, const SystemAssumptions &assume,
                bool include_single_level, bool include_two_level,
                FailureReport *report)
{
    return evaluateAll(b,
                       DesignSpace::enumerate(assume, include_single_level,
                                              include_two_level),
                       report);
}

Envelope
Explorer::envelopeOf(const std::vector<DesignPoint> &points)
{
    std::vector<EnvelopePoint> eps;
    eps.reserve(points.size());
    for (const auto &p : points)
        eps.push_back(p.toEnvelopePoint());
    return Envelope::of(std::move(eps));
}

// ---------------------------------------------------------------------
// SweepCollector
// ---------------------------------------------------------------------

SweepCollector::SweepCollector(Explorer &ex, Benchmark b,
                               const std::vector<SystemConfig> &configs,
                               FailureReport *report)
    : ex_(ex), bench_(b), configs_(configs), report_(report),
      slots_(configs.size()), start_(std::chrono::steady_clock::now())
{
    ExploreMetrics::get().sweeps.inc();
}

void
SweepCollector::record(std::size_t i, Expected<DesignPoint> point)
{
    tlc_assert(!slots_[i].has_value(), "sweep index %zu recorded twice",
               i);
    if (!point.ok())
        failed_.fetch_add(1, std::memory_order_relaxed);
    slots_[i].emplace(std::move(point));
    fireProgress(done_.fetch_add(1, std::memory_order_relaxed) + 1,
                 /*final=*/false);
}

void
SweepCollector::fireProgress(std::size_t done_now, bool final)
{
    if (!ex_.progress_)
        return;
    const std::int64_t nowUs =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (!final) {
        // One caller wins the CAS per throttle window; the rest skip.
        // The final update never skips, so a consumer always sees
        // done == total.
        const std::int64_t intervalUs = static_cast<std::int64_t>(
            ex_.progressIntervalSeconds_ * 1e6);
        std::int64_t last = lastFireUs_.load(std::memory_order_relaxed);
        if (last >= 0 && nowUs - last < intervalUs)
            return;
        if (!lastFireUs_.compare_exchange_strong(
                last, nowUs, std::memory_order_relaxed)) {
            return;
        }
    }
    SweepProgress sp;
    sp.done = done_now;
    sp.total = configs_.size();
    sp.failed = failed_.load(std::memory_order_relaxed);
    sp.elapsedSeconds = static_cast<double>(nowUs) * 1e-6;
    sp.etaSeconds = done_now ? sp.elapsedSeconds *
                                   static_cast<double>(sp.total - done_now) /
                                   static_cast<double>(done_now)
                             : 0.0;
    ex_.progress_(sp);
}

std::vector<DesignPoint>
SweepCollector::finish()
{
    const std::size_t n = configs_.size();
    fireProgress(n, /*final=*/true);

    const char *benchName = Workloads::info(bench_).name;
    std::vector<DesignPoint> out;
    out.reserve(n);
    // With the preflight skipped (result store attached) or the
    // trace loaded in worker processes, a trace that turns out to be
    // unloadable fails every simulated point with the same non-point
    // status; collapse those to a single "benchmark <name>" entry so
    // the report matches the preflight path's shape.
    std::string benchFailure;
    for (std::size_t i = 0; i < n; ++i) {
        tlc_assert(slots_[i].has_value(),
                   "sweep left index %zu unresolved", i);
        Expected<DesignPoint> &p = *slots_[i];
        if (p.ok()) {
            out.push_back(std::move(p.value()));
            continue;
        }
        if (!report_) {
            fatal("design point %s: %s", configs_[i].label().c_str(),
                  p.status().message().c_str());
        }
        const StatusCode code = p.status().code();
        if (code == StatusCode::InvalidConfig ||
            code == StatusCode::WorkerCrash ||
            code == StatusCode::WorkerTimeout) {
            ExploreMetrics::get().failed.inc();
            report_->add(configs_[i].label(), p.status());
            continue;
        }
        std::string repr = p.status().toString();
        if (repr != benchFailure) {
            benchFailure = std::move(repr);
            report_->add(std::string("benchmark ") + benchName,
                         p.status());
        }
    }
    return out;
}

} // namespace tlc
