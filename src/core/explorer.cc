/**
 * @file
 * Explorer implementation.
 */

#include "explorer.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <sstream>

#include "cache/sim_group.hh"
#include "core/shard_runner.hh"
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
 * Planned cost of one L2 lane over an L1 of @p l1_bytes, in units of
 * one L1-only walk of the trace. Every L2 lane replays its L1's miss
 * stream, so its cost tracks the L1 miss rate: fitted to per-group
 * sweep times of all seven workloads (EXPERIMENTS.md "Sweeps planned
 * by L1 group"), a lane over a 1 KiB L1 costs about 0.8 of a walk
 * and the cost falls about 0.75x per doubling of the L1.
 */
double
l2LaneWeight(std::uint64_t l1_bytes)
{
    return 0.8 * std::sqrt(1024.0 / static_cast<double>(l1_bytes));
}

} // namespace

std::vector<SweepBin>
planSweep(std::span<const SystemConfig> configs, unsigned workers,
          std::size_t max_pass_configs)
{
    // Units in order of first appearance: every config whose L1
    // SimGroup would share, strict-inclusive lanes included so their
    // StrictLaneBlocks stay full.
    struct Unit
    {
        CacheParams l1;
        std::vector<std::size_t> indices;
        double weight = 1.0; ///< the shared L1 walk
    };
    std::vector<Unit> units;
    std::vector<std::size_t> invalid;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const SystemConfig &c = configs[i];
        if (!c.check().ok()) {
            invalid.push_back(i);
            continue;
        }
        const CacheParams l1 = c.l1Params();
        auto u = std::find_if(units.begin(), units.end(),
                              [&](const Unit &unit) {
                                  return SimGroup::sharesL1(unit.l1, l1);
                              });
        if (u == units.end())
            u = units.insert(units.end(), Unit{l1, {}});
        u->indices.push_back(i);
        if (c.hasL2())
            u->weight += l2LaneWeight(c.l1Bytes);
    }

    // Longest processing time first: heaviest unit to the
    // least-loaded bin. stable_sort keeps first-index order on ties,
    // and min_element picks the lowest bin on ties.
    std::stable_sort(units.begin(), units.end(),
                     [](const Unit &a, const Unit &b) {
                         return a.weight > b.weight;
                     });
    const std::size_t team = inParallelWorker() ? 1 : std::max(workers, 1u);
    std::vector<SweepBin> bins(
        std::max<std::size_t>(std::min(team, units.size()), 1));
    auto lightest = [&] {
        return std::min_element(bins.begin(), bins.end(),
                                [](const SweepBin &a, const SweepBin &b) {
                                    return a.weight < b.weight;
                                });
    };
    for (const Unit &u : units) {
        SweepBin &bin = *lightest();
        // A unit opens a new pass when the bin's last one would
        // outgrow the bound; a unit never splits.
        if (bin.passes.empty() ||
            (!bin.passes.back().indices.empty() &&
             bin.passes.back().indices.size() + u.indices.size() >
                 max_pass_configs))
            bin.passes.emplace_back();
        SweepPass &pass = bin.passes.back();
        pass.indices.insert(pass.indices.end(), u.indices.begin(),
                            u.indices.end());
        ++pass.l1Groups;
        pass.weight += u.weight;
        bin.weight += u.weight;
    }
    if (!invalid.empty()) {
        SweepBin &rest = *lightest();
        if (rest.passes.empty())
            rest.passes.emplace_back();
        SweepPass &last = rest.passes.back();
        last.indices.insert(last.indices.end(), invalid.begin(),
                            invalid.end());
    }
    for (SweepBin &bin : bins) {
        for (SweepPass &pass : bin.passes)
            std::sort(pass.indices.begin(), pass.indices.end());
    }
    return bins;
}

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

Explorer::~Explorer() = default;

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
    // A degenerate shape fails check() inside tryMissStats, before
    // any model that would panic on it.
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

void
Explorer::setIsolation(const SupervisorOptions *opts)
{
    isolate_ = opts ? std::make_unique<SupervisorOptions>(*opts) : nullptr;
    supervision_ = opts ? std::make_unique<SupervisedSweep>() : nullptr;
}

std::vector<DesignPoint>
Explorer::evaluateAll(Benchmark b, const std::vector<SystemConfig> &configs,
                      FailureReport *report)
{
    return sweepBody(b, configs, report, isolate_.get(), supervision_.get())
        .points;
}

BenchmarkSweep
Explorer::sweepBody(Benchmark b, const std::vector<SystemConfig> &configs,
                    FailureReport *report, const SupervisorOptions *isolate,
                    SupervisedSweep *supervision, unsigned threads,
                    const ProgressCallback &progress,
                    double progress_interval_seconds)
{
    if (configs.empty())
        return {b, {}};
    // An unloadable trace fails every point the same way, so without
    // a store it is loaded up front, and one that cannot load is
    // reported once and prices nothing. With a store the preflight
    // is skipped (a warm sweep must not load the trace); the
    // collector collapses that failure to one entry instead.
    if (!evaluator_.hasResultStore()) {
        Expected<const TraceBuffer *> t = evaluator_.tryTrace(b);
        if (!t.ok()) {
            if (!report) {
                fatal("benchmark '%s': %s", Workloads::info(b).name,
                      t.status().message().c_str());
            }
            report->add(std::string("benchmark ") + Workloads::info(b).name,
                        t.status());
            return {b, {}};
        }
    }

    // The sweep's own width and progress, not the process's: the
    // request's, else the process setting and the explorer's.
    const unsigned workers = threads ? threads : parallelWorkerCount();
    const bool own = static_cast<bool>(progress);
    SweepCollector collector(
        *this, b, configs, report, own ? progress : progress_,
        own ? progress_interval_seconds : progressIntervalSeconds_);
    const MissResolution &pending = collector.resolve();

    // planSweep packs whole L1 groups into one bin per worker; each
    // pass of a bin is one trace pass. The plan cannot affect results
    // — every lane carries its own tag state and replacement RNG
    // stream, exactly as a standalone Hierarchy would — and the
    // collector orders results by input index, so the sweep is
    // byte-identical to a serial one whatever the worker count or
    // pass runner. Every pass simulates the one trace, so it is
    // loaded before the first (forked workers inherit it); a trace
    // that cannot load fails every lane, and no pass runs.
    const Expected<const TraceBuffer *> trace =
        pending.lanes.empty() ? nullptr : evaluator_.tryTrace(b);
    std::vector<SweepBin> bins;
    if (trace.ok()) {
        bins = planSweep(pending.lanes, workers,
                         isolate ? std::max<std::size_t>(
                                       1, isolate->pointsPerShard)
                                 : kMaxPassConfigs);
    }
    for (std::size_t lane = 0; !trace.ok() && lane < pending.lanes.size();
         ++lane)
        collector.recordLane(lane, trace.status());
    if (isolate) {
        superviseBins(evaluator_, b, configs, pending, bins, *isolate,
                      collector, *supervision);
        return collector.finish();
    }

    // One slice per simulation pass (the collector adds one per
    // design point) when the trace-event recorder is on. Simulated
    // points reach the collector, and the progress callback, a pass
    // at a time.
    TraceEventRecorder *recorder = TraceEventRecorder::active();
    const char *benchName = Workloads::info(b).name;
    parallelFor(bins.size(), workers, [&](std::size_t bi) {
        for (const SweepPass &pass : bins[bi].passes) {
            std::vector<SystemConfig> batch;
            batch.reserve(pass.indices.size());
            for (std::size_t lane : pass.indices)
                batch.push_back(pending.lanes[lane]);
            auto bbegin = recorder
                              ? TraceEventRecorder::Clock::now()
                              : TraceEventRecorder::Clock::time_point{};
            const std::vector<Expected<HierarchyStats>> miss =
                evaluator_.simulateMissStats(b, batch);
            if (recorder) {
                char weight[32];
                std::snprintf(weight, sizeof(weight), "%.3f", pass.weight);
                recorder->complete(
                    std::string(benchName) + " batch " +
                        std::to_string(bi),
                    "sim-batch", bbegin, TraceEventRecorder::Clock::now(),
                    parallelWorkerId(),
                    std::string("{\"benchmark\": \"") + benchName +
                        "\", \"l1_groups\": " +
                        std::to_string(pass.l1Groups) +
                        ", \"weight\": " + weight + ", \"count\": " +
                        std::to_string(pass.indices.size()) + "}");
            }
            for (std::size_t j = 0; j < pass.indices.size(); ++j)
                collector.recordLane(pass.indices[j], miss[j]);
        }
    });
    return collector.finish();
}

std::vector<BenchmarkSweep>
Explorer::evaluateAll(const SweepRequest &request)
{
    std::vector<BenchmarkSweep> out;
    out.reserve(request.benchmarks.size());
    for (Benchmark b : request.benchmarks) {
        out.push_back(sweepBody(b, request.configs, request.report,
                                isolate_.get(), supervision_.get(),
                                request.threads, request.progress,
                                request.progressIntervalSeconds));
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
                               FailureReport *report,
                               const Explorer::ProgressCallback &progress,
                               double progress_interval_seconds)
    : ex_(ex), bench_(b), configs_(configs), report_(report),
      progress_(progress),
      progressIntervalSeconds_(std::max(0.0, progress_interval_seconds)),
      slots_(configs.size()), start_(std::chrono::steady_clock::now())
{
    ExploreMetrics::get().sweeps.inc();
}

const MissResolution &
SweepCollector::resolve()
{
    lanes_ = ex_.evaluator_.resolveMissStats(bench_, configs_);
    for (std::size_t i = 0; i < lanes_.answered.size(); ++i) {
        if (lanes_.answered[i])
            record(i, *lanes_.answered[i]);
    }
    return lanes_;
}

void
SweepCollector::recordLane(std::size_t lane,
                           const Expected<HierarchyStats> &miss)
{
    if (miss.ok() && ex_.evaluator_.rememberMissStats(
                         bench_, lanes_.lanes[lane], miss.value()))
        appends_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i : lanes_.slots[lane])
        record(i, miss);
}

void
SweepCollector::record(std::size_t i, const Expected<HierarchyStats> &miss)
{
    tlc_assert(!slots_[i].has_value(), "sweep index %zu recorded twice",
               i);
    TraceEventRecorder *recorder = TraceEventRecorder::active();
    auto begin = recorder ? TraceEventRecorder::Clock::now()
                          : TraceEventRecorder::Clock::time_point{};
    Expected<DesignPoint> point =
        miss.ok() ? Expected<DesignPoint>(
                        ex_.pricePoint(configs_[i], miss.value()))
                  : Expected<DesignPoint>(miss.status());
    if (recorder) {
        recorder->complete(configs_[i].label(), "design-point", begin,
                           TraceEventRecorder::Clock::now(),
                           parallelWorkerId(),
                           std::string("{\"benchmark\": \"") +
                               Workloads::info(bench_).name +
                               "\", \"index\": " + std::to_string(i) +
                               "}");
    }
    if (!point.ok())
        failed_.fetch_add(1, std::memory_order_relaxed);
    slots_[i].emplace(std::move(point));
    fireProgress(done_.fetch_add(1, std::memory_order_relaxed) + 1,
                 /*final=*/false);
}

void
SweepCollector::fireProgress(std::size_t done_now, bool final)
{
    if (!progress_)
        return;
    const std::int64_t nowUs =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (!final) {
        // One caller wins the CAS per throttle window; the rest skip.
        // The final update never skips, so a consumer always sees
        // done == total.
        const std::int64_t intervalUs =
            static_cast<std::int64_t>(progressIntervalSeconds_ * 1e6);
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
    progress_(sp);
}

BenchmarkSweep
SweepCollector::finish()
{
    const std::size_t n = configs_.size();
    fireProgress(n, /*final=*/true);

    const char *benchName = Workloads::info(bench_).name;
    BenchmarkSweep out{bench_, {}, lanes_.memoHits, lanes_.storeHits,
                       lanes_.storeMisses, appends_.load()};
    out.points.reserve(n);
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
            out.points.push_back(std::move(p.value()));
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
