/**
 * @file
 * Sweep-service engine implementation.
 */

#include "sweep_service.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "power/energy_model.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace tlc::service {

namespace {

/** Service metrics, registered once. */
struct ServiceMetrics
{
    MetricCounter &requests;
    MetricCounter &points;
    MetricCounter &failures;

    static ServiceMetrics &get()
    {
        static ServiceMetrics m{
            MetricsRegistry::global().counter(
                "service.requests_served"),
            MetricsRegistry::global().counter(
                "service.points_served"),
            MetricsRegistry::global().counter(
                "service.request_failures"),
        };
        return m;
    }
};

/** Per-reference energy of every point of one sweep (spec.energy). */
std::vector<double>
priceEnergy(Explorer &ex, const SweepRequestSpec &spec,
            const std::vector<DesignPoint> &points)
{
    EnergyModel em;
    auto arrayEnergy = [&](std::uint64_t size, std::uint32_t assoc,
                           bool dual) {
        const TimingResult &t =
            ex.timingOf(size, assoc, spec.assume.lineBytes);
        SramGeometry g{size, spec.assume.lineBytes, assoc, 32, 64};
        return em.accessEnergy(g, t.dataOrg, t.tagOrg, dual).total();
    };
    std::vector<double> out;
    out.reserve(points.size());
    for (const DesignPoint &p : points) {
        double eL1 = arrayEnergy(p.config.l1Bytes,
                                 spec.assume.l1Assoc,
                                 spec.assume.dualPortedL1);
        double eL2 = p.config.hasL2()
                         ? arrayEnergy(p.config.l2Bytes,
                                       spec.assume.l2Assoc, false)
                         : 0.0;
        out.push_back(em.energyPerReference(p.miss, eL1, eL2));
    }
    return out;
}

/** TPI-vs-energy envelope: cost axis = eu/ref instead of rbe. */
Envelope
energyEnvelopeOf(const std::vector<DesignPoint> &points,
                 const std::vector<double> &energy)
{
    std::vector<EnvelopePoint> eps;
    eps.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        eps.push_back(EnvelopePoint{energy[i], points[i].tpi.tpi,
                                    points[i].config.label()});
    }
    return Envelope::of(std::move(eps));
}

} // namespace

SweepService::SweepService(SweepServiceOptions options)
    : options_(std::move(options)), pool_(std::make_shared<TracePool>())
{
}

Status
SweepService::init()
{
    if (options_.resultStorePath.empty())
        return Status{};
    store_ = std::make_shared<SweepCache>();
    ResultStoreOptions ropts;
    ropts.fsyncOnCommit = options_.storeFsync;
    Status s = store_->open(options_.resultStorePath, ropts);
    if (!s.ok())
        store_.reset();
    return s;
}

ServiceRun
SweepService::run(const SweepRequestSpec &spec,
                  const std::function<void(const SweepProgress &)>
                      &progress)
{
    // One sweep at a time: the engine's parallelism lives INSIDE a
    // request (the worker team), and the accounting below reads
    // process-wide counters whose deltas are only attributable to
    // this request while no other sweep is in flight.
    std::lock_guard<std::mutex> lock(engineMu_);
    auto t0 = std::chrono::steady_clock::now();

    MetricsRegistry &reg = MetricsRegistry::global();
    MetricCounter &storeHits = reg.counter("sweep_cache.hits");
    MetricCounter &storeMisses = reg.counter("sweep_cache.misses");
    MetricCounter &storeAppends = reg.counter("sweep_cache.appends");
    MetricCounter &memoHits =
        reg.counter("explore.missrate_cache.hits");
    const std::uint64_t h0 = storeHits.value();
    const std::uint64_t m0 = storeMisses.value();
    const std::uint64_t a0 = storeAppends.value();
    const std::uint64_t memo0 = memoHits.value();

    EvaluatorOptions eopts;
    eopts.traceRefs = spec.traceRefs;
    eopts.warmupFraction = spec.warmupFraction;
    eopts.traceFiles = spec.traceFiles;
    eopts.resultStore = store_;
    eopts.tracePool = pool_;
    MissRateEvaluator ev(eopts);
    Explorer ex(ev);

    SweepRequest req;
    req.configs = spec.materializeConfigs();
    req.benchmarks = spec.benchmarks;
    FailureReport report;
    req.report = &report;
    req.progress = progress;
    req.threads = spec.threads;

    std::vector<BenchmarkSweep> sweeps = ex.evaluateAll(req);

    ServiceRun out;
    for (BenchmarkSweep &bs : sweeps) {
        ServedBenchmarkSweep sb;
        sb.benchmark = bs.benchmark;
        sb.points = std::move(bs.points);
        sb.envelope = Explorer::envelopeOf(sb.points);
        if (spec.energy) {
            sb.energyPerRef = priceEnergy(ex, spec, sb.points);
            sb.energyEnvelope =
                energyEnvelopeOf(sb.points, sb.energyPerRef);
        }
        out.accounting.pointsPriced += sb.points.size();
        out.outcome.sweeps.push_back(std::move(sb));
    }
    out.outcome.failures = report.failures();

    out.accounting.storeHits = storeHits.value() - h0;
    out.accounting.storeMisses = storeMisses.value() - m0;
    out.accounting.storeAppends = storeAppends.value() - a0;
    out.accounting.memoHits = memoHits.value() - memo0;
    out.accounting.failures = report.size();
    out.accounting.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    ServiceMetrics::get().requests.inc();
    ServiceMetrics::get().points.inc(out.accounting.pointsPriced);
    ServiceMetrics::get().failures.inc(out.accounting.failures);
    return out;
}

int
runRequestCli(const cli::SweepFlags &flags)
{
    std::ifstream in(flags.requestFile, std::ios::binary);
    if (!in) {
        warn("--request: cannot open '%s'",
             flags.requestFile.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();

    Expected<SweepRequestSpec> spec =
        sweepRequestFromJson(text.str());
    if (!spec.ok()) {
        warn("--request '%s': %s", flags.requestFile.c_str(),
             spec.status().toString().c_str());
        return 1;
    }

    SweepServiceOptions sopts;
    sopts.resultStorePath = flags.resultStore;
    sopts.storeFsync = flags.storeFsync;
    SweepService svc(sopts);
    Status s = svc.init();
    if (!s.ok()) {
        warn("result store: %s", s.message().c_str());
        return 1;
    }

    std::function<void(const SweepProgress &)> progress;
    if (flags.progress) {
        progress = stderrProgressPrinter(
            spec.value().tag.empty() ? "request" : spec.value().tag);
    }
    ServiceRun run = svc.run(spec.value(), progress);

    std::string response =
        sweepResponseJson(spec.value(), run.outcome) + "\n";
    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fflush(stdout);

    if (!flags.statsOut.empty()) {
        std::ofstream sout(flags.statsOut,
                           std::ios::binary | std::ios::trunc);
        if (!sout) {
            warn("--stats-out: cannot open '%s'",
                 flags.statsOut.c_str());
            return 1;
        }
        sout << sweepStatsJson(run.accounting) << "\n";
    }
    return 0;
}

} // namespace tlc::service
