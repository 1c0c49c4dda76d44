/**
 * @file
 * Generic figure runner: regenerate ANY of the paper's exhibits by
 * id from the catalog, without knowing which bench driver implements
 * it.
 *
 * Usage:
 *   figure_runner --list
 *   figure_runner --figure=fig05 [--refs=2000000] [--csv]
 *                 [--threads=N] [--quiet|--verbose] [--profile]
 *                 [--progress] [--trace-out=FILE] [--manifest=FILE]
 *                 [--metrics-out=FILE]
 *                 [--result-store=FILE] [--resume]
 *                 [--isolate=process] [--shard-points=N]
 *                 [--shard-timeout=SECS] [--max-retries=N]
 *                 [--store-fsync]
 *   figure_runner --request=FILE [--stats-out=FILE]
 *
 * Persistence (docs/parallelism.md): --result-store=FILE keeps every
 * simulated point in FILE and serves repeated points from it, so a
 * killed run --resume's where it stopped and regenerating a figure
 * with the same refs is nearly free; --store-fsync fsyncs FILE after
 * every append.
 *
 * Fault isolation (docs/robustness.md): --isolate=process simulates
 * each shard of the sweep in a forked worker subprocess, so a
 * crashing or hanging design point is retried, bisected and
 * quarantined instead of killing the figure run.
 *
 * Observability (docs/observability.md): --progress prints live
 * sweep progress to stderr (streamed per worker result under
 * --isolate=process), --trace-out writes a chrome://tracing
 * timeline of the worker team (one pid track per worker attempt in
 * isolate mode), --manifest writes a JSON run manifest (metrics dump
 * + per-phase times + supervisor attempt timelines in isolate mode),
 * --metrics-out dumps the metrics registry as JSON, --profile prints
 * the phase table at exit.
 *
 * Service mode (docs/service.md): --request=FILE runs a canonical
 * "tlc-sweep-request-v1" document and prints the canonical response
 * to stdout — the same schema (and the same bytes) the tlcd daemon
 * serves; --stats-out=FILE writes the run's cache-hit accounting.
 * Only the persistence flags, --progress and the standard flags
 * combine with it; any other flag is fatal.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/explorer.hh"
#include "core/figures.hh"
#include "core/shard_runner.hh"
#include "core/sweep_cache.hh"
#include "service/sweep_service.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/plot.hh"
#include "util/table.hh"

using namespace tlc;

namespace {

void
listCatalog()
{
    Table t({"id", "kind", "title", "bench_driver"});
    for (const auto &f : figureCatalog()) {
        const char *kind = "";
        switch (f.kind) {
          case ExhibitKind::Table:
            kind = "table";
            break;
          case ExhibitKind::TimingCurve:
            kind = "timing";
            break;
          case ExhibitKind::TpiScatter:
            kind = "tpi-scatter";
            break;
          case ExhibitKind::Mechanism:
            kind = "mechanism";
            break;
        }
        t.beginRow();
        t.cell(f.id);
        t.cell(kind);
        t.cell(f.title);
        t.cell(f.benchTarget);
    }
    t.printAscii(std::cout);
}

/** Print the scatter figure @p f; returns the points priced. */
std::size_t
runScatter(const FigureSpec &f, Explorer &ex, bool csv, bool progress)
{
    // Fail-soft: a point the supervisor quarantines is summarised at
    // the end instead of ending the figure run.
    FailureReport report;
    std::printf("%s: %s\n", f.id.c_str(), f.title.c_str());
    std::printf("assumptions: %s\n\n", f.assume.toString().c_str());

    std::size_t priced = 0;
    for (Benchmark b : f.workloads) {
        const char *name = Workloads::info(b).name;
        if (progress)
            ex.setProgressCallback(
                stderrProgressPrinter(f.id + " " + name));
        // Figures 3-4 are single-level only; everything else sweeps
        // the full space.
        bool single_only = f.benchTarget == "bench_fig03_04_single_level";
        auto points = ex.sweep(b, f.assume, true, !single_only, &report);
        priced += points.size();
        Table t({"workload", "config", "area_rbe", "tpi_ns"});
        for (const auto &p : points) {
            t.beginRow();
            t.cell(name);
            t.cell(p.config.label());
            t.cell(p.areaRbe, 0);
            t.cell(p.tpi.tpi, 3);
        }
        if (csv)
            t.printCsv(std::cout);
        else
            t.printAscii(std::cout);

        Envelope best = Explorer::envelopeOf(points);
        if (f.compareSingleLevel && !single_only && !csv) {
            Envelope single = Explorer::envelopeOf(
                ex.sweep(b, f.assume, true, false, &report));
            ScatterPlot plot(72, 18, true, true);
            plot.setYLabel(std::string(name) + "  [TPI ns, log]");
            plot.setXLabel("area (rbe, log)");
            plot.addSeries("1-level", '.');
            plot.addSeries("best", 'o');
            for (const auto &p : single.points())
                plot.addPoint("1-level", p.area, p.tpi);
            for (const auto &p : best.points())
                plot.addPoint("best", p.area, p.tpi);
            plot.render(std::cout);
        }
        std::printf("\n");
    }
    if (!report.empty())
        std::fputs(report.summary().c_str(), stderr);
    return priced;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    applyStandardFlags(args);
    cli::SweepFlags flags = cli::sweepFlagsFromArgs(args, 1000000);
    // Service mode: the whole run is described by the request
    // document; sweepFlagsFromArgs rejected the figure flags.
    if (!flags.requestFile.empty())
        return service::runRequestCli(flags);

    if (args.has("list") || !args.has("figure")) {
        listCatalog();
        return args.has("list") ? 0 : 2;
    }
    const FigureSpec &f = figureById(args.getString("figure"));
    std::uint64_t refs = flags.refs;
    bool csv = args.getBool("csv", false);
    bool progress = flags.progress;
    SupervisorOptions sopts;
    const bool isolate = supervisorOptionsFromArgs(args, &sopts);
    EvaluatorOptions evopts;
    evopts.traceRefs = refs;
    if (!flags.resultStore.empty()) {
        evopts.resultStore = std::make_shared<SweepCache>();
        ResultStoreOptions ro;
        ro.fsyncOnCommit = flags.storeFsync;
        Status s = evopts.resultStore->open(flags.resultStore, ro);
        if (!s.ok())
            fatal("result store: %s", s.message().c_str());
    }
    MissRateEvaluator ev(evopts);
    Explorer ex(ev);
    ex.setIsolation(isolate ? &sopts : nullptr);
    cli::TelemetrySession telemetry(flags);

    auto runStart = std::chrono::steady_clock::now();
    std::size_t pointsPriced = 0;
    switch (f.kind) {
      case ExhibitKind::TpiScatter:
        pointsPriced = runScatter(f, ex, csv, progress);
        break;
      case ExhibitKind::Table:
      case ExhibitKind::TimingCurve:
      case ExhibitKind::Mechanism:
        std::printf("%s (%s) has a dedicated driver: run %s\n",
                    f.id.c_str(), f.title.c_str(),
                    f.benchTarget.c_str());
        break;
    }

    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - runStart)
                      .count();
    cli::TelemetrySession::RunSummary summary;
    summary.workload = f.id;
    summary.traceRefs = refs;
    summary.pointsPriced = pointsPriced;
    summary.wallSeconds = wall;
    if (const SupervisedSweep *sup = ex.supervision())
        summary.supervisorJson =
            supervisorTimelinesJson(sup->stats, sup->timeline);
    telemetry.finish(argc, argv, summary);
    return 0; // --profile dumps via applyStandardFlags's exit hook
}
