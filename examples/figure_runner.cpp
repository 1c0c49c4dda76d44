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
 * with the same refs is nearly free.
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

int
runScatter(const FigureSpec &f, std::uint64_t refs, bool csv,
           bool progress, std::shared_ptr<SweepCache> store,
           const SupervisorOptions *sopts, std::size_t *points_priced,
           SupervisionStats *sup_stats,
           std::vector<ShardTimeline> *sup_timeline)
{
    EvaluatorOptions evopts;
    evopts.traceRefs = refs;
    evopts.resultStore = std::move(store);
    MissRateEvaluator ev(evopts);
    Explorer ex(ev);
    // The supervisor is inherently fail-soft, so the isolated path
    // collects skips in a report and summarises them at the end; the
    // in-process path keeps its classic fatal-on-failure behaviour.
    FailureReport report;
    std::printf("%s: %s\n", f.id.c_str(), f.title.c_str());
    std::printf("assumptions: %s\n\n", f.assume.toString().c_str());

    auto sweepSpace = [&](Benchmark b, bool two_level) {
        if (!sopts)
            return ex.sweep(b, f.assume, true, two_level);
        SupervisorOptions so = *sopts;
        if (progress) {
            so.progress = stderrProgressPrinter(
                f.id + " " + Workloads::info(b).name);
        }
        SupervisedSweep sw = supervisedSweepSpace(
            ex, b, f.assume, true, two_level, &report, so);
        sup_stats->accumulate(sw.stats);
        sup_timeline->insert(
            sup_timeline->end(),
            std::make_move_iterator(sw.timeline.begin()),
            std::make_move_iterator(sw.timeline.end()));
        return std::move(sw.points);
    };

    for (Benchmark b : f.workloads) {
        const char *name = Workloads::info(b).name;
        if (progress)
            ex.setProgressCallback(
                stderrProgressPrinter(f.id + " " + name));
        // Figures 3-4 are single-level only; everything else sweeps
        // the full space.
        bool single_only = f.benchTarget == "bench_fig03_04_single_level";
        auto points = sweepSpace(b, !single_only);
        *points_priced += points.size();
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
            Envelope single =
                Explorer::envelopeOf(sweepSpace(b, false));
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
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    applyStandardFlags(args);
    cli::SweepFlags flags = cli::sweepFlagsFromArgs(args, 1000000);
    // Service mode: the whole run is described by the request
    // document; the figure catalog does not apply.
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
    std::shared_ptr<SweepCache> store;
    if (!flags.resultStore.empty() && !isolate) {
        // In isolate mode the worker subprocesses own the store —
        // the parent must not hold a second write handle on it.
        store = std::make_shared<SweepCache>();
        Status s = store->open(flags.resultStore);
        if (!s.ok())
            fatal("result store: %s", s.message().c_str());
    }
    if (isolate) {
        EvaluatorOptions evopts;
        evopts.traceRefs = refs;
        sopts.evaluator = evopts;
        sopts.resultStorePath = flags.resultStore;
    }
    cli::TelemetrySession telemetry(flags);

    auto runStart = std::chrono::steady_clock::now();
    std::size_t pointsPriced = 0;
    SupervisionStats supStats;
    std::vector<ShardTimeline> supTimeline;
    int rc = 0;
    switch (f.kind) {
      case ExhibitKind::TpiScatter:
        rc = runScatter(f, refs, csv, progress, store,
                        isolate ? &sopts : nullptr, &pointsPriced,
                        &supStats, &supTimeline);
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
    if (isolate)
        summary.supervisorJson =
            supervisorTimelinesJson(supStats, supTimeline);
    telemetry.finish(argc, argv, summary);
    return rc; // --profile dumps via applyStandardFlags's exit hook
}
