/**
 * @file
 * Design explorer: the paper's core use case as a tool. Given an
 * on-chip area budget (rbe) and a workload, report the best cache
 * configuration under each set of system assumptions — single vs
 * two-level, inclusive vs exclusive, 50 vs 200 ns off-chip.
 *
 * Usage:
 *   design_explorer [--budget=1000000] [--bench=gcc1]
 *                   [--offchip=50] [--refs=2000000] [--threads=N]
 *                   [--quiet|--verbose] [--profile] [--progress]
 *                   [--trace-out=FILE] [--manifest=FILE]
 *                   [--metrics-out=FILE]
 *                   [--result-store=FILE] [--resume]
 *                   [--isolate=process] [--shard-points=N]
 *                   [--shard-timeout=SECS] [--max-retries=N]
 *                   [--store-fsync]
 *   design_explorer --request=FILE [--stats-out=FILE]
 *
 * Persistence (docs/parallelism.md):
 *   --result-store=FILE  persistent sweep cache: points already in
 *                        FILE are served from disk, fresh ones are
 *                        appended, so a killed run continues where
 *                        it stopped
 *   --resume             require FILE to exist (guards against a
 *                        typo silently starting a cold run)
 *
 * Fault isolation (docs/robustness.md):
 *   --isolate=process  simulate each shard of the sweep in a forked
 *                      worker subprocess: a crashing or hanging
 *                      design point is retried, bisected and
 *                      quarantined instead of killing the run. The
 *                      remaining flags (--shard-points,
 *                      --shard-timeout, --max-retries, --store-fsync,
 *                      --inject-*) tune and drill the supervisor;
 *                      see supervisorOptionsFromArgs().
 *
 * Observability (docs/observability.md):
 *   --progress        live per-sweep progress lines on stderr (in
 *                     isolate mode, streamed as worker results
 *                     arrive, not just per resolved shard)
 *   --trace-out=FILE  chrome://tracing / Perfetto timeline of the
 *                     worker team (one track per worker; in isolate
 *                     mode, one pid track per worker attempt)
 *   --manifest=FILE   JSON run manifest: command, thread count,
 *                     metrics dump, per-phase wall-clock, and in
 *                     isolate mode the per-shard attempt timelines
 *   --metrics-out=FILE  JSON dump of the metrics registry (includes
 *                     the worker.<id>.* namespaces in isolate mode)
 *   --profile         per-phase wall-clock table on stderr at exit
 *
 * Service mode (docs/service.md):
 *   --request=FILE    run a canonical "tlc-sweep-request-v1"
 *                     document and print the canonical response to
 *                     stdout — the same schema (and the same bytes)
 *                     the tlcd daemon serves; --stats-out=FILE
 *                     writes the run's cache-hit accounting
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/explorer.hh"
#include "core/shard_runner.hh"
#include "core/sweep_cache.hh"
#include "service/sweep_service.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/table.hh"

using namespace tlc;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    applyStandardFlags(args);
    cli::SweepFlags flags = cli::sweepFlagsFromArgs(args, 2000000);
    // Service mode: the whole run is described by the request
    // document; none of the classic flags below apply.
    if (!flags.requestFile.empty())
        return service::runRequestCli(flags);

    double budget = args.getDouble("budget", 1000000.0);
    Benchmark bench = Workloads::byName(args.getString("bench", "gcc1"));
    double offchip = args.getDouble("offchip", 50.0);
    std::uint64_t refs = flags.refs;
    bool progress = flags.progress;
    cli::TelemetrySession telemetry(flags);

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

    EvaluatorOptions evopts;
    evopts.traceRefs = refs;
    evopts.resultStore = store;
    MissRateEvaluator ev(evopts);
    Explorer ex(ev);
    if (progress)
        ex.setProgressCallback(stderrProgressPrinter(
            Workloads::info(bench).name));
    if (isolate) {
        sopts.evaluator = evopts;
        sopts.evaluator.resultStore.reset();
        sopts.resultStorePath = flags.resultStore;
        if (progress) {
            sopts.progress =
                stderrProgressPrinter(Workloads::info(bench).name);
        }
    }

    std::printf("workload: %s    area budget: %.0f rbe    off-chip: "
                "%.0f ns\n\n",
                Workloads::info(bench).name, budget, offchip);

    struct Scenario
    {
        const char *name;
        bool two_level;
        std::uint32_t assoc;
        TwoLevelPolicy policy;
    };
    const Scenario scenarios[] = {
        {"single-level only", false, 4, TwoLevelPolicy::Inclusive},
        {"2-level, DM L2, inclusive", true, 1, TwoLevelPolicy::Inclusive},
        {"2-level, 4-way L2, inclusive", true, 4,
         TwoLevelPolicy::Inclusive},
        {"2-level, DM L2, exclusive", true, 1, TwoLevelPolicy::Exclusive},
        {"2-level, 4-way L2, exclusive", true, 4,
         TwoLevelPolicy::Exclusive},
    };

    auto runStart = std::chrono::steady_clock::now();
    std::size_t pointsPriced = 0;
    SupervisionStats supStats;
    std::vector<ShardTimeline> supTimeline;
    FailureReport report;
    Table t({"scenario", "best_config", "area_rbe", "l1_cycle_ns",
             "tpi_ns"});
    double best_tpi = 0;
    std::string best_label, best_scenario;
    for (const auto &sc : scenarios) {
        SystemAssumptions a;
        a.offchipNs = offchip;
        a.l2Assoc = sc.assoc;
        a.policy = sc.policy;
        std::vector<DesignPoint> points;
        if (isolate) {
            SupervisedSweep sw = supervisedSweepSpace(
                ex, bench, a, true, sc.two_level, &report, sopts);
            supStats.accumulate(sw.stats);
            supTimeline.insert(
                supTimeline.end(),
                std::make_move_iterator(sw.timeline.begin()),
                std::make_move_iterator(sw.timeline.end()));
            points = std::move(sw.points);
        } else {
            points = ex.sweep(bench, a, true, sc.two_level, &report);
        }
        pointsPriced += points.size();
        Envelope env = Explorer::envelopeOf(points);
        const EnvelopePoint *p = env.bestPointWithin(budget);
        t.beginRow();
        t.cell(sc.name);
        if (!p) {
            t.cell("(nothing fits)");
            t.cell("-");
            t.cell("-");
            t.cell("-");
            continue;
        }
        // Recover the full design point for the cycle time.
        const DesignPoint *dp = nullptr;
        for (const auto &q : points) {
            if (q.config.label() == p->label)
                dp = &q;
        }
        t.cell(p->label);
        t.cell(p->area, 0);
        t.cell(dp ? dp->l1Timing.cycleNs : 0.0, 3);
        t.cell(p->tpi, 3);
        if (best_label.empty() || p->tpi < best_tpi) {
            best_tpi = p->tpi;
            best_label = p->label;
            best_scenario = sc.name;
        }
    }
    t.printAscii(std::cout);
    std::printf("\nrecommendation: %s as '%s' (%.3f ns/instruction)\n",
                best_label.c_str(), best_scenario.c_str(), best_tpi);
    if (!report.empty())
        std::fputs(report.summary().c_str(), stderr);

    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - runStart)
                      .count();

    cli::TelemetrySession::RunSummary summary;
    summary.workload = Workloads::info(bench).name;
    summary.traceRefs = refs;
    summary.pointsPriced = pointsPriced;
    summary.failures = report.size();
    summary.wallSeconds = wall;
    if (isolate)
        summary.supervisorJson =
            supervisorTimelinesJson(supStats, supTimeline);
    telemetry.finish(argc, argv, summary);
    return 0; // --profile dumps via applyStandardFlags's exit hook
}
