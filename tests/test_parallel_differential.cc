/**
 * @file
 * Differential tests for the parallel sweep engine: the same sweep
 * run serially and with 2/3/4/8 workers must produce byte-identical
 * DesignPoint vectors (miss counts, timing, area, TPI), envelopes,
 * and FailureReport contents in the same (input-index) order — the
 * determinism guarantee every figure of the paper now rests on.
 * Includes fail-soft sweeps with invalid configurations and corrupt
 * or missing trace files, and the timing-memo key regression. The
 * sweep planner (planSweep) is tested as a function here too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/sim_group.hh"
#include "core/explorer.hh"
#include "util/parallel.hh"
#include "util/units.hh"

using namespace tlc;

namespace {

/// Cheap but long enough that warmup, L2 activity and random
/// replacement all engage.
constexpr std::uint64_t kRefs = 30000;

/** Restores the worker-count override when a test exits. */
class WorkerCountGuard
{
  public:
    explicit WorkerCountGuard(unsigned n) { setParallelWorkerCount(n); }
    ~WorkerCountGuard() { setParallelWorkerCount(0); }
};

struct SweepResult
{
    std::vector<DesignPoint> points;
    std::vector<SweepFailure> failures;
};

/**
 * One complete sweep over @p configs with @p workers threads, on a
 * fresh evaluator/explorer pair so memoization cannot leak results
 * between the runs being compared. @p trace_file optionally routes
 * the benchmark to an on-disk trace.
 */
SweepResult
runSweep(unsigned workers, Benchmark b,
         const std::vector<SystemConfig> &configs,
         const std::string &trace_file = "")
{
    WorkerCountGuard guard(workers);
    EvaluatorOptions opts;
    opts.traceRefs = kRefs;
    if (!trace_file.empty())
        opts.traceFiles[b] = trace_file;
    MissRateEvaluator ev(std::move(opts));
    Explorer ex(ev);
    FailureReport report;
    SweepResult r;
    r.points = ex.evaluateAll(b, configs, &report);
    r.failures = report.failures();
    return r;
}

/** Bitwise equality of every priced field of two design points. */
void
expectIdenticalPoint(const DesignPoint &a, const DesignPoint &b,
                     std::size_t i)
{
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a.config.label(), b.config.label());
    EXPECT_EQ(a.config.l1Bytes, b.config.l1Bytes);
    EXPECT_EQ(a.config.l2Bytes, b.config.l2Bytes);
    EXPECT_EQ(a.areaRbe, b.areaRbe);
    EXPECT_EQ(a.l1Timing.accessNs, b.l1Timing.accessNs);
    EXPECT_EQ(a.l1Timing.cycleNs, b.l1Timing.cycleNs);
    EXPECT_EQ(a.l2Timing.accessNs, b.l2Timing.accessNs);
    EXPECT_EQ(a.l2Timing.cycleNs, b.l2Timing.cycleNs);
    EXPECT_EQ(a.miss.instrRefs, b.miss.instrRefs);
    EXPECT_EQ(a.miss.dataRefs, b.miss.dataRefs);
    EXPECT_EQ(a.miss.l1iMisses, b.miss.l1iMisses);
    EXPECT_EQ(a.miss.l1dMisses, b.miss.l1dMisses);
    EXPECT_EQ(a.miss.l2Hits, b.miss.l2Hits);
    EXPECT_EQ(a.miss.l2Misses, b.miss.l2Misses);
    EXPECT_EQ(a.miss.swaps, b.miss.swaps);
    EXPECT_EQ(a.miss.offchipWritebacks, b.miss.offchipWritebacks);
    EXPECT_EQ(a.tpi.tpi, b.tpi.tpi);
    EXPECT_EQ(a.tpi.l2CycleNs, b.tpi.l2CycleNs);
    EXPECT_EQ(a.tpi.l2CycleCpu, b.tpi.l2CycleCpu);
    EXPECT_EQ(a.tpi.baseTimeNs, b.tpi.baseTimeNs);
    EXPECT_EQ(a.tpi.l2HitTimeNs, b.tpi.l2HitTimeNs);
    EXPECT_EQ(a.tpi.l2MissTimeNs, b.tpi.l2MissTimeNs);
}

void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i)
        expectIdenticalPoint(a.points[i], b.points[i], i);

    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
        SCOPED_TRACE("failure " + std::to_string(i));
        EXPECT_EQ(a.failures[i].subject, b.failures[i].subject);
        EXPECT_EQ(a.failures[i].status.code(),
                  b.failures[i].status.code());
        EXPECT_EQ(a.failures[i].status.message(),
                  b.failures[i].status.message());
    }

    // The envelope is derived data, but it is what the figures
    // print, so pin it down too.
    Envelope ea = Explorer::envelopeOf(a.points);
    Envelope eb = Explorer::envelopeOf(b.points);
    ASSERT_EQ(ea.points().size(), eb.points().size());
    for (std::size_t i = 0; i < ea.points().size(); ++i) {
        EXPECT_EQ(ea.points()[i].area, eb.points()[i].area);
        EXPECT_EQ(ea.points()[i].tpi, eb.points()[i].tpi);
        EXPECT_EQ(ea.points()[i].label, eb.points()[i].label);
    }
}

std::string
writeTempFile(const std::string &name, const std::string &bytes)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    return path;
}

/**
 * Direct-mapped, 2-way and 4-way L1s of 4 KiB plus a 1 KiB group,
 * each L1-only and under inclusive, strict and exclusive L2s (Random
 * and LRU), at 16 and 64 B lines; one config listed twice (a
 * duplicate memo key, which the plan keeps in one bin, so it
 * simulates once) and one invalid config.
 */
std::vector<SystemConfig>
mixedShapeConfigs()
{
    std::vector<SystemConfig> out;
    for (std::uint32_t line : {16u, 64u}) {
        for (std::uint64_t l1 : {4_KiB, 1_KiB}) {
            for (std::uint32_t ways : {1u, 2u, 4u}) {
                SystemConfig c;
                c.l1Bytes = l1;
                c.assume.lineBytes = line;
                c.assume.l1Assoc = ways;
                out.push_back(c);
                for (TwoLevelPolicy policy :
                     {TwoLevelPolicy::Inclusive,
                      TwoLevelPolicy::StrictInclusive,
                      TwoLevelPolicy::Exclusive}) {
                    for (ReplPolicy repl :
                         {ReplPolicy::Random, ReplPolicy::LRU}) {
                        c.l2Bytes = 8 * l1;
                        c.assume.policy = policy;
                        c.assume.l2Repl = repl;
                        out.push_back(c);
                    }
                }
                if (l1 == 1_KiB)
                    break; // one direct-mapped 1 KiB group per line
            }
        }
    }
    out.push_back(out[5]);
    SystemConfig bad;
    bad.l1Bytes = 3000;
    out.insert(out.begin() + 7, bad);
    return out;
}

/**
 * The reference space under inclusive and exclusive L2s at 16 B
 * lines plus the inclusive space at 32 B lines: 135 configs in 18 L1
 * groups, more than one pass holds.
 */
std::vector<SystemConfig>
longConfigList()
{
    std::vector<SystemConfig> out;
    SystemAssumptions a;
    for (auto [policy, line] :
         {std::pair{TwoLevelPolicy::Inclusive, 16u},
          std::pair{TwoLevelPolicy::Exclusive, 16u},
          std::pair{TwoLevelPolicy::Inclusive, 32u}}) {
        a.policy = policy;
        a.lineBytes = line;
        for (const SystemConfig &c : DesignSpace::enumerate(a))
            out.push_back(c);
    }
    return out;
}

/** Every input index a bin holds, ascending. */
std::vector<std::size_t>
indicesOf(const SweepBin &bin)
{
    std::vector<std::size_t> out;
    for (const SweepPass &pass : bin.passes)
        out.insert(out.end(), pass.indices.begin(), pass.indices.end());
    std::sort(out.begin(), out.end());
    return out;
}

/** (bin, pass) holding input index @p i, or (bins.size(), 0). */
std::pair<std::size_t, std::size_t>
placeOf(const std::vector<SweepBin> &bins, std::size_t i)
{
    for (std::size_t b = 0; b < bins.size(); ++b) {
        for (std::size_t p = 0; p < bins[b].passes.size(); ++p) {
            const std::vector<std::size_t> &ix = bins[b].passes[p].indices;
            if (std::binary_search(ix.begin(), ix.end(), i))
                return {b, p};
        }
    }
    return {bins.size(), 0};
}

/** Distinct SimGroup::sharesL1 shapes among the valid configs. */
std::size_t
l1GroupCount(const std::vector<SystemConfig> &configs)
{
    std::vector<CacheParams> shapes;
    for (const SystemConfig &c : configs) {
        if (!c.check().ok())
            continue;
        CacheParams l1 = c.l1Params();
        if (std::none_of(shapes.begin(), shapes.end(),
                         [&](const CacheParams &s) {
                             return SimGroup::sharesL1(s, l1);
                         }))
            shapes.push_back(l1);
    }
    return shapes.size();
}

/** The invariants every plan keeps, for any worker count. */
void
expectValidPlan(const std::vector<SystemConfig> &configs,
                unsigned workers)
{
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<SweepBin> bins = planSweep(configs, workers);
    const std::size_t groups = l1GroupCount(configs);
    EXPECT_GE(bins.size(), 1u);
    EXPECT_LE(bins.size(), std::max<std::size_t>(
                               std::min<std::size_t>(workers, groups), 1));

    // Every index in exactly one pass; a pass holds at most
    // kMaxPassConfigs valid configs unless it is one oversized group.
    std::vector<int> seen(configs.size(), 0);
    std::size_t binGroups = 0;
    for (const SweepBin &bin : bins) {
        EXPECT_FALSE(bin.passes.empty());
        for (const SweepPass &pass : bin.passes) {
            EXPECT_TRUE(std::is_sorted(pass.indices.begin(),
                                       pass.indices.end()));
            binGroups += pass.l1Groups;
            std::size_t valid = 0;
            for (std::size_t i : pass.indices) {
                ASSERT_LT(i, configs.size());
                ++seen[i];
                valid += configs[i].check().ok();
            }
            EXPECT_TRUE(valid <= kMaxPassConfigs || pass.l1Groups == 1)
                << valid << " configs in " << pass.l1Groups << " groups";
        }
    }
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "index " << i;
    EXPECT_EQ(binGroups, groups);

    // No L1 shape split across bins or passes.
    for (std::size_t i = 0; i < configs.size(); ++i) {
        for (std::size_t j = i + 1; j < configs.size(); ++j) {
            if (configs[i].check().ok() && configs[j].check().ok() &&
                SimGroup::sharesL1(configs[i].l1Params(),
                                   configs[j].l1Params())) {
                EXPECT_EQ(placeOf(bins, i), placeOf(bins, j))
                    << i << " and " << j;
            }
        }
    }

    // Deterministic.
    std::vector<SweepBin> again = planSweep(configs, workers);
    ASSERT_EQ(again.size(), bins.size());
    for (std::size_t b = 0; b < bins.size(); ++b) {
        EXPECT_EQ(again[b].weight, bins[b].weight);
        ASSERT_EQ(again[b].passes.size(), bins[b].passes.size());
        for (std::size_t p = 0; p < bins[b].passes.size(); ++p) {
            EXPECT_EQ(again[b].passes[p].indices, bins[b].passes[p].indices);
            EXPECT_EQ(again[b].passes[p].l1Groups,
                      bins[b].passes[p].l1Groups);
            EXPECT_EQ(again[b].passes[p].weight, bins[b].passes[p].weight);
        }
    }
}

} // namespace

TEST(SweepPlan, EveryPlanCoversEachIndexOnceAndKeepsGroupsWhole)
{
    SystemAssumptions a;
    const std::vector<SystemConfig> grid = DesignSpace::enumerate(a);
    const std::vector<SystemConfig> mixed = mixedShapeConfigs();
    const std::vector<SystemConfig> longList = longConfigList();
    for (unsigned workers : {1u, 2u, 3u, 4u, 8u, 64u}) {
        expectValidPlan(grid, workers);
        expectValidPlan(mixed, workers);
        expectValidPlan(longList, workers);
    }
    EXPECT_EQ(l1GroupCount(grid), 9u);
    EXPECT_EQ(planSweep(grid, 64).size(), 9u);
}

TEST(SweepPlan, OneWorkerOrNestedCallPlansOneBin)
{
    SystemAssumptions a;
    const std::vector<SystemConfig> grid = DesignSpace::enumerate(a);
    std::vector<SweepBin> one = planSweep(grid, 1);
    ASSERT_EQ(one.size(), 1u);
    ASSERT_EQ(one[0].passes.size(), 1u);
    EXPECT_EQ(one[0].passes[0].indices.size(), grid.size());
    EXPECT_EQ(one[0].passes[0].l1Groups, 9u);

    WorkerCountGuard guard(4);
    std::vector<std::size_t> nested(4, 0);
    parallelFor(nested.size(), [&](std::size_t i) {
        nested[i] = planSweep(grid, 4).size();
    });
    for (std::size_t n : nested)
        EXPECT_EQ(n, 1u);
}

TEST(SweepPlan, ReferenceGridIsolatesTheOneKiBGroupAtFourWorkers)
{
    // The 1 KiB group (one L1-only point and eight L2 lanes) is the
    // heaviest unit by far; at four workers it gets a bin to itself.
    SystemAssumptions a;
    const std::vector<SystemConfig> grid = DesignSpace::enumerate(a);
    std::vector<SweepBin> bins = planSweep(grid, 4);
    ASSERT_EQ(bins.size(), 4u);
    std::vector<std::size_t> oneKiB;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].l1Bytes == 1_KiB)
            oneKiB.push_back(i);
    }
    EXPECT_EQ(oneKiB.size(), 9u);
    const std::size_t b = placeOf(bins, oneKiB.front()).first;
    ASSERT_LT(b, bins.size());
    ASSERT_EQ(bins[b].passes.size(), 1u);
    EXPECT_EQ(bins[b].passes[0].indices, oneKiB);
    EXPECT_EQ(bins[b].passes[0].l1Groups, 1u);
    for (const SweepBin &bin : bins)
        EXPECT_EQ(bin.passes.size(), 1u);
}

TEST(SweepPlan, LongListsTakeBoundedPassesOfWholeGroups)
{
    // 135 configs in one bin cannot share one pass: the bin closes a
    // pass at a group boundary before it passes kMaxPassConfigs.
    const std::vector<SystemConfig> longList = longConfigList();
    ASSERT_EQ(longList.size(), 135u);
    std::vector<SweepBin> one = planSweep(longList, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_GE(one[0].passes.size(), 3u);
    EXPECT_EQ(indicesOf(one[0]).size(), longList.size());
    for (const SweepPass &pass : one[0].passes)
        EXPECT_LE(pass.indices.size(), kMaxPassConfigs);

    // One group larger than the bound is one pass of its own.
    SystemConfig c;
    c.l1Bytes = 4_KiB;
    c.l2Bytes = 64_KiB;
    std::vector<SystemConfig> copies(kMaxPassConfigs + 6, c);
    std::vector<SweepBin> big = planSweep(copies, 4);
    ASSERT_EQ(big.size(), 1u);
    ASSERT_EQ(big[0].passes.size(), 1u);
    EXPECT_EQ(big[0].passes[0].indices.size(), copies.size());
    EXPECT_EQ(big[0].passes[0].l1Groups, 1u);
}

TEST(ParallelDifferential, FullDesignSpaceMatchesSerial)
{
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);
    ASSERT_GT(configs.size(), 40u);

    SweepResult serial = runSweep(1, Benchmark::Espresso, configs);
    EXPECT_EQ(serial.points.size(), configs.size());
    EXPECT_TRUE(serial.failures.empty());

    for (unsigned workers : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectIdentical(serial,
                        runSweep(workers, Benchmark::Espresso, configs));
    }
}

TEST(ParallelDifferential, MixedShapesMatchSerial)
{
    // Several L1 shapes of one size, every L2 policy and two line
    // sizes, so the plan packs groups of unequal weight into bins
    // that differ in number from the groups. A SystemConfig's
    // associative L1 is always LRU; L2 replacement varies instead.
    std::vector<SystemConfig> configs = mixedShapeConfigs();
    SweepResult serial = runSweep(1, Benchmark::Gcc1, configs);
    EXPECT_EQ(serial.points.size(), configs.size() - 1);
    ASSERT_EQ(serial.failures.size(), 1u);
    EXPECT_EQ(serial.failures[0].status.code(), StatusCode::InvalidConfig);

    for (unsigned workers : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectIdentical(serial,
                        runSweep(workers, Benchmark::Gcc1, configs));
    }
}

TEST(ParallelDifferential, MultiPassSweepsMatchSerial)
{
    // A list too long for one pass: one worker makes several passes,
    // more workers cut it into different passes.
    std::vector<SystemConfig> configs = longConfigList();
    SweepResult serial = runSweep(1, Benchmark::Gcc1, configs);
    EXPECT_EQ(serial.points.size(), configs.size());
    EXPECT_TRUE(serial.failures.empty());

    for (unsigned workers : {2u, 4u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectIdentical(serial,
                        runSweep(workers, Benchmark::Gcc1, configs));
    }
}

TEST(ParallelDifferential, FailSoftSweepMatchesSerial)
{
    SystemAssumptions a;
    std::vector<SystemConfig> configs;
    for (std::uint64_t l1 : {8_KiB, 16_KiB, 32_KiB}) {
        SystemConfig c;
        c.l1Bytes = l1;
        c.l2Bytes = 8 * l1;
        c.assume = a;
        configs.push_back(c);
    }
    // Two invalid points at fixed positions: a non-power-of-two L1
    // and a line size larger than the L2.
    SystemConfig bad1;
    bad1.l1Bytes = 3000;
    bad1.assume = a;
    configs.insert(configs.begin() + 1, bad1);
    SystemConfig bad2;
    bad2.l1Bytes = 8_KiB;
    bad2.l2Bytes = 8;
    bad2.assume = a;
    configs.push_back(bad2);

    SweepResult serial = runSweep(1, Benchmark::Gcc1, configs);
    ASSERT_EQ(serial.points.size(), 3u);
    ASSERT_EQ(serial.failures.size(), 2u);
    // Failures ordered by input index, not completion order.
    EXPECT_EQ(serial.failures[0].subject, bad1.label());
    EXPECT_EQ(serial.failures[1].subject, bad2.label());
    EXPECT_EQ(serial.failures[0].status.code(),
              StatusCode::InvalidConfig);

    for (unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectIdentical(serial, runSweep(workers, Benchmark::Gcc1,
                                         configs));
    }
}

TEST(ParallelDifferential, CorruptTraceFileMatchesSerial)
{
    std::string path = writeTempFile("tlc_corrupt.trc",
                                     "not a trace !!!\xff\xfe\x01");
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);

    SweepResult serial =
        runSweep(1, Benchmark::Gcc1, configs, path);
    EXPECT_TRUE(serial.points.empty());
    ASSERT_EQ(serial.failures.size(), 1u);
    EXPECT_EQ(serial.failures[0].subject, "benchmark gcc1");
    EXPECT_EQ(serial.failures[0].status.code(), StatusCode::ParseError);

    for (unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectIdentical(serial, runSweep(workers, Benchmark::Gcc1,
                                         configs, path));
    }
    std::remove(path.c_str());
}

TEST(ParallelDifferential, MissingTraceFileMatchesSerial)
{
    std::string path = ::testing::TempDir() + "tlc_missing_trace.trc";
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);

    SweepResult serial =
        runSweep(1, Benchmark::Fpppp, configs, path);
    EXPECT_TRUE(serial.points.empty());
    ASSERT_EQ(serial.failures.size(), 1u);
    EXPECT_EQ(serial.failures[0].status.code(), StatusCode::IoError);

    expectIdentical(serial,
                    runSweep(8, Benchmark::Fpppp, configs, path));
}

TEST(ParallelDifferential, FailureReportToleratesConcurrentAdds)
{
    // Explorer itself records failures post-join, but a report
    // shared by an application-level parallel loop must not race.
    WorkerCountGuard guard(8);
    FailureReport report;
    parallelFor(64, [&](std::size_t i) {
        report.add("subject " + std::to_string(i),
                   statusf(StatusCode::InternalError, "failure %zu", i));
    });
    EXPECT_EQ(report.size(), 64u);
    EXPECT_TRUE(report.mentions("subject 63"));
}

TEST(ParallelDifferential, SharedExplorerSweepIsReusable)
{
    // One explorer pricing the same space twice (second pass fully
    // memoized) must agree with itself — the memo caches are keyed
    // on exact geometry, not insertion order.
    WorkerCountGuard guard(4);
    MissRateEvaluator ev(kRefs);
    Explorer ex(ev);
    SystemAssumptions a;
    auto first = ex.sweep(Benchmark::Li, a);
    auto second = ex.sweep(Benchmark::Li, a);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdenticalPoint(first[i], second[i], i);
}
