/**
 * @file
 * The five bench_layers workloads. Each is a closed loop of ops on
 * inputs generated from the seed; README.md gives why each exists.
 *
 *   incl_sweep      7 benchmark sweeps of the 45-point space, 4 threads
 *   excl_sweep      Figs 22-26: 8 exclusive sweeps, 4 threads
 *   point_probe     single configs priced one at a time, 1 thread
 *   isolated_sweep  incl_sweep's ops through forked shard workers
 *   served_mix      3 clients of an in-process daemon, 3 of 4 warm
 */

#include <algorithm>
#include <set>
#include <thread>

#include "core/batch_engine.hh"
#include "layers.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/sweep_codec.hh"
#include "service/sweep_service.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace tlc::layers {

namespace {

constexpr std::uint64_t kSweepRefs = 1'000'000;
constexpr std::uint64_t kExclRefs = 500'000;
// Half of incl_sweep's, so 100 supervised ops (two forks each) fit in
// about ten seconds.
constexpr std::uint64_t kIsolatedRefs = 500'000;
constexpr std::uint64_t kPointRefs = 250'000;
constexpr std::uint64_t kServedRefs = 250'000;
constexpr std::uint64_t kQuickDivisor = 20;

/** Reps per measuring pass, so every pass can compare digests. */
constexpr std::uint64_t kMinReps = 2;
/** Points per sweep rep re-simulated on the other simulator path. */
constexpr std::size_t kCrossChecks = 8;
/** point_probe's digest covers its first this-many points. */
constexpr std::size_t kDigestPoints = 64;
/** point_probe's probe op: this many points of each benchmark. */
constexpr std::size_t kProbePoints = 16;
/** served_mix's digest covers the responses of its first colds. */
constexpr std::size_t kDigestColds = 8;

std::string
benchName(Benchmark b)
{
    return Workloads::info(b).name;
}

/** Unique benchmarks of @p ops, in first-use order. */
std::vector<Benchmark>
benchmarksOf(const std::vector<OpSpec> &ops)
{
    std::vector<Benchmark> out;
    for (const OpSpec &op : ops) {
        if (std::find(out.begin(), out.end(), op.bench) == out.end())
            out.push_back(op.bench);
    }
    return out;
}

/** The first op of each benchmark. */
std::vector<OpSpec>
firstOpPerBenchmark(const std::vector<OpSpec> &ops)
{
    std::vector<OpSpec> out;
    std::set<Benchmark> seen;
    for (const OpSpec &op : ops) {
        if (seen.insert(op.bench).second)
            out.push_back(op);
    }
    return out;
}

OpSpec
sweepOp(Benchmark b, const SystemAssumptions &a, const std::string &tag)
{
    OpSpec op;
    op.bench = b;
    op.configs = DesignSpace::enumerate(a);
    op.keys = {benchName(b) + tag};
    return op;
}

std::vector<OpSpec>
inclusiveOps()
{
    std::vector<OpSpec> ops;
    for (Benchmark b : Workloads::all())
        ops.push_back(sweepOp(b, SystemAssumptions{}, ""));
    return ops;
}

/**
 * Figs 22-26: every benchmark with an exclusive 4-way L2, gcc1 also
 * with an exclusive DM L2. gcc1's two sweeps are one op, so each rep
 * has one op per benchmark: with an even count of op kinds the median
 * op would sit on the edge between two kinds and jump between them.
 */
std::vector<OpSpec>
exclusiveOps()
{
    SystemAssumptions dm;
    dm.l2Assoc = 1;
    dm.policy = TwoLevelPolicy::Exclusive;
    SystemAssumptions fourWay = dm;
    fourWay.l2Assoc = 4;
    std::vector<OpSpec> ops;
    for (Benchmark b : Workloads::all())
        ops.push_back(sweepOp(b, fourWay, " excl-4way"));
    const std::vector<SystemConfig> gcc1Dm = DesignSpace::enumerate(dm);
    OpSpec &gcc1 = ops.front();
    gcc1.configs.insert(gcc1.configs.begin(), gcc1Dm.begin(), gcc1Dm.end());
    gcc1.keys = {"gcc1 excl-dm+4way"};
    return ops;
}

/** @p configs cut into runs of consecutive configs with equal
 *  assumptions: the sweeps of one op. */
std::vector<std::vector<SystemConfig>>
sweepsOf(const std::vector<SystemConfig> &configs)
{
    std::vector<std::vector<SystemConfig>> out;
    for (const SystemConfig &c : configs) {
        if (out.empty() ||
            describe(out.back().front().assume) != describe(c.assume))
            out.emplace_back();
        out.back().push_back(c);
    }
    return out;
}

/** In-place Fisher-Yates shuffle with @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, Pcg32 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1],
                  v[rng.nextBounded(static_cast<std::uint32_t>(i))]);
    }
}

} // namespace

Workload::Workload(const RunOptions &opt, Checks &checks,
                   std::uint64_t refs, unsigned threads)
    : opt_(opt), checks_(checks),
      refs_(opt.quick ? refs / kQuickDivisor : refs),
      threadsRequested_(opt.threads ? opt.threads : threads),
      threadsUsed_(std::max(1u, std::min(threadsRequested_, opt.nproc)))
{
}

namespace {

/**
 * incl_sweep, excl_sweep and isolated_sweep: every rep prices each op
 * (one benchmark's sweeps) on a fresh evaluator, so no rep reuses
 * another's memo, and checks the rep's digest, 8 seeded points
 * against solo simulation, and counter conservation.
 */
class SweepWorkload : public Workload
{
  public:
    enum class Engine { InProcess, Supervised };

    SweepWorkload(const RunOptions &opt, Checks &checks, std::uint64_t refs,
                  unsigned threads, Engine engine, std::vector<OpSpec> ops)
        : Workload(opt, checks, refs, threads), engine_(engine),
          ops_(std::move(ops))
    {
    }

    void setup() override
    {
        pool_ = std::make_shared<TracePool>();
        traces_.build(benchmarksOf(ops_), refs_, opt_.seed, *pool_,
                      checks_);
    }

    void measure(double seconds, std::uint64_t min_ops, Tally &t) override
    {
        const Clock::time_point start = Clock::now();
        const std::uint64_t ops0 = t.ops;
        std::uint64_t reps = 0;
        do {
            runRep(t);
            ++reps;
        } while (elapsedSince(start) < seconds || reps < kMinReps ||
                 t.ops - ops0 < min_ops);
    }

    /** One rep's ops: the sweep a one-shot run would do. */
    double firstResult() override
    {
        Tally t;
        runRep(t);
        return t.busySeconds;
    }

    std::string digest() const override { return digest_; }

    std::vector<OpSpec> probeOps() const override
    {
        return firstOpPerBenchmark(ops_);
    }

    const SupervisorSamples *supervisorSamples() const override
    {
        return engine_ == Engine::Supervised ? &supervised_ : nullptr;
    }

    unsigned engineThreads() const override
    {
        return engine_ == Engine::InProcess ? threadsUsed_ : 1;
    }

  private:
    void runRep(Tally &t)
    {
        SpanScope rep("rep");
        MissRateEvaluator ev(traces_.evaluatorOptions(pool_));
        Explorer ex(ev);
        Digest d;
        std::vector<std::vector<DesignPoint>> results;
        const CacheCounters before = CacheCounters::now();
        for (const OpSpec &op : ops_) {
            const std::string &key = op.keys.front();
            FailureReport report;
            const OpMark mark = OpMark::now();
            const Clock::time_point t0 = Clock::now();
            std::vector<DesignPoint> points;
            std::vector<Envelope> envs;
            {
                SpanScope s("op", nextRequestId());
                for (const std::vector<SystemConfig> &sweep :
                     sweepsOf(op.configs)) {
                    std::vector<DesignPoint> pts =
                        engine_ == Engine::InProcess
                            ? sweepInProcess(ex, op.bench, sweep, report)
                            : sweepSupervised(ex, op.bench, sweep, report);
                    SpanScope e("envelope.of");
                    envs.push_back(Explorer::envelopeOf(pts));
                    points.insert(points.end(), pts.begin(), pts.end());
                }
            }
            t.addOp(key, elapsedSince(t0));
            t.addWork(mark);
            t.attempted += op.configs.size();
            for (const SweepFailure &f : report.failures())
                checks_.fail(key + ": " + f.subject + ": " +
                             f.status.toString());
            if (points.size() != op.configs.size()) {
                checks_.fail(key + ": " + std::to_string(points.size()) +
                             " of " + std::to_string(op.configs.size()) +
                             " points priced");
            }
            d.str(key);
            for (const DesignPoint &p : points)
                d.point(p);
            for (const Envelope &env : envs)
                d.envelope(env);
            results.push_back(std::move(points));
        }
        CacheCounters::now().checkSince(before, "sweep rep", checks_);
        crossCheck(results, t);

        const std::string hex = d.hex();
        if (digest_.empty())
            digest_ = hex;
        else if (hex != digest_)
            checks_.fail("rep digest " + hex + " differs from the first "
                         "rep's " + digest_);
        ++reps_;
    }

    std::vector<DesignPoint>
    sweepInProcess(Explorer &ex, Benchmark b,
                   const std::vector<SystemConfig> &configs,
                   FailureReport &report)
    {
        SweepRequest req;
        req.configs = configs;
        req.benchmarks = {b};
        req.report = &report;
        req.threads = threadsUsed_;
        SpanScope s("core.evaluateAll");
        std::vector<BenchmarkSweep> out = ex.evaluateAll(req);
        return out.empty() ? std::vector<DesignPoint>{}
                           : std::move(out.front().points);
    }

    std::vector<DesignPoint>
    sweepSupervised(Explorer &ex, Benchmark b,
                    const std::vector<SystemConfig> &configs,
                    FailureReport &report)
    {
        SupervisorOptions so;
        so.pointsPerShard = 32;
        // No pool: each worker loads its trace from the file itself.
        so.evaluator = traces_.evaluatorOptions(nullptr);
        const Clock::time_point t0 = Clock::now();
        SupervisedSweep sw;
        {
            SpanScope s("supervisor.evaluateAll");
            sw = supervisedEvaluateAll(ex, b, configs, &report, so);
        }
        supervised_.seconds += elapsedSince(t0);
        supervised_.stats.accumulate(sw.stats);
        ++supervised_.ops;
        return std::move(sw.points);
    }

    /** Seeded points of this rep re-simulated solo (Hierarchy). */
    void crossCheck(const std::vector<std::vector<DesignPoint>> &results,
                    Tally &t)
    {
        SpanScope s("check.solo");
        std::vector<std::pair<std::size_t, std::size_t>> all;
        for (std::size_t i = 0; i < results.size(); ++i) {
            for (std::size_t j = 0; j < results[i].size(); ++j)
                all.emplace_back(i, j);
        }
        Pcg32 rng(opt_.seed, 0xc0ffee00ULL + reps_);
        MissRateEvaluator solo(traces_.evaluatorOptions(pool_));
        const std::size_t n = std::min(kCrossChecks, all.size());
        for (std::size_t k = 0; k < n; ++k) {
            std::swap(all[k],
                      all[k + rng.nextBounded(static_cast<std::uint32_t>(
                                  all.size() - k))]);
            const auto [i, j] = all[k];
            const DesignPoint &p = results[i][j];
            Expected<HierarchyStats> s2 =
                solo.tryMissStats(ops_[i].bench, p.config);
            ++t.attempted;
            if (!s2.ok() || !sameStats(s2.value(), p.miss)) {
                checks_.fail(ops_[i].keys.front() + " " +
                             p.config.label() +
                             ": batch and solo simulation disagree");
            }
        }
    }

    Engine engine_;
    std::vector<OpSpec> ops_;
    std::shared_ptr<TracePool> pool_;
    std::string digest_;
    SupervisorSamples supervised_;
};

/** One config of point_probe's space, on one benchmark. */
struct DrawnPoint
{
    Benchmark bench;
    SystemConfig config;
};

/**
 * point_probe's space: 7 benchmarks x L1 1K-64K x L2 {none, 2x-16x}
 * x line {16,32,64} x L1 ways {1,2} x L2 ways {1,2,4,8} x {inclusive,
 * strict, exclusive} x {random, LRU, FIFO}. Single-level points take
 * the default L2 knobs so no two points share a miss key; invalid
 * geometries are left out so no op fails.
 */
std::vector<DrawnPoint>
pointSpace()
{
    std::vector<SystemAssumptions> oneLevel, twoLevel;
    for (std::uint32_t line : {16u, 32u, 64u}) {
        for (std::uint32_t l1Ways : {1u, 2u}) {
            SystemAssumptions a;
            a.lineBytes = line;
            a.l1Assoc = l1Ways;
            oneLevel.push_back(a);
            for (std::uint32_t l2Ways : {1u, 2u, 4u, 8u}) {
                for (TwoLevelPolicy pol : {TwoLevelPolicy::Inclusive,
                                           TwoLevelPolicy::StrictInclusive,
                                           TwoLevelPolicy::Exclusive}) {
                    for (ReplPolicy repl : {ReplPolicy::Random,
                                            ReplPolicy::LRU,
                                            ReplPolicy::FIFO}) {
                        a.l2Assoc = l2Ways;
                        a.policy = pol;
                        a.l2Repl = repl;
                        twoLevel.push_back(a);
                    }
                }
            }
        }
    }
    std::vector<DrawnPoint> out;
    for (Benchmark b : Workloads::all()) {
        for (std::uint64_t l1 = 1_KiB; l1 <= 64_KiB; l1 *= 2) {
            for (std::uint64_t ratio : {0, 2, 4, 8, 16}) {
                for (const SystemAssumptions &a :
                     ratio ? twoLevel : oneLevel) {
                    SystemConfig c;
                    c.l1Bytes = l1;
                    c.l2Bytes = l1 * ratio;
                    c.assume = a;
                    if (c.check().ok())
                        out.push_back({b, c});
                }
            }
        }
    }
    return out;
}

std::string
pointKey(const DrawnPoint &p)
{
    return benchName(p.bench) + " " + p.config.missKeyString();
}

/**
 * point_probe: one client prices configs drawn without replacement,
 * one Explorer::tryEvaluate at a time on one long-lived explorer, so
 * every point simulates solo and the timing memo fills as it goes.
 * Each pass re-simulates 8 seeded points through the batch engine.
 */
class PointWorkload : public Workload
{
  public:
    PointWorkload(const RunOptions &opt, Checks &checks)
        : Workload(opt, checks, kPointRefs, 1), space_(pointSpace())
    {
        Pcg32 rng(opt.seed, 0x9017);
        shuffle(space_, rng);
    }

    void setup() override
    {
        pool_ = std::make_shared<TracePool>();
        traces_.build(Workloads::all(), refs_, opt_.seed, *pool_, checks_);
        ev_ = std::make_unique<MissRateEvaluator>(
            traces_.evaluatorOptions(pool_));
        ex_ = std::make_unique<Explorer>(*ev_);
    }

    double firstResult() override
    {
        Tally t;
        priceNext(t);
        return t.busySeconds;
    }

    void measure(double seconds, std::uint64_t min_ops, Tally &t) override
    {
        const Clock::time_point start = Clock::now();
        const std::size_t first = priced_.size();
        const std::uint64_t ops0 = t.ops;
        const CacheCounters before = CacheCounters::now();
        while (next_ < space_.size() &&
               (elapsedSince(start) < seconds || next_ < kDigestPoints ||
                t.ops - ops0 < min_ops))
            priceNext(t);
        CacheCounters::now().checkSince(before, "point_probe", checks_);
        crossCheck(first, t);
    }

    std::string digest() const override
    {
        if (priced_.size() < kDigestPoints)
            return "";
        Digest d;
        for (std::size_t i = 0; i < kDigestPoints; ++i) {
            d.str(benchName(priced_[i].drawn.bench));
            d.point(priced_[i].point);
        }
        return d.hex();
    }

    /** The first kProbePoints priced points of each benchmark. */
    std::vector<OpSpec> probeOps() const override
    {
        std::map<Benchmark, OpSpec> by;
        for (const Priced &p : priced_) {
            OpSpec &op = by[p.drawn.bench];
            op.bench = p.drawn.bench;
            if (op.configs.size() < kProbePoints) {
                op.configs.push_back(p.drawn.config);
                op.keys.push_back(pointKey(p.drawn));
            }
        }
        std::vector<OpSpec> out;
        for (auto &[b, op] : by)
            out.push_back(std::move(op));
        return out;
    }

    bool soloPath() const override { return true; }

  private:
    struct Priced
    {
        DrawnPoint drawn;
        DesignPoint point;
    };

    /** Price the next drawn point: one op. */
    void priceNext(Tally &t)
    {
        const DrawnPoint &pt = space_[next_++];
        const std::string key = pointKey(pt);
        const OpMark mark = OpMark::now();
        const Clock::time_point t0 = Clock::now();
        Expected<DesignPoint> r = [&] {
            SpanScope s("op", nextRequestId());
            SpanScope e("core.evaluate");
            return ex_->tryEvaluate(pt.bench, pt.config);
        }();
        t.addOp(key, elapsedSince(t0));
        t.addWork(mark);
        ++t.attempted;
        ++reps_;
        if (!r.ok()) {
            checks_.fail(key + ": " + r.status().toString());
            return;
        }
        priced_.push_back({pt, std::move(r.value())});
    }

    /** Seeded points of this pass re-simulated by the batch engine. */
    void crossCheck(std::size_t first, Tally &t)
    {
        SpanScope s("check.batch");
        std::vector<std::size_t> idx;
        for (std::size_t i = first; i < priced_.size(); ++i)
            idx.push_back(i);
        Pcg32 rng(opt_.seed, 0xba7c4ULL + first);
        shuffle(idx, rng);
        idx.resize(std::min(kCrossChecks, idx.size()));
        for (std::size_t i : idx) {
            const Priced &p = priced_[i];
            Expected<const TraceBuffer *> trace = ev_->tryTrace(p.drawn.bench);
            ++t.attempted;
            if (!trace.ok()) {
                checks_.fail("cross-check trace: " +
                             trace.status().toString());
                continue;
            }
            const SystemConfig one[] = {p.drawn.config};
            BatchEngine::Result r = BatchEngine::simulateConfigs(
                *trace.value(), ev_->warmupRefs(), one);
            if (!sameStats(r.stats.front(), p.point.miss)) {
                checks_.fail(pointKey(p.drawn) +
                             ": solo and batch simulation disagree");
            }
        }
    }

    std::vector<DrawnPoint> space_;
    std::shared_ptr<TracePool> pool_;
    std::unique_ptr<MissRateEvaluator> ev_;
    std::unique_ptr<Explorer> ex_;
    std::size_t next_ = 0;
    std::vector<Priced> priced_;
};

/** Relative to the run directory, which is the working directory. */
constexpr const char *kSocketPath = "tlcd.sock";
constexpr const char *kStorePath = "served.tlrs";

/** Distinct cold requests: 7 benchmarks x 3 policies x 4 L2 ways x
 *  3 line sizes x 3 L2 replacements. */
constexpr std::size_t kCombos = 756;

/**
 * served_mix: an in-process SweepService + SweepDaemon on a Unix
 * socket with a persistent store, and closed-loop client threads.
 * Each request is one benchmark's 45-point space under drawn
 * assumptions. In each client's blocks of four requests one (at a
 * seeded position; the first request of a client) is a fresh
 * combination - cold: simulate and append - and the others repeat a
 * request already served - warm: store reads - and must return the
 * cold response's bytes (compared by their FNV-1a).
 */
class ServedWorkload : public Workload
{
  public:
    ServedWorkload(const RunOptions &opt, Checks &checks)
        : Workload(opt, checks, kServedRefs, 3)
    {
        // Cold request j takes coordinate (j + offset) mod 7, 3, 4
        // for benchmark, policy and L2 ways, and (j / 3) and (j / 9)
        // mod 3 for line and replacement, through seeded
        // permutations: every prefix of the cold sequence mixes the
        // costly dimensions evenly, and j < 756 never repeats.
        Pcg32 rng(opt.seed, 0x5e7edULL);
        benches_ = Workloads::all();
        policies_ = {TwoLevelPolicy::Inclusive,
                     TwoLevelPolicy::StrictInclusive,
                     TwoLevelPolicy::Exclusive};
        ways_ = {1, 2, 4, 8};
        lines_ = {16, 32, 64};
        repls_ = {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO};
        shuffle(benches_, rng);
        shuffle(policies_, rng);
        shuffle(ways_, rng);
        shuffle(lines_, rng);
        shuffle(repls_, rng);
        for (std::size_t &o : offsets_)
            o = rng.nextBounded(kCombos);
    }

    ~ServedWorkload() override
    {
        if (daemon_)
            daemon_->stop();
    }

    void setup() override
    {
        service::SweepServiceOptions so;
        so.resultStorePath = kStorePath;
        svc_ = std::make_unique<service::SweepService>(so);
        Status s = svc_->init();
        if (!s.ok()) {
            checks_.fail("store: " + s.toString());
            svc_.reset();
            return;
        }
        traces_.build(Workloads::all(), refs_, opt_.seed,
                      svc_->tracePool(), checks_);
        daemon_ = std::make_unique<service::SweepDaemon>(*svc_, kSocketPath);
        s = daemon_->start();
        if (!s.ok()) {
            checks_.fail("daemon: " + s.toString());
            daemon_.reset();
        }
        for (unsigned c = 0; c < threadsUsed_; ++c)
            clients_.push_back(Client{Pcg32(opt_.seed, 0xc11e47ULL + c)});
    }

    /** A fresh daemon's first request: the first benchmark's reference
     *  sweep, the same request on every seed. */
    double firstResult() override
    {
        if (!daemon_)
            return 0;
        const Benchmark b = Workloads::all().front();
        const std::string text =
            service::sweepRequestToJson(requestSpec(b, SystemAssumptions{}));
        const Clock::time_point t0 = Clock::now();
        Expected<service::ServiceReply> reply =
            service::submitSweepRequest(kSocketPath, text);
        const double latency = elapsedSince(t0);
        if (!reply.ok())
            checks_.fail("first request: " + reply.status().toString());
        return latency;
    }

    static std::uint64_t responseHash(const std::string &response)
    {
        Digest d;
        d.str(response);
        return d.value();
    }

    void measure(double seconds, std::uint64_t min_ops, Tally &t) override
    {
        if (!daemon_)
            return;
        const OpMark mark = OpMark::now();
        const CacheCounters before = CacheCounters::now();
        const Clock::time_point start = Clock::now();
        const std::int64_t parent = currentSpan();
        const std::uint64_t until = reps_ + min_ops;
        std::vector<std::thread> team;
        for (std::size_t c = 0; c < clients_.size(); ++c) {
            team.emplace_back([&, c] {
                try {
                    clientLoop(c, start, seconds, until, parent, t);
                } catch (const std::exception &e) {
                    checks_.fail(std::string("served_mix client: ") +
                                 e.what());
                }
            });
        }
        for (std::thread &th : team)
            th.join();
        t.busySeconds += elapsedSince(start);
        t.addWork(mark);
        CacheCounters::now().checkSince(before, "served_mix", checks_);
    }

    std::string digest() const override
    {
        Digest d;
        for (std::size_t j = 0; j < kDigestColds; ++j) {
            auto it = coldResponses_.find(j);
            if (it == coldResponses_.end())
                return "";
            d.u64(it->second);
        }
        return d.hex();
    }

    /** The first served cold request of each benchmark. */
    std::vector<OpSpec> probeOps() const override
    {
        std::vector<OpSpec> ops;
        for (const auto &[j, hash] : coldResponses_) {
            service::SweepRequestSpec spec = comboSpec(j);
            ops.push_back({spec.benchmarks.front(),
                           spec.materializeConfigs(),
                           {"cold:" + spec.tag}});
        }
        return firstOpPerBenchmark(ops);
    }

    const ServiceSamples *serviceSamples() const override
    {
        return &samples_;
    }

  private:
    struct Client
    {
        Pcg32 rng;
        std::uint64_t k = 0;        ///< requests sent so far
        std::uint32_t coldSlot = 0; ///< cold position in this block

        bool nextIsCold()
        {
            if (k % 4 == 0)
                coldSlot = k == 0 ? 0 : rng.nextBounded(4);
            return k++ % 4 == coldSlot;
        }
    };

    /** @p b's 45-point space under @p a, on one thread. */
    service::SweepRequestSpec requestSpec(Benchmark b,
                                          const SystemAssumptions &a) const
    {
        service::SweepRequestSpec spec;
        spec.benchmarks = {b};
        spec.assume = a;
        spec.traceRefs = refs_;
        spec.traceFiles = {{b, traces_.files.at(b)}};
        spec.threads = 1;
        spec.tag = benchName(b) + " " + describe(a);
        return spec;
    }

    service::SweepRequestSpec comboSpec(std::size_t j) const
    {
        SystemAssumptions a;
        a.policy = policies_[(j + offsets_[1]) % 3];
        a.l2Assoc = ways_[(j + offsets_[2]) % 4];
        a.lineBytes = lines_[(j / 3 + offsets_[3]) % 3];
        a.l2Repl = repls_[(j / 9 + offsets_[4]) % 3];
        return requestSpec(benches_[(j + offsets_[0]) % benches_.size()], a);
    }

    /** Requests until @p seconds pass, @p until requests completed and
     *  the digest's colds were taken. */
    void clientLoop(std::size_t c, Clock::time_point start, double seconds,
                    std::uint64_t until, std::int64_t parent, Tally &t)
    {
        while (elapsedSince(start) < seconds || reps_.load() < until ||
               nextCold_.load() < kDigestColds) {
            if (!request(c, parent, t))
                return;
        }
    }

    /** Client @p c's next request; false when no cold one is left. */
    bool request(std::size_t c, std::int64_t parent, Tally &t)
    {
        Client &cl = clients_[c];
        bool cold = cl.nextIsCold();
        std::size_t j = 0;
        if (!cold) {
            std::lock_guard<std::mutex> lock(mu_);
            if (served_.empty()) {
                cold = true;
            } else {
                j = served_[cl.rng.nextBounded(
                    static_cast<std::uint32_t>(served_.size()))];
            }
        }
        if (cold) {
            j = nextCold_.fetch_add(1);
            if (j >= kCombos) {
                checks_.fail("served_mix ran out of cold requests");
                return false;
            }
        }
        const service::SweepRequestSpec spec = comboSpec(j);
        const std::string key = (cold ? "cold:" : "warm:") + spec.tag;
        const std::string text = service::sweepRequestToJson(spec);
        const Clock::time_point t0 = Clock::now();
        Expected<service::ServiceReply> reply = [&] {
            SpanScope s("op", parent, nextRequestId(),
                        static_cast<std::uint32_t>(c + 1));
            SpanScope q("service.submit");
            return service::submitSweepRequest(kSocketPath, text);
        }();
        const double latency = elapsedSince(t0);
        record(j, cold, key, latency, reply, t);
        return true;
    }

    void record(std::size_t j, bool cold, const std::string &key,
                double latency,
                const Expected<service::ServiceReply> &reply, Tally &t)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++t.attempted;
        if (!reply.ok()) {
            checks_.fail(key + ": " + reply.status().toString());
            return;
        }
        ReplyStats rs;
        if (!parseReplyStats(reply.value().statsJson, rs)) {
            checks_.fail(key + ": malformed stats document");
            return;
        }
        t.addLatency(key, latency);
        samples_.add(latency, rs);
        if (cold) {
            // Single-level points ignore the L2 knobs, so a cold
            // request may find those in the store, but never all.
            if (rs.storeMisses == 0)
                checks_.fail(key + ": cold request simulated nothing");
            coldResponses_[j] = responseHash(reply.value().responseJson);
            served_.push_back(j);
        } else {
            if (rs.storeMisses != 0)
                checks_.fail(key + ": warm request missed the store");
            if (coldResponses_.at(j) !=
                responseHash(reply.value().responseJson))
                checks_.fail(key + ": warm response differs from cold");
        }
        ++reps_;
    }

    std::vector<Benchmark> benches_;
    std::vector<TwoLevelPolicy> policies_;
    std::vector<std::uint32_t> ways_;
    std::vector<std::uint32_t> lines_;
    std::vector<ReplPolicy> repls_;
    std::size_t offsets_[5] = {};

    std::unique_ptr<service::SweepService> svc_;
    std::unique_ptr<service::SweepDaemon> daemon_;
    std::vector<Client> clients_;
    std::atomic<std::size_t> nextCold_{0};

    std::mutex mu_; ///< guards the three members below and the tally
    std::vector<std::size_t> served_;
    /** Cold request -> FNV-1a of its response bytes. */
    std::map<std::size_t, std::uint64_t> coldResponses_;
    ServiceSamples samples_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "incl_sweep", "excl_sweep", "point_probe", "isolated_sweep",
        "served_mix"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const RunOptions &opt, Checks &checks)
{
    using Engine = SweepWorkload::Engine;
    if (opt.workload == "incl_sweep") {
        return std::make_unique<SweepWorkload>(opt, checks, kSweepRefs, 4,
                                               Engine::InProcess,
                                               inclusiveOps());
    }
    if (opt.workload == "excl_sweep") {
        return std::make_unique<SweepWorkload>(opt, checks, kExclRefs, 4,
                                               Engine::InProcess,
                                               exclusiveOps());
    }
    if (opt.workload == "point_probe")
        return std::make_unique<PointWorkload>(opt, checks);
    if (opt.workload == "isolated_sweep") {
        return std::make_unique<SweepWorkload>(opt, checks, kIsolatedRefs, 1,
                                               Engine::Supervised,
                                               inclusiveOps());
    }
    if (opt.workload == "served_mix")
        return std::make_unique<ServedWorkload>(opt, checks);
    return nullptr;
}

} // namespace tlc::layers
