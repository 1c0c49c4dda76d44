/**
 * @file
 * Layer probes of the traced run. Each per-layer metric times calls
 * into one layer's public functions on the workload's own traces and
 * configurations (Workload::probeOps: one op per benchmark), outside
 * the end-to-end loop. Where the workload itself serves requests or
 * supervises workers, those metrics come from its run instead of a
 * probe. README.md maps each metric to the end-to-end metric it
 * should move.
 */

#include <algorithm>
#include <filesystem>
#include <set>
#include <tuple>

#include "core/batch_engine.hh"
#include "layers.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/sweep_codec.hh"
#include "service/sweep_service.hh"
#include "util/random.hh"

namespace tlc::layers {

namespace {

/** Repetitions of the sub-microsecond calls, for clock resolution. */
constexpr int kFastCallReps = 20;
/** Solo simulations the solo and memo probes time. */
constexpr std::size_t kSoloPoints = 8;
/** Requests the service probe submits (twice each: cold, warm). */
constexpr std::size_t kServiceProbeRequests = 4;

/** Keeps the trace scan from being optimised away. */
volatile std::uint64_t gScanSink = 0;

/** Seconds @p fn takes, run under a span named @p name. */
template <typename F>
double
timed(const char *name, F &&fn)
{
    SpanScope s(name);
    const Clock::time_point t0 = Clock::now();
    fn();
    return elapsedSince(t0);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** A probe op's configs that share assumptions, as one request. */
struct ProbeRequest
{
    service::SweepRequestSpec spec;
    service::SweepOutcome outcome;
};

/** Submit each request twice (cold, then warm) to a private daemon. */
ServiceSamples
probeService(const std::vector<ProbeRequest> &reqs, Checks &checks)
{
    ServiceSamples out;
    const char *storePath = "probe-service.tlrs";
    const char *socketPath = "probe.sock";
    std::filesystem::remove(storePath);
    {
        service::SweepServiceOptions so;
        so.resultStorePath = storePath;
        service::SweepService svc(so);
        Status s = svc.init();
        service::SweepDaemon daemon(svc, socketPath);
        if (s.ok())
            s = daemon.start();
        if (!s.ok()) {
            checks.fail("service probe: " + s.toString());
            return out;
        }
        const std::size_t n = std::min(kServiceProbeRequests, reqs.size());
        for (std::size_t i = 0; i < 2 * n; ++i) {
            const std::string text =
                service::sweepRequestToJson(reqs[i % n].spec);
            const Clock::time_point t0 = Clock::now();
            Expected<service::ServiceReply> reply = [&] {
                SpanScope sp("service.submit");
                return service::submitSweepRequest(socketPath, text);
            }();
            const double latency = elapsedSince(t0);
            if (!reply.ok()) {
                checks.fail("service probe: " + reply.status().toString());
                continue;
            }
            ReplyStats rs;
            if (!parseReplyStats(reply.value().statsJson, rs)) {
                checks.fail("service probe: malformed stats document");
                continue;
            }
            out.add(latency, rs);
        }
        daemon.stop();
    }
    std::filesystem::remove(storePath);
    return out;
}

/** Median latency of each key, from whichever pass ran it. */
double
medianOpSeconds(const std::string &key, const Tally &a, const Tally &b)
{
    for (const Tally *t : {&a, &b}) {
        auto it = t->opMsByKey.find(key);
        if (it != t->opMsByKey.end())
            return it->second.median() * 1e-3;
    }
    return 0.0;
}

} // namespace

std::vector<LayerMetric>
probeLayers(const Workload &w, const Tally &traced, const Tally &untraced,
            Checks &checks)
{
    std::vector<LayerMetric> out;
    auto add = [&](const char *name, double value, const char *unit) {
        out.push_back({name, value, unit});
    };
    SpanScope probe("probe");
    const std::vector<OpSpec> ops = w.probeOps();
    const TraceSet &ts = w.traces();
    auto pool = std::make_shared<TracePool>();
    MissRateEvaluator ev(ts.evaluatorOptions(pool));
    const std::uint64_t warmup = ev.warmupRefs();
    std::map<Benchmark, const TraceBuffer *> traces;
    for (const OpSpec &op : ops) {
        Expected<const TraceBuffer *> t = ev.tryTrace(op.bench);
        if (t.ok())
            traces[op.bench] = t.value();
        else
            checks.fail("probe trace: " + t.status().toString());
    }
    if (traces.size() != ops.size() || ops.empty()) {
        checks.fail("no probe inputs");
        return out;
    }

    // trace: synthesis, TLCT write and load are timed by setup; the
    // scan is a bare pass over the records, the floor of a sim pass.
    add("trace.synth_ns_per_ref", ts.synthNsPerRef.median(), "ns");
    add("trace.write_ns_per_ref", ts.writeNsPerRef.median(), "ns");
    add("trace.load_ns_per_ref", ts.loadNsPerRef.median(), "ns");
    double scanS = 0, scanRefs = 0;
    for (const auto &[b, t] : traces) {
        for (int pass = 0; pass < 5; ++pass) {
            scanS += timed("trace.scan", [&, t = t] {
                std::uint64_t acc = 0;
                for (const TraceRecord &r : t->records())
                    acc += r.addr ^ static_cast<std::uint64_t>(r.type);
                gScanSink = acc;
            });
            scanRefs += static_cast<double>(t->size());
        }
    }
    add("trace.scan_ns_per_ref", ratio(scanS * 1e9, scanRefs), "ns");

    // cache: the workload's configs through the batch engine, the same
    // lanes with the L2 dropped, and exclusive lanes (generic path).
    std::vector<BatchEngine::Result> batch(ops.size());
    std::vector<double> opSimS(ops.size());
    double batchS = 0, l1S = 0, laneRefs = 0;
    std::uint64_t fast = 0, generic = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const TraceBuffer &t = *traces.at(ops[i].bench);
        opSimS[i] = timed("cache.simulateConfigs", [&] {
            batch[i] =
                BatchEngine::simulateConfigs(t, warmup, ops[i].configs);
        });
        batchS += opSimS[i];
        laneRefs += static_cast<double>(ops[i].configs.size() * t.size());
        fast += batch[i].flatLanes;
        generic += batch[i].genericLanes;

        std::vector<SystemConfig> l1Only = ops[i].configs;
        for (SystemConfig &c : l1Only)
            c.l2Bytes = 0;
        l1S += timed("cache.simulateConfigs.l1", [&] {
            (void)BatchEngine::simulateConfigs(t, warmup, l1Only);
        });
    }
    const double batchNs = ratio(batchS * 1e9, laneRefs);
    const double l1Ns = ratio(l1S * 1e9, laneRefs);
    add("cache.batch_ns_per_lane_ref", batchNs, "ns");
    add("cache.fast_lanes", static_cast<double>(fast), "count");
    add("cache.generic_lanes", static_cast<double>(generic), "count");
    add("cache.l1_ns_per_lane_ref", l1Ns, "ns");
    add("cache.l2_ns_per_lane_ref", batchNs - l1Ns, "ns");

    std::vector<SystemConfig> excl;
    Benchmark exclBench = ops.front().bench;
    for (const OpSpec &op : ops) {
        for (SystemConfig c : op.configs) {
            if (!c.hasL2())
                continue;
            c.assume.policy = TwoLevelPolicy::Exclusive;
            excl.push_back(c);
        }
        if (!excl.empty()) {
            exclBench = op.bench;
            break;
        }
    }
    std::uint64_t swaps = 0;
    double genericS = 0;
    if (!excl.empty()) {
        const TraceBuffer &t = *traces.at(exclBench);
        BatchEngine::Result r;
        genericS = timed("cache.simulateConfigs.exclusive", [&] {
            r = BatchEngine::simulateConfigs(t, warmup, excl);
        });
        for (const HierarchyStats &s : r.stats)
            swaps += s.swaps;
        genericS = ratio(genericS * 1e9,
                         static_cast<double>(excl.size() * t.size()));
    }
    add("cache.generic_ns_per_lane_ref", genericS, "ns");
    add("cache.exclusive_swaps", static_cast<double>(swaps), "count");

    // cache.solo and core.memo: seeded points simulated solo on a
    // fresh evaluator, then asked again (memo hits). The solo results
    // must equal the batch engine's.
    std::vector<std::pair<std::size_t, std::size_t>> picks;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        for (std::size_t j = 0; j < ops[i].configs.size(); ++j)
            picks.emplace_back(i, j);
    }
    Pcg32 rng(0x501d);
    for (std::size_t k = 0; k < picks.size() && k < kSoloPoints; ++k) {
        std::swap(picks[k],
                  picks[k + rng.nextBounded(static_cast<std::uint32_t>(
                                picks.size() - k))]);
    }
    picks.resize(std::min(kSoloPoints, picks.size()));
    MissRateEvaluator soloEv(ts.evaluatorOptions(pool));
    double soloS = 0, soloRefs = 0;
    for (const auto &[i, j] : picks) {
        const OpSpec &op = ops[i];
        const Clock::time_point t0 = Clock::now();
        Expected<HierarchyStats> s = [&] {
            SpanScope sp("cache.solo");
            return soloEv.tryMissStats(op.bench, op.configs[j]);
        }();
        soloS += elapsedSince(t0);
        soloRefs += static_cast<double>(traces.at(op.bench)->size());
        if (!s.ok() || !sameStats(s.value(), batch[i].stats[j])) {
            checks.fail("probe: solo and batch disagree on " +
                        op.configs[j].label());
        }
    }
    const double soloNs = ratio(soloS * 1e9, soloRefs);
    add("cache.solo_ns_per_ref", soloNs, "ns");
    const double memoS = timed("core.memoHit", [&] {
        for (int r = 0; r < kFastCallReps; ++r) {
            for (const auto &[i, j] : picks)
                (void)soloEv.tryMissStats(ops[i].bench, ops[i].configs[j]);
        }
    });
    add("core.memo_hit_us",
        ratio(memoS * 1e6,
              static_cast<double>(kFastCallReps * picks.size())),
        "us");

    // timing, area, tpi: a fresh Explorer, so each distinct geometry's
    // organization search runs once (memo-cold), then the area model
    // and pricePoint over every config with a warm timing memo.
    Explorer ex(ev);
    std::set<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> geoms;
    std::size_t nConfigs = 0;
    for (const OpSpec &op : ops) {
        nConfigs += op.configs.size();
        for (const SystemConfig &c : op.configs) {
            geoms.emplace(c.l1Bytes, c.assume.l1Assoc, c.assume.lineBytes);
            if (c.hasL2())
                geoms.emplace(c.l2Bytes, c.assume.l2Assoc,
                              c.assume.lineBytes);
        }
    }
    const double timingS = timed("timing.optimize", [&] {
        for (const auto &[size, assoc, line] : geoms)
            (void)ex.timingOf(size, assoc, line);
    });
    add("timing.us_per_call",
        ratio(timingS * 1e6, static_cast<double>(geoms.size())), "us");
    const double areaS = timed("area.of", [&] {
        for (int r = 0; r < kFastCallReps; ++r) {
            for (const OpSpec &op : ops) {
                for (const SystemConfig &c : op.configs)
                    (void)ex.areaOf(c);
            }
        }
    });
    add("area.us_per_call",
        ratio(areaS * 1e6, static_cast<double>(kFastCallReps * nConfigs)),
        "us");
    std::vector<std::vector<DesignPoint>> priced(ops.size());
    const double tpiS = timed("tpi.pricePoint", [&] {
        for (int r = 0; r < kFastCallReps; ++r) {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                priced[i].clear();
                for (std::size_t j = 0; j < ops[i].configs.size(); ++j) {
                    priced[i].push_back(ex.pricePoint(ops[i].configs[j],
                                                      batch[i].stats[j]));
                }
            }
        }
    });
    const double tpiUs =
        ratio(tpiS * 1e6, static_cast<double>(kFastCallReps * nConfigs));
    add("tpi.us_per_call", tpiUs, "us");

    double envS = 0;
    for (const std::vector<DesignPoint> &pts : priced) {
        std::vector<EnvelopePoint> proj;
        for (const DesignPoint &p : pts)
            proj.push_back(p.toEnvelopePoint());
        envS += timed("envelope.of", [&] {
            for (int r = 0; r < kFastCallReps; ++r)
                (void)Envelope::of(proj);
        });
    }
    const double envUs =
        ratio(envS * 1e6, static_cast<double>(kFastCallReps * nConfigs));
    add("envelope.us_per_point", envUs, "us");

    // store: every probe point appended to a fresh SweepCache, then
    // looked up; lookups must return what was stored.
    {
        const char *path = "probe.tlrs";
        std::filesystem::remove(path);
        SweepCache cache;
        Status s = cache.open(path);
        if (!s.ok())
            checks.fail("probe store: " + s.toString());
        std::vector<std::pair<std::string, const HierarchyStats *>> keys;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const std::string id = SweepCache::traceIdentity(
                ops[i].bench, ts.refs, ts.files.at(ops[i].bench));
            for (std::size_t j = 0; j < ops[i].configs.size(); ++j) {
                keys.emplace_back(
                    SweepCache::keyText(id, warmup, ops[i].configs[j]),
                    &batch[i].stats[j]);
            }
        }
        const double appendS = timed("store.store", [&] {
            for (const auto &[text, stats] : keys)
                cache.store(text, *stats);
        });
        std::size_t hits = 0;
        const double lookupS = timed("store.lookup", [&] {
            for (const auto &[text, stats] : keys) {
                std::optional<HierarchyStats> got = cache.lookup(text);
                hits += got && sameStats(*got, *stats);
            }
        });
        if (s.ok() && hits != keys.size())
            checks.fail("probe store returned wrong or no statistics");
        cache.close();
        std::filesystem::remove(path);
        const double n = static_cast<double>(keys.size());
        add("store.lookup_us", ratio(lookupS * 1e6, n), "us");
        add("store.append_us", ratio(appendS * 1e6, n), "us");
    }

    // service codec: each probe op as request documents (one per set
    // of shared assumptions) decoded, and its priced points encoded.
    std::vector<ProbeRequest> reqs;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        std::map<std::string, std::size_t> group;
        for (std::size_t j = 0; j < ops[i].configs.size(); ++j) {
            const SystemConfig &c = ops[i].configs[j];
            auto [it, fresh] = group.emplace(describe(c.assume), reqs.size());
            if (fresh) {
                ProbeRequest r;
                r.spec.tag = "probe";
                r.spec.benchmarks = {ops[i].bench};
                r.spec.assume = c.assume;
                r.spec.explicitConfigs = true;
                r.spec.traceRefs = ts.refs;
                r.spec.traceFiles = {
                    {ops[i].bench, ts.files.at(ops[i].bench)}};
                r.spec.threads = 1;
                r.outcome.sweeps.push_back({ops[i].bench, {}, {}, {}, {}});
                reqs.push_back(std::move(r));
            }
            ProbeRequest &r = reqs[it->second];
            r.spec.configs.emplace_back(c.l1Bytes, c.l2Bytes);
            r.outcome.sweeps.front().points.push_back(priced[i][j]);
        }
    }
    double decodeS = 0, encodeS = 0, responseBytes = 0;
    for (ProbeRequest &r : reqs) {
        service::ServedBenchmarkSweep &sw = r.outcome.sweeps.front();
        sw.envelope = Explorer::envelopeOf(sw.points);
        const std::string text = service::sweepRequestToJson(r.spec);
        decodeS += timed("service.decode", [&] {
            for (int k = 0; k < kFastCallReps; ++k) {
                if (!service::sweepRequestFromJson(text).ok())
                    checks.fail("probe request does not decode");
            }
        });
        std::string response;
        encodeS += timed("service.encode", [&] {
            for (int k = 0; k < kFastCallReps; ++k)
                response = service::sweepResponseJson(r.spec, r.outcome);
        });
        responseBytes += static_cast<double>(response.size());
    }
    const double nReqs = static_cast<double>(reqs.size());
    add("service.decode_us", ratio(decodeS * 1e6, nReqs * kFastCallReps),
        "us");
    add("service.encode_us", ratio(encodeS * 1e6, nReqs * kFastCallReps),
        "us");
    add("service.response_kb", ratio(responseBytes / 1024.0, nReqs), "KB");

    // service path and store reuse: the workload's own requests when
    // it serves them, else a private daemon fed the probe requests.
    ServiceSamples probed;
    const ServiceSamples *svc = w.serviceSamples();
    if (!svc) {
        probed = probeService(reqs, checks);
        svc = &probed;
    }
    add("store.hit_ratio",
        ratio(static_cast<double>(svc->storeHits),
              static_cast<double>(svc->storeHits + svc->storeMisses)),
        "frac");
    add("service.server_ms_p50", svc->serverMs.median(), "ms");
    add("service.wait_ms_p50", svc->waitMs.median(), "ms");

    // supervisor: the workload's own supervised ops, else the first
    // probe op through supervisedEvaluateAll.
    SupervisorSamples supProbe;
    const SupervisorSamples *sup = w.supervisorSamples();
    if (!sup) {
        SupervisorOptions so;
        so.pointsPerShard = 32;
        so.evaluator = ts.evaluatorOptions(nullptr);
        Explorer sex(ev);
        FailureReport report;
        SupervisedSweep sw;
        supProbe.seconds = timed("supervisor.evaluateAll", [&] {
            sw = supervisedEvaluateAll(sex, ops.front().bench,
                                       ops.front().configs, &report, so);
        });
        if (!report.empty())
            checks.fail("supervisor probe:\n" + report.summary());
        supProbe.stats = sw.stats;
        supProbe.ops = 1;
        sup = &supProbe;
    }
    const SupervisionStats &st = sup->stats;
    const double supOps = static_cast<double>(sup->ops);
    add("supervisor.worker_launches",
        ratio(static_cast<double>(st.attempts), supOps), "1/op");
    add("supervisor.ms_per_shard",
        ratio(sup->seconds * 1e3, static_cast<double>(st.shards)), "ms");
    add("supervisor.frames",
        ratio(static_cast<double>(st.metricFrames + st.phaseFrames +
                                  st.eventFrames + st.flightFrames),
              supOps),
        "1/op");

    // core: trace passes and batch-engine busy time of the traced
    // pass, and the share of the probe ops' engine thread-time (median
    // op latency x worker threads) that the single-threaded replay of
    // their layers (simulation, pricing, envelope) does not explain:
    // idle workers, extra trace passes, scheduling and glue.
    add("core.trace_passes",
        ratio(static_cast<double>(traced.batchGroups),
              static_cast<double>(traced.ops)),
        "1/op");
    add("core.batch_busy_frac",
        ratio(traced.simBatchSeconds,
              traced.busySeconds * static_cast<double>(w.engineThreads())),
        "frac");
    double endToEnd = 0, replayed = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        double opS = 0;
        for (const std::string &key : ops[i].keys)
            opS += medianOpSeconds(key, untraced, traced);
        if (opS <= 0)
            continue;
        const double n = static_cast<double>(ops[i].configs.size());
        const double sim =
            w.soloPath()
                ? soloNs * 1e-9 * n *
                      static_cast<double>(traces.at(ops[i].bench)->size())
                : opSimS[i];
        endToEnd += opS * static_cast<double>(w.engineThreads());
        replayed += sim + (tpiUs + envUs) * 1e-6 * n;
    }
    add("core.unattributed_frac", ratio(endToEnd - replayed, endToEnd),
        "frac");

    const double p50 = untraced.opMs.median();
    add("bench.tracing_overhead_frac",
        ratio(traced.opMs.median() - p50, p50), "frac");
    return out;
}

} // namespace tlc::layers
