/**
 * @file
 * Harness plumbing of bench_layers: samples, digests, checks, spans
 * and the generated trace inputs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "layers.hh"
#include "trace/io.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/profiler.hh"
#include "util/table.hh"
#include "util/trace_event.hh"

namespace tlc::layers {

double
elapsedSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over
    // exec, so a process spawned from a large parent would report the
    // parent's peak.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
Samples::percentile(double p) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(s.size())));
    rank = std::clamp<std::size_t>(rank, 1, s.size());
    return s[rank - 1];
}

bool
Samples::tailValid(double p) const
{
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v_.size())));
    return v_.size() >= rank + 10;
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::u64(std::uint64_t v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof(b));
}

void
Digest::f64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Digest::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
Digest::stats(const HierarchyStats &s)
{
    for (std::uint64_t v : {s.instrRefs, s.dataRefs, s.l1iMisses,
                            s.l1dMisses, s.l2Hits, s.l2Misses, s.swaps,
                            s.offchipWritebacks})
        u64(v);
}

void
Digest::point(const DesignPoint &p)
{
    stats(p.miss);
    EnvelopePoint e = p.toEnvelopePoint();
    f64(e.area);
    f64(e.tpi);
    str(e.label);
}

void
Digest::envelope(const Envelope &e)
{
    u64(e.points().size());
    for (const EnvelopePoint &p : e.points()) {
        f64(p.area);
        f64(p.tpi);
        str(p.label);
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
Checks::fail(const std::string &what)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++failures_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::uint64_t
Checks::failures() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
}

SpanLog &
SpanLog::global()
{
    static SpanLog log;
    return log;
}

std::int64_t
SpanLog::open(std::string name, std::int64_t parent, std::uint64_t rid,
              std::uint32_t tid)
{
    if (!enabled())
        return -1;
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.rid = rid;
    s.tid = tid;
    s.start = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
SpanLog::close(std::int64_t id)
{
    if (id < 0)
        return;
    Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span>
SpanLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::uint64_t
nextRequestId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1);
}

namespace {

// The innermost open scope on this thread, and what it passes down.
thread_local std::int64_t tCurrent = -1;
thread_local std::uint64_t tRid = 0;
thread_local std::uint32_t tTid = 0;

} // namespace

std::int64_t
currentSpan()
{
    return tCurrent;
}

SpanScope::SpanScope(std::string name, std::uint64_t rid)
    : SpanScope(std::move(name), tCurrent, rid ? rid : tRid, tTid)
{
}

SpanScope::SpanScope(std::string name, std::int64_t parent,
                     std::uint64_t rid, std::uint32_t tid)
    : id_(SpanLog::global().open(std::move(name), parent, rid, tid)),
      prevParent_(tCurrent), prevRid_(tRid), prevTid_(tTid)
{
    if (id_ >= 0)
        tCurrent = id_;
    tRid = rid;
    tTid = tid;
}

SpanScope::~SpanScope()
{
    SpanLog::global().close(id_);
    tCurrent = prevParent_;
    tRid = prevRid_;
    tTid = prevTid_;
}

namespace {

double
spanSeconds(const Span &s)
{
    return std::chrono::duration<double>(s.end - s.start).count();
}

} // namespace

std::string
selfTimeTable(const std::vector<Span> &spans)
{
    // Self time is a span's duration minus the union of its direct
    // children's intervals (children on concurrent tracks overlap).
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
    struct Row
    {
        std::uint64_t calls = 0;
        double total = 0;
        double self = 0;
    };
    std::map<std::string, Row> rows;
    double root = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (std::size_t c : children[i])
            iv.emplace_back(spans[c].start, spans[c].end);
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        Clock::time_point curS{}, curE{};
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= curE) {
                curE = std::max(curE, b);
                continue;
            }
            if (open)
                covered += std::chrono::duration<double>(curE - curS).count();
            curS = a;
            curE = b;
            open = true;
        }
        if (open)
            covered += std::chrono::duration<double>(curE - curS).count();
        Row &r = rows[s.name];
        ++r.calls;
        r.total += spanSeconds(s);
        r.self += spanSeconds(s) - covered;
        if (s.parent < 0)
            root += spanSeconds(s);
    }

    Table t({"span", "calls", "total_ms", "self_ms", "self_share"});
    for (const auto &[name, r] : rows) {
        t.beginRow();
        t.cell(name);
        t.cell(static_cast<std::uint64_t>(r.calls));
        t.cell(r.total * 1e3, 3);
        t.cell(r.self * 1e3, 3);
        t.cell(root > 0 ? r.self / root : 0.0, 4);
    }
    std::ostringstream os;
    t.printAscii(os);
    return os.str();
}

Status
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    if (spans.empty())
        return statusf(StatusCode::IoError, "no spans to write");
    Clock::time_point epoch = spans.front().start;
    for (const Span &s : spans)
        epoch = std::min(epoch, s.start);
    TraceEventRecorder rec(epoch);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::string cat = s.name.substr(0, s.name.find('.'));
        std::string args = "{\"id\": " + std::to_string(i) +
                           ", \"parent\": " + std::to_string(s.parent) +
                           ", \"rid\": " + std::to_string(s.rid) + "}";
        rec.complete(s.name, cat, s.start, s.end, s.tid, args);
    }
    return rec.writeFile(path);
}

std::uint64_t
counterValue(const char *name)
{
    return MetricsRegistry::global().counter(name).value();
}

void
TraceSet::build(const std::vector<Benchmark> &benches, std::uint64_t n,
                std::uint64_t seed, TracePool &pool, Checks &checks)
{
    refs = n;
    double synth = 0, write = 0, load = 0;
    for (Benchmark b : benches) {
        const std::string path =
            std::string(Workloads::info(b).name) + ".tlct";
        auto t0 = Clock::now();
        TraceBuffer buf;
        {
            SpanScope s("trace.generate");
            buf = Workloads::generate(b, n, static_cast<unsigned>(seed));
        }
        synth += elapsedSince(t0);

        t0 = Clock::now();
        Status st;
        {
            SpanScope s("trace.save");
            st = saveTraceFile(path, buf);
        }
        write += elapsedSince(t0);
        if (!st.ok()) {
            checks.fail("write " + path + ": " + st.toString());
            continue;
        }
        files[b] = path;

        t0 = Clock::now();
        Expected<const TraceBuffer *> loaded = [&] {
            SpanScope s("trace.load");
            return pool.acquire(
                SweepCache::traceIdentity(b, n, path),
                [&]() -> Expected<TraceBuffer> {
                    TraceBuffer in;
                    Status ls = loadTraceFile(path, in);
                    if (!ls.ok())
                        return ls;
                    return in;
                });
        }();
        load += elapsedSince(t0);
        if (!loaded.ok())
            checks.fail("load " + path + ": " + loaded.status().toString());
        else if (loaded.value()->records() != buf.records())
            checks.fail("trace " + path + " does not read back as written");
    }
    const double total = static_cast<double>(n * benches.size());
    synthNsPerRef.add(synth * 1e9 / total);
    writeNsPerRef.add(write * 1e9 / total);
    loadNsPerRef.add(load * 1e9 / total);
}

EvaluatorOptions
TraceSet::evaluatorOptions(std::shared_ptr<TracePool> pool) const
{
    EvaluatorOptions o;
    o.traceRefs = refs;
    o.traceFiles = files;
    o.tracePool = std::move(pool);
    return o;
}

OpMark
OpMark::now()
{
    OpMark m;
    m.batchGroups = counterValue("explore.batch.groups");
    m.simBatchSeconds = 0;
    if (Profiler::global().enabled()) {
        auto phases = Profiler::global().snapshot();
        auto it = phases.find(phase::kSimBatch);
        if (it != phases.end())
            m.simBatchSeconds = it->second.totalSeconds();
    }
    return m;
}

void
Tally::addLatency(const std::string &key, double seconds)
{
    opMs.add(seconds * 1e3);
    opMsByKey[key].add(seconds * 1e3);
    ++ops;
}

void
Tally::addOp(const std::string &key, double seconds)
{
    addLatency(key, seconds);
    busySeconds += seconds;
}

void
Tally::addWork(const OpMark &mark)
{
    const OpMark end = OpMark::now();
    batchGroups += end.batchGroups - mark.batchGroups;
    simBatchSeconds += end.simBatchSeconds - mark.simBatchSeconds;
}

bool
parseReplyStats(const std::string &json, ReplyStats &out)
{
    Expected<JsonValue> doc = jsonParse(json);
    if (!doc.ok() || !doc.value().isObject())
        return false;
    const JsonValue *wall = doc.value().find("wall_seconds");
    const JsonValue *hits = doc.value().find("store_hits");
    const JsonValue *misses = doc.value().find("store_misses");
    if (!wall || !hits || !misses || !wall->isNumber())
        return false;
    Expected<std::uint64_t> h = hits->asU64();
    Expected<std::uint64_t> m = misses->asU64();
    if (!h.ok() || !m.ok())
        return false;
    out.wallSeconds = wall->number();
    out.storeHits = h.value();
    out.storeMisses = m.value();
    return true;
}

void
ServiceSamples::add(double latency, const ReplyStats &s)
{
    serverMs.add(s.wallSeconds * 1e3);
    waitMs.add((latency - s.wallSeconds) * 1e3);
    storeHits += s.storeHits;
    storeMisses += s.storeMisses;
}

CacheCounters
CacheCounters::now()
{
    CacheCounters c;
    c.simulations = counterValue("cache.simulations");
    c.refs = counterValue("cache.refs.instr") +
             counterValue("cache.refs.data");
    c.l1Hits = counterValue("cache.l1.hits");
    c.l1Misses = counterValue("cache.l1i.misses") +
                 counterValue("cache.l1d.misses");
    c.l2Accesses = counterValue("cache.l2.hits") +
                   counterValue("cache.l2.misses");
    return c;
}

void
CacheCounters::checkSince(const CacheCounters &before, const char *where,
                          Checks &checks) const
{
    const std::uint64_t refsD = refs - before.refs;
    const std::uint64_t hitsD = l1Hits - before.l1Hits;
    const std::uint64_t missD = l1Misses - before.l1Misses;
    const std::uint64_t l2D = l2Accesses - before.l2Accesses;
    if (refsD != hitsD + missD) {
        checks.fail(std::string(where) + ": L1 refs " +
                    std::to_string(refsD) + " != hits + misses " +
                    std::to_string(hitsD + missD));
    }
    if (l2D != missD) {
        checks.fail(std::string(where) + ": L2 accesses " +
                    std::to_string(l2D) + " != L1 misses " +
                    std::to_string(missD));
    }
}

bool
sameStats(const HierarchyStats &a, const HierarchyStats &b)
{
    return a.instrRefs == b.instrRefs && a.dataRefs == b.dataRefs &&
           a.l1iMisses == b.l1iMisses && a.l1dMisses == b.l1dMisses &&
           a.l2Hits == b.l2Hits && a.l2Misses == b.l2Misses &&
           a.swaps == b.swaps &&
           a.offchipWritebacks == b.offchipWritebacks;
}

std::string
describe(const SystemAssumptions &a)
{
    return a.toString() + ", " + std::to_string(a.lineBytes) +
           "B lines, " + replPolicyName(a.l2Repl) + " L2 replacement";
}

} // namespace tlc::layers
