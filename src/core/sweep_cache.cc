/**
 * @file
 * Sweep-cache implementation: key construction, bit-exact stats
 * serialization, and the hit/miss/stale bookkeeping.
 */

#include "sweep_cache.hh"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/profiler.hh"

namespace tlc {

namespace {

/** Sweep-cache metrics, registered once and shared by all sites. */
struct CacheMetrics
{
    MetricCounter &hits;
    MetricCounter &misses;
    MetricCounter &stale;
    MetricCounter &appends;

    static CacheMetrics &get()
    {
        static CacheMetrics m{
            MetricsRegistry::global().counter("sweep_cache.hits"),
            MetricsRegistry::global().counter("sweep_cache.misses"),
            MetricsRegistry::global().counter("sweep_cache.stale"),
            MetricsRegistry::global().counter("sweep_cache.appends"),
        };
        return m;
    }
};

/** The profiler phase charged with store traffic. */
constexpr const char *kPhaseSweepCache = "sweep.cache";

void
putU64le(std::string &s, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
getU64le(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Payload layout: u64 key-text length, the key text (collision and
 * schema guard), then the eight stats fields in declaration order.
 */
std::string
serializeStats(const std::string &key_text, const HierarchyStats &s)
{
    std::string out;
    out.reserve(8 + key_text.size() + 8 * 8);
    putU64le(out, key_text.size());
    out.append(key_text);
    putU64le(out, s.instrRefs);
    putU64le(out, s.dataRefs);
    putU64le(out, s.l1iMisses);
    putU64le(out, s.l1dMisses);
    putU64le(out, s.l2Hits);
    putU64le(out, s.l2Misses);
    putU64le(out, s.swaps);
    putU64le(out, s.offchipWritebacks);
    return out;
}

bool
deserializeStats(const std::string &payload, const std::string &key_text,
                 HierarchyStats &out)
{
    if (payload.size() < 8)
        return false;
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(payload.data());
    std::uint64_t textLen = getU64le(p);
    if (textLen != key_text.size() ||
        payload.size() != 8 + textLen + 8 * 8) {
        return false;
    }
    if (payload.compare(8, textLen, key_text) != 0)
        return false;
    p += 8 + textLen;
    out.instrRefs = getU64le(p + 0 * 8);
    out.dataRefs = getU64le(p + 1 * 8);
    out.l1iMisses = getU64le(p + 2 * 8);
    out.l1dMisses = getU64le(p + 3 * 8);
    out.l2Hits = getU64le(p + 4 * 8);
    out.l2Misses = getU64le(p + 5 * 8);
    out.swaps = getU64le(p + 6 * 8);
    out.offchipWritebacks = getU64le(p + 7 * 8);
    return true;
}

} // namespace

Status
SweepCache::open(const std::string &path,
                 const ResultStoreOptions &options)
{
    return store_.open(path, options);
}

std::string
SweepCache::keyText(const std::string &trace_id,
                    std::uint64_t warmup_refs, const SystemConfig &config)
{
    std::ostringstream os;
    os << "schema=" << kSweepCacheSchemaVersion << "|trace=" << trace_id
       << "|warmup=" << warmup_refs << "|" << config.missKeyString();
    return os.str();
}

std::string
SweepCache::hashKey(const std::string &key_text)
{
    // FNV-1a 64: stable across platforms and builds, which is all a
    // store key needs — collisions are caught by the key text
    // embedded in the payload.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : key_text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "tlc%u-%016llx",
                  kSweepCacheSchemaVersion,
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
SweepCache::traceIdentity(Benchmark b, std::uint64_t trace_refs,
                          const std::string &trace_file)
{
    std::ostringstream os;
    if (trace_file.empty()) {
        os << "synthetic:" << Workloads::info(b).name << ":refs="
           << trace_refs << ":variant=0";
        return os.str();
    }
    std::error_code ec;
    std::uintmax_t bytes = std::filesystem::file_size(trace_file, ec);
    os << "file:" << trace_file << ":bytes=" << (ec ? 0 : bytes);
    return os.str();
}

std::optional<HierarchyStats>
SweepCache::lookup(const std::string &key_text, SweepCacheOutcome *outcome)
{
    ScopedTimer timer(kPhaseSweepCache);
    auto report = [&](SweepCacheOutcome o) {
        if (outcome)
            *outcome = o;
    };
    std::string payload;
    if (!store_.lookup(hashKey(key_text), &payload)) {
        CacheMetrics::get().misses.inc();
        report(SweepCacheOutcome::Miss);
        return std::nullopt;
    }
    HierarchyStats stats;
    if (!deserializeStats(payload, key_text, stats)) {
        // Indexed but unusable: a hash collision or a record from a
        // different schema. Treated exactly like a miss; the caller
        // recomputes and the fresh append supersedes this record.
        CacheMetrics::get().stale.inc();
        report(SweepCacheOutcome::Stale);
        return std::nullopt;
    }
    CacheMetrics::get().hits.inc();
    report(SweepCacheOutcome::Hit);
    return stats;
}

void
SweepCache::store(const std::string &key_text, const HierarchyStats &stats)
{
    ScopedTimer timer(kPhaseSweepCache);
    Status s = store_.append(hashKey(key_text),
                             serializeStats(key_text, stats));
    if (!s.ok()) {
        // A full or failing disk degrades the sweep to uncached; the
        // failure class (resource-exhausted vs io-error) is in the
        // message, and the counter lets a supervisor see the store
        // has stopped absorbing results.
        MetricsRegistry::global()
            .counter("sweep_cache.append_failures")
            .inc();
        warn("sweep cache: %s", s.message().c_str());
        return;
    }
    CacheMetrics::get().appends.inc();
}

} // namespace tlc
