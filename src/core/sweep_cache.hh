/**
 * @file
 * Persistent sweep cache: content-addressed miss-statistics reuse
 * across processes and runs.
 *
 * The in-memory memo in MissRateEvaluator dies with the process; a
 * SweepCache puts the same (trace identity, warmup, configuration)
 * -> HierarchyStats mapping behind a ResultStore file, so
 *
 *  - a RE-RUN of a sweep whose model knobs did not change answers
 *    every point from disk instead of re-simulating (the
 *    incremental-sweep property of Ling et al., arXiv:1907.05068);
 *  - a sweep KILLED mid-run resumes where it stopped: every batch
 *    appended before the kill is a hit on the next run, only the
 *    unfinished tail simulates (--result-store/--resume on
 *    design_explorer and figure_runner).
 *
 * Keys are a stable FNV-1a hash of a canonical key text built from
 * the trace identity (benchmark model + length + variant, or trace
 * file path + size), the warmup reference count, the configuration's
 * missKeyString(), and kSweepCacheSchemaVersion. The full key text
 * travels inside the payload and is compared on every lookup, so a
 * hash collision — or a record written by a different schema —
 * reads as a miss ("stale"), never as wrong statistics. Cached
 * statistics round-trip bit-exactly (fixed-width little-endian
 * integers), which is what lets a warm sweep promise byte-identical
 * points, envelopes and failure reports (tests/test_result_store.cc).
 *
 * Observability: lookups and appends run under the "sweep.cache"
 * profiler phase and tick sweep_cache.{hits,misses,stale,appends}
 * in the global metrics registry.
 *
 * Thread safety: SweepCache is a thin layer over ResultStore's
 * mutex plus atomics; sweep workers share one instance freely.
 */

#ifndef TLC_CORE_SWEEP_CACHE_HH
#define TLC_CORE_SWEEP_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cache/hierarchy.hh"
#include "core/system_config.hh"
#include "trace/workload.hh"
#include "util/result_store.hh"
#include "util/status.hh"

namespace tlc {

/**
 * Version of the SIMULATION SEMANTICS baked into cached results.
 * Bump whenever the synthetic workload generators, the cache models,
 * or the stats layout change meaning: old entries then hash to
 * different keys and simply stop matching, so a stale store can
 * never contaminate a new engine.
 */
constexpr std::uint32_t kSweepCacheSchemaVersion = 1;

/** Bytes of one encodeHierarchyStats() record. */
constexpr std::size_t kHierarchyStatsBytes = 8 * 8;

/**
 * The one binary layout of HierarchyStats: the eight fields as u64le
 * in declaration order. Store records (after their key text) and
 * shard-runner result frames (core/shard_runner.cc) both carry it.
 * Existing stores decode through it, so any change to it needs a
 * kSweepCacheSchemaVersion bump (tests/test_result_store.cc pins the
 * bytes).
 */
void encodeHierarchyStats(std::string &out, const HierarchyStats &s);

/** Inverse of encodeHierarchyStats(); false unless @p bytes is
 *  exactly kHierarchyStatsBytes long. */
bool decodeHierarchyStats(std::string_view bytes, HierarchyStats &out);

/** How a lookup was resolved (mostly for tests and tooling). */
enum class SweepCacheOutcome { Hit, Miss, Stale };

class SweepCache
{
  public:
    SweepCache() = default;

    /** Open (or create) the backing store; see ResultStore::open.
     *  @p options passes durability knobs (fsync-on-commit) through
     *  to the underlying ResultStore. */
    Status open(const std::string &path,
                const ResultStoreOptions &options = {});
    void close() { store_.close(); }

    bool enabled() const { return store_.isOpen(); }
    const std::string &path() const { return store_.path(); }
    std::size_t entries() const { return store_.size(); }
    std::uint64_t droppedRecords() const
    {
        return store_.droppedRecords();
    }

    /**
     * Canonical key text of one cached point. @p trace_id comes from
     * traceIdentity(); everything else is the simulation request.
     * The text is pinned byte for byte (tests/test_batch_engine.cc),
     * since any change to it turns every existing store cold.
     */
    static std::string keyText(const std::string &trace_id,
                               std::uint64_t warmup_refs,
                               const SystemConfig &config);

    /** The store key: "tlc<schema>-" + 16-hex FNV-1a of @p key_text. */
    static std::string hashKey(const std::string &key_text);

    /**
     * Stable identity of the trace @p b would simulate against:
     * synthetic traces name the benchmark model, length and variant;
     * file-backed traces name the path and on-disk size (so a
     * swapped trace file invalidates its entries). Never loads or
     * generates the trace — a fully warm sweep touches no trace
     * bytes at all.
     */
    static std::string traceIdentity(Benchmark b,
                                     std::uint64_t trace_refs,
                                     const std::string &trace_file);

    /** Cached stats of @p key_text, or nullopt (miss/stale). */
    std::optional<HierarchyStats> lookup(const std::string &key_text,
                                         SweepCacheOutcome *outcome =
                                             nullptr);

    /**
     * Persist one simulated result; true when it was appended. An
     * append failure goes to the warn log and returns false: a
     * read-only or full disk must degrade a sweep to uncached, not
     * kill it.
     */
    bool store(const std::string &key_text, const HierarchyStats &stats);

  private:
    ResultStore store_;
};

} // namespace tlc

#endif // TLC_CORE_SWEEP_CACHE_HH
