/**
 * @file
 * The sweep-service wire and file codec: one canonical, versioned
 * JSON schema for sweep requests and responses, shared by every way
 * a sweep can be asked for — the tlcd daemon's Unix-domain socket
 * (service/daemon.hh), the tlc_client tool, and the classic CLI
 * drivers' --request=FILE path (design_explorer, figure_runner). A
 * request written for one consumer is valid for all of them, and all
 * of them produce byte-identical response documents for the same
 * request.
 *
 * Requests ("tlc-sweep-request-v1") are STRICT-parsed: a missing or
 * wrong schema tag is a VersionMismatch, an unknown field anywhere in
 * the document is a ParseError naming the field, and every value is
 * type- and range-checked — a daemon fed garbage must say exactly
 * what was wrong, not guess. Encoding is canonical (fixed field
 * order, every field present), so decode(encode(spec)) == spec and
 * encode(decode(text)) is a normal form.
 *
 * Responses ("tlc-sweep-response-v1") carry the priced points,
 * per-benchmark envelopes, optional energy results and the fail-soft
 * failure list — everything a figure needs — and deliberately NOT
 * runtime accounting (cache hits, wall time), which varies between a
 * cold and a warm run of the same request. Accounting travels in a
 * separate stats document ("tlc-sweep-stats-v1"), keeping response
 * bytes identical whenever the sweep results are (the service's
 * core byte-identity guarantee; docs/service.md states it).
 */

#ifndef TLC_SERVICE_SWEEP_CODEC_HH
#define TLC_SERVICE_SWEEP_CODEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hh"
#include "core/system_config.hh"
#include "trace/workload.hh"
#include "util/envelope.hh"
#include "util/status.hh"

namespace tlc::service {

/** Schema tags pinned by the codec (and by tests). */
inline constexpr const char *kRequestSchema = "tlc-sweep-request-v1";
inline constexpr const char *kResponseSchema = "tlc-sweep-response-v1";
inline constexpr const char *kStatsSchema = "tlc-sweep-stats-v1";

/**
 * One sweep request as a plain value — the decoded form of a
 * "tlc-sweep-request-v1" document. Defaults match the classic CLI
 * drivers' defaults, so an empty-ish request means "the paper's full
 * design space on the chosen benchmarks".
 */
struct SweepRequestSpec
{
    /** Client label echoed verbatim in the response ("" allowed). */
    std::string tag;
    /** Benchmarks to sweep, in order (never empty after decode). */
    std::vector<Benchmark> benchmarks;
    /** Experiment assumptions shared by every configuration. */
    SystemAssumptions assume;
    /** Explicit (l1_bytes, l2_bytes) configurations. Empty (with
     *  explicitConfigs false) => enumerate the design space. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> configs;
    bool explicitConfigs = false;
    /** Design-space halves when enumerating (ignored with explicit
     *  configs). */
    bool spaceSingleLevel = true;
    bool spaceTwoLevel = true;
    /** Evaluator knobs (see EvaluatorOptions). */
    std::uint64_t traceRefs = 0;
    double warmupFraction = 0.1;
    /** Benchmarks routed to on-disk trace files. */
    std::map<Benchmark, std::string> traceFiles;
    /** Also price per-reference energy and the TPI-vs-energy
     *  envelope (src/power). */
    bool energy = false;
    /** Worker-team width (0 inherits TLC_THREADS). */
    unsigned threads = 0;

    /** The configuration list this request sweeps (explicit configs
     *  with assumptions applied, or the enumerated space). */
    std::vector<SystemConfig> materializeConfigs() const;
};

/** Canonical encoding: fixed field order, every field present,
 *  2-space indent, no trailing newline. */
std::string sweepRequestToJson(const SweepRequestSpec &spec);

/**
 * Strict decode of one "tlc-sweep-request-v1" document. Fails with
 *  - VersionMismatch when the schema tag is missing or not the
 *    pinned value,
 *  - ParseError for malformed JSON, unknown fields (named), wrong
 *    types, out-of-range values, or configs+space both given,
 *  - UnknownName for benchmark/policy/backend names that do not
 *    exist (the legacy "evaluator.backend" field accepts only
 *    "exact").
 */
Expected<SweepRequestSpec> sweepRequestFromJson(const std::string &text);

/** Priced results of one benchmark of a served sweep. */
struct ServedBenchmarkSweep
{
    Benchmark benchmark;
    std::vector<DesignPoint> points;
    /** eu/ref per point (parallel to points; empty unless
     *  spec.energy). */
    std::vector<double> energyPerRef;
    Envelope envelope;
    /** TPI-vs-energy envelope (empty unless spec.energy). */
    Envelope energyEnvelope;
};

/** Everything a served sweep produced (the response payload). */
struct SweepOutcome
{
    std::vector<ServedBenchmarkSweep> sweeps;
    std::vector<SweepFailure> failures;
};

/** Runtime accounting of one served sweep — deliberately OUTSIDE
 *  the response document (see file comment). */
struct SweepAccounting
{
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t storeAppends = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t pointsPriced = 0;
    std::uint64_t failures = 0;
    double wallSeconds = 0.0;
};

/** Canonical "tlc-sweep-response-v1" document (no trailing
 *  newline): deterministic for deterministic sweep results. */
std::string sweepResponseJson(const SweepRequestSpec &spec,
                              const SweepOutcome &outcome);

/** "tlc-sweep-stats-v1" accounting document (no trailing newline). */
std::string sweepStatsJson(const SweepAccounting &acct);

} // namespace tlc::service

#endif // TLC_SERVICE_SWEEP_CODEC_HH
