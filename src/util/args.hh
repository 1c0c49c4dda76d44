/**
 * @file
 * Minimal command-line argument parser for the example binaries and
 * bench drivers (--key=value / --key value / --flag), plus the
 * tlc::cli options layer the sweep drivers share: one parse of the
 * common sweep flags (refs/progress/store/telemetry) and one
 * TelemetrySession that owns the end-of-run artifact writing the
 * drivers used to duplicate line for line.
 */

#ifndef TLC_UTIL_ARGS_HH
#define TLC_UTIL_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/trace_event.hh"

namespace tlc {

/**
 * Parsed command line. Unknown options are collected and can be
 * rejected by the caller; positional arguments are kept in order.
 */
class ArgParser
{
  public:
    ArgParser(int argc, const char *const *argv);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t def = 0) const;
    double getDouble(const std::string &key, double def = 0.0) const;
    bool getBool(const std::string &key, bool def = false) const;

    const std::vector<std::string> &positional() const { return positional_; }
    const std::string &programName() const { return program_; }

    /** All option keys seen, for unknown-option checking. */
    std::vector<std::string> keys() const;

  private:
    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

/**
 * Apply the flags every driver shares:
 *   --quiet / --verbose   set the log level (mutually exclusive)
 *   --threads=N           set the parallelFor worker count
 *                         (0 = TLC_THREADS / hardware default)
 *   --profile             enable the per-phase profiler; drivers
 *                         print Profiler::global().toText() at exit
 * Call once at the top of main(); examples and bench drivers all go
 * through here so the observability surface stays uniform.
 */
void applyStandardFlags(const ArgParser &args);

namespace cli {

/**
 * The sweep flags every sweep driver accepts, parsed once. Values
 * are raw (strings, integers): this layer sits below core, so
 * interpretation that needs core types — store opening, request
 * decoding — happens in the calling binary or in
 * service/sweep_service.hh. sweepFlagsFromArgs() enforces the
 * cross-flag rules the drivers used to duplicate (--resume requires
 * --result-store and an existing file).
 */
struct SweepFlags
{
    std::uint64_t refs = 0;      ///< --refs trace length
    bool progress = false;       ///< --progress stderr lines
    std::string traceOut;        ///< --trace-out timeline file
    std::string manifestPath;    ///< --manifest run-manifest file
    std::string metricsOut;      ///< --metrics-out registry dump
    std::string resultStore;     ///< --result-store sweep cache
    bool resume = false;         ///< --resume (store must exist)
    bool storeFsync = false;     ///< --store-fsync durability
    std::string requestFile;     ///< --request sweep-request JSON
    std::string statsOut;        ///< --stats-out accounting JSON
};

/** Parse the shared sweep flags (fatal on rule violations).
 *  @p default_refs seeds refs when --refs is absent. */
SweepFlags sweepFlagsFromArgs(const ArgParser &args,
                              std::int64_t default_refs);

/**
 * Owns a sweep driver's observability artifacts for the duration of
 * a run: construction enables the profiler when a manifest was
 * requested (phase times belong in the manifest) and activates the
 * trace-event recorder when --trace-out was given; finish() writes
 * the timeline, the run manifest and the metrics dump with the same
 * messages the drivers used to emit inline. The destructor
 * deactivates the recorder if finish() never ran (early exit).
 */
class TelemetrySession
{
  public:
    /** What the run did, for the manifest. */
    struct RunSummary
    {
        std::string workload;
        std::uint64_t traceRefs = 0;
        std::uint64_t pointsPriced = 0;
        std::uint64_t failures = 0;
        double wallSeconds = 0.0;
        std::string supervisorJson; ///< isolate-mode timelines ("" = none)
    };

    explicit TelemetrySession(const SweepFlags &flags);
    ~TelemetrySession();

    TelemetrySession(const TelemetrySession &) = delete;
    TelemetrySession &operator=(const TelemetrySession &) = delete;

    /** Write every requested artifact (call once, at end of run). */
    void finish(int argc, const char *const *argv,
                const RunSummary &summary);

  private:
    SweepFlags flags_;
    TraceEventRecorder recorder_;
    bool finished_ = false;
};

} // namespace cli

} // namespace tlc

#endif // TLC_UTIL_ARGS_HH
