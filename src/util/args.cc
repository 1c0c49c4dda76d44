/**
 * @file
 * Argument-parser implementation.
 */

#include "args.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "logging.hh"
#include "metrics.hh"
#include "parallel.hh"
#include "profiler.hh"
#include "run_manifest.hh"

namespace tlc {

ArgParser::ArgParser(int argc, const char *const *argv)
{
    tlc_assert(argc >= 1, "argc must include the program name");
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            options_[body] = argv[++i];
        } else {
            options_[body] = "true";
        }
    }
}

bool
ArgParser::has(const std::string &key) const
{
    return options_.count(key) > 0;
}

std::string
ArgParser::getString(const std::string &key, const std::string &def) const
{
    auto it = options_.find(key);
    return it == options_.end() ? def : it->second;
}

std::int64_t
ArgParser::getInt(const std::string &key, std::int64_t def) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return def;
    char *end = nullptr;
    std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("option --%s expects an integer, got '%s'",
              key.c_str(), it->second.c_str());
    return v;
}

double
ArgParser::getDouble(const std::string &key, double def) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("option --%s expects a number, got '%s'",
              key.c_str(), it->second.c_str());
    return v;
}

bool
ArgParser::getBool(const std::string &key, bool def) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal("option --%s expects a boolean, got '%s'",
          key.c_str(), v.c_str());
}

void
applyStandardFlags(const ArgParser &args)
{
    bool quiet = args.getBool("quiet", false);
    bool verbose = args.getBool("verbose", false);
    if (quiet && verbose)
        fatal("--quiet and --verbose are mutually exclusive");
    if (quiet)
        setLogLevel(LogLevel::Quiet);
    else if (verbose)
        setLogLevel(LogLevel::Verbose);

    if (args.has("threads")) {
        std::int64_t n = args.getInt("threads", 0);
        if (n < 0 || n > 4096)
            fatal("--threads=%lld out of range [0, 4096]",
                  static_cast<long long>(n));
        setParallelWorkerCount(static_cast<unsigned>(n));
    }

    if (args.getBool("profile", false)) {
        Profiler::global().setEnabled(true);
        // Every driver gets the dump without wiring its own exit
        // path; drivers that also write a manifest embed the same
        // aggregates there.
        std::atexit([] {
            std::string text = Profiler::global().toText();
            std::fwrite(text.data(), 1, text.size(), stderr);
        });
    }
}

namespace cli {

SweepFlags
sweepFlagsFromArgs(const ArgParser &args, std::int64_t default_refs)
{
    SweepFlags f;
    f.refs =
        static_cast<std::uint64_t>(args.getInt("refs", default_refs));
    f.progress = args.getBool("progress", false);
    f.traceOut = args.getString("trace-out");
    f.manifestPath = args.getString("manifest");
    f.metricsOut = args.getString("metrics-out");
    f.resultStore = args.getString("result-store");
    f.resume = args.getBool("resume", false);
    f.storeFsync = args.getBool("store-fsync", false);
    f.requestFile = args.getString("request");
    f.statsOut = args.getString("stats-out");

    // Request mode runs the request document alone: a flag it would
    // silently drop is an error, not a no-op.
    static const std::set<std::string> kRequestFlags = {
        "request", "stats-out", "result-store", "resume", "store-fsync",
        "progress", "threads", "quiet", "verbose", "profile"};
    for (const std::string &key : args.keys()) {
        if (!f.requestFile.empty() && !kRequestFlags.count(key))
            fatal("--%s does not apply with --request", key.c_str());
    }
    if (f.resume && f.resultStore.empty())
        fatal("--resume requires --result-store=FILE");
    if (f.resume && !std::filesystem::exists(f.resultStore)) {
        fatal("--resume: result store '%s' does not exist "
              "(nothing to resume)", f.resultStore.c_str());
    }
    return f;
}

TelemetrySession::TelemetrySession(const SweepFlags &flags)
    : flags_(flags)
{
    // Phase times belong in the manifest, so a manifest request
    // implies profiling.
    if (!flags_.manifestPath.empty())
        Profiler::global().setEnabled(true);
    if (!flags_.traceOut.empty())
        TraceEventRecorder::setActive(&recorder_);
}

TelemetrySession::~TelemetrySession()
{
    if (!finished_ && !flags_.traceOut.empty())
        TraceEventRecorder::setActive(nullptr);
}

void
TelemetrySession::finish(int argc, const char *const *argv,
                         const RunSummary &summary)
{
    finished_ = true;
    if (!flags_.traceOut.empty()) {
        TraceEventRecorder::setActive(nullptr);
        Status s = recorder_.writeFile(flags_.traceOut);
        if (!s.ok())
            warn("%s", s.message().c_str());
        else
            inform("wrote worker timeline to '%s' (open in "
                   "chrome://tracing or ui.perfetto.dev)",
                   flags_.traceOut.c_str());
    }
    if (!flags_.manifestPath.empty()) {
        RunManifest m = RunManifest::fromCommandLine(argc, argv);
        m.workload = summary.workload;
        m.traceRefs = summary.traceRefs;
        m.pointsPriced = summary.pointsPriced;
        m.failures = summary.failures;
        m.wallSeconds = summary.wallSeconds;
        m.supervisorJson = summary.supervisorJson;
        Status s = m.writeFile(flags_.manifestPath);
        if (!s.ok())
            warn("%s", s.message().c_str());
        else
            inform("wrote run manifest to '%s'",
                   flags_.manifestPath.c_str());
    }
    if (!flags_.metricsOut.empty()) {
        Status s = writeMetricsFile(flags_.metricsOut);
        if (!s.ok())
            warn("%s", s.message().c_str());
        else
            inform("wrote metrics dump to '%s'",
                   flags_.metricsOut.c_str());
    }
}

} // namespace cli

std::vector<std::string>
ArgParser::keys() const
{
    std::vector<std::string> out;
    out.reserve(options_.size());
    for (const auto &kv : options_)
        out.push_back(kv.first);
    return out;
}

} // namespace tlc
