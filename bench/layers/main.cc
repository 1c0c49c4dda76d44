/**
 * @file
 * bench_layers, the layered benchmark's single command:
 *
 *   bench_layers --workload=NAME|all [--seed=S] [--seconds=T]
 *                [--trace=0|1] [--quick] [--threads=N]
 *                [--trace-out=FILE] [--tmp=DIR]
 *
 * One workload runs per process. It first starts itself afresh
 * several times (--cold-start): each fresh process sets up the
 * workload's inputs and produces its first result, as a one-shot run
 * of the simulator would; setup_s is the median of their times and
 * peak_rss_mb of their peak resident sets. The process then sets up
 * once more, measures for --seconds, checks its outputs, and prints
 * every end-to-end metric by name with its unit. --trace=1 instead
 * measures half the time with spans off and half with spans and the
 * library's profiler on, times each layer (probes.cc), and prints the
 * per-layer metrics. --quick cuts traces to 1/20, starts afresh once,
 * and runs only the minimum work its digest needs. --workload=all
 * runs each workload in its own child process.
 *
 * The last stdout line is one JSON object,
 *   {"correct": B, "attempted": N, "failed": N,
 *    "metrics": {"NAME": {"value": V, "unit": "U"}, ...}}
 * and the line before it, "record {...}", holds what compare.py
 * reads besides the metrics: provenance, digest, sample counts. The
 * exit code is nonzero when any output check failed.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "layers.hh"
#include "util/args.hh"
#include "util/json.hh"
#include "util/profiler.hh"
#include "util/simd.hh"

extern char **environ;

using namespace tlc;
using namespace tlc::layers;

namespace {

/** Fresh processes that time set-up plus first result (setup_s and
 *  peak_rss_mb are their medians): at least the minimum, and more, up
 *  to the maximum, while they add up to less than kColdStartSeconds,
 *  so a short set-up takes more samples. */
constexpr int kMinColdStarts = 5;
constexpr int kMaxColdStarts = 20;
constexpr double kColdStartSeconds = 4.0;
/** The line a --cold-start process prints its times and RSS on. */
constexpr const char *kColdStartTag = "cold_start ";
/** Ops an end-to-end run measures at least: op_ms_p90 then has ten
 *  samples beyond it. */
constexpr std::uint64_t kMinOps = 100;

unsigned
hostNproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/**
 * CPU time the hypervisor gave other guests, summed over this
 * machine's CPUs (the "steal" column of /proc/stat; 0 where absent).
 * A run with much of it measured a host that was busy elsewhere.
 */
double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {};
    in >> cpu;
    for (std::uint64_t &x : v)
        in >> x;
    return in ? static_cast<double>(v[7]) / sysconf(_SC_CLK_TCK) : 0.0;
}

/** The seed-0 digest pinned for @p workload in @p mode, or "". */
std::string
pinnedDigest(const std::string &mode, const std::string &workload)
{
    std::ifstream in(TLC_BENCH_PINS);
    std::stringstream text;
    text << in.rdbuf();
    Expected<JsonValue> doc = jsonParse(text.str());
    if (!doc.ok() || !doc.value().isObject())
        return "";
    const JsonValue *m = doc.value().find(mode);
    const JsonValue *w = m && m->isObject() ? m->find(workload) : nullptr;
    return w && w->isString() ? w->str() : "";
}

std::string
absolute(const std::string &path)
{
    return path.empty() ? path : std::filesystem::absolute(path).string();
}

/**
 * Run this binary with @p args and wait for it. Returns its exit code
 * (-1 when it could not start or did not exit); with @p out, its
 * standard output is captured there.
 */
int
runSelf(std::vector<std::string> args, std::string *out)
{
    args.insert(args.begin(), "bench_layers");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2] = {-1, -1};
    if (out && pipe(fds) != 0)
        return -1;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    if (out) {
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
    }
    std::fflush(stdout);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (out) {
        close(fds[1]);
        char buf[4096];
        ssize_t n = 0;
        while (rc == 0 && ((n = read(fds[0], buf, sizeof(buf))) > 0 ||
                           (n < 0 && errno == EINTR))) {
            if (n > 0)
                out->append(buf, static_cast<std::size_t>(n));
        }
        close(fds[0]);
    }
    if (rc != 0)
        return -1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The arguments that make a child run @p opt's workload, with its
 *  run directory under @p tmp ("" for the default). */
std::vector<std::string>
childArgs(const RunOptions &opt, const std::string &tmp)
{
    std::vector<std::string> out = {
        "--workload=" + opt.workload, "--seed=" + std::to_string(opt.seed)};
    if (opt.quick)
        out.push_back("--quick");
    if (opt.threads)
        out.push_back("--threads=" + std::to_string(opt.threads));
    if (!tmp.empty())
        out.push_back("--tmp=" + tmp);
    return out;
}

/** Run every workload in a child process of this binary. */
int
runAll(RunOptions opt, const ArgParser &args)
{
    int failed = 0;
    for (const std::string &name : workloadNames()) {
        opt.workload = name;
        std::vector<std::string> argv =
            childArgs(opt, args.getString("tmp"));
        argv.push_back("--seconds=" + jsonNumber(opt.seconds));
        argv.push_back(std::string("--trace=") + (opt.traced ? "1" : "0"));
        if (args.has("trace-out")) {
            argv.push_back("--trace-out=" + args.getString("trace-out") +
                           "." + name + ".json");
        }
        if (runSelf(argv, nullptr) != 0)
            ++failed;
    }
    std::printf("all: %zu workloads, %d failed\n", workloadNames().size(),
                failed);
    return failed ? 1 : 0;
}

/** What the fresh processes took: set-up plus first result, each
 *  part on its own, and their peak resident sets. */
struct ColdStarts
{
    Samples total;
    Samples setup;
    Samples first;
    Samples rssMb;
};

/**
 * Time set-up plus first result in fresh processes of this binary,
 * each with its run directory inside this one; a process that fails
 * its checks is a check failure here.
 */
ColdStarts
coldStarts(const RunOptions &opt, Checks &checks)
{
    const std::string here = std::filesystem::current_path().string();
    ColdStarts out;
    double total = 0;
    const int most = opt.quick ? 1 : kMaxColdStarts;
    for (int i = 0; i < most; ++i) {
        if (i >= kMinColdStarts && total >= kColdStartSeconds)
            break;
        std::vector<std::string> argv = childArgs(opt, here);
        argv.push_back("--cold-start");
        std::string text;
        const int rc = runSelf(argv, &text);
        const std::size_t at = text.rfind(kColdStartTag);
        if (rc != 0 || at == std::string::npos) {
            checks.fail("cold start " + std::to_string(i) + " exited " +
                        std::to_string(rc));
            continue;
        }
        char *end = nullptr;
        const double setup = std::strtod(
            text.c_str() + at + std::strlen(kColdStartTag), &end);
        const double first = std::strtod(end, &end);
        out.total.add(setup + first);
        out.setup.add(setup);
        out.first.add(first);
        out.rssMb.add(std::strtod(end, nullptr));
        total += setup + first;
    }
    return out;
}

/** One fresh process's set-up plus first result, printed with its
 *  peak resident set for the parent to read. */
int
runColdStart(const RunOptions &opt)
{
    Checks checks;
    std::unique_ptr<Workload> w = makeWorkload(opt, checks);
    if (!w)
        return 2;
    const Clock::time_point t0 = Clock::now();
    w->setup();
    const double setupS = elapsedSince(t0);
    const double firstS = w->firstResult();
    std::printf("%s%s %s %s\n", kColdStartTag, jsonNumber(setupS).c_str(),
                jsonNumber(firstS).c_str(), jsonNumber(peakRssMb()).c_str());
    return checks.failures() ? 1 : 0;
}

void
printMetrics(const std::vector<LayerMetric> &metrics)
{
    for (const LayerMetric &m : metrics) {
        std::printf("metric %-30s %14s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
    }
}

int
runOne(const RunOptions &opt, const std::string &trace_out)
{
    Checks checks;
    std::unique_ptr<Workload> w = makeWorkload(opt, checks);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    // setup_s and peak_rss_mb are end-to-end metrics: the traced run
    // does not take them.
    const ColdStarts cold =
        opt.traced ? ColdStarts{} : coldStarts(opt, checks);
    const Samples &setupS = cold.total;
    Tally untraced, traced;
    std::vector<LayerMetric> layers;
    const double measureS = opt.quick ? 0.0 : opt.seconds;
    const double steal0 = stealSeconds();
    const Clock::time_point start = Clock::now();
    SpanLog::global().setEnabled(opt.traced);
    {
        SpanScope root("workload");
        {
            SpanScope s("setup");
            w->setup();
        }
        if (!opt.traced) {
            SpanScope m("measure");
            w->measure(measureS, opt.quick ? 0 : kMinOps, untraced);
        } else {
            SpanLog::global().setEnabled(false);
            w->measure(measureS / 2, 0, untraced);
            SpanLog::global().setEnabled(true);
            Profiler::global().setEnabled(true);
            {
                SpanScope m("measure");
                w->measure(measureS / 2, 0, traced);
            }
            layers = probeLayers(*w, traced, untraced, checks);
            Profiler::global().setEnabled(false);
        }
    }
    SpanLog::global().setEnabled(false);
    const double stealFrac = (stealSeconds() - steal0) /
                             (elapsedSince(start) * opt.nproc);

    const std::string mode = opt.quick ? "quick" : "full";
    const std::string digest = w->digest();
    const std::string pin =
        opt.seed == 0 ? pinnedDigest(mode, opt.workload) : "";
    if (digest.empty())
        checks.fail("no digest: too few ops to cover the pinned outputs");
    else if (!pin.empty() && digest != pin)
        checks.fail("digest " + digest + " != pinned " + pin);

    std::vector<LayerMetric> metrics;
    if (!opt.traced) {
        const double busy = untraced.busySeconds;
        metrics = {
            {"setup_s", setupS.median(), "s"},
            {"op_ms_p50", untraced.opMs.median(), "ms"},
            {"op_ms_p90", untraced.opMs.percentile(90), "ms"},
            {"ops_per_s",
             busy > 0 ? static_cast<double>(untraced.ops) / busy : 0, "1/s"},
            {"peak_rss_mb", cold.rssMb.median(), "MB"},
        };
    } else {
        metrics = layers;
        const std::vector<Span> spans = SpanLog::global().snapshot();
        std::printf("spans (self time = duration minus child spans):\n%s",
                    selfTimeTable(spans).c_str());
        if (!trace_out.empty()) {
            Status s = writeChromeTrace(trace_out, spans);
            if (!s.ok())
                checks.fail("trace-out: " + s.toString());
            else
                std::printf("chrome trace: %s\n", trace_out.c_str());
        }
    }

    const Tally &shown = opt.traced ? traced : untraced;
    std::printf("workload %s seed %llu refs %llu: %llu ops, op_ms p50 %s "
                "p90 %s p99 %s (n=%zu, p90 %s), setup_s n=%zu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(w->refs()),
                static_cast<unsigned long long>(shown.ops),
                jsonNumber(shown.opMs.median()).c_str(),
                jsonNumber(shown.opMs.percentile(90)).c_str(),
                jsonNumber(shown.opMs.percentile(99)).c_str(),
                shown.opMs.size(),
                shown.opMs.tailValid(90) ? "valid" : "has <10 samples beyond",
                setupS.size());
    printMetrics(metrics);

    const std::uint64_t failed = checks.failures();
    std::uint64_t attempted =
        untraced.attempted + traced.attempted + setupS.size();
    attempted = std::max<std::uint64_t>({attempted, failed, 1});
    const bool correct = failed == 0;
    const bool scalingValid = opt.nproc >= w->threadsRequested();

    std::ostringstream rec;
    rec << "{\"workload\": " << jsonQuote(opt.workload)
        << ", \"seed\": " << opt.seed << ", \"mode\": " << jsonQuote(mode)
        << ", \"traced\": " << (opt.traced ? "true" : "false")
        << ", \"host\": {\"nproc\": " << opt.nproc
        << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ", \"simd_backend\": "
        << jsonQuote(simdBackendName(activeSimdBackend()))
        << ", \"compiler\": " << jsonQuote(compilerName())
        << ", \"build_type\": " << jsonQuote(TLC_BENCH_BUILD_TYPE)
        << ", \"steal_frac\": " << jsonNumber(stealFrac) << "}"
        << ", \"run\": {\"refs\": " << w->refs()
        << ", \"seconds\": " << jsonNumber(measureS)
        << ", \"cold_starts\": " << setupS.size() << ", \"reps\": " << w->reps()
        << ", \"ops\": " << shown.ops
        << ", \"threads_requested\": " << w->threadsRequested()
        << ", \"threads_used\": " << w->threadsUsed()
        << ", \"scaling_valid\": " << (scalingValid ? "true" : "false")
        << "}, \"samples\": {\"setup_s\": " << setupS.size()
        << ", \"setup_s_max\": " << jsonNumber(setupS.percentile(100))
        << ", \"setup_only_s_p50\": " << jsonNumber(cold.setup.median())
        << ", \"first_result_s_p50\": " << jsonNumber(cold.first.median())
        << ", \"measuring_rss_mb\": " << jsonNumber(peakRssMb())
        << ", \"op_ms\": " << shown.opMs.size() << ", \"op_ms_p90_valid\": "
        << (shown.opMs.tailValid(90) ? "true" : "false")
        << ", \"op_ms_p99\": " << jsonNumber(shown.opMs.percentile(99))
        << "}, \"digest\": " << jsonQuote(digest)
        << ", \"pinned_digest\": " << jsonQuote(pin) << "}";
    std::printf("record %s\n", rec.str().c_str());

    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << jsonQuote(metrics[i].name)
            << ": {\"value\": " << jsonNumber(metrics[i].value)
            << ", \"unit\": " << jsonQuote(metrics[i].unit) << "}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    RunOptions opt;
    opt.workload = args.getString("workload");
    opt.seed = static_cast<std::uint64_t>(args.getInt("seed", 0));
    opt.seconds = args.getDouble("seconds", 10);
    opt.traced = args.getInt("trace", 0) != 0;
    opt.quick = args.getBool("quick");
    opt.threads = static_cast<unsigned>(args.getInt("threads", 0));
    opt.nproc = hostNproc();
    if (opt.workload.empty() || opt.seconds < 0 ||
        args.getInt("seed", 0) < 0) {
        std::fprintf(stderr,
                     "usage: bench_layers --workload=NAME|all [--seed=S] "
                     "[--seconds=T] [--trace=0|1] [--quick] [--threads=N] "
                     "[--trace-out=FILE] [--tmp=DIR]\n");
        return 2;
    }
    if (opt.workload == "all")
        return runAll(opt, args);

    // The run directory holds the traces, stores and socket; it is the
    // working directory so the socket path stays short.
    const std::string traceOut = absolute(args.getString("trace-out"));
    const std::filesystem::path base =
        args.has("tmp") ? std::filesystem::path(args.getString("tmp"))
                        : std::filesystem::temp_directory_path();
    std::filesystem::create_directories(base);
    std::string dir =
        std::filesystem::absolute(base / "bench_layers-XXXXXX").string();
    if (!mkdtemp(dir.data())) {
        std::perror("mkdtemp");
        return 2;
    }
    const std::filesystem::path home = std::filesystem::current_path();
    std::filesystem::current_path(dir);
    const int rc = args.getBool("cold-start") ? runColdStart(opt)
                                              : runOne(opt, traceOut);
    std::filesystem::current_path(home);
    std::filesystem::remove_all(dir);
    return rc;
}
