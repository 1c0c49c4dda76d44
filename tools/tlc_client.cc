/**
 * @file
 * tlc_client: thin client for the tlcd sweep daemon. Submits one
 * canonical "tlc-sweep-request-v1" document — read from a file or
 * built from flags — and writes the canonical response document,
 * byte-identical to what design_explorer --request=FILE prints for
 * the same request (docs/service.md pins that contract).
 *
 * Usage:
 *   tlc_client --socket=PATH [--request=FILE] [--out=FILE]
 *              [--stats-out=FILE] [--progress] [--timeout=SECS]
 *   tlc_client --print-request [request-building flags]
 *
 * Request-building flags (used when --request is absent):
 *   --bench=a,b,c   benchmarks to sweep (default gcc1)
 *   --refs=N        trace length (0 = default)
 *   --offchip=NS    off-chip service time
 *   --l2-assoc=N    L2 ways
 *   --policy=NAME   inclusive | strict-inclusive | exclusive
 *   --single-only / --two-only   restrict the enumerated space
 *   --energy        also price per-reference energy + envelope
 *   --tag=LABEL     client label echoed in the response
 *   --threads=N     daemon-side worker width for this request
 *
 * --print-request writes the built request document to stdout and
 * exits without contacting a daemon — the canonical way to author a
 * request file (check.sh uses it for the daemon drill).
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "service/client.hh"
#include "service/sweep_codec.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace tlc;

namespace {

service::SweepRequestSpec
specFromFlags(const ArgParser &args)
{
    service::SweepRequestSpec spec;
    spec.tag = args.getString("tag");

    std::string benches = args.getString("bench", "gcc1");
    std::stringstream ss(benches);
    std::string name;
    while (std::getline(ss, name, ',')) {
        if (name.empty())
            continue;
        Expected<Benchmark> b = Workloads::tryByName(name);
        if (!b.ok())
            fatal("--bench: %s", b.status().message().c_str());
        spec.benchmarks.push_back(b.value());
    }
    if (spec.benchmarks.empty())
        fatal("--bench: no benchmarks given");

    spec.traceRefs =
        static_cast<std::uint64_t>(args.getInt("refs", 0));
    spec.assume.offchipNs = args.getDouble("offchip", 50.0);
    spec.assume.l2Assoc =
        static_cast<std::uint32_t>(args.getInt("l2-assoc", 4));
    std::string policy = args.getString("policy", "inclusive");
    bool known = false;
    for (TwoLevelPolicy p :
         {TwoLevelPolicy::Inclusive, TwoLevelPolicy::StrictInclusive,
          TwoLevelPolicy::Exclusive}) {
        if (policy == twoLevelPolicyName(p)) {
            spec.assume.policy = p;
            known = true;
        }
    }
    if (!known)
        fatal("--policy=%s: unknown policy (inclusive, "
              "strict-inclusive, exclusive)", policy.c_str());
    if (args.getBool("single-only", false))
        spec.spaceTwoLevel = false;
    if (args.getBool("two-only", false))
        spec.spaceSingleLevel = false;
    spec.energy = args.getBool("energy", false);
    spec.threads =
        static_cast<unsigned>(args.getInt("threads", 0));
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    // NOT applyStandardFlags: --threads here means the request's
    // daemon-side width, not this client's worker team.
    if (args.getBool("quiet", false))
        setLogLevel(LogLevel::Quiet);
    else if (args.getBool("verbose", false))
        setLogLevel(LogLevel::Verbose);

    std::string requestText;
    std::string requestFile = args.getString("request");
    if (!requestFile.empty()) {
        std::ifstream in(requestFile, std::ios::binary);
        if (!in)
            fatal("--request: cannot open '%s'", requestFile.c_str());
        std::ostringstream text;
        text << in.rdbuf();
        requestText = text.str();
    } else {
        requestText = service::sweepRequestToJson(specFromFlags(args));
    }

    if (args.getBool("print-request", false)) {
        std::fwrite(requestText.data(), 1, requestText.size(), stdout);
        std::fputc('\n', stdout);
        return 0;
    }

    std::string socketPath = args.getString("socket");
    if (socketPath.empty())
        fatal("--socket=PATH is required (or --print-request)");

    std::function<void(const SweepProgress &)> progress;
    if (args.getBool("progress", false))
        progress = stderrProgressPrinter("tlcd");

    Expected<service::ServiceReply> reply =
        service::submitSweepRequest(
            socketPath, requestText, progress,
            args.getDouble("timeout", 600.0));
    if (!reply.ok())
        fatal("%s", reply.status().toString().c_str());

    std::string outPath = args.getString("out");
    const std::string &response = reply.value().responseJson;
    if (outPath.empty()) {
        std::fwrite(response.data(), 1, response.size(), stdout);
        std::fputc('\n', stdout);
    } else {
        std::ofstream out(outPath,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("--out: cannot open '%s'", outPath.c_str());
        out << response << "\n";
    }
    std::string statsPath = args.getString("stats-out");
    if (!statsPath.empty()) {
        std::ofstream out(statsPath,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("--stats-out: cannot open '%s'", statsPath.c_str());
        out << reply.value().statsJson << "\n";
    }
    return 0;
}
