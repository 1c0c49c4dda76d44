/**
 * @file
 * Run-manifest implementation.
 */

#include "run_manifest.hh"

#include <fstream>
#include <sstream>
#include <thread>

#include "util/json.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"

namespace tlc {

RunManifest
RunManifest::fromCommandLine(int argc, const char *const *argv)
{
    RunManifest m;
    if (argc > 0) {
        std::string prog = argv[0];
        std::size_t slash = prog.find_last_of('/');
        m.tool = slash == std::string::npos ? prog
                                            : prog.substr(slash + 1);
    }
    std::ostringstream cmd;
    for (int i = 0; i < argc; ++i)
        cmd << (i ? " " : "") << argv[i];
    m.commandLine = cmd.str();
    m.threads = parallelWorkerCount();
    unsigned hw = std::thread::hardware_concurrency();
    m.hardwareConcurrency = hw ? hw : 1;
    return m;
}

std::string
RunManifest::toJson() const
{
    // The embedded dumps are indented two spaces for a flat object;
    // re-indent them to sit at depth one inside the manifest.
    auto reindent = [](const std::string &block) {
        std::string out;
        out.reserve(block.size());
        for (char c : block) {
            out += c;
            if (c == '\n')
                out += "  ";
        }
        return out;
    };

    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"tlc-run-manifest-v1\",\n"
       << "  \"tool\": " << jsonQuote(tool) << ",\n"
       << "  \"command\": " << jsonQuote(commandLine) << ",\n"
       << "  \"workload\": " << jsonQuote(workload) << ",\n"
       << "  \"trace_refs\": " << traceRefs << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"hardware_concurrency\": " << hardwareConcurrency << ",\n"
       << "  \"points_priced\": " << pointsPriced << ",\n"
       << "  \"failures\": " << failures << ",\n"
       << "  \"wall_seconds\": " << jsonNumber(wallSeconds) << ",\n";
    if (!supervisorJson.empty())
        os << "  \"supervisor\": " << reindent(supervisorJson) << ",\n";
    os << "  \"metrics\": "
       << reindent(MetricsRegistry::global().toJson()) << ",\n"
       << "  \"phases\": " << reindent(Profiler::global().toJson())
       << "\n}\n";
    return os.str();
}

Status
RunManifest::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        return statusf(StatusCode::IoError,
                       "cannot open manifest '%s' for writing",
                       path.c_str());
    }
    os << toJson();
    os.flush(); // surface an error on the buffered tail
    if (!os.good()) {
        return statusf(StatusCode::IoError,
                       "write to manifest '%s' failed", path.c_str());
    }
    return Status();
}

} // namespace tlc
