/**
 * @file
 * Sweep-service JSON codec implementation.
 */

#include "sweep_codec.hh"

#include <initializer_list>
#include <sstream>

#include "core/sweep_cache.hh"
#include "util/json.hh"

namespace tlc::service {

namespace {

// ---------------------------------------------------------------
// Strict-parse helpers. Every object is checked against an allowed
// key list so a typo'd or future field fails loudly by name instead
// of being silently ignored — the reject-unknown-fields half of the
// schema contract (tests/test_service.cc pins it).

Status
wrongType(const char *where, const char *want)
{
    return statusf(StatusCode::ParseError, "%s must be %s", where,
                   want);
}

Status
checkFields(const JsonValue &obj, const char *where,
            std::initializer_list<const char *> allowed)
{
    for (const JsonValue::Member &m : obj.members()) {
        bool known = false;
        for (const char *a : allowed) {
            if (m.first == a) {
                known = true;
                break;
            }
        }
        if (!known) {
            return statusf(StatusCode::ParseError,
                           "unknown field '%s' in %s",
                           m.first.c_str(), where);
        }
    }
    return Status{};
}

Status
readBool(const JsonValue &v, const char *where, bool &out)
{
    if (!v.isBool())
        return wrongType(where, "a boolean");
    out = v.boolean();
    return Status{};
}

Status
readString(const JsonValue &v, const char *where, std::string &out)
{
    if (!v.isString())
        return wrongType(where, "a string");
    out = v.str();
    return Status{};
}

Status
readU64(const JsonValue &v, const char *where, std::uint64_t &out)
{
    Expected<std::uint64_t> u = v.asU64();
    if (!u.ok())
        return u.status().withContext(where);
    out = u.value();
    return Status{};
}

Status
readFraction(const JsonValue &v, const char *where, double &out)
{
    if (!v.isNumber())
        return wrongType(where, "a number");
    double d = v.number();
    if (d < 0.0 || d >= 1.0) {
        return statusf(StatusCode::ParseError,
                       "%s %g out of range [0, 1)", where, d);
    }
    out = d;
    return Status{};
}

Status
readNonNegative(const JsonValue &v, const char *where, double &out)
{
    if (!v.isNumber())
        return wrongType(where, "a number");
    double d = v.number();
    if (d < 0.0) {
        return statusf(StatusCode::ParseError, "%s %g negative",
                       where, d);
    }
    out = d;
    return Status{};
}

Status
parsePolicy(const std::string &name, TwoLevelPolicy &out)
{
    for (TwoLevelPolicy p :
         {TwoLevelPolicy::Inclusive, TwoLevelPolicy::StrictInclusive,
          TwoLevelPolicy::Exclusive}) {
        if (name == twoLevelPolicyName(p)) {
            out = p;
            return Status{};
        }
    }
    return statusf(StatusCode::UnknownName,
                   "unknown two-level policy '%s'", name.c_str());
}

Status
parseRepl(const std::string &name, ReplPolicy &out)
{
    for (ReplPolicy p :
         {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO}) {
        if (name == replPolicyName(p)) {
            out = p;
            return Status{};
        }
    }
    return statusf(StatusCode::UnknownName,
                   "unknown replacement policy '%s'", name.c_str());
}

Status
decodeAssumptions(const JsonValue &v, SystemAssumptions &out)
{
    if (!v.isObject())
        return wrongType("'assumptions'", "an object");
    Status fs = checkFields(v, "'assumptions'",
                            {"offchip_ns", "l1_assoc", "l2_assoc",
                             "policy", "dual_ported_l1", "line_bytes",
                             "l2_repl"});
    if (!fs.ok())
        return fs;

    std::uint64_t u = 0;
    std::string s;
    if (const JsonValue *m = v.find("offchip_ns")) {
        Status st =
            readNonNegative(*m, "'assumptions.offchip_ns'",
                            out.offchipNs);
        if (!st.ok())
            return st;
    }
    if (const JsonValue *m = v.find("l1_assoc")) {
        Status st = readU64(*m, "'assumptions.l1_assoc'", u);
        if (!st.ok())
            return st;
        out.l1Assoc = static_cast<std::uint32_t>(u);
    }
    if (const JsonValue *m = v.find("l2_assoc")) {
        Status st = readU64(*m, "'assumptions.l2_assoc'", u);
        if (!st.ok())
            return st;
        out.l2Assoc = static_cast<std::uint32_t>(u);
    }
    if (const JsonValue *m = v.find("policy")) {
        Status st = readString(*m, "'assumptions.policy'", s);
        if (!st.ok())
            return st;
        st = parsePolicy(s, out.policy);
        if (!st.ok())
            return st;
    }
    if (const JsonValue *m = v.find("dual_ported_l1")) {
        Status st = readBool(*m, "'assumptions.dual_ported_l1'",
                             out.dualPortedL1);
        if (!st.ok())
            return st;
    }
    if (const JsonValue *m = v.find("line_bytes")) {
        Status st = readU64(*m, "'assumptions.line_bytes'", u);
        if (!st.ok())
            return st;
        out.lineBytes = static_cast<std::uint32_t>(u);
    }
    if (const JsonValue *m = v.find("l2_repl")) {
        Status st = readString(*m, "'assumptions.l2_repl'", s);
        if (!st.ok())
            return st;
        st = parseRepl(s, out.l2Repl);
        if (!st.ok())
            return st;
    }
    return Status{};
}

// ---------------------------------------------------------------
// Encoding helpers: hand-built canonical JSON via the escape/number
// helpers, like the rest of the observability layer.

std::string
u64s(std::uint64_t v)
{
    return std::to_string(v);
}

void
emitMiss(std::ostringstream &os, const HierarchyStats &m,
         const char *indent)
{
    os << "{\n"
       << indent << "  \"instr_refs\": " << u64s(m.instrRefs) << ",\n"
       << indent << "  \"data_refs\": " << u64s(m.dataRefs) << ",\n"
       << indent << "  \"l1i_misses\": " << u64s(m.l1iMisses) << ",\n"
       << indent << "  \"l1d_misses\": " << u64s(m.l1dMisses) << ",\n"
       << indent << "  \"l2_hits\": " << u64s(m.l2Hits) << ",\n"
       << indent << "  \"l2_misses\": " << u64s(m.l2Misses) << ",\n"
       << indent << "  \"swaps\": " << u64s(m.swaps) << ",\n"
       << indent << "  \"offchip_writebacks\": "
       << u64s(m.offchipWritebacks) << "\n"
       << indent << "}";
}

void
emitEnvelope(std::ostringstream &os, const Envelope &env,
             const char *indent)
{
    if (env.points().empty()) {
        os << "[]";
        return;
    }
    os << "[\n";
    for (std::size_t i = 0; i < env.points().size(); ++i) {
        const EnvelopePoint &p = env.points()[i];
        os << indent << "  {\"area_rbe\": " << jsonNumber(p.area)
           << ", \"tpi_ns\": " << jsonNumber(p.tpi)
           << ", \"label\": " << jsonQuote(p.label) << "}"
           << (i + 1 < env.points().size() ? "," : "") << "\n";
    }
    os << indent << "]";
}

} // namespace

std::vector<SystemConfig>
SweepRequestSpec::materializeConfigs() const
{
    if (explicitConfigs) {
        std::vector<SystemConfig> out;
        out.reserve(configs.size());
        for (const auto &[l1, l2] : configs) {
            SystemConfig c;
            c.l1Bytes = l1;
            c.l2Bytes = l2;
            c.assume = assume;
            out.push_back(c);
        }
        return out;
    }
    return DesignSpace::enumerate(assume, spaceSingleLevel,
                                  spaceTwoLevel);
}

std::string
sweepRequestToJson(const SweepRequestSpec &spec)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": " << jsonQuote(kRequestSchema) << ",\n";
    os << "  \"tag\": " << jsonQuote(spec.tag) << ",\n";
    os << "  \"benchmarks\": [";
    for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
        os << (i ? ", " : "")
           << jsonQuote(Workloads::info(spec.benchmarks[i]).name);
    }
    os << "],\n";
    os << "  \"assumptions\": {\n"
       << "    \"offchip_ns\": " << jsonNumber(spec.assume.offchipNs)
       << ",\n"
       << "    \"l1_assoc\": " << u64s(spec.assume.l1Assoc) << ",\n"
       << "    \"l2_assoc\": " << u64s(spec.assume.l2Assoc) << ",\n"
       << "    \"policy\": "
       << jsonQuote(twoLevelPolicyName(spec.assume.policy)) << ",\n"
       << "    \"dual_ported_l1\": "
       << (spec.assume.dualPortedL1 ? "true" : "false") << ",\n"
       << "    \"line_bytes\": " << u64s(spec.assume.lineBytes)
       << ",\n"
       << "    \"l2_repl\": "
       << jsonQuote(replPolicyName(spec.assume.l2Repl)) << "\n"
       << "  },\n";
    if (spec.explicitConfigs) {
        os << "  \"configs\": [";
        for (std::size_t i = 0; i < spec.configs.size(); ++i) {
            os << (i ? "," : "") << "\n    {\"l1_bytes\": "
               << u64s(spec.configs[i].first) << ", \"l2_bytes\": "
               << u64s(spec.configs[i].second) << "}";
        }
        os << "\n  ],\n";
    } else {
        os << "  \"space\": {\"single_level\": "
           << (spec.spaceSingleLevel ? "true" : "false")
           << ", \"two_level\": "
           << (spec.spaceTwoLevel ? "true" : "false") << "},\n";
    }
    os << "  \"evaluator\": {\n"
       << "    \"trace_refs\": " << u64s(spec.traceRefs) << ",\n"
       << "    \"warmup_fraction\": "
       << jsonNumber(spec.warmupFraction) << "\n  },\n";
    os << "  \"energy\": " << (spec.energy ? "true" : "false")
       << ",\n";
    os << "  \"threads\": " << u64s(spec.threads) << ",\n";
    os << "  \"trace_files\": {";
    bool first = true;
    for (const auto &[b, path] : spec.traceFiles) {
        os << (first ? "" : ", ")
           << jsonQuote(Workloads::info(b).name) << ": "
           << jsonQuote(path);
        first = false;
    }
    os << "}\n}";
    return os.str();
}

Expected<SweepRequestSpec>
sweepRequestFromJson(const std::string &text)
{
    Expected<JsonValue> parsed = jsonParse(text);
    if (!parsed.ok())
        return parsed.status().withContext("sweep request");
    const JsonValue &root = parsed.value();
    if (!root.isObject())
        return wrongType("sweep request", "a JSON object");

    // Schema tag first: a document from a different schema gets a
    // version complaint, not a flood of unknown-field errors.
    const JsonValue *schema = root.find("schema");
    if (!schema || !schema->isString()) {
        return statusf(StatusCode::VersionMismatch,
                       "sweep request has no \"schema\" string "
                       "(want \"%s\")", kRequestSchema);
    }
    if (schema->str() != kRequestSchema) {
        return statusf(StatusCode::VersionMismatch,
                       "sweep request schema \"%s\" not understood "
                       "(want \"%s\")", schema->str().c_str(),
                       kRequestSchema);
    }

    Status fs = checkFields(root, "sweep request",
                            {"schema", "tag", "benchmarks",
                             "assumptions", "configs", "space",
                             "evaluator", "energy", "threads",
                             "trace_files"});
    if (!fs.ok())
        return fs;

    SweepRequestSpec spec;

    if (const JsonValue *m = root.find("tag")) {
        Status st = readString(*m, "'tag'", spec.tag);
        if (!st.ok())
            return st;
    }

    const JsonValue *benches = root.find("benchmarks");
    if (!benches || !benches->isArray() || benches->items().empty()) {
        return statusf(StatusCode::ParseError,
                       "'benchmarks' must be a non-empty array of "
                       "benchmark names");
    }
    for (const JsonValue &b : benches->items()) {
        if (!b.isString())
            return wrongType("'benchmarks' entries", "strings");
        Expected<Benchmark> bench = Workloads::tryByName(b.str());
        if (!bench.ok())
            return bench.status();
        spec.benchmarks.push_back(bench.value());
    }

    if (const JsonValue *m = root.find("assumptions")) {
        Status st = decodeAssumptions(*m, spec.assume);
        if (!st.ok())
            return st;
    }

    const JsonValue *configs = root.find("configs");
    const JsonValue *space = root.find("space");
    if (configs && space) {
        return statusf(StatusCode::ParseError,
                       "'configs' and 'space' are mutually exclusive "
                       "(explicit points or an enumerated space, not "
                       "both)");
    }
    if (configs) {
        if (!configs->isArray() || configs->items().empty()) {
            return statusf(StatusCode::ParseError,
                           "'configs' must be a non-empty array");
        }
        spec.explicitConfigs = true;
        for (const JsonValue &c : configs->items()) {
            if (!c.isObject())
                return wrongType("'configs' entries", "objects");
            Status st = checkFields(c, "'configs' entry",
                                    {"l1_bytes", "l2_bytes"});
            if (!st.ok())
                return st;
            const JsonValue *l1 = c.find("l1_bytes");
            if (!l1) {
                return statusf(StatusCode::ParseError,
                               "'configs' entry missing 'l1_bytes'");
            }
            std::uint64_t l1v = 0, l2v = 0;
            st = readU64(*l1, "'l1_bytes'", l1v);
            if (!st.ok())
                return st;
            if (const JsonValue *l2 = c.find("l2_bytes")) {
                st = readU64(*l2, "'l2_bytes'", l2v);
                if (!st.ok())
                    return st;
            }
            spec.configs.emplace_back(l1v, l2v);
        }
    }
    if (space) {
        if (!space->isObject())
            return wrongType("'space'", "an object");
        Status st = checkFields(*space, "'space'",
                                {"single_level", "two_level"});
        if (!st.ok())
            return st;
        if (const JsonValue *m = space->find("single_level")) {
            st = readBool(*m, "'space.single_level'",
                          spec.spaceSingleLevel);
            if (!st.ok())
                return st;
        }
        if (const JsonValue *m = space->find("two_level")) {
            st = readBool(*m, "'space.two_level'",
                          spec.spaceTwoLevel);
            if (!st.ok())
                return st;
        }
        if (!spec.spaceSingleLevel && !spec.spaceTwoLevel) {
            return statusf(StatusCode::ParseError,
                           "'space' excludes both halves of the "
                           "design space");
        }
    }

    if (const JsonValue *ev = root.find("evaluator")) {
        if (!ev->isObject())
            return wrongType("'evaluator'", "an object");
        Status st = checkFields(*ev, "'evaluator'",
                                {"trace_refs", "warmup_fraction",
                                 "backend", "prune_margin"});
        if (!st.ok())
            return st;
        if (const JsonValue *m = ev->find("trace_refs")) {
            st = readU64(*m, "'evaluator.trace_refs'",
                         spec.traceRefs);
            if (!st.ok())
                return st;
        }
        if (const JsonValue *m = ev->find("warmup_fraction")) {
            st = readFraction(*m, "'evaluator.warmup_fraction'",
                              spec.warmupFraction);
            if (!st.ok())
                return st;
        }
        // "backend" and "prune_margin" are still read so request
        // files written when miss statistics had several sources keep
        // decoding: "exact" is the only backend left, and the margin
        // has nothing to prune. Neither is encoded any more.
        if (const JsonValue *m = ev->find("backend")) {
            std::string s;
            st = readString(*m, "'evaluator.backend'", s);
            if (!st.ok())
                return st;
            if (s != "exact") {
                return statusf(StatusCode::UnknownName,
                               "unknown miss backend '%s' (only "
                               "\"exact\" remains)", s.c_str());
            }
        }
        if (const JsonValue *m = ev->find("prune_margin")) {
            double unused = 0.0;
            st = readNonNegative(*m, "'evaluator.prune_margin'",
                                 unused);
            if (!st.ok())
                return st;
        }
    }

    if (const JsonValue *m = root.find("energy")) {
        Status st = readBool(*m, "'energy'", spec.energy);
        if (!st.ok())
            return st;
    }
    if (const JsonValue *m = root.find("threads")) {
        std::uint64_t t = 0;
        Status st = readU64(*m, "'threads'", t);
        if (!st.ok())
            return st;
        if (t > 4096) {
            return statusf(StatusCode::ParseError,
                           "'threads' %llu out of range [0, 4096]",
                           static_cast<unsigned long long>(t));
        }
        spec.threads = static_cast<unsigned>(t);
    }
    if (const JsonValue *m = root.find("trace_files")) {
        if (!m->isObject())
            return wrongType("'trace_files'", "an object");
        for (const JsonValue::Member &e : m->members()) {
            Expected<Benchmark> bench =
                Workloads::tryByName(e.first);
            if (!bench.ok()) {
                return bench.status().withContext("'trace_files'");
            }
            std::string path;
            Status st = readString(e.second, "'trace_files' values",
                                   path);
            if (!st.ok())
                return st;
            spec.traceFiles[bench.value()] = path;
        }
    }

    return spec;
}

std::string
sweepResponseJson(const SweepRequestSpec &spec,
                  const SweepOutcome &outcome)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": " << jsonQuote(kResponseSchema) << ",\n";
    os << "  \"tag\": " << jsonQuote(spec.tag) << ",\n";
    os << "  \"benchmarks\": [";
    for (std::size_t bi = 0; bi < outcome.sweeps.size(); ++bi) {
        const ServedBenchmarkSweep &sw = outcome.sweeps[bi];
        os << (bi ? "," : "") << "\n    {\n"
           << "      \"benchmark\": "
           << jsonQuote(Workloads::info(sw.benchmark).name) << ",\n"
           << "      \"points\": [";
        for (std::size_t i = 0; i < sw.points.size(); ++i) {
            const DesignPoint &p = sw.points[i];
            os << (i ? "," : "") << "\n        {\n"
               << "          \"config\": "
               << jsonQuote(p.config.label()) << ",\n"
               << "          \"l1_bytes\": "
               << u64s(p.config.l1Bytes) << ",\n"
               << "          \"l2_bytes\": "
               << u64s(p.config.l2Bytes) << ",\n"
               << "          \"area_rbe\": " << jsonNumber(p.areaRbe)
               << ",\n"
               << "          \"l1_access_ns\": "
               << jsonNumber(p.l1Timing.accessNs) << ",\n"
               << "          \"l1_cycle_ns\": "
               << jsonNumber(p.l1Timing.cycleNs) << ",\n";
            if (p.config.hasL2()) {
                os << "          \"l2_access_ns\": "
                   << jsonNumber(p.l2Timing.accessNs) << ",\n"
                   << "          \"l2_cycle_ns\": "
                   << jsonNumber(p.l2Timing.cycleNs) << ",\n";
            }
            os << "          \"tpi_ns\": " << jsonNumber(p.tpi.tpi)
               << ",\n";
            if (!sw.energyPerRef.empty()) {
                os << "          \"energy_eu_per_ref\": "
                   << jsonNumber(sw.energyPerRef[i]) << ",\n";
            }
            os << "          \"miss\": ";
            emitMiss(os, p.miss, "          ");
            os << "\n        }";
        }
        os << (sw.points.empty() ? "]" : "\n      ]") << ",\n";
        os << "      \"envelope\": ";
        emitEnvelope(os, sw.envelope, "      ");
        if (!sw.energyEnvelope.points().empty() ||
            !sw.energyPerRef.empty()) {
            os << ",\n      \"energy_envelope\": ";
            emitEnvelope(os, sw.energyEnvelope, "      ");
        }
        os << "\n    }";
    }
    os << (outcome.sweeps.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"failures\": [";
    for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
        const SweepFailure &f = outcome.failures[i];
        os << (i ? "," : "") << "\n    {\"subject\": "
           << jsonQuote(f.subject) << ", \"code\": "
           << jsonQuote(statusCodeName(f.status.code()))
           << ", \"message\": " << jsonQuote(f.status.message())
           << "}";
    }
    os << (outcome.failures.empty() ? "]" : "\n  ]") << "\n}";
    return os.str();
}

std::string
sweepStatsJson(const SweepAccounting &acct)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": " << jsonQuote(kStatsSchema) << ",\n";
    os << "  \"store_hits\": " << u64s(acct.storeHits) << ",\n";
    os << "  \"store_misses\": " << u64s(acct.storeMisses) << ",\n";
    os << "  \"store_appends\": " << u64s(acct.storeAppends) << ",\n";
    os << "  \"memo_hits\": " << u64s(acct.memoHits) << ",\n";
    os << "  \"points_priced\": " << u64s(acct.pointsPriced) << ",\n";
    os << "  \"failures\": " << u64s(acct.failures) << ",\n";
    os << "  \"wall_seconds\": " << jsonNumber(acct.wallSeconds)
       << "\n}";
    return os.str();
}

} // namespace tlc::service
