/**
 * @file
 * The sweep-as-a-service stack (src/service/ + util/json.hh).
 *
 * The contract under test is one schema, one encoder, byte-identical
 * everywhere:
 *
 *  - the strict JSON parser accepts RFC 8259 and nothing else
 *    (duplicate keys, deep nesting, lone surrogates, trailing
 *    garbage all fail with a reason);
 *  - the request codec round-trips: decode(encode(spec)) == spec and
 *    encode(decode(text)) is a normal form, unknown fields anywhere
 *    are ParseErrors NAMING the field, and a missing or foreign
 *    schema tag is a VersionMismatch, not a field-error flood;
 *  - a SweepService response is byte-identical to encoding a direct
 *    Explorer run of the same request — cold, warm, energy on or
 *    off — while the warm run's accounting shows every point served
 *    from the persistent store;
 *  - a live daemon serves N concurrent clients the same bytes, keeps
 *    a connection usable after a bad request (error event, no
 *    disconnect), joins each connection's thread once the client
 *    hangs up, and stop() drains cleanly and unlinks the socket.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/explorer.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/sweep_codec.hh"
#include "service/sweep_service.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/supervisor.hh"
#include "util/units.hh"

using namespace tlc;
using namespace tlc::service;

namespace {

/// Short traces: every property under test is structural.
constexpr std::uint64_t kRefs = 50000;

std::string
tempPath(const std::string &name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/** A small explicit-config request (4 points, one benchmark). */
SweepRequestSpec
smallSpec()
{
    SweepRequestSpec spec;
    spec.tag = "test";
    spec.benchmarks = {Benchmark::Gcc1};
    spec.explicitConfigs = true;
    spec.configs = {{8_KiB, 0}, {8_KiB, 64_KiB},
                    {16_KiB, 0}, {16_KiB, 128_KiB}};
    spec.traceRefs = kRefs;
    return spec;
}

/** What the service MUST produce: a direct engine run of @p spec,
 *  encoded with the same codec. */
std::string
directResponse(const SweepRequestSpec &spec)
{
    EvaluatorOptions eopts;
    eopts.traceRefs = spec.traceRefs;
    eopts.warmupFraction = spec.warmupFraction;
    eopts.traceFiles = spec.traceFiles;
    MissRateEvaluator ev(eopts);
    Explorer ex(ev);
    SweepRequest req;
    req.configs = spec.materializeConfigs();
    req.benchmarks = spec.benchmarks;
    FailureReport report;
    req.report = &report;
    std::vector<BenchmarkSweep> sweeps = ex.evaluateAll(req);

    SweepOutcome outcome;
    for (BenchmarkSweep &bs : sweeps) {
        ServedBenchmarkSweep sb;
        sb.benchmark = bs.benchmark;
        sb.points = std::move(bs.points);
        sb.envelope = Explorer::envelopeOf(sb.points);
        outcome.sweeps.push_back(std::move(sb));
    }
    outcome.failures = report.failures();
    return sweepResponseJson(spec, outcome);
}

StatusCode
decodeError(const std::string &text, std::string *message = nullptr)
{
    Expected<SweepRequestSpec> spec = sweepRequestFromJson(text);
    EXPECT_FALSE(spec.ok()) << "decoded: " << text;
    if (spec.ok())
        return StatusCode::Ok;
    if (message)
        *message = spec.status().message();
    return spec.status().code();
}

/** Open a raw client connection to @p socket_path (-1 on failure). */
int
connectTo(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  socket_path.c_str());
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Live threads of this process. */
std::size_t
taskCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/** Memory mappings of this process. An exited but unjoined thread
 *  leaves /proc/self/task at once, yet keeps its stack (and guard
 *  page) mapped until it is joined. */
std::size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        ++n;
    return n;
}

/** Patch one "key": ... line of a canonical request document. */
std::string
corrupt(std::string text, const std::string &from,
        const std::string &to)
{
    std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
}

// ---------------------------------------------------------------
// util/json.hh: the strict RFC 8259 parser.

TEST(Json, ParsesScalarsArraysObjects)
{
    Expected<JsonValue> v = jsonParse(
        "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null},"
        " \"e\": \"x\\n\\u00e9\"}");
    ASSERT_TRUE(v.ok()) << v.status().toString();
    const JsonValue &root = v.value();
    ASSERT_TRUE(root.isObject());
    ASSERT_NE(root.find("a"), nullptr);
    EXPECT_EQ(root.find("a")->items().size(), 3u);
    EXPECT_DOUBLE_EQ(root.find("a")->items()[2].number(), -300.0);
    EXPECT_TRUE(root.find("b")->find("c")->boolean());
    EXPECT_TRUE(root.find("b")->find("d")->isNull());
    EXPECT_EQ(root.find("e")->str(), "x\n\xc3\xa9");
}

TEST(Json, RejectsDuplicateKeys)
{
    Expected<JsonValue> v = jsonParse("{\"a\": 1, \"a\": 2}");
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.status().message().find("duplicate"),
              std::string::npos);
}

TEST(Json, RejectsTrailingGarbageAndDepth)
{
    EXPECT_FALSE(jsonParse("{} x").ok());
    std::string deep(70, '['), close(70, ']');
    EXPECT_FALSE(jsonParse(deep + close).ok());
}

TEST(Json, SurrogatePairsDecodeLoneHalvesFail)
{
    Expected<JsonValue> ok = jsonParse("\"\\ud83d\\ude00\"");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().str(), "\xf0\x9f\x98\x80");
    EXPECT_FALSE(jsonParse("\"\\ud83d\"").ok());
    EXPECT_FALSE(jsonParse("\"\\ude00\"").ok());
}

TEST(Json, AsU64RejectsNonIntegers)
{
    EXPECT_EQ(jsonParse("42").value().asU64().value(), 42u);
    EXPECT_FALSE(jsonParse("-1").value().asU64().ok());
    EXPECT_FALSE(jsonParse("2.5").value().asU64().ok());
    EXPECT_FALSE(jsonParse("1e300").value().asU64().ok());
}

// ---------------------------------------------------------------
// The request codec: canonical round trip + strict rejection.

TEST(SweepCodec, RoundTripIsCanonical)
{
    SweepRequestSpec spec = smallSpec();
    spec.assume.offchipNs = 200.0;
    spec.assume.policy = TwoLevelPolicy::Exclusive;
    spec.energy = true;
    spec.threads = 2;
    std::string text = sweepRequestToJson(spec);

    Expected<SweepRequestSpec> back = sweepRequestFromJson(text);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(sweepRequestToJson(back.value()), text);
    EXPECT_EQ(back.value().tag, "test");
    EXPECT_EQ(back.value().benchmarks, spec.benchmarks);
    EXPECT_EQ(back.value().configs, spec.configs);
    EXPECT_TRUE(back.value().explicitConfigs);
    EXPECT_EQ(back.value().assume.policy, TwoLevelPolicy::Exclusive);
    EXPECT_DOUBLE_EQ(back.value().assume.offchipNs, 200.0);
    EXPECT_TRUE(back.value().energy);
    EXPECT_EQ(back.value().threads, 2u);
}

TEST(SweepCodec, RoundTripEnumeratedSpaceAndTraceFiles)
{
    SweepRequestSpec spec;
    spec.benchmarks = {Benchmark::Gcc1, Benchmark::Espresso};
    spec.spaceTwoLevel = false;
    spec.traceRefs = 1234;
    spec.traceFiles[Benchmark::Gcc1] = "/tmp/gcc1.trc";
    std::string text = sweepRequestToJson(spec);

    Expected<SweepRequestSpec> back = sweepRequestFromJson(text);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(sweepRequestToJson(back.value()), text);
    EXPECT_FALSE(back.value().explicitConfigs);
    EXPECT_FALSE(back.value().spaceTwoLevel);
    EXPECT_EQ(back.value().traceFiles.at(Benchmark::Gcc1),
              "/tmp/gcc1.trc");
    // The enumerated space materializes to the paper's design space.
    EXPECT_FALSE(back.value().materializeConfigs().empty());
}

TEST(SweepCodec, LegacyBackendFieldsStillDecode)
{
    // Request files written when "evaluator" also named a miss
    // backend keep working, and re-encode to today's canonical form.
    std::string text = sweepRequestToJson(smallSpec());
    std::string legacy =
        corrupt(text, "\"trace_refs\"",
                "\"backend\": \"exact\", \"prune_margin\": 0.02, "
                "\"trace_refs\"");
    Expected<SweepRequestSpec> back = sweepRequestFromJson(legacy);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(sweepRequestToJson(back.value()), text);
    EXPECT_EQ(text.find("backend"), std::string::npos);

    EXPECT_EQ(decodeError(corrupt(text, "\"trace_refs\"",
                                  "\"prune_margin\": -1, "
                                  "\"trace_refs\"")),
              StatusCode::ParseError);
}

TEST(SweepCodec, SchemaTagIsPinned)
{
    std::string text = sweepRequestToJson(smallSpec());
    EXPECT_NE(text.find("\"tlc-sweep-request-v1\""),
              std::string::npos);

    EXPECT_EQ(decodeError("{\"tag\": \"x\"}"),
              StatusCode::VersionMismatch);
    EXPECT_EQ(decodeError(corrupt(text, kRequestSchema,
                                  "tlc-sweep-request-v2")),
              StatusCode::VersionMismatch);
}

TEST(SweepCodec, UnknownFieldsAreNamedErrors)
{
    std::string text = sweepRequestToJson(smallSpec());
    std::string message;
    EXPECT_EQ(decodeError(corrupt(text, "\"tag\"", "\"tags\""),
                          &message),
              StatusCode::ParseError);
    EXPECT_NE(message.find("unknown field 'tags'"), std::string::npos)
        << message;

    EXPECT_EQ(decodeError(corrupt(text, "\"offchip_ns\"",
                                  "\"offchipns\""),
                          &message),
              StatusCode::ParseError);
    EXPECT_NE(message.find("unknown field 'offchipns'"),
              std::string::npos)
        << message;
}

TEST(SweepCodec, RejectsBadValues)
{
    std::string text = sweepRequestToJson(smallSpec());
    EXPECT_EQ(decodeError("not json at all"), StatusCode::ParseError);
    EXPECT_EQ(decodeError(corrupt(text, "\"gcc1\"", "\"gcc99\"")),
              StatusCode::UnknownName);
    EXPECT_EQ(decodeError(corrupt(text, "\"inclusive\"",
                                  "\"sideways\"")),
              StatusCode::UnknownName);
    EXPECT_EQ(decodeError(corrupt(text, "\"trace_refs\"",
                                  "\"backend\": \"analytic\", "
                                  "\"trace_refs\"")),
              StatusCode::UnknownName);
    EXPECT_EQ(decodeError(corrupt(text, "\"threads\": 0",
                                  "\"threads\": 9999")),
              StatusCode::ParseError);
    EXPECT_EQ(decodeError(corrupt(text, "\"warmup_fraction\": 0.1",
                                  "\"warmup_fraction\": 1.5")),
              StatusCode::ParseError);
    EXPECT_EQ(decodeError(corrupt(text, "\"benchmarks\": [\"gcc1\"]",
                                  "\"benchmarks\": []")),
              StatusCode::ParseError);
}

TEST(SweepCodec, ConfigsAndSpaceAreExclusive)
{
    std::string text = sweepRequestToJson(smallSpec());
    std::string both = corrupt(
        text, "\"evaluator\"",
        "\"space\": {\"single_level\": true, \"two_level\": true},\n"
        "  \"evaluator\"");
    EXPECT_EQ(decodeError(both), StatusCode::ParseError);

    SweepRequestSpec enumerated;
    enumerated.benchmarks = {Benchmark::Gcc1};
    std::string empty = corrupt(
        sweepRequestToJson(enumerated),
        "{\"single_level\": true, \"two_level\": true}",
        "{\"single_level\": false, \"two_level\": false}");
    EXPECT_EQ(decodeError(empty), StatusCode::ParseError);
}

// ---------------------------------------------------------------
// SweepService: served == direct, warm == stored.

TEST(SweepService, ResponseMatchesDirectEngineRun)
{
    SweepRequestSpec spec = smallSpec();
    SweepService svc;
    ASSERT_TRUE(svc.init().ok());
    ServiceRun run = svc.run(spec);
    EXPECT_EQ(sweepResponseJson(spec, run.outcome),
              directResponse(spec));
    EXPECT_EQ(run.accounting.pointsPriced, spec.configs.size());
    EXPECT_EQ(run.accounting.failures, 0u);
}

TEST(SweepService, WarmRunServesEveryPointFromTheStore)
{
    SweepRequestSpec spec = smallSpec();
    SweepServiceOptions opts;
    opts.resultStorePath = tempPath("service_store.tlcr");
    SweepService svc(opts);
    ASSERT_TRUE(svc.init().ok());

    ServiceRun cold = svc.run(spec);
    EXPECT_EQ(cold.accounting.storeHits, 0u);
    EXPECT_EQ(cold.accounting.storeMisses, spec.configs.size());
    EXPECT_EQ(cold.accounting.storeAppends, spec.configs.size());

    ServiceRun warm = svc.run(spec);
    EXPECT_EQ(warm.accounting.storeHits, spec.configs.size());
    EXPECT_EQ(warm.accounting.storeMisses, 0u);
    EXPECT_EQ(warm.accounting.storeAppends, 0u);

    // Byte-identity warm vs cold vs standalone: the headline.
    EXPECT_EQ(sweepResponseJson(spec, warm.outcome),
              sweepResponseJson(spec, cold.outcome));
    EXPECT_EQ(sweepResponseJson(spec, warm.outcome),
              directResponse(spec));
    std::remove(opts.resultStorePath.c_str());
}

TEST(SweepService, AccountingEqualsTheRegistryDeltasOfARequestAlone)
{
    // With nothing else running, a request's own counts are exactly
    // what the process-wide counters moved by: cold, then warm, with
    // a repeated benchmark so the memo answers the second sweep.
    MetricsRegistry &reg = MetricsRegistry::global();
    auto counters = [&] {
        return std::vector<std::uint64_t>{
            reg.counter("sweep_cache.hits").value(),
            reg.counter("sweep_cache.misses").value(),
            reg.counter("sweep_cache.appends").value(),
            reg.counter("explore.missrate_cache.hits").value()};
    };
    SweepRequestSpec spec = smallSpec();
    spec.benchmarks = {Benchmark::Gcc1, Benchmark::Gcc1};
    SweepServiceOptions opts;
    opts.resultStorePath = tempPath("service_deltas.tlcr");
    SweepService svc(opts);
    ASSERT_TRUE(svc.init().ok());
    for (const char *pass : {"cold", "warm"}) {
        SCOPED_TRACE(pass);
        const std::vector<std::uint64_t> before = counters();
        const ServiceRun run = svc.run(spec);
        const std::vector<std::uint64_t> after = counters();
        EXPECT_EQ(run.accounting.storeHits, after[0] - before[0]);
        EXPECT_EQ(run.accounting.storeMisses, after[1] - before[1]);
        EXPECT_EQ(run.accounting.storeAppends, after[2] - before[2]);
        EXPECT_EQ(run.accounting.memoHits, after[3] - before[3]);
        EXPECT_EQ(run.accounting.memoHits, spec.configs.size());
    }
    std::remove(opts.resultStorePath.c_str());
}

TEST(SweepService, AccountingIgnoresOtherStoreTraffic)
{
    // A second store ticks sweep_cache.{hits,misses,appends} from the
    // request's progress callback, on the sweep's own threads, while
    // the request runs: none of it may show in the request's counts.
    SweepCache other;
    const std::string otherPath = tempPath("service_other.tlcr");
    ASSERT_TRUE(other.open(otherPath).ok());
    const HierarchyStats stats;
    other.store("seed", stats);
    std::atomic<int> calls{0};
    auto progress = [&](const SweepProgress &) {
        ++calls;
        EXPECT_TRUE(other.lookup("seed").has_value());
        EXPECT_FALSE(other.lookup("absent").has_value());
        other.store("more", stats);
    };

    SweepRequestSpec spec = smallSpec();
    SweepServiceOptions opts;
    opts.resultStorePath = tempPath("service_acct.tlcr");
    SweepService svc(opts);
    ASSERT_TRUE(svc.init().ok());

    ServiceRun cold = svc.run(spec, progress);
    EXPECT_GE(calls.load(), 1); // the final update always fires
    EXPECT_EQ(cold.accounting.storeHits, 0u);
    EXPECT_EQ(cold.accounting.storeMisses, spec.configs.size());
    EXPECT_EQ(cold.accounting.storeAppends, spec.configs.size());
    EXPECT_EQ(cold.accounting.memoHits, 0u);

    calls = 0;
    ServiceRun warm = svc.run(spec, progress);
    EXPECT_GE(calls.load(), 1);
    EXPECT_EQ(warm.accounting.storeHits, spec.configs.size());
    EXPECT_EQ(warm.accounting.storeMisses, 0u);
    EXPECT_EQ(warm.accounting.storeAppends, 0u);
    EXPECT_EQ(warm.accounting.memoHits, 0u);

    other.close();
    std::remove(otherPath.c_str());
    std::remove(opts.resultStorePath.c_str());
}

TEST(SweepService, EnergyRequestsCarryEnergyFields)
{
    SweepRequestSpec spec = smallSpec();
    spec.energy = true;
    SweepService svc;
    ASSERT_TRUE(svc.init().ok());
    ServiceRun run = svc.run(spec);
    ASSERT_EQ(run.outcome.sweeps.size(), 1u);
    const ServedBenchmarkSweep &sw = run.outcome.sweeps[0];
    ASSERT_EQ(sw.energyPerRef.size(), sw.points.size());
    for (double e : sw.energyPerRef)
        EXPECT_GT(e, 0.0);
    EXPECT_FALSE(sw.energyEnvelope.points().empty());

    std::string response = sweepResponseJson(spec, run.outcome);
    EXPECT_NE(response.find("\"energy_eu_per_ref\""),
              std::string::npos);
    EXPECT_NE(response.find("\"energy_envelope\""),
              std::string::npos);

    // The energy-free response for the same sweep has neither field.
    SweepRequestSpec plain = smallSpec();
    std::string bare = directResponse(plain);
    EXPECT_EQ(bare.find("\"energy_eu_per_ref\""), std::string::npos);
    // A served response parses as JSON (the encoder stays valid).
    EXPECT_TRUE(jsonParse(response).ok());
    EXPECT_TRUE(jsonParse(sweepStatsJson(run.accounting)).ok());
}

// ---------------------------------------------------------------
// The live daemon.

TEST(SweepDaemon, ConcurrentClientsGetIdenticalBytes)
{
    SweepRequestSpec spec = smallSpec();
    const std::string request = sweepRequestToJson(spec);
    const std::string expected = directResponse(spec);

    SweepServiceOptions opts;
    opts.resultStorePath = tempPath("daemon_store.tlcr");
    SweepService svc(opts);
    ASSERT_TRUE(svc.init().ok());
    SweepDaemon daemon(svc, tempPath("tlcd_test.sock"));
    ASSERT_TRUE(daemon.start().ok());

    constexpr std::size_t kClients = 3;
    std::vector<ServiceReply> replies(kClients);
    std::vector<std::thread> team;
    for (std::size_t i = 0; i < kClients; ++i) {
        team.emplace_back([&, i] {
            Expected<ServiceReply> r = submitSweepRequest(
                daemon.socketPath(), request);
            ASSERT_TRUE(r.ok()) << r.status().toString();
            replies[i] = std::move(r.value());
        });
    }
    for (auto &t : team)
        t.join();
    for (const ServiceReply &r : replies)
        EXPECT_EQ(r.responseJson, expected);

    // One more client after the rush: everything is in the store.
    Expected<ServiceReply> warm =
        submitSweepRequest(daemon.socketPath(), request);
    ASSERT_TRUE(warm.ok()) << warm.status().toString();
    EXPECT_EQ(warm.value().responseJson, expected);
    Expected<JsonValue> stats = jsonParse(warm.value().statsJson);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().find("store_hits")->asU64().value(),
              spec.configs.size());
    EXPECT_EQ(stats.value().find("store_misses")->asU64().value(), 0u);

    daemon.stop();
    EXPECT_FALSE(std::filesystem::exists(daemon.socketPath()));
    daemon.stop(); // idempotent
    std::remove(opts.resultStorePath.c_str());
}

TEST(SweepDaemon, BadRequestKeepsTheConnectionUsable)
{
    SweepService svc;
    ASSERT_TRUE(svc.init().ok());
    SweepDaemon daemon(svc, tempPath("tlcd_err.sock"));
    ASSERT_TRUE(daemon.start().ok());

    // Raw connection: a garbage frame, then a real request, without
    // reconnecting in between.
    int fd = connectTo(daemon.socketPath());
    ASSERT_GE(fd, 0);

    auto readEvents = [&](auto done) {
        FrameReader frames;
        std::vector<std::string> events;
        char buf[64 * 1024];
        for (int spins = 0; spins < 300; ++spins) {
            pollfd p{fd, POLLIN, 0};
            if (::poll(&p, 1, 200) <= 0)
                continue;
            ssize_t n = ::read(fd, buf, sizeof(buf));
            ASSERT_GT(n, 0);
            ASSERT_TRUE(frames.feed(
                std::string_view(buf, static_cast<std::size_t>(n)),
                [&](std::string_view payload) {
                    events.emplace_back(payload);
                }));
            if (!events.empty() && done(events.back()))
                return;
        }
        FAIL() << "timed out waiting for daemon events";
    };

    ASSERT_TRUE(writeFrame(fd, "this is not a request").ok());
    readEvents([](const std::string &ev) {
        return ev.find("\"error\"") != std::string::npos;
    });

    SweepRequestSpec spec = smallSpec();
    ASSERT_TRUE(writeFrame(fd, sweepRequestToJson(spec)).ok());
    readEvents([](const std::string &ev) {
        return ev.find("\"stats\"") != std::string::npos;
    });

    ::close(fd);
    daemon.stop();
}

TEST(SweepDaemon, FinishedConnectionThreadsAreJoined)
{
    SweepService svc;
    ASSERT_TRUE(svc.init().ok());
    SweepDaemon daemon(svc, tempPath("tlcd_reap.sock"));
    ASSERT_TRUE(daemon.start().ok());

    auto openAndClose = [&] {
        int fd = connectTo(daemon.socketPath());
        ASSERT_GE(fd, 0);
        ::close(fd);
    };
    // Warm up with one connection and give the accept loop a poll
    // tick to join its thread, so the baseline already holds what
    // the allocator and thread library keep after one connection
    // thread has come and gone.
    openAndClose();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::size_t tasks = taskCount();
    const std::size_t maps = mappingCount();

    constexpr int kConnections = 64;
    for (int i = 0; i < kConnections; ++i)
        openAndClose();

    // O(1) slack: the thread library caches a few freed stacks, but
    // 64 unjoined threads would keep 64 stacks (two mappings each).
    bool settled = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!settled && std::chrono::steady_clock::now() < deadline) {
        settled = taskCount() <= tasks + 2 && mappingCount() <= maps + 16;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(settled) << "threads " << tasks << " -> " << taskCount()
                         << ", mappings " << maps << " -> "
                         << mappingCount();
    daemon.stop();
}

} // namespace
