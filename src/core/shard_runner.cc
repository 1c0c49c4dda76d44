/**
 * @file
 * Shard-runner implementation: the worker-side simulate-and-report
 * loop and the parent-side retry/bisect/quarantine state machine
 * that runs the passes Explorer::evaluateAll planned, recording into
 * its SweepCollector so supervised output stays byte-identical to
 * the worker team's.
 */

#include "shard_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include "util/flight_recorder.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/profiler.hh"
#include "util/trace_event.hh"
#include "util/wire.hh"

namespace tlc {

namespace {

/**
 * Sweep-unique worker attempt serial: the <id> of the telemetry
 * namespace worker.<id>.* and (plus one, the supervisor itself being
 * pid 1) the pid of the attempt's track in the merged trace export.
 * Process-global so ids stay unique across a driver's scenarios.
 */
std::atomic<std::uint32_t> gWorkerSerial{0};

// -----------------------------------------------------------------
// Wire format (payloads of util/supervisor.hh frames)
//
// Result frame: u8 tag=1, u32le global config index, u8 ok;
//   ok   -> encodeHierarchyStats() (core/sweep_cache.hh)
//   fail -> u32le StatusCode, u32le message length, message bytes
// Done frame:   u8 tag=2, u32le result-frame count
//
// Telemetry frames (streamed after results, before Done; all string
// fields are u32le length + bytes):
// Metrics frame: u8 tag=3, u32le counter count, per counter
//   (name, u64le value); u32le gauge count, per gauge (name, u64le
//   IEEE-754 bit pattern of the double value)
// Phases frame:  u8 tag=4, u32le phase count, per phase (name,
//   u64le calls, u64le totalNs, u64le maxNs)
// Events frame:  u8 tag=5, u32le event count, per event (u64le tsUs,
//   u64le durUs, u32le tid, name, category, argsJson); chunked at
//   kEventsPerFrame so a frame stays far below kMaxFrameBytes
// Flight frame:  u8 tag=6, then the flight-recorder payload
//   (util/flight_recorder.hh owns that layout; its first byte is
//   this same tag)
// -----------------------------------------------------------------

constexpr std::uint8_t kTagResult = 1;
constexpr std::uint8_t kTagDone = 2;
constexpr std::uint8_t kTagMetrics = 3;
constexpr std::uint8_t kTagPhases = 4;
constexpr std::uint8_t kTagEvents = 5;
constexpr std::uint8_t kTagFlight = 6;

constexpr std::size_t kEventsPerFrame = 256;

std::string
encodeResult(std::uint32_t index, const Expected<HierarchyStats> &r)
{
    std::string out;
    out.push_back(static_cast<char>(kTagResult));
    putU32le(out, index);
    out.push_back(static_cast<char>(r.ok() ? 1 : 0));
    if (r.ok()) {
        encodeHierarchyStats(out, r.value());
    } else {
        putU32le(out, static_cast<std::uint32_t>(r.status().code()));
        putString(out, r.status().message());
    }
    return out;
}

std::string
encodeDone(std::uint32_t count)
{
    std::string out;
    out.push_back(static_cast<char>(kTagDone));
    putU32le(out, count);
    return out;
}

/** A decoded result frame. */
struct WireResult
{
    std::uint32_t index = 0;
    std::optional<Expected<HierarchyStats>> result;
};

/** A StatusCode from the wire, clamped to the known range. */
StatusCode
clampStatusCode(std::uint32_t raw)
{
    if (raw == 0 ||
        raw > static_cast<std::uint32_t>(StatusCode::WorkerTimeout))
        return StatusCode::InternalError;
    return static_cast<StatusCode>(raw);
}

/** Decode one result-frame payload; false on malformed layout. */
bool
decodeResult(std::string_view payload, WireResult &out)
{
    WireReader r{payload, 1};
    if (payload.empty() ||
        static_cast<std::uint8_t>(payload[0]) != kTagResult ||
        !r.u32(out.index) || r.done())
        return false;
    if (payload[r.off++] != 0) {
        HierarchyStats s;
        if (!decodeHierarchyStats(payload.substr(r.off), s))
            return false;
        out.result.emplace(s);
        return true;
    }
    std::uint32_t code = 0;
    std::string msg;
    if (!r.u32(code) || !r.str(msg) || !r.done())
        return false;
    out.result.emplace(Status(clampStatusCode(code), std::move(msg)));
    return true;
}

/** The worker's metrics-registry snapshot as one frame payload.
 *  Values are absolute, but the worker reset its inherited registry
 *  on entry, so absolute *is* the per-attempt delta. */
std::string
encodeMetricsFrame()
{
    auto &reg = MetricsRegistry::global();
    const auto counters = reg.counterValues();
    const auto gauges = reg.gaugeValues();
    std::string out;
    out.push_back(static_cast<char>(kTagMetrics));
    putU32le(out, static_cast<std::uint32_t>(counters.size()));
    for (const auto &[name, value] : counters) {
        putString(out, name);
        putU64le(out, value);
    }
    putU32le(out, static_cast<std::uint32_t>(gauges.size()));
    for (const auto &[name, value] : gauges) {
        putString(out, name);
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof value);
        std::memcpy(&bits, &value, sizeof bits);
        putU64le(out, bits);
    }
    return out;
}

/**
 * Fold a metrics payload into the global registry: each counter
 * delta once under its own name (the rollup; skipped where the
 * parent registered the name as another kind, which counter() would
 * panic on) and once under @p prefix, each gauge under @p prefix
 * only. False, and nothing merged, when the payload is malformed.
 */
bool
mergeMetricsFrame(std::string_view payload, const std::string &prefix)
{
    WireReader r{payload, 1}; // past the tag byte
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::uint32_t n = 0;
    if (!r.u32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t value = 0;
        if (!r.str(name) || !r.u64(value))
            return false;
        counters.emplace_back(std::move(name), value);
    }
    if (!r.u32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t bits = 0;
        if (!r.str(name) || !r.u64(bits))
            return false;
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof value);
        gauges.emplace_back(std::move(name), value);
    }
    if (!r.done())
        return false;

    auto &reg = MetricsRegistry::global();
    for (const auto &[name, delta] : counters) {
        if (delta == 0)
            continue;
        const auto kind = reg.kindOf(name);
        if (!kind.has_value() || *kind == MetricKind::Counter)
            reg.counter(name).inc(delta);
        reg.counter(prefix + name).inc(delta);
    }
    for (const auto &[name, value] : gauges)
        reg.gauge(prefix + name).set(value);
    return true;
}

std::string
encodePhasesFrame()
{
    const auto phases = Profiler::global().snapshot();
    std::string out;
    out.push_back(static_cast<char>(kTagPhases));
    putU32le(out, static_cast<std::uint32_t>(phases.size()));
    for (const auto &[name, stats] : phases) {
        putString(out, name);
        putU64le(out, stats.calls);
        putU64le(out, stats.totalNs);
        putU64le(out, stats.maxNs);
    }
    return out;
}

/** Merge a phases payload into the global profiler; false, and
 *  nothing merged, when it is malformed. */
bool
mergePhasesFrame(std::string_view payload)
{
    WireReader r{payload, 1};
    std::vector<std::pair<std::string, PhaseStats>> phases;
    std::uint32_t n = 0;
    if (!r.u32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        PhaseStats s;
        if (!r.str(name) || !r.u64(s.calls) || !r.u64(s.totalNs) ||
            !r.u64(s.maxNs))
            return false;
        phases.emplace_back(std::move(name), s);
    }
    if (!r.done())
        return false;
    for (const auto &[name, s] : phases)
        Profiler::global().merge(name, s);
    return true;
}

std::string
encodeEventsFrame(std::span<const TraceEvent> events)
{
    std::string out;
    out.push_back(static_cast<char>(kTagEvents));
    putU32le(out, static_cast<std::uint32_t>(events.size()));
    for (const TraceEvent &e : events) {
        putU64le(out, e.tsUs);
        putU64le(out, e.durUs);
        putU32le(out, e.tid);
        putString(out, e.name);
        putString(out, e.category);
        putString(out, e.argsJson);
    }
    return out;
}

bool
decodeEventsFrame(std::string_view payload, std::vector<TraceEvent> &out)
{
    WireReader r{payload, 1};
    std::uint32_t n = 0;
    if (!r.u32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        TraceEvent e;
        if (!r.u64(e.tsUs) || !r.u64(e.durUs) || !r.u32(e.tid) ||
            !r.str(e.name) || !r.str(e.category) || !r.str(e.argsJson))
            return false;
        out.push_back(std::move(e));
    }
    return r.done();
}

// -----------------------------------------------------------------
// Worker side (runs in the forked child)
// -----------------------------------------------------------------

/** Hang in a SIGTERM-proof way, so the SIGKILL escalation is what
 *  actually ends the worker (the injection tests depend on it). */
[[noreturn]] void
hangForever()
{
    signal(SIGTERM, SIG_IGN);
    for (;;)
        pause();
}

/**
 * The forked worker: arm the flight recorder, simulate the shard's
 * configurations in one pass over the trace the parent loaded before
 * forking (inherited copy on write, so nothing is read again; no
 * memo, no store), report each result as one frame, stream telemetry
 * (metrics deltas, phase stats, trace slices, flight ring), and
 * finish with a Done frame. Injected Crash/Hang faults fire while
 * *reporting* the poisoned point — after the flight recorder has
 * seen its label — so the emergency frame names the exact design
 * point a quarantine can blame.
 */
void
runShardWorker(int write_fd, MissRateEvaluator &ev, Benchmark b,
               const std::vector<SystemConfig> &configs,
               const std::vector<std::uint32_t> &shard,
               const ShardFault &fault)
{
    FlightRecorder &fr = FlightRecorder::global();
    fr.reset();
    fr.setPhase("startup");
    fr.note("shard [%u..%u): %zu point(s)", shard.front(),
            shard.back() + 1, shard.size());
    fr.armEmergency(write_fd, kTagFlight);

    if (fault.kind == ShardFault::Kind::ExitEarly)
        _exit(3);

    // The fork inherited copy-on-write snapshots of the parent's
    // metrics registry and profiler; reset both so the absolute
    // values this worker streams back are pure per-attempt deltas.
    MetricsRegistry::global().resetAll();
    Profiler::global().reset();

    // A worker-local trace recorder on the parent's epoch (steady
    // clock is system-wide, so child slices land directly on the
    // parent timeline), active only when the parent was recording.
    TraceEventRecorder *parentRec = TraceEventRecorder::active();
    std::unique_ptr<TraceEventRecorder> rec;
    if (parentRec) {
        rec = std::make_unique<TraceEventRecorder>(parentRec->epoch());
        TraceEventRecorder::setActive(rec.get());
    }
    auto slice = [&rec](const char *name, const char *cat,
                        TraceEventRecorder::Clock::time_point begin) {
        if (rec)
            rec->complete(name, cat, begin,
                          TraceEventRecorder::Clock::now(), 0);
    };
    auto now = [&rec] {
        return rec ? TraceEventRecorder::Clock::now()
                   : TraceEventRecorder::Clock::time_point{};
    };

    std::vector<SystemConfig> shardConfigs;
    shardConfigs.reserve(shard.size());
    for (std::uint32_t idx : shard)
        shardConfigs.push_back(configs[idx]);

    fr.setPhase("sim.batch");
    fr.note("sim.batch: %zu config(s)", shardConfigs.size());
    auto simBegin = now();
    std::vector<Expected<HierarchyStats>> miss =
        ev.simulateMissStats(b, shardConfigs);
    slice("sim.batch", "worker", simBegin);
    fr.note("sim.batch done");

    fr.setPhase("report");
    auto reportBegin = now();
    std::uint32_t sent = 0;
    for (std::size_t i = 0; i < shard.size(); ++i) {
        fr.setPoint(configs[shard[i]].label().c_str());
        if (shard[i] == fault.atIndex) {
            if (fault.kind == ShardFault::Kind::Crash) {
                // Through the armed handler: the emergency frame
                // carries this point's label before SIGSEGV kills
                // the process for real.
                raise(SIGSEGV);
            }
            if (fault.kind == ShardFault::Kind::Hang) {
                // A real hang never reaches a flush, but the drill
                // must exercise the frame path deterministically;
                // hangForever() then ignores SIGTERM so the
                // SIGKILL escalation still gets tested.
                fr.flush(write_fd, kTagFlight,
                         FlightRecorder::kReasonHang);
                hangForever();
            }
        }
        if (fault.kind == ShardFault::Kind::PartialWrite &&
            shard[i] >= fault.atIndex) {
            // Tear the stream mid-frame: a header promising 64
            // payload bytes, then 4 bytes of nothing, then death.
            std::string torn;
            putU32le(torn, 64);
            putU32le(torn, 0xdeadbeefu);
            torn.append("torn");
            ssize_t ignored =
                ::write(write_fd, torn.data(), torn.size());
            (void)ignored;
            _exit(1);
        }
        if (!writeFrame(write_fd, encodeResult(shard[i], miss[i])).ok())
            _exit(4); // parent gone; nothing sensible left to do
        ++sent;
    }
    slice("report", "worker", reportBegin);

    // Results are out; now the telemetry tail. Deactivate the
    // recorder first so the telemetry frames don't record themselves.
    fr.setPhase("telemetry");
    if (rec)
        TraceEventRecorder::setActive(nullptr);
    if (!writeFrame(write_fd, encodeMetricsFrame()).ok())
        _exit(4);
    if (!writeFrame(write_fd, encodePhasesFrame()).ok())
        _exit(4);
    if (rec) {
        const std::vector<TraceEvent> events = rec->snapshot();
        for (std::size_t lo = 0; lo < events.size();
             lo += kEventsPerFrame) {
            const std::size_t hi =
                std::min(lo + kEventsPerFrame, events.size());
            if (!writeFrame(write_fd,
                            encodeEventsFrame(std::span<const TraceEvent>(
                                events.data() + lo, hi - lo)))
                     .ok())
                _exit(4);
        }
    }
    fr.setPhase("done");
    fr.flush(write_fd, kTagFlight, FlightRecorder::kReasonClean);
    fr.disarm();
    if (!writeFrame(write_fd, encodeDone(sent)).ok())
        _exit(4);
}

// -----------------------------------------------------------------
// Parent side
// -----------------------------------------------------------------

/**
 * The retry/bisect/quarantine state machine of one supervised sweep,
 * on one thread. The plan's bins run side by side, one forked worker
 * each, under one poll() loop. A bin works through a queue of shards
 * (its planned passes, with the halves of a bisected one pushed to
 * the front), and a retry waits out its backoff as a not-before time
 * instead of a sleep, so a bin in backoff or stuck on a hung worker
 * never holds back the others. Each shard is named by its first
 * design-point index, and each result frame or quarantine is
 * recorded in the collector as it arrives.
 */
class ShardSupervisor
{
  public:
    using Clock = WorkerProcess::Clock;

    /** Adds to @p out, whose fault firings bound @p opts' faults
     *  across every sweep it tallies. */
    ShardSupervisor(MissRateEvaluator &ev, Benchmark b,
                    const std::vector<SystemConfig> &configs,
                    const SupervisorOptions &opts,
                    SweepCollector &collector, SupervisedSweep &out)
        : ev_(ev), bench_(b), configs_(configs), opts_(opts),
          collector_(collector), out_(out), start_(Clock::now())
    {
        out_.faultsFired.resize(opts.faults.faults.size());
    }

    /** Run @p plan's passes over @p pending's lanes as shards, then
     *  add what it took to the tally (timeline in plan order: bin,
     *  then pass, a bisected shard before its halves). */
    void run(const MissResolution &pending, const std::vector<SweepBin> &plan)
    {
        laneOf_.assign(configs_.size(), kNoLane);
        for (std::size_t lane = 0; lane < pending.lanes.size(); ++lane)
            laneOf_[pending.slots[lane].front()] = lane;
        bins_ = std::vector<Bin>(plan.size());
        for (std::size_t bi = 0; bi < plan.size(); ++bi) {
            for (const SweepPass &pass : plan[bi].passes) {
                Job job;
                for (std::size_t lane : pass.indices)
                    job.pending.push_back(static_cast<std::uint32_t>(
                        pending.slots[lane].front()));
                bins_[bi].queue.push_back(std::move(job));
            }
        }
        while (pollOnce()) {
        }
        for (Bin &bin : bins_) {
            out_.timeline.insert(
                out_.timeline.end(),
                std::make_move_iterator(bin.timeline.begin()),
                std::make_move_iterator(bin.timeline.end()));
        }
        // The registry's supervisor.* counters are this tally's
        // running sum, added once per sweep.
        const std::pair<const char *, std::uint64_t> sums[] = {
            {"supervisor.sweeps", 1},
            {"supervisor.shards", stats_.shards},
            {"supervisor.retries", stats_.retries},
            {"supervisor.bisections", stats_.bisections},
            {"supervisor.quarantined", stats_.quarantined},
            {"supervisor.backoff_waits", stats_.backoffWaits},
            {"supervisor.worker.forks", stats_.attempts},
            {"supervisor.worker.crashes", stats_.crashes},
            {"supervisor.worker.timeouts", stats_.timeouts},
            {"supervisor.worker.exits", stats_.exits},
            {"supervisor.worker.protocol_errors", stats_.protocolErrors},
            {"supervisor.telemetry.metric_frames", stats_.metricFrames},
            {"supervisor.telemetry.phase_frames", stats_.phaseFrames},
            {"supervisor.telemetry.event_frames", stats_.eventFrames},
            {"supervisor.telemetry.flight_frames", stats_.flightFrames}};
        for (const auto &[name, n] : sums)
            MetricsRegistry::global().counter(name).inc(n);
        out_.stats.accumulate(stats_);
    }

  private:
    /** A shard waiting in, or running from, the front of its bin's
     *  queue. */
    struct Job
    {
        std::vector<std::uint32_t> pending; ///< indices not yet recorded
        std::size_t timeline = 0; ///< its bin's entry, once launched
        int attempt = 0;          ///< attempts so far
        Clock::time_point notBefore{}; ///< end of the retry backoff
    };

    /** One worker launch and what its frames have said so far. */
    struct Attempt
    {
        WorkerProcess worker;
        ShardAttempt rec;
        std::uint32_t first = 0, end = 0; ///< the shard it runs
        int number = 0;                   ///< 0-based attempt
        bool doneSeen = false;
        bool badFrame = false;
        std::optional<FlightInfo> flight;
        TraceEventRecorder::Clock::time_point begin;
    };

    /** One planned bin: its shard queue and running attempt. */
    struct Bin
    {
        std::deque<Job> queue;
        std::unique_ptr<Attempt> running; ///< runs queue.front()
        std::vector<ShardTimeline> timeline;
    };

    /**
     * Launch what may start, wait for input or the nearest deadline
     * (watchdog, kill grace or backoff), and conclude every attempt
     * that ended. False once every bin is empty.
     */
    bool pollOnce()
    {
        const Clock::time_point now = Clock::now();
        Clock::time_point wake = Clock::time_point::max();
        std::vector<struct pollfd> fds;
        bool busy = false;
        for (Bin &bin : bins_) {
            if (!bin.running && !bin.queue.empty() &&
                bin.queue.front().notBefore <= now)
                launch(bin);
            if (bin.running) {
                fds.push_back({bin.running->worker.fd(), POLLIN, 0});
                wake = std::min(wake, bin.running->worker.deadline());
            } else if (!bin.queue.empty()) {
                wake = std::min(wake, bin.queue.front().notBefore);
            }
            busy = busy || !bin.queue.empty();
        }
        if (!busy)
            return false;
        // EINTR, input or a deadline: each step() sorts out its own.
        (void)poll(fds.data(), fds.size(), pollTimeoutMs(wake));
        for (std::size_t bi = 0; bi < bins_.size(); ++bi) {
            Bin &bin = bins_[bi];
            if (bin.running &&
                bin.running->worker.step([&](std::string_view payload) {
                    onFrame(*bin.running, payload);
                }))
                conclude(bin, bi);
        }
        return true;
    }

    /** The armed fault of @p shard, if any (None kind otherwise). */
    ShardFault armFault(const std::vector<std::uint32_t> &shard)
    {
        for (std::size_t f = 0; f < opts_.faults.faults.size(); ++f) {
            const ShardFault &fault = opts_.faults.faults[f];
            if (fault.kind == ShardFault::Kind::None)
                continue;
            if (fault.times >= 0 && out_.faultsFired[f] >= fault.times)
                continue;
            if (std::find(shard.begin(), shard.end(), fault.atIndex) ==
                shard.end())
                continue;
            ++out_.faultsFired[f];
            return fault;
        }
        return ShardFault{};
    }

    /** Fork a worker over the front shard of @p bin; a shard's first
     *  launch enters it in the bin's timeline. */
    void launch(Bin &bin)
    {
        Job &job = bin.queue.front();
        if (job.attempt == 0) {
            ++stats_.shards;
            job.timeline = bin.timeline.size();
            ShardTimeline tl;
            tl.firstIndex = job.pending.front();
            tl.count = static_cast<std::uint32_t>(job.pending.size());
            bin.timeline.push_back(std::move(tl));
        }
        ++stats_.attempts;
        bin.running = std::make_unique<Attempt>();
        Attempt &at = *bin.running;
        at.rec.workerId = ++gWorkerSerial;
        at.rec.startSeconds = elapsedSeconds();
        at.first = job.pending.front();
        at.end = job.pending.back() + 1;
        at.number = job.attempt;
        at.begin = TraceEventRecorder::Clock::now();
        const ShardFault fault = armFault(job.pending);
        at.worker.start(
            [&](int fd) {
                runShardWorker(fd, ev_, bench_, configs_, job.pending,
                               fault);
            },
            opts_.watchdog);
    }

    /**
     * One frame of @p at's worker. Results from intact frames are
     * kept even when the attempt as a whole fails — a crash after
     * reporting 30 of 32 points leaves only 2 to re-run — and so is
     * the telemetry that made it out: metric deltas roll up, phase
     * stats merge, trace slices land under this attempt's pid, and
     * the flight frame (if any) is kept for the timeline and the
     * quarantine log.
     */
    void onFrame(Attempt &at, std::string_view payload)
    {
        const std::uint32_t workerId = at.rec.workerId;
        if (payload.empty()) {
            at.badFrame = true;
            return;
        }
        switch (static_cast<std::uint8_t>(payload[0])) {
        case kTagDone:
            at.doneSeen = payload.size() == 5;
            at.badFrame = at.badFrame || payload.size() != 5;
            return;
        case kTagResult: {
            WireResult wr;
            if (!decodeResult(payload, wr) || wr.index >= configs_.size() ||
                laneOf_[wr.index] == kNoLane) {
                at.badFrame = true;
                return;
            }
            if (!collector_.has(wr.index))
                collector_.recordLane(laneOf_[wr.index], *wr.result);
            ++at.rec.resultsDelivered;
            return;
        }
        case kTagMetrics:
            // Rolled up, and under the worker's own namespace.
            if (!mergeMetricsFrame(payload, "worker." +
                                                std::to_string(workerId) +
                                                ".")) {
                at.badFrame = true;
                return;
            }
            ++stats_.metricFrames;
            return;
        case kTagPhases:
            if (!mergePhasesFrame(payload)) {
                at.badFrame = true;
                return;
            }
            ++stats_.phaseFrames;
            return;
        case kTagEvents: {
            std::vector<TraceEvent> events;
            if (!decodeEventsFrame(payload, events)) {
                at.badFrame = true;
                return;
            }
            ++stats_.eventFrames;
            if (TraceEventRecorder *r = TraceEventRecorder::active()) {
                char name[96];
                std::snprintf(name, sizeof name,
                              "worker %u: shard [%u..%u) attempt %d",
                              workerId, at.first, at.end, at.number + 1);
                r->import(events, workerId + 1, name);
            }
            return;
        }
        case kTagFlight: {
            FlightInfo info;
            if (!FlightRecorder::decodePayload(payload, kTagFlight, info)) {
                at.badFrame = true;
                return;
            }
            ++stats_.flightFrames;
            at.flight = std::move(info);
            return;
        }
        default:
            at.badFrame = true;
        }
    }

    /**
     * The attempt of @p bin (number @p bi) has ended: file it in the
     * timeline, then finish its shard, schedule the retry after the
     * backoff, or give up on what is left.
     */
    void conclude(Bin &bin, std::size_t bi)
    {
        const std::unique_ptr<Attempt> at = std::move(bin.running);
        Job &job = bin.queue.front();
        WorkerOutcome outcome = at->worker.outcome();
        ShardAttempt &rec = at->rec;
        rec.durationSeconds = elapsedSeconds() - rec.startSeconds;
        if (Profiler::global().enabled()) {
            Profiler::global().record(
                phase::kSupervisorShard,
                static_cast<std::uint64_t>(rec.durationSeconds * 1e9));
        }
        if (TraceEventRecorder *r = TraceEventRecorder::active()) {
            char name[96];
            std::snprintf(name, sizeof name, "shard [%u..%u) worker %u: %s",
                          at->first, at->end, rec.workerId,
                          workerOutcomeKindName(outcome.kind));
            r->complete(name, "supervisor", at->begin,
                        TraceEventRecorder::Clock::now(),
                        static_cast<std::uint32_t>(bi));
        }

        if (outcome.ok() && (at->badFrame || !at->doneSeen)) {
            // The pipe closed cleanly but the conversation did not
            // finish — treat like any other protocol violation.
            outcome.kind = WorkerOutcome::Kind::Protocol;
            outcome.detail = at->badFrame
                                 ? "worker sent a malformed frame"
                                 : "worker exited without a Done frame";
        }
        switch (outcome.kind) {
        case WorkerOutcome::Kind::Ok:
            break;
        case WorkerOutcome::Kind::Crash:
            ++stats_.crashes;
            break;
        case WorkerOutcome::Kind::Timeout:
            ++stats_.timeouts;
            break;
        case WorkerOutcome::Kind::Exit:
            ++stats_.exits;
            break;
        case WorkerOutcome::Kind::Protocol:
        case WorkerOutcome::Kind::ForkFailed:
            ++stats_.protocolErrors;
            break;
        }
        rec.outcome = workerOutcomeKindName(outcome.kind);
        rec.detail = outcome.detail;
        if (at->flight.has_value()) {
            rec.flightReason = FlightRecorder::reasonName(at->flight->reason);
            rec.flightPoint = at->flight->point;
            rec.flightPhase = at->flight->phase;
        }
        ShardTimeline &tl = bin.timeline[job.timeline];
        tl.attempts.push_back(std::move(rec));

        job.pending = unresolvedOf(job.pending);
        if (job.pending.empty()) {
            tl.resolution = "ok";
            bin.queue.pop_front();
            return;
        }
        if (job.attempt == std::max(0, opts_.retry.maxRetries)) {
            tl.resolution =
                job.pending.size() == 1 ? "quarantined" : "bisected";
            const std::vector<std::uint32_t> rest = std::move(job.pending);
            bin.queue.pop_front();
            giveUp(bin, rest, outcome, at->flight);
            return;
        }
        ++stats_.retries;
        const double wait =
            opts_.retry.backoffSeconds(job.attempt, tl.firstIndex);
        ++stats_.backoffWaits;
        stats_.backoffSeconds += wait;
        tl.attempts.back().backoffSeconds = wait;
        if (Profiler::global().enabled()) {
            Profiler::global().record(phase::kSupervisorBackoff,
                                      static_cast<std::uint64_t>(wait * 1e9));
        }
        job.notBefore =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(wait));
        ++job.attempt;
    }

    std::vector<std::uint32_t>
    unresolvedOf(const std::vector<std::uint32_t> &shard) const
    {
        std::vector<std::uint32_t> out;
        for (std::uint32_t idx : shard)
            if (!collector_.has(idx))
                out.push_back(idx);
        return out;
    }

    double elapsedSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /** Out of retries: quarantine the point, or split the shard and
     *  queue both halves next in @p bin. @p flight is the last
     *  attempt's flight frame, if it sent one. */
    void giveUp(Bin &bin, const std::vector<std::uint32_t> &pending,
                const WorkerOutcome &outcome,
                const std::optional<FlightInfo> &flight)
    {
        if (pending.size() == 1) {
            const std::uint32_t idx = pending.front();
            ++stats_.quarantined;
            // The flight recorder says what the worker was doing
            // when it died; put that in the quarantine entry so the
            // report explains *why*, not just which point.
            std::string flightCtx;
            if (flight.has_value() &&
                (!flight->point.empty() || !flight->phase.empty())) {
                flightCtx = "; flight recorder (";
                flightCtx += FlightRecorder::reasonName(flight->reason);
                flightCtx += "): last point '";
                flightCtx += flight->point;
                flightCtx += "' in phase '";
                flightCtx += flight->phase;
                flightCtx += "'";
            }
            char context[64];
            std::snprintf(context, sizeof context,
                          "point quarantined after %d attempt(s)",
                          1 + std::max(0, opts_.retry.maxRetries));
            const Status died = outcome.toStatus(context);
            collector_.recordLane(
                laneOf_[idx], Status(died.code(), died.message() + flightCtx));
            warn("supervisor: quarantined design point %s (%s%s)",
                 configs_[idx].label().c_str(), outcome.detail.c_str(),
                 flightCtx.c_str());
            return;
        }
        // The shard keeps killing workers and we cannot tell which
        // point is poisoned: split it and give each half a fresh
        // retry budget. log2(points) rounds isolate one bad point.
        ++stats_.bisections;
        const std::size_t mid = pending.size() / 2;
        Job lo, hi;
        lo.pending.assign(pending.begin(), pending.begin() + mid);
        hi.pending.assign(pending.begin() + mid, pending.end());
        bin.queue.push_front(std::move(hi));
        bin.queue.push_front(std::move(lo));
    }

    static constexpr std::size_t kNoLane = ~std::size_t{0};

    MissRateEvaluator &ev_;
    Benchmark bench_;
    const std::vector<SystemConfig> &configs_;
    const SupervisorOptions &opts_;
    SweepCollector &collector_;
    std::vector<std::size_t> laneOf_; ///< first index -> pending lane
    std::vector<Bin> bins_;
    SupervisedSweep &out_;
    SupervisionStats stats_;
    Clock::time_point start_;
};

} // namespace

void
superviseBins(MissRateEvaluator &ev, Benchmark b,
              const std::vector<SystemConfig> &configs,
              const MissResolution &pending,
              const std::vector<SweepBin> &bins,
              const SupervisorOptions &opts, SweepCollector &collector,
              SupervisedSweep &supervision)
{
    ShardSupervisor(ev, b, configs, opts, collector, supervision)
        .run(pending, bins);
}

SupervisedSweep
supervisedEvaluateAll(Explorer &ex, Benchmark b,
                      const std::vector<SystemConfig> &configs,
                      FailureReport *report,
                      const SupervisorOptions &opts)
{
    tlc_assert(report != nullptr,
               "supervisedEvaluateAll requires a FailureReport: "
               "process isolation exists to keep going fail-soft");
    SupervisedSweep out;
    out.points = ex.sweepBody(b, configs, report, &opts, &out).points;
    return out;
}

void
SupervisionStats::accumulate(const SupervisionStats &other)
{
    shards += other.shards;
    attempts += other.attempts;
    retries += other.retries;
    crashes += other.crashes;
    timeouts += other.timeouts;
    exits += other.exits;
    protocolErrors += other.protocolErrors;
    bisections += other.bisections;
    quarantined += other.quarantined;
    backoffWaits += other.backoffWaits;
    backoffSeconds += other.backoffSeconds;
    metricFrames += other.metricFrames;
    phaseFrames += other.phaseFrames;
    eventFrames += other.eventFrames;
    flightFrames += other.flightFrames;
}

std::string
supervisorTimelinesJson(const SupervisionStats &stats,
                        const std::vector<ShardTimeline> &timeline)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"shards_resolved\": " << stats.shards << ",\n"
       << "  \"worker_launches\": " << stats.attempts << ",\n"
       << "  \"retries\": " << stats.retries << ",\n"
       << "  \"crashes\": " << stats.crashes << ",\n"
       << "  \"timeouts\": " << stats.timeouts << ",\n"
       << "  \"exits\": " << stats.exits << ",\n"
       << "  \"protocol_errors\": " << stats.protocolErrors << ",\n"
       << "  \"bisections\": " << stats.bisections << ",\n"
       << "  \"quarantined\": " << stats.quarantined << ",\n"
       << "  \"backoff_waits\": " << stats.backoffWaits << ",\n"
       << "  \"backoff_seconds\": " << jsonNumber(stats.backoffSeconds)
       << ",\n"
       << "  \"metric_frames\": " << stats.metricFrames << ",\n"
       << "  \"phase_frames\": " << stats.phaseFrames << ",\n"
       << "  \"event_frames\": " << stats.eventFrames << ",\n"
       << "  \"flight_frames\": " << stats.flightFrames << ",\n"
       << "  \"shards\": [";
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        const ShardTimeline &tl = timeline[i];
        os << (i ? ",\n" : "\n") << "    {\n"
           << "      \"first_index\": " << tl.firstIndex << ",\n"
           << "      \"count\": " << tl.count << ",\n"
           << "      \"resolution\": " << jsonQuote(tl.resolution)
           << ",\n"
           << "      \"attempts\": [";
        for (std::size_t a = 0; a < tl.attempts.size(); ++a) {
            const ShardAttempt &at = tl.attempts[a];
            os << (a ? ",\n" : "\n") << "        {"
               << "\"worker\": " << at.workerId
               << ", \"outcome\": " << jsonQuote(at.outcome)
               << ", \"detail\": " << jsonQuote(at.detail)
               << ", \"start_seconds\": "
               << jsonNumber(at.startSeconds)
               << ", \"duration_seconds\": "
               << jsonNumber(at.durationSeconds)
               << ", \"results\": " << at.resultsDelivered
               << ", \"backoff_seconds\": "
               << jsonNumber(at.backoffSeconds)
               << ", \"flight_reason\": " << jsonQuote(at.flightReason)
               << ", \"flight_point\": " << jsonQuote(at.flightPoint)
               << ", \"flight_phase\": " << jsonQuote(at.flightPhase)
               << "}";
        }
        os << (tl.attempts.empty() ? "]\n" : "\n      ]\n")
           << "    }";
    }
    os << (timeline.empty() ? "]\n" : "\n  ]\n") << "}";
    return os.str();
}

bool
supervisorOptionsFromArgs(const ArgParser &args, SupervisorOptions *out)
{
    const std::string mode = args.getString("isolate", "none");
    if (mode != "none" && mode != "process") {
        fatal("--isolate must be 'process' or 'none' (got '%s')",
              mode.c_str());
    }
    // Range-check before narrowing: a negative count must not wrap
    // into a huge shard or an index no worker ever reaches.
    auto intIn = [&](const char *key, std::int64_t def, std::int64_t lo,
                     std::int64_t hi) {
        const std::int64_t v = args.getInt(key, def);
        if (v < lo || v > hi) {
            fatal("--%s=%lld out of range [%lld, %lld]", key,
                  static_cast<long long>(v), static_cast<long long>(lo),
                  static_cast<long long>(hi));
        }
        return v;
    };
    constexpr std::int64_t kU32Max = 0xffffffffll;
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    out->pointsPerShard =
        static_cast<std::size_t>(intIn("shard-points", 32, 1, kU32Max));
    out->watchdog.timeoutSeconds = args.getDouble("shard-timeout", 60.0);
    out->retry.maxRetries =
        static_cast<int>(intIn("max-retries", 2, 0, kIntMax));

    const int times =
        static_cast<int>(intIn("inject-times", -1, -1, kIntMax));
    auto inject = [&](const char *key, ShardFault::Kind kind) {
        if (!args.has(key))
            return;
        ShardFault f;
        f.kind = kind;
        f.atIndex = static_cast<std::uint32_t>(intIn(key, 0, 0, kU32Max));
        f.times = times;
        out->faults.faults.push_back(f);
    };
    inject("inject-crash-at", ShardFault::Kind::Crash);
    inject("inject-hang-at", ShardFault::Kind::Hang);
    inject("inject-partial-at", ShardFault::Kind::PartialWrite);
    return mode == "process";
}

} // namespace tlc
