/**
 * @file
 * Process-level worker supervision: run a function in a forked
 * subprocess, stream CRC-framed results back over a pipe, and
 * survive the worker's death.
 *
 * This is the generic half of the fault-isolated sweep engine
 * (core/shard_runner.hh holds the sweep-specific half). It knows
 * nothing about caches or design points; it knows how to
 *
 *  - fork a worker and hand it the write end of a pipe,
 *  - read length-prefixed, CRC-32-guarded frames on the parent side
 *    (a torn or corrupted frame is detected, never acted on),
 *  - do all of it without blocking (WorkerProcess), so that one
 *    thread's poll() loop can supervise many workers at once,
 *  - enforce a watchdog deadline on the whole worker run, escalating
 *    SIGTERM -> SIGKILL when the worker ignores the polite signal,
 *  - classify how the worker ended: clean, killed by a signal
 *    (SIGSEGV, abort), nonzero exit, watchdog timeout, or a protocol
 *    violation (torn tail, bad CRC, absurd frame length),
 *  - compute deterministic exponential-backoff-with-jitter delays
 *    for the retry loop of whoever drives it.
 *
 * The child runs the worker function and _exit()s — it never returns
 * into the caller's stack, never runs atexit handlers, and never
 * flushes the parent's buffered stdio a second time. An exception
 * escaping the worker function exits with a reserved status instead
 * of propagating.
 *
 * Observability: this layer keeps no counters. Whoever drives it
 * tallies the outcomes it reports (core/shard_runner.hh adds them
 * to supervisor.worker.* once per sweep).
 */

#ifndef TLC_UTIL_SUPERVISOR_HH
#define TLC_UTIL_SUPERVISOR_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include <sys/types.h>

#include "util/status.hh"

namespace tlc {

/** Largest frame payload accepted by the parent-side reader; a
 *  declared length beyond this is a protocol violation, not an
 *  allocation. */
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/** Exit status the child uses when the worker function throws. */
constexpr int kWorkerExceptionExit = 113;

/**
 * Write one frame (u32 length, u32 CRC-32 of the payload, payload
 * bytes, all little-endian) to @p fd, retrying short writes and
 * EINTR. Worker-side helper; the parent never writes.
 */
Status writeFrame(int fd, std::string_view payload);

/**
 * Incremental reader for the frame format writeFrame produces: feed
 * it raw bytes as they arrive (from a pipe, a socket, a file tail)
 * and it extracts complete, CRC-valid frames in order. This is the
 * exact codec the worker supervisor speaks on its result pipes,
 * factored out so other transports — the sweep-service daemon's
 * Unix-domain socket (service/daemon.hh) — parse the same bytes the
 * same way.
 *
 * A protocol violation (declared length beyond kMaxFrameBytes, CRC
 * mismatch) poisons the reader: feed() returns false then and on
 * every later call, and no further frames are delivered — corrupt
 * streams are abandoned, never resynchronized.
 */
class FrameReader
{
  public:
    /**
     * Append @p bytes and invoke @p on_frame once per complete
     * CRC-valid frame now available, in order. Returns false on (or
     * after) a protocol violation. on_frame must not throw.
     */
    bool feed(std::string_view bytes,
              const std::function<void(std::string_view payload)>
                  &on_frame);

    /** True when no partial frame is buffered and the stream is
     *  healthy — i.e. an EOF here is a clean end of stream. */
    bool atFrameBoundary() const
    {
        return buffer_.empty() && !poisoned_;
    }

  private:
    std::string buffer_;
    bool poisoned_ = false;
};

/**
 * Async-signal-safe writeFrame: @p scratch must have room for
 * 8 + @p len bytes and is used to assemble the header + payload
 * before one raw write() loop — no allocation, no stdio, table-only
 * CRC. This is the emergency path the crash flight recorder
 * (util/flight_recorder.hh) uses from inside a signal handler;
 * returns false when the frame could not be fully written.
 */
bool writeFrameRaw(int fd, const char *payload, std::size_t len,
                   char *scratch, std::size_t scratch_cap);

/** Watchdog budget of one worker run. */
struct WatchdogSpec
{
    /** Whole-run deadline in seconds; <= 0 disables the watchdog. */
    double timeoutSeconds = 60.0;
    /** Grace between SIGTERM and the SIGKILL escalation. */
    double killGraceSeconds = 0.5;
};

/** How one supervised worker run ended. */
struct WorkerOutcome
{
    enum class Kind {
        Ok,         ///< clean exit 0, no torn bytes
        Crash,      ///< killed by a signal (SIGSEGV, SIGABRT, ...)
        Exit,       ///< exited with a nonzero status
        Timeout,    ///< watchdog expired; worker was killed
        Protocol,   ///< bad CRC / absurd length / torn trailing frame
        ForkFailed  ///< fork or pipe creation itself failed
    };

    Kind kind = Kind::Ok;
    int termSignal = 0; ///< valid for Crash
    int exitStatus = 0; ///< valid for Exit
    /** Human phrase: "killed by signal 11 (Segmentation fault)". */
    std::string detail;

    bool ok() const { return kind == Kind::Ok; }

    /**
     * The failure as a Status: Timeout maps to WorkerTimeout,
     * everything else to WorkerCrash, with @p context prepended to
     * the detail phrase. An Ok outcome asserts — success has no
     * Status to report.
     */
    Status toStatus(const std::string &context) const;
};

/** Short stable name of an outcome kind ("crash", "timeout", ...). */
const char *workerOutcomeKindName(WorkerOutcome::Kind kind);

/**
 * One forked worker under supervision, driven without blocking so
 * that one thread can poll many workers at once (superviseWorker is
 * the loop over a single one). start() forks; afterwards, whenever
 * fd() is readable or deadline() has passed, step() drains the pipe
 * into frames, fires the watchdog (SIGTERM, then SIGKILL after the
 * grace period, draining the pipe in between for a last flight
 * frame), and once the stream has ended reaps and classifies the
 * worker. A handle destroyed with its worker still running SIGKILLs
 * and reaps it, so no path leaves a zombie.
 */
class WorkerProcess
{
  public:
    using Clock = std::chrono::steady_clock;

    WorkerProcess() = default;
    ~WorkerProcess();
    WorkerProcess(const WorkerProcess &) = delete;
    WorkerProcess &operator=(const WorkerProcess &) = delete;

    /**
     * Fork @p worker(write_fd) under @p watchdog. When the pipe or the
     * fork fails the run is over at once: outcome() is ForkFailed and
     * the first step() returns true.
     */
    void start(const std::function<void(int write_fd)> &worker,
               const WatchdogSpec &watchdog);

    /** The read end to poll for input; -1 once the run is over. */
    int fd() const { return fd_; }

    /** When step() must run even without input: the watchdog or the
     *  kill grace expiring, Clock::time_point::max() when neither is
     *  armed, and the past once the run is over. */
    Clock::time_point deadline() const { return deadline_; }

    /**
     * Read what the pipe holds, hand each intact frame to @p on_frame
     * in order, and act on an expired deadline — which also ends the
     * drain, so a worker that keeps its pipe full still meets its
     * watchdog. Never waits for input (only, briefly, for a worker
     * that closed its pipe to exit). Returns true once the worker is
     * reaped and outcome() is
     * final. on_frame runs on the calling thread and must not throw.
     */
    bool step(const std::function<void(std::string_view payload)>
                  &on_frame);

    /** How the run ended; meaningful once step() returned true. */
    const WorkerOutcome &outcome() const { return out_; }

  private:
    /** Close the pipe, reap (SIGKILL after @p grace_seconds), and
     *  file @p kind as the outcome; Ok means "classify how the
     *  worker exited". Returns true. */
    bool finish(WorkerOutcome::Kind kind, double grace_seconds);

    pid_t pid_ = -1;
    int fd_ = -1;
    WatchdogSpec watchdog_;
    Clock::time_point deadline_ = Clock::time_point::min();
    bool terminating_ = false; ///< SIGTERM sent, in the kill grace
    FrameReader frames_;
    WorkerOutcome out_;
};

/** Milliseconds from now until @p t for poll(): 0 once it has
 *  passed (time_point::min() included), -1 (wait for input) for
 *  time_point::max(). */
int pollTimeoutMs(std::chrono::steady_clock::time_point t);

/**
 * Fork, run @p worker(write_fd) in the child, and collect the frames
 * it writes. The parent invokes @p on_frame once per intact frame,
 * in order, while the run is still in flight — a worker that dies
 * halfway still delivers everything it completed. The watchdog
 * covers the whole run: when it expires the worker gets SIGTERM,
 * then SIGKILL after the grace period, and the outcome is Timeout.
 * The child is always reaped before this returns; there are no
 * zombies to collect. A poll() loop over one WorkerProcess.
 *
 * on_frame runs on the calling thread and must not throw.
 */
WorkerOutcome
superviseWorker(const std::function<void(int write_fd)> &worker,
                const WatchdogSpec &watchdog,
                const std::function<void(std::string_view payload)>
                    &on_frame);

/**
 * Deterministic retry pacing: exponential backoff from
 * backoffBaseSeconds, doubling per attempt, capped at
 * backoffMaxSeconds, scaled by a jitter factor in [0.5, 1.0) drawn
 * from a Pcg32 seeded with (seed, key, attempt) — so two supervisors
 * retrying the same shard pick the same waits (reproducible tests)
 * while different shards desynchronize.
 */
struct RetryPolicy
{
    /** Attempts after the first before giving up on a shard. */
    int maxRetries = 2;
    double backoffBaseSeconds = 0.05;
    double backoffMaxSeconds = 2.0;
    std::uint64_t seed = 0x5eedb0ffULL;

    /** Wait before retry number @p attempt (0-based) of @p key. */
    double backoffSeconds(int attempt, std::uint64_t key) const;
};

} // namespace tlc

#endif // TLC_UTIL_SUPERVISOR_HH
