/**
 * @file
 * Worker supervision implementation: fork/pipe plumbing, the framed
 * reader, watchdog escalation, and exit classification.
 */

#include "supervisor.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/crc32.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/wire.hh"

namespace tlc {

namespace {

/** Supervisor metrics, registered once and shared by all sites. */
struct WorkerMetrics
{
    MetricCounter &forks;
    MetricCounter &crashes;
    MetricCounter &timeouts;
    MetricCounter &exits;
    MetricCounter &protocolErrors;

    static WorkerMetrics &get()
    {
        auto &r = MetricsRegistry::global();
        static WorkerMetrics m{
            r.counter("supervisor.worker.forks"),
            r.counter("supervisor.worker.crashes"),
            r.counter("supervisor.worker.timeouts"),
            r.counter("supervisor.worker.exits"),
            r.counter("supervisor.worker.protocol_errors"),
        };
        return m;
    }
};

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * waitpid() in a WNOHANG poll loop for up to @p grace_seconds; true
 * when the child was reaped in time. Avoids SIGCHLD handlers, which
 * would be process-global state this library must not own.
 */
bool
reapWithGrace(pid_t pid, double grace_seconds, int *wstatus)
{
    const double deadline = nowSeconds() + grace_seconds;
    for (;;) {
        pid_t r = waitpid(pid, wstatus, WNOHANG);
        if (r == pid)
            return true;
        if (r < 0 && errno != EINTR)
            return false;
        if (nowSeconds() >= deadline)
            return false;
        usleep(2000);
    }
}

/** SIGTERM, grace, then SIGKILL and a blocking reap. */
int
killAndReap(pid_t pid, double grace_seconds)
{
    int wstatus = 0;
    kill(pid, SIGTERM);
    if (!reapWithGrace(pid, grace_seconds, &wstatus)) {
        kill(pid, SIGKILL);
        while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
        }
    }
    return wstatus;
}

/**
 * Incremental frame extractor over the parent's receive buffer.
 * Consumes complete, CRC-valid frames from the front of @p buf and
 * hands their payloads to @p on_frame; returns false on the first
 * protocol violation (absurd declared length or CRC mismatch).
 */
bool
drainFrames(std::string &buf,
            const std::function<void(std::string_view)> &on_frame)
{
    const auto *base = reinterpret_cast<const unsigned char *>(buf.data());
    std::size_t off = 0;
    bool ok = true;
    while (buf.size() - off >= 8) {
        const std::uint32_t len = getU32le(base + off);
        const std::uint32_t want = getU32le(base + off + 4);
        if (len > kMaxFrameBytes) {
            ok = false;
            break;
        }
        if (buf.size() - off - 8 < len)
            break; // incomplete frame; wait for more bytes
        const char *payload = buf.data() + off + 8;
        if (crc32(payload, len) != want) {
            ok = false;
            break;
        }
        on_frame(std::string_view(payload, len));
        off += 8 + static_cast<std::size_t>(len);
    }
    buf.erase(0, off);
    return ok;
}

} // namespace

bool
FrameReader::feed(std::string_view bytes,
                  const std::function<void(std::string_view payload)>
                      &on_frame)
{
    if (poisoned_)
        return false;
    buffer_.append(bytes.data(), bytes.size());
    if (!drainFrames(buffer_, on_frame)) {
        poisoned_ = true;
        return false;
    }
    return true;
}

Status
writeFrame(int fd, std::string_view payload)
{
    tlc_assert(payload.size() <= kMaxFrameBytes,
               "frame payload exceeds kMaxFrameBytes");
    std::string rec;
    rec.reserve(8 + payload.size());
    putU32le(rec, static_cast<std::uint32_t>(payload.size()));
    putU32le(rec, crc32(payload.data(), payload.size()));
    rec.append(payload);

    std::size_t off = 0;
    while (off < rec.size()) {
        ssize_t n = ::write(fd, rec.data() + off, rec.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return statusf(statusCodeFromErrno(errno),
                           "frame write failed: %s", std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    return Status{};
}

bool
writeFrameRaw(int fd, const char *payload, std::size_t len,
              char *scratch, std::size_t scratch_cap)
{
    if (len > kMaxFrameBytes || scratch_cap < 8 + len)
        return false;
    const std::uint32_t crc = crc32(payload, len);
    for (int i = 0; i < 4; ++i) {
        scratch[i] =
            static_cast<char>((static_cast<std::uint32_t>(len) >>
                               (8 * i)) & 0xff);
        scratch[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    // payload may already live inside scratch (the flight recorder
    // serializes directly at scratch + 8); memmove keeps that legal.
    std::memmove(scratch + 8, payload, len);
    std::size_t off = 0;
    const std::size_t total = 8 + len;
    while (off < total) {
        ssize_t n = ::write(fd, scratch + off, total - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

Status
WorkerOutcome::toStatus(const std::string &context) const
{
    tlc_assert(kind != Kind::Ok, "an Ok outcome has no Status");
    const StatusCode code = kind == Kind::Timeout
                                ? StatusCode::WorkerTimeout
                                : StatusCode::WorkerCrash;
    return statusf(code, "%s: %s", context.c_str(), detail.c_str());
}

const char *
workerOutcomeKindName(WorkerOutcome::Kind kind)
{
    switch (kind) {
    case WorkerOutcome::Kind::Ok:
        return "ok";
    case WorkerOutcome::Kind::Crash:
        return "crash";
    case WorkerOutcome::Kind::Exit:
        return "exit";
    case WorkerOutcome::Kind::Timeout:
        return "timeout";
    case WorkerOutcome::Kind::Protocol:
        return "protocol";
    case WorkerOutcome::Kind::ForkFailed:
        return "fork-failed";
    }
    return "unknown";
}

WorkerOutcome
superviseWorker(const std::function<void(int write_fd)> &worker,
                const WatchdogSpec &watchdog,
                const std::function<void(std::string_view payload)>
                    &on_frame)
{
    WorkerOutcome out;

    int fds[2];
    if (pipe(fds) != 0) {
        out.kind = WorkerOutcome::Kind::ForkFailed;
        out.detail = std::string("pipe failed: ") + std::strerror(errno);
        return out;
    }

    pid_t pid = fork();
    if (pid < 0) {
        out.kind = WorkerOutcome::Kind::ForkFailed;
        out.detail = std::string("fork failed: ") + std::strerror(errno);
        close(fds[0]);
        close(fds[1]);
        return out;
    }

    if (pid == 0) {
        // Child. Only the write end is ours; run the worker and
        // _exit without touching the parent's stdio or atexit state.
        close(fds[0]);
        try {
            worker(fds[1]);
        } catch (...) {
            // A worker that armed the flight recorder still gets its
            // last-known-state frame out before the reserved exit.
            FlightRecorder::global().flushIfArmed(
                FlightRecorder::kReasonException);
            _exit(kWorkerExceptionExit);
        }
        close(fds[1]);
        _exit(0);
    }

    // Parent.
    WorkerMetrics::get().forks.inc();
    close(fds[1]);
    const int rfd = fds[0];
    const bool armed = watchdog.timeoutSeconds > 0;
    const double deadline = nowSeconds() + watchdog.timeoutSeconds;
    FrameReader frames;
    bool frameError = false;

    for (;;) {
        double waitSeconds =
            armed ? deadline - nowSeconds() : 0.25;
        if (armed && waitSeconds <= 0) {
            // Watchdog expired: politely, then firmly — but keep
            // draining the pipe through the grace window, because a
            // worker with an armed flight recorder answers SIGTERM
            // with one last frame of crash context, and dropping it
            // here would blind the quarantine log.
            kill(pid, SIGTERM);
            const double graceDeadline =
                nowSeconds() + watchdog.killGraceSeconds;
            for (;;) {
                const double left = graceDeadline - nowSeconds();
                if (left <= 0)
                    break;
                struct pollfd gfd = {rfd, POLLIN, 0};
                int gr = poll(&gfd, 1,
                              static_cast<int>(left * 1000) + 1);
                if (gr < 0) {
                    if (errno == EINTR)
                        continue;
                    break;
                }
                if (gr == 0)
                    continue;
                char chunk[4096];
                ssize_t n = ::read(rfd, chunk, sizeof chunk);
                if (n <= 0)
                    break; // EOF or error: nothing more to salvage
                if (!frames.feed(std::string_view(
                                     chunk, static_cast<std::size_t>(n)),
                                 on_frame))
                    break; // torn mid-death frame; keep what we have
            }
            close(rfd);
            int wstatus = 0;
            if (!reapWithGrace(pid, 0.05, &wstatus)) {
                kill(pid, SIGKILL);
                while (waitpid(pid, &wstatus, 0) < 0 &&
                       errno == EINTR) {
                }
            }
            out.kind = WorkerOutcome::Kind::Timeout;
            char msg[96];
            std::snprintf(msg, sizeof msg,
                          "worker exceeded %.3gs watchdog and was killed",
                          watchdog.timeoutSeconds);
            out.detail = msg;
            WorkerMetrics::get().timeouts.inc();
            return out;
        }

        struct pollfd pfd = {rfd, POLLIN, 0};
        int timeoutMs = armed
                            ? static_cast<int>(waitSeconds * 1000) + 1
                            : 250;
        int pr = poll(&pfd, 1, timeoutMs);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            close(rfd);
            killAndReap(pid, watchdog.killGraceSeconds);
            out.kind = WorkerOutcome::Kind::Protocol;
            out.detail =
                std::string("poll failed: ") + std::strerror(errno);
            WorkerMetrics::get().protocolErrors.inc();
            return out;
        }
        if (pr == 0)
            continue; // re-check the deadline

        char chunk[4096];
        ssize_t n = ::read(rfd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            n = 0; // treat as EOF; waitpid classifies below
        }
        if (n > 0) {
            if (!frames.feed(std::string_view(
                                 chunk, static_cast<std::size_t>(n)),
                             on_frame)) {
                frameError = true;
                close(rfd);
                killAndReap(pid, watchdog.killGraceSeconds);
                out.kind = WorkerOutcome::Kind::Protocol;
                out.detail = "corrupt frame in worker stream";
                WorkerMetrics::get().protocolErrors.inc();
                return out;
            }
            continue;
        }

        // EOF: the worker closed its pipe (exit or death). Reap and
        // classify. The grace reap covers the tiny window between
        // close-of-pipe and process exit.
        close(rfd);
        int wstatus = 0;
        if (!reapWithGrace(pid, 5.0, &wstatus))
            wstatus = killAndReap(pid, watchdog.killGraceSeconds);

        if (WIFSIGNALED(wstatus)) {
            out.kind = WorkerOutcome::Kind::Crash;
            out.termSignal = WTERMSIG(wstatus);
            char msg[96];
            std::snprintf(msg, sizeof msg,
                          "worker killed by signal %d (%s)",
                          out.termSignal, strsignal(out.termSignal));
            out.detail = msg;
            WorkerMetrics::get().crashes.inc();
            return out;
        }
        if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
            out.kind = WorkerOutcome::Kind::Exit;
            out.exitStatus = WEXITSTATUS(wstatus);
            char msg[96];
            std::snprintf(msg, sizeof msg,
                          "worker exited with status %d%s",
                          out.exitStatus,
                          out.exitStatus == kWorkerExceptionExit
                              ? " (unhandled exception)"
                              : "");
            out.detail = msg;
            WorkerMetrics::get().exits.inc();
            return out;
        }
        if (!frames.atFrameBoundary() || frameError) {
            // Clean exit but torn trailing bytes: the worker lied
            // about being done. Never act on a partial frame.
            out.kind = WorkerOutcome::Kind::Protocol;
            out.detail = "worker exited leaving a torn trailing frame";
            WorkerMetrics::get().protocolErrors.inc();
            return out;
        }
        out.kind = WorkerOutcome::Kind::Ok;
        out.detail = "ok";
        return out;
    }
}

double
RetryPolicy::backoffSeconds(int attempt, std::uint64_t key) const
{
    double d = backoffBaseSeconds;
    for (int i = 0; i < attempt && d < backoffMaxSeconds; ++i)
        d *= 2;
    if (d > backoffMaxSeconds)
        d = backoffMaxSeconds;
    // Deterministic jitter in [0.5, 1.0): reproducible per
    // (seed, key, attempt), decorrelated across shards.
    Pcg32 rng(seed ^ key, 0x9e3779b97f4a7c15ULL ^
                              static_cast<std::uint64_t>(attempt));
    return d * (0.5 + 0.5 * rng.nextDouble());
}

} // namespace tlc
