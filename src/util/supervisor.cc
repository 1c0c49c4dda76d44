/**
 * @file
 * Worker supervision implementation: fork/pipe plumbing, the framed
 * reader, watchdog escalation, and exit classification.
 */

#include "supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/crc32.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/wire.hh"

namespace tlc {

namespace {

/** Now plus @p seconds, saturating at time_point::max(). */
WorkerProcess::Clock::time_point
after(double seconds)
{
    using Clock = WorkerProcess::Clock;
    if (seconds >= 1e9)
        return Clock::time_point::max();
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/**
 * waitpid() in a WNOHANG poll loop for up to @p grace_seconds; true
 * when the child was reaped in time. Avoids SIGCHLD handlers, which
 * would be process-global state this library must not own.
 */
bool
reapWithGrace(pid_t pid, double grace_seconds, int *wstatus)
{
    const auto deadline = after(grace_seconds);
    for (;;) {
        pid_t r = waitpid(pid, wstatus, WNOHANG);
        if (r == pid)
            return true;
        if (r < 0 && errno != EINTR)
            return false;
        if (WorkerProcess::Clock::now() >= deadline)
            return false;
        usleep(2000);
    }
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

WorkerProcess::~WorkerProcess()
{
    if (fd_ >= 0)
        close(fd_);
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
        }
    }
}

void
WorkerProcess::start(const std::function<void(int write_fd)> &worker,
                     const WatchdogSpec &watchdog)
{
    tlc_assert(pid_ < 0 && fd_ < 0, "WorkerProcess started twice");
    watchdog_ = watchdog;

    int fds[2];
    if (pipe(fds) != 0) {
        out_.kind = WorkerOutcome::Kind::ForkFailed;
        out_.detail = std::string("pipe failed: ") + std::strerror(errno);
        return;
    }

    pid_t pid = fork();
    if (pid < 0) {
        out_.kind = WorkerOutcome::Kind::ForkFailed;
        out_.detail = std::string("fork failed: ") + std::strerror(errno);
        close(fds[0]);
        close(fds[1]);
        return;
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

    // Parent. The write end is closed before any other fork, so the
    // pipe reads EOF exactly when this worker is gone.
    close(fds[1]);
    fcntl(fds[0], F_SETFL, fcntl(fds[0], F_GETFL) | O_NONBLOCK);
    pid_ = pid;
    fd_ = fds[0];
    deadline_ = watchdog.timeoutSeconds > 0 ? after(watchdog.timeoutSeconds)
                                            : Clock::time_point::max();
}

bool
WorkerProcess::step(const std::function<void(std::string_view payload)>
                        &on_frame)
{
    if (fd_ < 0)
        return true;
    for (;;) {
        char chunk[16384];
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n > 0) {
            if (frames_.feed(std::string_view(
                                 chunk, static_cast<std::size_t>(n)),
                             on_frame)) {
                // A worker that keeps its pipe full must not starve
                // the watchdog: an expired deadline ends the drain.
                if (Clock::now() >= deadline_)
                    break;
                continue;
            }
            // A corrupt frame: act on nothing after it. Inside the
            // kill grace that is a torn mid-death frame, and the
            // watchdog's verdict stands.
            return terminating_
                       ? finish(WorkerOutcome::Kind::Timeout, 0.05)
                       : finish(WorkerOutcome::Kind::Protocol, 0.0);
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // EOF (or a read error): the worker closed its pipe by
        // exiting or dying. The grace reap covers the tiny window
        // between close-of-pipe and process exit.
        return terminating_ ? finish(WorkerOutcome::Kind::Timeout, 0.05)
                            : finish(WorkerOutcome::Kind::Ok, 5.0);
    }
    if (Clock::now() < deadline_)
        return false;
    if (terminating_)
        return finish(WorkerOutcome::Kind::Timeout, 0.05);
    // Watchdog expired: politely, then firmly — but keep draining the
    // pipe through the grace window, because a worker with an armed
    // flight recorder answers SIGTERM with one last frame of crash
    // context, and dropping it here would blind the quarantine log.
    kill(pid_, SIGTERM);
    terminating_ = true;
    deadline_ = after(watchdog_.killGraceSeconds);
    return false;
}

bool
WorkerProcess::finish(WorkerOutcome::Kind kind, double grace_seconds)
{
    close(fd_);
    fd_ = -1;
    deadline_ = Clock::time_point::min();
    int wstatus = 0;
    if (!reapWithGrace(pid_, grace_seconds, &wstatus)) {
        kill(pid_, SIGKILL);
        while (waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
        }
    }
    pid_ = -1;

    char msg[96];
    switch (kind) {
    case WorkerOutcome::Kind::Timeout:
        out_.kind = kind;
        std::snprintf(msg, sizeof msg,
                      "worker exceeded %.3gs watchdog and was killed",
                      watchdog_.timeoutSeconds);
        out_.detail = msg;
        return true;
    case WorkerOutcome::Kind::Protocol:
        out_.kind = kind;
        out_.detail = "corrupt frame in worker stream";
        return true;
    default:
        break;
    }
    if (WIFSIGNALED(wstatus)) {
        out_.kind = WorkerOutcome::Kind::Crash;
        out_.termSignal = WTERMSIG(wstatus);
        std::snprintf(msg, sizeof msg, "worker killed by signal %d (%s)",
                      out_.termSignal, strsignal(out_.termSignal));
        out_.detail = msg;
        return true;
    }
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
        out_.kind = WorkerOutcome::Kind::Exit;
        out_.exitStatus = WEXITSTATUS(wstatus);
        std::snprintf(msg, sizeof msg, "worker exited with status %d%s",
                      out_.exitStatus,
                      out_.exitStatus == kWorkerExceptionExit
                          ? " (unhandled exception)"
                          : "");
        out_.detail = msg;
        return true;
    }
    if (!frames_.atFrameBoundary()) {
        // Clean exit but torn trailing bytes: the worker lied
        // about being done. Never act on a partial frame.
        out_.kind = WorkerOutcome::Kind::Protocol;
        out_.detail = "worker exited leaving a torn trailing frame";
        return true;
    }
    out_.kind = WorkerOutcome::Kind::Ok;
    out_.detail = "ok";
    return true;
}

int
pollTimeoutMs(std::chrono::steady_clock::time_point t)
{
    using Clock = std::chrono::steady_clock;
    if (t == Clock::time_point::max())
        return -1;
    // Compare before subtracting: t - now overflows for a t far in
    // the past, such as the time_point::min() of a run that is over.
    const Clock::time_point now = Clock::now();
    if (t <= now)
        return 0;
    const Clock::duration left = t - now;
    // Round up: waking just before the deadline would only spin.
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(left)
            .count() +
        1;
    return static_cast<int>(
        std::min<long long>(ms, std::numeric_limits<int>::max()));
}

WorkerOutcome
superviseWorker(const std::function<void(int write_fd)> &worker,
                const WatchdogSpec &watchdog,
                const std::function<void(std::string_view payload)>
                    &on_frame)
{
    WorkerProcess w;
    w.start(worker, watchdog);
    while (!w.step(on_frame)) {
        // EINTR, or input, or the deadline: step() sorts it out.
        struct pollfd pfd = {w.fd(), POLLIN, 0};
        (void)poll(&pfd, 1, pollTimeoutMs(w.deadline()));
    }
    return w.outcome();
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
