/**
 * @file
 * Sweep daemon implementation.
 */

#include "daemon.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/supervisor.hh"

namespace tlc::service {

namespace {

/** Daemon metrics, registered once. */
struct DaemonMetrics
{
    MetricCounter &connections;
    MetricCounter &badRequests;
    MetricCounter &protocolErrors;

    static DaemonMetrics &get()
    {
        static DaemonMetrics m{
            MetricsRegistry::global().counter("service.connections"),
            MetricsRegistry::global().counter(
                "service.bad_requests"),
            MetricsRegistry::global().counter(
                "service.protocol_errors"),
        };
        return m;
    }
};

/** Response/stats documents travel as string chunks inside event
 *  frames; JSON escaping can double a chunk, so half the frame cap
 *  would already be tight — stay well under it. */
constexpr std::size_t kChunkBytes = 256 * 1024;

/** Poll granularity: how quickly stop() is noticed. */
constexpr int kPollMs = 200;

std::string
progressEventJson(const SweepProgress &p)
{
    std::ostringstream os;
    os << "{\"event\": \"progress\", \"done\": " << p.done
       << ", \"total\": " << p.total << ", \"failed\": " << p.failed
       << ", \"elapsed_seconds\": " << jsonNumber(p.elapsedSeconds)
       << ", \"eta_seconds\": " << jsonNumber(p.etaSeconds) << "}";
    return os.str();
}

std::string
errorEventJson(const Status &s)
{
    std::ostringstream os;
    os << "{\"event\": \"error\", \"code\": "
       << jsonQuote(statusCodeName(s.code())) << ", \"message\": "
       << jsonQuote(s.message()) << "}";
    return os.str();
}

/**
 * Send one event frame; on failure (client went away) flips @p dead
 * so later events are skipped — a sweep in flight completes for the
 * store's benefit even when nobody is listening anymore.
 */
void
sendEvent(int fd, std::mutex &write_mu, bool &dead,
          const std::string &payload)
{
    std::lock_guard<std::mutex> lock(write_mu);
    if (dead)
        return;
    Status s = writeFrame(fd, payload);
    if (!s.ok())
        dead = true;
}

} // namespace

SweepDaemon::SweepDaemon(SweepService &service, std::string socket_path)
    : service_(service), socketPath_(std::move(socket_path))
{
}

SweepDaemon::~SweepDaemon()
{
    stop();
}

Status
SweepDaemon::start()
{
    tlc_assert(!started_, "daemon already started");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath_.size() >= sizeof(addr.sun_path)) {
        return statusf(StatusCode::InvalidConfig,
                       "socket path '%s' exceeds the %zu-byte "
                       "AF_UNIX limit", socketPath_.c_str(),
                       sizeof(addr.sun_path) - 1);
    }
    std::memcpy(addr.sun_path, socketPath_.c_str(),
                socketPath_.size() + 1);

    // A dying client must cost us an EPIPE errno, not a process
    // signal.
    ::signal(SIGPIPE, SIG_IGN);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
        return statusf(StatusCode::IoError, "socket: %s",
                       std::strerror(errno));
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        Status s = statusf(StatusCode::IoError,
                           "bind '%s': %s (stale socket from a dead "
                           "daemon? remove the file)",
                           socketPath_.c_str(), std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return s;
    }
    if (::listen(listenFd_, 16) != 0) {
        Status s = statusf(StatusCode::IoError, "listen '%s': %s",
                           socketPath_.c_str(), std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(socketPath_.c_str());
        return s;
    }

    stop_ = false;
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    inform("tlcd: serving sweep requests on '%s'",
           socketPath_.c_str());
    return Status{};
}

void
SweepDaemon::stop()
{
    if (!started_)
        return;
    stop_ = true;
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Connection threads notice stop_ within one poll tick; a thread
    // inside a sweep finishes it first (drain semantics).
    std::vector<std::unique_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        conns.swap(conns_);
    }
    for (auto &c : conns)
        c->thread.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(socketPath_.c_str());
    started_ = false;
}

void
SweepDaemon::reapFinished()
{
    std::lock_guard<std::mutex> lock(connsMu_);
    std::erase_if(conns_, [](std::unique_ptr<Connection> &c) {
        if (!c->done)
            return false;
        c->thread.join();
        return true;
    });
}

void
SweepDaemon::acceptLoop()
{
    while (!stop_) {
        // A finished connection thread keeps its stack until it is
        // joined, so a long-running daemon joins them as it goes.
        reapFinished();
        pollfd p{listenFd_, POLLIN, 0};
        int r = ::poll(&p, 1, kPollMs);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            warn("tlcd: poll: %s", std::strerror(errno));
            return;
        }
        if (r == 0)
            continue;
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("tlcd: accept: %s", std::strerror(errno));
            return;
        }
        DaemonMetrics::get().connections.inc();
        auto conn = std::make_unique<Connection>();
        Connection *c = conn.get();
        std::lock_guard<std::mutex> lock(connsMu_);
        c->thread = std::thread([this, c, fd] {
            serveConnection(fd);
            c->done = true;
        });
        conns_.push_back(std::move(conn));
    }
}

void
SweepDaemon::serveConnection(int fd)
{
    FrameReader frames;
    std::mutex writeMu;
    bool dead = false;
    std::vector<std::string> requests;
    char buf[64 * 1024];

    while (!stop_) {
        pollfd p{fd, POLLIN, 0};
        int r = ::poll(&p, 1, kPollMs);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (r == 0)
            continue;
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0) {
            if (!frames.atFrameBoundary()) {
                DaemonMetrics::get().protocolErrors.inc();
                warn("tlcd: connection closed mid-frame");
            }
            break;
        }
        bool healthy = frames.feed(
            std::string_view(buf, static_cast<std::size_t>(n)),
            [&](std::string_view payload) {
                requests.emplace_back(payload);
            });
        for (const std::string &req : requests)
            handleRequest(fd, writeMu, dead, req);
        requests.clear();
        if (!healthy) {
            // Torn length or bad CRC: the stream can never be
            // trusted again — say why, then hang up.
            DaemonMetrics::get().protocolErrors.inc();
            sendEvent(fd, writeMu, dead,
                      errorEventJson(statusf(
                          StatusCode::ChecksumMismatch,
                          "frame protocol violation (bad CRC or "
                          "length); closing connection")));
            break;
        }
    }
    ::close(fd);
}

void
SweepDaemon::handleRequest(int fd, std::mutex &write_mu, bool &dead,
                           const std::string &text)
{
    Expected<SweepRequestSpec> spec = sweepRequestFromJson(text);
    if (!spec.ok()) {
        DaemonMetrics::get().badRequests.inc();
        sendEvent(fd, write_mu, dead,
                  errorEventJson(spec.status()));
        return;
    }

    ServiceRun run = service_.run(
        spec.value(), [&](const SweepProgress &p) {
            sendEvent(fd, write_mu, dead, progressEventJson(p));
        });

    const std::string response =
        sweepResponseJson(spec.value(), run.outcome);
    for (std::size_t off = 0; off < response.size();
         off += kChunkBytes) {
        const std::size_t len =
            std::min(kChunkBytes, response.size() - off);
        const bool last = off + len >= response.size();
        std::string event = "{\"event\": \"response\", \"chunk\": " +
            jsonQuote(response.substr(off, len)) +
            ", \"last\": " + (last ? "true" : "false") + "}";
        sendEvent(fd, write_mu, dead, event);
    }
    sendEvent(fd, write_mu, dead,
              "{\"event\": \"stats\", \"chunk\": " +
                  jsonQuote(sweepStatsJson(run.accounting)) + "}");
}

} // namespace tlc::service
