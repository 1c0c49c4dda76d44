/**
 * @file
 * parallelFor implementation: a per-call team of std::threads
 * pulling indices from a shared atomic counter (self-scheduling, so
 * expensive and cheap indices balance automatically).
 */

#include "parallel.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tlc {

namespace {

std::atomic<unsigned> g_worker_override{0};
thread_local bool t_in_worker = false;
thread_local unsigned t_worker_id = 0;

unsigned
hardwareWorkers()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace

unsigned
parallelWorkerCount()
{
    unsigned n = g_worker_override.load(std::memory_order_relaxed);
    if (n)
        return n;
    if (const char *env = std::getenv("TLC_THREADS")) {
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (end && end != env && *end == '\0' && v >= 1 &&
            v <= 4096) {
            return static_cast<unsigned>(v);
        }
    }
    return hardwareWorkers();
}

void
setParallelWorkerCount(unsigned n)
{
    g_worker_override.store(n, std::memory_order_relaxed);
}

bool
inParallelWorker()
{
    return t_in_worker;
}

unsigned
parallelWorkerId()
{
    return t_worker_id;
}

void
parallelFor(std::size_t n, unsigned workers,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;

    if (workers > n)
        workers = static_cast<unsigned>(n);

    // Serial fast path: one worker, a single index, or a nested call
    // from inside a worker (spawning a second team underneath the
    // first could deadlock the machine with teams^2 threads).
    if (workers <= 1 || t_in_worker) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::exception_ptr first_error;
    std::mutex error_mu;

    auto work = [&](unsigned id) {
        t_in_worker = true;
        t_worker_id = id;
        for (;;) {
            if (stop.load(std::memory_order_relaxed))
                break;
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
            }
        }
        t_in_worker = false;
        t_worker_id = 0;
    };

    std::vector<std::thread> team;
    team.reserve(workers - 1);
    try {
        for (std::size_t w = 1; w < workers; ++w)
            team.emplace_back(work, static_cast<unsigned>(w));
    } catch (const std::system_error &) {
        // Thread creation failed (resource exhaustion): fail soft —
        // whatever part of the team started, plus the calling
        // thread, still completes the whole range below.
    }
    work(0); // the calling thread is part of the team
    for (std::thread &t : team)
        t.join();

    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace tlc
