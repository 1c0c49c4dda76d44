/**
 * @file
 * Unit tests for the parallelFor worker team: index coverage and
 * per-index ordering, worker-count resolution (TLC_THREADS, the
 * programmatic override, hardware fallback), serial forcing,
 * exception propagation, nested-use fallback, and the empty/single
 * range edge cases.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hh"

using namespace tlc;

namespace {

/**
 * Saves and restores TLC_THREADS and the programmatic override so
 * the tests can rewrite both without leaking into the rest of the
 * suite.
 */
class ParallelTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *v = std::getenv("TLC_THREADS");
        saved_ = v ? std::optional<std::string>(v) : std::nullopt;
        ::unsetenv("TLC_THREADS");
        setParallelWorkerCount(0);
    }

    void TearDown() override
    {
        if (saved_)
            ::setenv("TLC_THREADS", saved_->c_str(), 1);
        else
            ::unsetenv("TLC_THREADS");
        setParallelWorkerCount(0);
    }

  private:
    std::optional<std::string> saved_;
};

} // namespace

TEST_F(ParallelTest, VisitsEveryIndexExactlyOnce)
{
    setParallelWorkerCount(8);
    constexpr std::size_t n = 5000;
    std::vector<int> hits(n, 0);
    parallelFor(n, parallelWorkerCount(),
                [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST_F(ParallelTest, ResultsAreOrderedByIndexNotCompletionOrder)
{
    setParallelWorkerCount(8);
    constexpr std::size_t n = 1000;
    std::vector<std::size_t> out(n, 0);
    parallelFor(n, parallelWorkerCount(),
                [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST_F(ParallelTest, EmptyRangeNeverInvokesBody)
{
    setParallelWorkerCount(8);
    parallelFor(0, parallelWorkerCount(),
                [&](std::size_t) { FAIL() << "body called"; });
}

TEST_F(ParallelTest, SingleItemRunsOnCallingThread)
{
    setParallelWorkerCount(8);
    std::thread::id body_id;
    parallelFor(1, parallelWorkerCount(), [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        body_id = std::this_thread::get_id();
    });
    EXPECT_EQ(body_id, std::this_thread::get_id());
}

TEST_F(ParallelTest, EnvThreadsOneForcesSerial)
{
    ::setenv("TLC_THREADS", "1", 1);
    EXPECT_EQ(parallelWorkerCount(), 1u);

    const std::thread::id caller = std::this_thread::get_id();
    std::size_t calls = 0;
    parallelFor(64, parallelWorkerCount(), [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls; // serial, so unsynchronized increment is safe
    });
    EXPECT_EQ(calls, 64u);
}

TEST_F(ParallelTest, WorkerCountResolution)
{
    unsigned hw = std::thread::hardware_concurrency();
    unsigned fallback = hw ? hw : 1;

    EXPECT_EQ(parallelWorkerCount(), fallback);

    ::setenv("TLC_THREADS", "3", 1);
    EXPECT_EQ(parallelWorkerCount(), 3u);

    // Unparsable or out-of-range values fall back to the hardware.
    ::setenv("TLC_THREADS", "0", 1);
    EXPECT_EQ(parallelWorkerCount(), fallback);
    ::setenv("TLC_THREADS", "abc", 1);
    EXPECT_EQ(parallelWorkerCount(), fallback);
    ::setenv("TLC_THREADS", "7junk", 1);
    EXPECT_EQ(parallelWorkerCount(), fallback);
    ::setenv("TLC_THREADS", "", 1);
    EXPECT_EQ(parallelWorkerCount(), fallback);
}

TEST_F(ParallelTest, ProgrammaticOverrideBeatsEnvironment)
{
    ::setenv("TLC_THREADS", "2", 1);
    setParallelWorkerCount(5);
    EXPECT_EQ(parallelWorkerCount(), 5u);
    setParallelWorkerCount(0); // cleared: back to the environment
    EXPECT_EQ(parallelWorkerCount(), 2u);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller)
{
    setParallelWorkerCount(4);
    std::atomic<std::size_t> executed{0};
    try {
        parallelFor(100, parallelWorkerCount(), [&](std::size_t i) {
            executed.fetch_add(1);
            if (i == 3)
                throw std::runtime_error("boom at 3");
        });
        FAIL() << "exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom at 3");
    }
    EXPECT_GE(executed.load(), 1u);
    EXPECT_LE(executed.load(), 100u);
}

TEST_F(ParallelTest, ExceptionPropagatesOnSerialPath)
{
    setParallelWorkerCount(1);
    EXPECT_THROW(parallelFor(8, parallelWorkerCount(),
                             [&](std::size_t i) {
                                 if (i == 2)
                                     throw std::logic_error("serial");
                             }),
                 std::logic_error);
}

TEST_F(ParallelTest, NestedCallFallsBackToSerialOnWorker)
{
    setParallelWorkerCount(4);
    EXPECT_FALSE(inParallelWorker());

    constexpr std::size_t outer_n = 4, inner_n = 16;
    std::vector<int> inner_on_own_thread(outer_n, 0);
    std::vector<int> inner_hits(outer_n, 0);
    parallelFor(outer_n, parallelWorkerCount(), [&](std::size_t o) {
        EXPECT_TRUE(inParallelWorker());
        const std::thread::id outer_id = std::this_thread::get_id();
        bool same = true;
        parallelFor(inner_n, parallelWorkerCount(), [&](std::size_t) {
            same = same && std::this_thread::get_id() == outer_id;
            inner_hits[o]++; // serial inner loop: no race on the slot
        });
        inner_on_own_thread[o] = same;
    });
    EXPECT_FALSE(inParallelWorker());
    for (std::size_t o = 0; o < outer_n; ++o) {
        EXPECT_TRUE(inner_on_own_thread[o]) << "outer " << o;
        EXPECT_EQ(inner_hits[o], static_cast<int>(inner_n));
    }
}

TEST_F(ParallelTest, UsesDistinctWorkersWhenWideEnough)
{
    // Not a strict guarantee on a loaded machine, but with bodies
    // that block until every worker has arrived, a 2-wide team must
    // show 2 distinct thread ids.
    setParallelWorkerCount(2);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t arrived = 0;
    std::set<std::thread::id> ids;
    parallelFor(2, parallelWorkerCount(), [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
        if (++arrived == 2)
            cv.notify_all();
        else
            cv.wait(lock, [&] { return arrived == 2; });
    });
    EXPECT_EQ(ids.size(), 2u);
}
