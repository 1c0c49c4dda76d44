/**
 * @file
 * Trace-event recorder implementation.
 */

#include "trace_event.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
#include <utility>

#include "util/json.hh"

namespace tlc {

namespace {

std::atomic<TraceEventRecorder *> gActive{nullptr};

} // namespace

TraceEventRecorder::TraceEventRecorder() : t0_(Clock::now())
{
}

TraceEventRecorder::TraceEventRecorder(Clock::time_point epoch)
    : t0_(epoch)
{
}

TraceEventRecorder *
TraceEventRecorder::active()
{
    return gActive.load(std::memory_order_acquire);
}

void
TraceEventRecorder::setActive(TraceEventRecorder *r)
{
    gActive.store(r, std::memory_order_release);
}

void
TraceEventRecorder::complete(std::string name, std::string category,
                             Clock::time_point begin,
                             Clock::time_point end, std::uint32_t tid,
                             std::string args_json)
{
    auto us = [this](Clock::time_point t) {
        auto d = std::chrono::duration_cast<std::chrono::microseconds>(
            t - t0_);
        return d.count() < 0 ? std::uint64_t{0}
                             : static_cast<std::uint64_t>(d.count());
    };
    TraceEvent e;
    e.name = std::move(name);
    e.category = std::move(category);
    e.argsJson = std::move(args_json);
    e.tsUs = us(begin);
    std::uint64_t endUs = us(end);
    e.durUs = endUs > e.tsUs ? endUs - e.tsUs : 0;
    e.pid = 1;
    e.tid = tid;

    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
}

std::vector<TraceEvent>
TraceEventRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

void
TraceEventRecorder::import(const std::vector<TraceEvent> &events,
                           std::uint32_t pid,
                           const std::string &process_name)
{
    std::lock_guard<std::mutex> lock(mu_);
    processNames_[pid] = process_name;
    for (TraceEvent e : events) {
        e.pid = pid;
        events_.push_back(std::move(e));
    }
}

std::size_t
TraceEventRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

void
TraceEventRecorder::write(std::ostream &os) const
{
    std::vector<TraceEvent> events;
    std::map<std::uint32_t, std::string> processNames;
    {
        std::lock_guard<std::mutex> lock(mu_);
        events = events_;
        processNames = processNames_;
    }
    // Stable output: viewers don't care about event order, but a
    // deterministic file is diffable and testable.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         return a.tid != b.tid ? a.tid < b.tid
                                               : a.tsUs < b.tsUs;
                     });

    std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
    for (const TraceEvent &e : events)
        tracks.insert({e.pid, e.tid});

    os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    bool first = true;
    for (const auto &[pid, name] : processNames) {
        os << (first ? "\n" : ",\n")
           << "    {\"ph\": \"M\", \"pid\": " << pid
           << ", \"tid\": 0, \"name\": \"process_name\", "
           << "\"args\": {\"name\": " << jsonQuote(name) << "}}";
        first = false;
    }
    for (const auto &[pid, tid] : tracks) {
        os << (first ? "\n" : ",\n")
           << "    {\"ph\": \"M\", \"pid\": " << pid
           << ", \"tid\": " << tid
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
           << jsonQuote("worker-" + std::to_string(tid)) << "}}";
        first = false;
    }
    for (const TraceEvent &e : events) {
        os << (first ? "\n" : ",\n")
           << "    {\"ph\": \"X\", \"pid\": " << e.pid
           << ", \"tid\": " << e.tid << ", \"ts\": " << e.tsUs
           << ", \"dur\": " << e.durUs
           << ", \"name\": " << jsonQuote(e.name)
           << ", \"cat\": " << jsonQuote(e.category);
        if (!e.argsJson.empty())
            os << ", \"args\": " << e.argsJson;
        os << "}";
        first = false;
    }
    os << (first ? "]\n}\n" : "\n  ]\n}\n");
}

Status
TraceEventRecorder::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        return statusf(StatusCode::IoError,
                       "cannot open trace-event file '%s' for writing",
                       path.c_str());
    }
    write(os);
    os.flush(); // surface an error on the buffered tail
    if (!os.good()) {
        return statusf(StatusCode::IoError,
                       "write to trace-event file '%s' failed",
                       path.c_str());
    }
    return Status();
}

} // namespace tlc
