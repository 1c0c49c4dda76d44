/**
 * @file
 * Metrics registry implementation.
 */

#include "metrics.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace tlc {

namespace {

const char *
kindName(int kind)
{
    switch (kind) {
      case 0:
        return "counter";
      case 1:
        return "gauge";
      case 2:
        return "histogram";
    }
    return "?";
}

} // namespace

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry g;
    return g;
}

MetricCounter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry e;
        e.kind = Kind::Counter;
        e.counter = std::make_unique<MetricCounter>();
        it = entries_.emplace(name, std::move(e)).first;
    }
    tlc_assert(it->second.kind == Kind::Counter,
               "metric '%s' already registered as a %s", name.c_str(),
               kindName(static_cast<int>(it->second.kind)));
    return *it->second.counter;
}

MetricGauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry e;
        e.kind = Kind::Gauge;
        e.gauge = std::make_unique<MetricGauge>();
        it = entries_.emplace(name, std::move(e)).first;
    }
    tlc_assert(it->second.kind == Kind::Gauge,
               "metric '%s' already registered as a %s", name.c_str(),
               kindName(static_cast<int>(it->second.kind)));
    return *it->second.gauge;
}

MetricHistogram &
MetricsRegistry::histogram(const std::string &name, unsigned num_buckets)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry e;
        e.kind = Kind::Histogram;
        e.histogram = std::make_unique<MetricHistogram>(num_buckets);
        it = entries_.emplace(name, std::move(e)).first;
    }
    tlc_assert(it->second.kind == Kind::Histogram,
               "metric '%s' already registered as a %s", name.c_str(),
               kindName(static_cast<int>(it->second.kind)));
    return *it->second.histogram;
}

bool
MetricsRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.count(name) != 0;
}

std::optional<MetricKind>
MetricsRegistry::kindOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        return std::nullopt;
    return it->second.kind;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counterValues() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto &[name, e] : entries_) {
        if (e.kind == Kind::Counter)
            out.emplace_back(name, e.counter->value());
    }
    return out;
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::gaugeValues() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, double>> out;
    for (const auto &[name, e] : entries_) {
        if (e.kind == Kind::Gauge)
            out.emplace_back(name, e.gauge->value());
    }
    return out;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, e] : entries_)
        out.push_back(name);
    return out;
}

std::string
MetricsRegistry::toText() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t width = 0;
    for (const auto &[name, e] : entries_)
        width = std::max(width, name.size());

    std::ostringstream os;
    for (const auto &[name, e] : entries_) {
        os << name << std::string(width - name.size() + 2, ' ');
        switch (e.kind) {
          case Kind::Counter:
            os << e.counter->value();
            break;
          case Kind::Gauge:
            os << jsonNumber(e.gauge->value());
            break;
          case Kind::Histogram: {
            Log2Histogram h = e.histogram->snapshot();
            os << h.count() << " samples";
            if (h.count())
                os << ", p50 <= " << h.quantile(0.5) << ", p99 <= "
                   << h.quantile(0.99);
            break;
          }
        }
        os << '\n';
    }
    return os.str();
}

std::string
MetricsRegistry::toJson(int indent) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::string pad(indent, ' ');
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, e] : entries_) {
        os << (first ? "\n" : ",\n") << pad << jsonQuote(name) << ": ";
        first = false;
        switch (e.kind) {
          case Kind::Counter:
            os << e.counter->value();
            break;
          case Kind::Gauge:
            os << jsonNumber(e.gauge->value());
            break;
          case Kind::Histogram: {
            Log2Histogram h = e.histogram->snapshot();
            unsigned last = 0;
            for (unsigned i = 0; i < h.numBuckets(); ++i) {
                if (h.bucket(i))
                    last = i + 1;
            }
            os << "{\"count\": " << h.count() << ", \"buckets\": [";
            for (unsigned i = 0; i < last; ++i)
                os << (i ? ", " : "") << h.bucket(i);
            os << "]}";
            break;
          }
        }
    }
    os << (first ? "}" : "\n}");
    return os.str();
}

void
MetricsRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, e] : entries_) {
        switch (e.kind) {
          case Kind::Counter:
            e.counter->reset();
            break;
          case Kind::Gauge:
            e.gauge->reset();
            break;
          case Kind::Histogram:
            e.histogram->reset();
            break;
        }
    }
}

Status
writeMetricsFile(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        return statusf(StatusCode::IoError,
                       "cannot open metrics file '%s' for writing",
                       path.c_str());
    }
    os << MetricsRegistry::global().toJson() << "\n";
    os.flush(); // surface an error on the buffered tail
    if (!os.good()) {
        return statusf(StatusCode::IoError,
                       "write to metrics file '%s' failed",
                       path.c_str());
    }
    return Status();
}

} // namespace tlc
