#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/fsio.h"
#include "common/hash.h"

namespace regate {
namespace obs {

namespace {

// -----------------------------------------------------------------
// Canonical JSON appenders: C-locale, %.17g doubles, decimal 64-bit
// integers, escaped strings. The snapshot must be byte-stable and
// diffable.
// -----------------------------------------------------------------

void
appendDouble(std::string &out, double v)
{
    REGATE_CHECK(std::isfinite(v),
                 "cannot serialize non-finite double");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
appendI64(std::string &out, std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    out += buf;
}

void
appendString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

}  // namespace

// ---------------------------- Histogram ---------------------------

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds))
{
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        REGATE_CHECK(bounds_[i - 1] < bounds_[i],
                     "histogram bucket bounds must be strictly "
                     "ascending");
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::record(std::uint64_t v, std::uint64_t n)
{
    if (!recordingEnabled() || n == 0)
        return;
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    auto idx = static_cast<std::size_t>(it - bounds_.begin());
    buckets_[idx].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(v * n, std::memory_order_relaxed);
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    auto c = count();
    return c == 0 ? 0.0
                  : static_cast<double>(sum()) /
                        static_cast<double>(c);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
Histogram::percentile(double q) const
{
    auto buckets = bucketCounts();
    // Recompute count from the captured buckets rather than racing
    // count_ against concurrent record()s.
    std::uint64_t count = 0;
    for (auto b : buckets)
        count += b;
    return histogramPercentile(bounds_, buckets, count, q);
}

void
Histogram::reset()
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

const std::vector<std::uint64_t> &
durationUsBounds()
{
    // 100us .. 100s in decade thirds (1, 2, 5), microseconds.
    static const std::vector<std::uint64_t> bounds = {
        100,      200,      500,       1000,      2000,
        5000,     10000,    20000,     50000,     100000,
        200000,   500000,   1000000,   2000000,   5000000,
        10000000, 20000000, 50000000,  100000000};
    return bounds;
}

std::uint64_t
histogramPercentile(const std::vector<std::uint64_t> &bounds,
                    const std::vector<std::uint64_t> &buckets,
                    std::uint64_t count, double q)
{
    if (count == 0 || bounds.empty() || buckets.empty())
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank == 0)
        rank = 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (cum >= rank)
            // Overflow bucket (i == bounds.size()) reports the
            // largest finite bound: a documented lower bound.
            return bounds[std::min(i, bounds.size() - 1)];
    }
    return bounds.back();
}

// ------------------------- MetricsRegistry ------------------------

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

void
MetricsRegistry::setEnabled(bool on)
{
    detail::enabledFlag().store(on, std::memory_order_relaxed);
}

namespace {

template <typename Entry, typename Make>
auto &
findOrCreate(std::vector<Entry> &list, const std::string &name,
             Make make)
{
    for (auto &e : list)
        if (e.name == name)
            return *e.value;
    list.push_back({name, make()});
    return *list.back().value;
}

}  // namespace

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return findOrCreate(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return findOrCreate(gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<std::uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    return findOrCreate(histograms_, name, [&] {
        return std::make_unique<Histogram>(
            bounds.empty() ? durationUsBounds()
                           : std::move(bounds));
    });
}

std::string
MetricsRegistry::snapshotJson() const
{
    // Take a stable view under the lock, then serialize sorted by
    // name so the document is canonical regardless of registration
    // order.
    struct CounterRow
    {
        std::string name;
        std::uint64_t value;
    };
    struct GaugeRow
    {
        std::string name;
        std::int64_t value;
    };
    struct HistRow
    {
        std::string name;
        std::uint64_t count;
        std::uint64_t sum;
        std::vector<std::uint64_t> bounds;
        std::vector<std::uint64_t> buckets;
    };
    std::vector<CounterRow> counters;
    std::vector<GaugeRow> gauges;
    std::vector<HistRow> hists;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &e : counters_)
            counters.push_back({e.name, e.value->value()});
        for (const auto &e : gauges_)
            gauges.push_back({e.name, e.value->value()});
        for (const auto &e : histograms_)
            hists.push_back({e.name, e.value->count(),
                             e.value->sum(), e.value->bounds(),
                             e.value->bucketCounts()});
    }
    auto byName = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(counters.begin(), counters.end(), byName);
    std::sort(gauges.begin(), gauges.end(), byName);
    std::sort(hists.begin(), hists.end(), byName);

    std::string body;
    body += "{\n\"obs\": \"regate-metrics\",\n\"version\": 1,\n";
    body += "\"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        body += i ? ",\n" : "\n";
        appendString(body, counters[i].name);
        body += ": ";
        appendU64(body, counters[i].value);
    }
    body += "\n},\n\"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        body += i ? ",\n" : "\n";
        appendString(body, gauges[i].name);
        body += ": ";
        appendI64(body, gauges[i].value);
    }
    body += "\n},\n\"histograms\": {";
    for (std::size_t i = 0; i < hists.size(); ++i) {
        const auto &h = hists[i];
        body += i ? ",\n" : "\n";
        appendString(body, h.name);
        body += ": {\"count\": ";
        appendU64(body, h.count);
        body += ", \"sum\": ";
        appendU64(body, h.sum);
        body += ", \"mean\": ";
        appendDouble(body, h.count == 0
                               ? 0.0
                               : static_cast<double>(h.sum) /
                                     static_cast<double>(h.count));
        // Derived quantiles from the same captured buckets the row
        // serializes — fixed decimal formatting keeps the document
        // byte-stable.
        body += ", \"p50\": ";
        appendU64(body, histogramPercentile(h.bounds, h.buckets,
                                            h.count, 0.50));
        body += ", \"p95\": ";
        appendU64(body, histogramPercentile(h.bounds, h.buckets,
                                            h.count, 0.95));
        body += ", \"p99\": ";
        appendU64(body, histogramPercentile(h.bounds, h.buckets,
                                            h.count, 0.99));
        body += ", \"bounds\": [";
        for (std::size_t j = 0; j < h.bounds.size(); ++j) {
            if (j)
                body += ", ";
            appendU64(body, h.bounds[j]);
        }
        body += "], \"buckets\": [";
        for (std::size_t j = 0; j < h.buckets.size(); ++j) {
            if (j)
                body += ", ";
            appendU64(body, h.buckets[j]);
        }
        body += "]}";
    }
    body += "\n},\n";

    std::string out = std::move(body);
    out += "\"digest\": \"";
    out += hexDigest64(fnv1a64(out.data(), out.size()));
    out += "\"\n}\n";
    return out;
}

std::string
MetricsRegistry::writeSnapshot(const std::string &path) const
{
    auto snapshot = snapshotJson();
    // .part + rename: readers never observe a torn snapshot.
    auto part = path + ".part";
    writeFile(part, snapshot);
    REGATE_CHECK(std::rename(part.c_str(), path.c_str()) == 0,
                 "cannot rename ", part, " to ", path);
    return snapshot;
}

void
MetricsRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &e : counters_)
        e.value->reset();
    for (auto &e : gauges_)
        e.value->reset();
    for (auto &e : histograms_)
        e.value->reset();
}

}  // namespace obs
}  // namespace regate
