#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/fsio.h"
#include "common/hash.h"

namespace regate {
namespace obs {

namespace {

// -----------------------------------------------------------------
// Canonical JSON appenders: decimal 64-bit integers, escaped
// strings. The snapshot must be byte-stable and diffable.
// -----------------------------------------------------------------

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
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

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &e : counters_)
        if (e.name == name)
            return *e.value;
    counters_.push_back({name, std::make_unique<Counter>()});
    return *counters_.back().value;
}

std::string
MetricsRegistry::snapshotJson() const
{
    // Take a stable view under the lock, then serialize sorted by
    // name so the document is canonical regardless of registration
    // order.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &e : counters_)
            counters.emplace_back(e.name, e.value->value());
    }
    std::sort(counters.begin(), counters.end());

    std::string out;
    out += "{\n\"obs\": \"regate-metrics\",\n\"version\": 2,\n";
    out += "\"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        out += i ? ",\n" : "\n";
        appendString(out, counters[i].first);
        out += ": ";
        appendU64(out, counters[i].second);
    }
    out += "\n},\n";

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
}

}  // namespace obs
}  // namespace regate
