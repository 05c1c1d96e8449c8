/**
 * @file
 * obs::MetricsRegistry — one process-wide, thread-safe registry of
 * named counters, gauges, and fixed-bucket histograms: a single
 * introspection surface for the simulator's own counters (engine
 * executions, pricings, operators).
 *
 * Design goals, in order:
 *
 *  - ~zero overhead on the simulation hot path. Recording is one
 *    relaxed atomic RMW guarded by one relaxed flag load; call sites
 *    resolve their instrument once (a static reference) so steady
 *    state never touches the registry map or its mutex. Building
 *    with -DREGATE_OBS_DISABLED compiles the REGATE_OBS(...) macro —
 *    and with it every recording statement routed through it — out
 *    entirely.
 *  - dependency-free: <atomic>, <mutex>, std containers only, so
 *    every layer (common/, sim/, bench/) can record without
 *    dependency cycles.
 *  - byte-stable snapshots: snapshotJson() is a canonical writer
 *    (fixed key order, sorted names, C-locale %.17g doubles, one
 *    entry per line, FNV-1a content digest footer), so two snapshots
 *    of equal state are equal bytes and diffable across runs.
 *
 * Instruments are created on first use and never destroyed
 * (references stay valid for the process lifetime); resetForTest()
 * zeroes every value but keeps the registrations, giving tests a
 * clean slate without invalidating cached references.
 */

#ifndef REGATE_OBS_METRICS_H
#define REGATE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/**
 * Compile-out guard for hot-path recording statements. Wrap the
 * recording (not the instrument lookup) so a disabled build reduces
 * to nothing:
 *
 *     static auto &executions = obs::MetricsRegistry::instance()
 *                                   .counter("sim.engine.executions");
 *     REGATE_OBS(executions.add(1));
 */
#ifdef REGATE_OBS_DISABLED
#define REGATE_OBS(stmt) ((void)0)
#else
#define REGATE_OBS(stmt) stmt
#endif

namespace regate {
namespace obs {

namespace detail {
/** Process-wide runtime enable flag (relaxed; default on). */
inline std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{true};
    return flag;
}
}  // namespace detail

/** Is runtime recording enabled? One relaxed load. */
inline bool
recordingEnabled()
{
    return detail::enabledFlag().load(std::memory_order_relaxed);
}

/** Monotonic event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        if (recordingEnabled())
            v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-writer-wins signed level (queue depths, byte budgets). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        if (recordingEnabled())
            v_.store(v, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Fixed-bucket histogram of non-negative integer samples (durations
 * in microseconds, byte sizes). Bucket bounds are upper bounds,
 * strictly ascending; one implicit overflow bucket catches the rest.
 * count/sum are exact regardless of bucketing, so mean() is exact.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> bounds);

    /** Record @p n samples of value @p v (relaxed atomics). */
    void record(std::uint64_t v, std::uint64_t n = 1);

    std::uint64_t count() const;
    std::uint64_t sum() const;

    /** Exact mean of recorded samples; 0 when empty. */
    double mean() const;

    const std::vector<std::uint64_t> &bounds() const
    {
        return bounds_;
    }

    /** Per-bucket counts, bounds-aligned plus the overflow bucket. */
    std::vector<std::uint64_t> bucketCounts() const;

    /**
     * Quantile estimate from the bucket counts: the upper bound of
     * the first bucket whose cumulative count reaches ceil(q*count)
     * (Prometheus-style, so p50 <= p95 <= p99 by construction and
     * the value is deterministic for equal state). Samples in the
     * overflow bucket report the largest finite bound — a lower
     * bound on the true quantile. 0 when empty.
     */
    std::uint64_t percentile(double q) const;

    void reset();

  private:
    std::vector<std::uint64_t> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * Canonical duration buckets (microseconds), the default for every
 * histogram: 100us .. 100s, decade thirds.
 */
const std::vector<std::uint64_t> &durationUsBounds();

/**
 * Histogram::percentile() on captured state — the snapshot writer
 * computes quantiles from the same bucket vector it serializes, so
 * the numbers in one document are consistent.
 */
std::uint64_t histogramPercentile(
    const std::vector<std::uint64_t> &bounds,
    const std::vector<std::uint64_t> &buckets, std::uint64_t count,
    double q);

class MetricsRegistry
{
  public:
    /** The process-wide registry. */
    static MetricsRegistry &instance();

    /**
     * Runtime enable switch for every instrument's recording path
     * (snapshot/value reads always work). Default on.
     */
    static void setEnabled(bool on);
    static bool enabled() { return recordingEnabled(); }

    /**
     * Find-or-create by name. References remain valid forever.
     * Names are dotted identifiers ("sim.engine.executions");
     * anything serializable is accepted.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /**
     * Find-or-create; @p bounds applies on creation only (a later
     * call with different bounds returns the existing histogram
     * unchanged). Empty bounds default to durationUsBounds().
     */
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> bounds = {});

    /**
     * Canonical-JSON snapshot of every instrument (see file
     * comment). Byte-stable: equal registry state serializes to
     * equal bytes, with a FNV-1a digest footer over the body.
     */
    std::string snapshotJson() const;

    /**
     * Write snapshotJson() to @p path atomically (.part + rename) —
     * every grid binary's `--metrics-out`. Returns the snapshot that
     * was written. Throws ConfigError when the file cannot be
     * written.
     */
    std::string writeSnapshot(const std::string &path) const;

    /**
     * Zero every instrument but keep registrations (and thus every
     * cached reference) alive. For tests — between-case counter
     * bleed was the bug this replaces.
     */
    void resetForTest();

  private:
    MetricsRegistry() = default;

    template <typename T>
    struct Named
    {
        std::string name;
        std::unique_ptr<T> value;
    };

    mutable std::mutex mu_;
    std::vector<Named<Counter>> counters_;
    std::vector<Named<Gauge>> gauges_;
    std::vector<Named<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace regate

#endif  // REGATE_OBS_METRICS_H
