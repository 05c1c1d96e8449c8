/**
 * @file
 * obs::MetricsRegistry — one process-wide, thread-safe registry of
 * named counters: a single introspection surface for the simulator's
 * own counters (engine executions, pricings, operators).
 *
 * Design goals, in order:
 *
 *  - ~zero overhead on the simulation hot path. Recording is one
 *    relaxed atomic fetch_add; call sites resolve their counter once
 *    (a static reference) so steady state never touches the registry
 *    map or its mutex.
 *  - dependency-free: <atomic>, <mutex>, std containers only, so
 *    every layer (common/, sim/, bench/) can record without
 *    dependency cycles.
 *  - byte-stable snapshots: snapshotJson() is a canonical writer
 *    (fixed key order, sorted names, one entry per line, FNV-1a
 *    content digest footer), so two snapshots of equal state are
 *    equal bytes and diffable across runs.
 *
 * Counters are created on first use and never destroyed (references
 * stay valid for the process lifetime); resetForTest() zeroes every
 * value but keeps the registrations, giving tests a clean slate
 * without invalidating cached references.
 */

#ifndef REGATE_OBS_METRICS_H
#define REGATE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace regate {
namespace obs {

/** Monotonic event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
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

class MetricsRegistry
{
  public:
    /** The process-wide registry. */
    static MetricsRegistry &instance();

    /**
     * Find-or-create by name. References remain valid forever.
     * Names are dotted identifiers ("sim.engine.executions");
     * anything serializable is accepted.
     */
    Counter &counter(const std::string &name);

    /**
     * Canonical-JSON snapshot of every counter (see file comment).
     * Byte-stable: equal registry state serializes to equal bytes,
     * with a FNV-1a digest footer over the body.
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
     * Zero every counter but keep registrations (and thus every
     * cached reference) alive. For tests — between-case counter
     * bleed was the bug this replaces.
     */
    void resetForTest();

  private:
    MetricsRegistry() = default;

    struct Named
    {
        std::string name;
        std::unique_ptr<Counter> value;
    };

    mutable std::mutex mu_;
    std::vector<Named> counters_;
};

}  // namespace obs
}  // namespace regate

#endif  // REGATE_OBS_METRICS_H
