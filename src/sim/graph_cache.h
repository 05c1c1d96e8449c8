/**
 * @file
 * Names left from the retired memo caches, kept so the frozen
 * end-to-end benchmark (perfbench/layer_trace.cc) still compiles. The
 * simulator keeps no cache: every counter here reads 0 and clearing
 * does nothing.
 */

#ifndef REGATE_SIM_GRAPH_CACHE_H
#define REGATE_SIM_GRAPH_CACHE_H

#include <cstdint>

namespace regate {
namespace sim {

/** Lookup counters of a cache that no longer exists; always 0. */
struct RetiredCache
{
    std::uint64_t hits() const { return 0; }
    std::uint64_t misses() const { return 0; }
};

/** Always 0; perfbench/layer_trace.cc is the only caller. */
inline const RetiredCache &
sharedGraphCache()
{
    static const RetiredCache cache;
    return cache;
}

/** Always 0; perfbench/layer_trace.cc is the only caller. */
inline const RetiredCache &
sharedRunCache()
{
    return sharedGraphCache();
}

/** No-op; perfbench/layer_trace.cc is the only caller. */
inline void
clearSharedCaches()
{
}

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_GRAPH_CACHE_H
