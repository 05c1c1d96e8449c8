/**
 * @file
 * Field-by-field, bitwise comparison of two WorkloadRuns for the
 * equivalence tests: timelines, work and SA stats, every op record,
 * and every PolicyResult field of all five policies.
 */

#ifndef REGATE_TESTS_RUN_COMPARE_H
#define REGATE_TESTS_RUN_COMPARE_H

#include <gtest/gtest.h>

#include <cstring>

#include "sim/engine.h"

namespace regate {
namespace sim {

inline void
expectRunsIdentical(const WorkloadRun &a, const WorkloadRun &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.sramUsedIntegral, b.sramUsedIntegral);
    for (auto c : arch::kAllComponents)
        EXPECT_TRUE(a.timeline[c] == b.timeline[c])
            << "timeline mismatch for " << arch::componentName(c);
    EXPECT_EQ(0, std::memcmp(&a.work, &b.work, sizeof(a.work)));
    EXPECT_EQ(0, std::memcmp(&a.saStats, &b.saStats, sizeof(a.saStats)));

    ASSERT_EQ(a.opRecords.size(), b.opRecords.size());
    for (std::size_t i = 0; i < a.opRecords.size(); ++i) {
        auto ra = a.opRecords[i];
        auto rb = b.opRecords[i];
        EXPECT_EQ(ra.name(), rb.name()) << "op " << i;
        EXPECT_EQ(ra.kind(), rb.kind()) << "op " << i;
        EXPECT_EQ(ra.count(), rb.count()) << "op " << i;
        EXPECT_EQ(ra.duration(), rb.duration()) << "op " << i;
        EXPECT_EQ(ra.sramDemandBytes(), rb.sramDemandBytes()) << "op " << i;
        EXPECT_EQ(ra.dynamicJ(), rb.dynamicJ()) << "op " << i;
        EXPECT_EQ(ra.sramUsedFrac(), rb.sramUsedFrac()) << "op " << i;
        for (auto c : arch::kAllComponents)
            EXPECT_EQ(ra.activeFrac(c), rb.activeFrac(c)) << "op " << i;
    }

    for (auto p : allPolicies()) {
        const auto &ra = a.result(p);
        const auto &rb = b.result(p);
        EXPECT_EQ(ra.policy, rb.policy);
        EXPECT_EQ(ra.overheadCycles, rb.overheadCycles);
        EXPECT_EQ(ra.seconds, rb.seconds);
        EXPECT_EQ(ra.perfOverhead, rb.perfOverhead);
        EXPECT_EQ(ra.avgPowerW, rb.avgPowerW);
        EXPECT_EQ(ra.peakPowerW, rb.peakPowerW);
        EXPECT_EQ(ra.vuGateEvents, rb.vuGateEvents);
        EXPECT_EQ(ra.sramSetpmPairs, rb.sramSetpmPairs);
        EXPECT_EQ(0, std::memcmp(&ra.energy, &rb.energy,
                                 sizeof(ra.energy)))
            << "energy breakdown mismatch for " << policyName(p);
    }
}

}  // namespace sim
}  // namespace regate

#endif  // REGATE_TESTS_RUN_COMPARE_H
