/**
 * @file
 * Property tests for the timeline gap algebra overhaul: the O(log G)
 * seam arithmetic in repeated() must match n-fold append(), the
 * in-place merge in append() must match both a naive re-sort and the
 * ordered merge into a fresh list it replaced, and the
 * sorted-gap-multiset invariant must hold after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/prng.h"
#include "core/activity.h"

namespace regate {
namespace core {
namespace {

/** Random timeline with irregular bursts (may be all idle/active). */
ActivityTimeline
randomTimeline(Prng &rng)
{
    Cycles span = 8 + rng.uniform(0, 120);
    int shape = static_cast<int>(rng.uniform(0, 9));
    if (shape == 0)
        return ActivityTimeline::allIdle(span);
    if (shape == 1)
        return ActivityTimeline::allActive(span);
    std::vector<Interval> ivs;
    Cycles cursor = rng.uniform(0, 6);
    while (cursor + 2 < span) {
        Cycles len = 1 + rng.uniform(0, 7);
        Cycles end = std::min(span, cursor + len);
        ivs.push_back({cursor, end});
        cursor = end + rng.uniform(0, 9);
    }
    return ActivityTimeline::fromIntervals(span, ivs);
}

/** The naive append reference: collect all gaps, re-sort, re-group. */
std::vector<GapGroup>
naiveAppendGaps(const ActivityTimeline &a, const ActivityTimeline &b)
{
    // Expand both multisets minus the seam-side gaps, add the fused
    // seam gap, then rebuild groups from a sorted map — the behaviour
    // the seed's addGap + full re-sort produced.
    std::map<Cycles, std::uint64_t> groups;
    for (const auto &g : a.gaps())
        groups[g.length] += g.count;
    for (const auto &g : b.gaps())
        groups[g.length] += g.count;
    auto drop = [&groups](Cycles len) {
        if (len == 0)
            return;
        auto it = groups.find(len);
        ASSERT_NE(it, groups.end());
        if (--it->second == 0)
            groups.erase(it);
    };
    drop(a.trailingIdle());
    drop(b.leadingIdle());
    Cycles seam = a.trailingIdle() + b.leadingIdle();
    if (seam > 0)
        groups[seam] += 1;
    std::vector<GapGroup> out;
    for (const auto &[len, cnt] : groups)
        out.push_back({len, cnt});
    return out;
}

TEST(ActivityProperty, AppendMatchesNaiveResort)
{
    Prng rng(4242);
    for (int iter = 0; iter < 200; ++iter) {
        auto a = randomTimeline(rng);
        auto b = randomTimeline(rng);
        if (a.span() == 0 || b.span() == 0)
            continue;

        auto expect = naiveAppendGaps(a, b);

        auto merged = a;
        merged.append(b);
        merged.checkInvariants();
        EXPECT_EQ(merged.gaps(), expect) << "iteration " << iter;
        EXPECT_EQ(merged.span(), a.span() + b.span());
        EXPECT_EQ(merged.activeCycles(),
                  a.activeCycles() + b.activeCycles());
    }
}

/**
 * Random timeline with @p bursts bursts and gap lengths drawn from
 * [1, max_gap]: hundreds of distinct gap lengths, some repeated, and
 * idle or active ends at random.
 */
ActivityTimeline
manyGapTimeline(Prng &rng, int bursts, Cycles max_gap)
{
    std::vector<Interval> ivs;
    Cycles cursor = rng.uniform(0, 1) ? 0 : 1 + rng.uniform(0, max_gap);
    for (int i = 0; i < bursts; ++i) {
        Cycles end = cursor + 1 + rng.uniform(0, 4);
        ivs.push_back({cursor, end});
        cursor = end + 1 + rng.uniform(0, max_gap - 1);
    }
    Cycles span = rng.uniform(0, 1) ? ivs.back().end : cursor;
    return ActivityTimeline::fromIntervals(span, ivs);
}

/**
 * The gaps of @p a after append(@p b) as append() computed them
 * before it merged in place: drop one trailing gap of @p a, ordered-
 * merge @p b's gaps into a fresh list skipping one gap of @p b's
 * leading length, then add the fused seam gap.
 */
std::vector<GapGroup>
orderedMergeAppendGaps(const ActivityTimeline &a,
                       const ActivityTimeline &b)
{
    auto find = [](std::vector<GapGroup> &gaps, Cycles len) {
        return std::lower_bound(gaps.begin(), gaps.end(), len,
                                [](const GapGroup &g, Cycles l) {
                                    return g.length < l;
                                });
    };
    std::vector<GapGroup> mine = a.gaps();
    if (a.trailingIdle() > 0) {
        auto it = find(mine, a.trailingIdle());
        if (--it->count == 0)
            mine.erase(it);
    }

    const auto &other = b.gaps();
    std::vector<GapGroup> merged;
    auto push = [&merged](Cycles length, std::uint64_t count) {
        if (count == 0)
            return;
        if (!merged.empty() && merged.back().length == length)
            merged.back().count += count;
        else
            merged.push_back({length, count});
    };
    bool skipped = b.leadingIdle() == 0;
    std::size_t i = 0, j = 0;
    while (i < mine.size() || j < other.size()) {
        if (j >= other.size() ||
            (i < mine.size() && mine[i].length <= other[j].length)) {
            push(mine[i].length, mine[i].count);
            ++i;
        } else {
            std::uint64_t count = other[j].count;
            if (!skipped && other[j].length == b.leadingIdle()) {
                --count;
                skipped = true;
            }
            push(other[j].length, count);
            ++j;
        }
    }
    EXPECT_TRUE(skipped);

    Cycles seam = a.trailingIdle() + b.leadingIdle();
    if (seam > 0) {
        auto it = find(merged, seam);
        if (it != merged.end() && it->length == seam)
            ++it->count;
        else
            merged.insert(it, {seam, 1});
    }
    return merged;
}

TEST(ActivityProperty, InPlaceAppendMatchesOrderedMerge)
{
    Prng rng(9001);
    int seam_skips = 0;
    for (int iter = 0; iter < 300; ++iter) {
        // Small and large gap lists on either side, with narrow gap
        // ranges so the two sides share many lengths.
        bool big_a = iter % 2 == 0;
        bool big_b = iter % 3 == 0;
        Cycles max_gap = iter % 5 == 0 ? 16 : 2000;
        auto a = big_a ? manyGapTimeline(rng, 400, max_gap)
                       : randomTimeline(rng);
        auto b = big_b ? manyGapTimeline(rng, 400, max_gap)
                       : randomTimeline(rng);
        if (a.span() == 0 || b.span() == 0)
            continue;
        if (b.leadingIdle() > 0)
            ++seam_skips;

        auto want = orderedMergeAppendGaps(a, b);
        auto merged = a;
        merged.append(b);
        merged.checkInvariants();
        ASSERT_EQ(merged.gaps(), want) << "iteration " << iter;
    }
    EXPECT_GT(seam_skips, 50);
}

TEST(ActivityProperty, RepeatedMatchesNFoldAppend)
{
    Prng rng(1337);
    for (int iter = 0; iter < 100; ++iter) {
        auto unit = randomTimeline(rng);
        std::uint64_t reps = 2 + rng.uniform(0, 30);

        auto manual = unit;
        for (std::uint64_t i = 1; i < reps; ++i)
            manual.append(unit);
        auto fast = unit.repeated(reps);
        fast.checkInvariants();
        manual.checkInvariants();

        EXPECT_EQ(fast, manual) << "iteration " << iter << " reps "
                                << reps;
    }
}

TEST(ActivityProperty, RepeatedLargeCountsStayExact)
{
    // The overhaul's whole point: repeat counts in the tens of
    // thousands (LLM decode blocks) must stay exact without iterating.
    auto unit = ActivityTimeline::periodic(4096, 3, 16, 128);
    for (std::uint64_t reps : {1024ull, 65536ull, 1048576ull}) {
        auto t = unit.repeated(reps);
        t.checkInvariants();
        EXPECT_EQ(t.span(), unit.span() * reps);
        EXPECT_EQ(t.activeCycles(), unit.activeCycles() * reps);
        Cycles gap_total = 0;
        for (const auto &g : t.gaps())
            gap_total += g.length * g.count;
        EXPECT_EQ(gap_total, t.idleCycles());
    }
}

TEST(ActivityProperty, RepeatedEqualsRepeatedOfRepeated)
{
    Prng rng(777);
    for (int iter = 0; iter < 50; ++iter) {
        auto unit = randomTimeline(rng);
        auto once = unit.repeated(12);
        auto twice = unit.repeated(3).repeated(4);
        // Composition in stages fuses the same seams: totals match.
        EXPECT_EQ(once.span(), twice.span());
        EXPECT_EQ(once.activeCycles(), twice.activeCycles());
        EXPECT_EQ(once.activations(), twice.activations());
    }
}

TEST(ActivityProperty, GapsAlwaysSortedStrictlyAscending)
{
    Prng rng(31);
    for (int iter = 0; iter < 100; ++iter) {
        auto a = randomTimeline(rng);
        auto b = randomTimeline(rng);
        a.append(b);
        auto r = a.repeated(1 + rng.uniform(0, 40));
        for (const auto *t : {&a, &r}) {
            Cycles prev = 0;
            for (const auto &g : t->gaps()) {
                EXPECT_GT(g.length, prev);
                EXPECT_GT(g.count, 0u);
                prev = g.length;
            }
        }
    }
}

TEST(ActivityProperty, SelfAppendIsSafe)
{
    auto t = ActivityTimeline::fromIntervals(20, {{2, 5}, {10, 12}});
    auto doubled = t.repeated(2);
    t.append(t);
    EXPECT_EQ(t, doubled);
}

}  // namespace
}  // namespace core
}  // namespace regate
