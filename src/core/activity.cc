#include "core/activity.h"

#include <algorithm>
#include <map>

#include "common/error.h"

namespace regate {
namespace core {

namespace {

/** Binary search for the group of exactly @p length in a sorted list. */
std::vector<GapGroup>::iterator
findGroup(std::vector<GapGroup> &gaps, Cycles length)
{
    return std::lower_bound(gaps.begin(), gaps.end(), length,
                            [](const GapGroup &g, Cycles len) {
                                return g.length < len;
                            });
}

}  // namespace

ActivityTimeline
ActivityTimeline::allActive(Cycles span)
{
    ActivityTimeline t;
    t.span_ = span;
    t.active_ = span;
    t.activations_ = span > 0 ? 1 : 0;
    return t;
}

ActivityTimeline
ActivityTimeline::allIdle(Cycles span)
{
    ActivityTimeline t;
    t.span_ = span;
    if (span > 0) {
        t.gaps_.push_back({span, 1});
        t.leadingIdle_ = span;
        t.trailingIdle_ = span;
    }
    return t;
}

ActivityTimeline
ActivityTimeline::periodic(Cycles span, Cycles offset, Cycles active_len,
                           Cycles period)
{
    REGATE_CHECK(period > 0, "periodic: period must be positive");
    REGATE_CHECK(active_len > 0, "periodic: active_len must be positive");
    REGATE_CHECK(active_len <= period,
                 "periodic: active_len ", active_len, " > period ", period);

    if (span < offset + active_len)
        return allIdle(span);

    std::uint64_t reps = (span - offset - active_len) / period + 1;

    ActivityTimeline t;
    t.span_ = span;
    t.active_ = active_len * reps;
    t.activations_ = reps;
    t.leadingIdle_ = offset;
    Cycles last_end = offset + (reps - 1) * period + active_len;
    t.trailingIdle_ = span - last_end;

    Cycles inner_gap = period - active_len;
    if (inner_gap > 0 && reps > 1)
        t.insertGap(inner_gap, reps - 1);
    if (t.leadingIdle_ > 0)
        t.insertGap(t.leadingIdle_, 1);
    if (t.trailingIdle_ > 0)
        t.insertGap(t.trailingIdle_, 1);
    return t;
}

ActivityTimeline
ActivityTimeline::fromIntervals(Cycles span, std::vector<Interval> active)
{
    auto norm = normalize(std::move(active));
    ActivityTimeline t;
    t.span_ = span;
    t.active_ = coveredLength(norm);
    t.activations_ = norm.size();

    std::map<Cycles, std::uint64_t> groups;
    auto idle = complementWithin(norm, span);
    for (const auto &gap : idle)
        groups[gap.length()]++;
    t.gaps_.reserve(groups.size());
    for (const auto &[len, cnt] : groups)
        t.gaps_.push_back({len, cnt});

    if (!idle.empty() && idle.front().start == 0)
        t.leadingIdle_ = idle.front().length();
    if (!idle.empty() && idle.back().end == span)
        t.trailingIdle_ = idle.back().length();
    return t;
}

void
ActivityTimeline::insertGap(Cycles length, std::uint64_t count)
{
    if (length == 0 || count == 0)
        return;
    auto it = findGroup(gaps_, length);
    if (it != gaps_.end() && it->length == length)
        it->count += count;
    else
        gaps_.insert(it, {length, count});
}

void
ActivityTimeline::removeGaps(Cycles length, std::uint64_t count)
{
    if (length == 0 || count == 0)
        return;
    auto it = findGroup(gaps_, length);
    if (it == gaps_.end() || it->length != length || it->count < count)
        throw LogicError("removeGaps: fewer than requested gaps of "
                         "requested length");
    it->count -= count;
    if (it->count == 0)
        gaps_.erase(it);
}

void
ActivityTimeline::mergeGaps(const std::vector<GapGroup> &other,
                            Cycles skip_length)
{
    // Both lists are canonical (ascending, unique lengths, no zero
    // counts), so the merge can run in place: count the lengths new
    // to gaps_, grow it once, then merge from the back so no group is
    // overwritten before it is moved. No allocation once gaps_ has
    // the capacity.
    auto count_of = [skip_length](const GapGroup &g) {
        return g.count - (g.length == skip_length ? 1 : 0);
    };
    bool skipped = skip_length == 0;
    std::size_t added = 0;
    for (std::size_t i = 0, j = 0; j < other.size(); ++j) {
        if (other[j].length == skip_length)
            skipped = true;
        while (i < gaps_.size() && gaps_[i].length < other[j].length)
            ++i;
        bool present = i < gaps_.size() && gaps_[i].length == other[j].length;
        if (!present && count_of(other[j]) > 0)
            ++added;
    }
    REGATE_ASSERT(skipped,
                  "mergeGaps: seam gap missing from other timeline");

    std::size_t i = gaps_.size();
    std::size_t k = i + added;
    gaps_.resize(k);
    for (std::size_t j = other.size(); j-- > 0;) {
        std::uint64_t count = count_of(other[j]);
        while (i > 0 && gaps_[i - 1].length > other[j].length)
            gaps_[--k] = gaps_[--i];
        if (i > 0 && gaps_[i - 1].length == other[j].length)
            gaps_[--k] = {other[j].length, gaps_[--i].count + count};
        else if (count > 0)
            gaps_[--k] = {other[j].length, count};
    }
    // Groups below every length of @p other are already in place.
}

void
ActivityTimeline::append(const ActivityTimeline &next)
{
    if (next.span_ == 0)
        return;
    if (span_ == 0) {
        *this = next;
        return;
    }
    if (&next == this) {
        ActivityTimeline copy = next;
        append(copy);
        return;
    }

    bool a_ends_active = active_ > 0 && trailingIdle_ == 0;
    bool b_starts_active = next.active_ > 0 && next.leadingIdle_ == 0;
    bool a_all_idle = active_ == 0;
    bool b_all_idle = next.active_ == 0;

    Cycles seam = trailingIdle_ + next.leadingIdle_;

    removeGaps(trailingIdle_, 1);
    mergeGaps(next.gaps_, next.leadingIdle_);
    insertGap(seam, 1);

    activations_ += next.activations_;
    if (seam == 0 && a_ends_active && b_starts_active)
        activations_ -= 1;

    span_ += next.span_;
    active_ += next.active_;
    leadingIdle_ = a_all_idle ? seam : leadingIdle_;
    trailingIdle_ = b_all_idle ? seam : next.trailingIdle_;
}

ActivityTimeline
ActivityTimeline::repeated(std::uint64_t times) const
{
    if (times == 0)
        return ActivityTimeline();
    if (times == 1 || span_ == 0)
        return *this;

    ActivityTimeline t;
    t.span_ = span_ * times;

    if (active_ == 0)
        return allIdle(t.span_);

    t.active_ = active_ * times;
    t.gaps_ = gaps_;
    for (auto &g : t.gaps_)
        g.count *= times;

    // Each of the times-1 seams fuses one trailing and one leading gap
    // into a single seam gap; the whole adjustment is three O(log G)
    // multiset updates instead of a loop over the repeat count.
    Cycles seam = trailingIdle_ + leadingIdle_;
    std::uint64_t seams = times - 1;
    t.removeGaps(trailingIdle_, seams);
    t.removeGaps(leadingIdle_, seams);
    t.insertGap(seam, seams);

    t.activations_ = activations_ * times - (seam == 0 ? seams : 0);
    t.leadingIdle_ = leadingIdle_;
    t.trailingIdle_ = trailingIdle_;
    t.checkInvariants();
    return t;
}

bool
ActivityTimeline::operator==(const ActivityTimeline &o) const
{
    return span_ == o.span_ && active_ == o.active_ &&
           activations_ == o.activations_ && gaps_ == o.gaps_ &&
           leadingIdle_ == o.leadingIdle_ &&
           trailingIdle_ == o.trailingIdle_;
}

void
ActivityTimeline::checkInvariants() const
{
    Cycles gap_total = 0;
    Cycles prev_len = 0;
    for (const auto &g : gaps_) {
        REGATE_ASSERT(g.length > 0 && g.count > 0,
                      "timeline has degenerate gap group");
        REGATE_ASSERT(g.length > prev_len,
                      "timeline gap groups unsorted or duplicated");
        prev_len = g.length;
        gap_total += g.length * g.count;
    }
    REGATE_ASSERT(active_ + gap_total == span_,
                  "timeline accounting broken: active ", active_,
                  " + gaps ", gap_total, " != span ", span_);
    REGATE_ASSERT((active_ == 0) == (activations_ == 0),
                  "activations inconsistent with active cycles");
}

}  // namespace core
}  // namespace regate
