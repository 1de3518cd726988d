/**
 * @file
 * Implementation of SampleStats.
 */
#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace pod {

namespace {

/** Bit-identical, so 0.0 and -0.0 stay distinct runs. */
bool
SameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void
SampleStats::Add(double value)
{
    if (!runs_.empty() && SameBits(runs_.back().value, value)) {
        ++runs_.back().count;
    } else {
        runs_.push_back(Run{value, 1});
    }
    ++count_;
    sorted_.clear();
}

void
SampleStats::AddAll(const std::vector<double>& values)
{
    for (double v : values) Add(v);
}

void
SampleStats::Append(const SampleStats& other)
{
    if (other.runs_.empty()) return;
    auto first = other.runs_.begin();
    if (!runs_.empty() && SameBits(runs_.back().value, first->value)) {
        runs_.back().count += first->count;
        ++first;
    }
    runs_.insert(runs_.end(), first, other.runs_.end());
    count_ += other.count_;
    sorted_.clear();
}

double
SampleStats::Mean() const
{
    if (count_ == 0) return 0.0;
    return Sum() / static_cast<double>(count_);
}

double
SampleStats::Sum() const
{
    // One addition per sample: a run of n is not n * value, which
    // rounds differently.
    double total = 0.0;
    for (const Run& r : runs_) {
        for (size_t i = 0; i < r.count; ++i) total += r.value;
    }
    return total;
}

double
SampleStats::Stddev() const
{
    if (count_ < 2) return 0.0;
    double mean = Mean();
    double acc = 0.0;
    for (const Run& r : runs_) {
        double sq = (r.value - mean) * (r.value - mean);
        for (size_t i = 0; i < r.count; ++i) acc += sq;
    }
    return std::sqrt(acc / static_cast<double>(count_));
}

double
SampleStats::Min() const
{
    // First minimal sample in insertion order, as std::min_element.
    if (runs_.empty()) return 0.0;
    double best = runs_.front().value;
    for (const Run& r : runs_) {
        if (r.value < best) best = r.value;
    }
    return best;
}

double
SampleStats::Max() const
{
    // First maximal sample in insertion order, as std::max_element.
    if (runs_.empty()) return 0.0;
    double best = runs_.front().value;
    for (const Run& r : runs_) {
        if (best < r.value) best = r.value;
    }
    return best;
}

void
SampleStats::EnsureSorted() const
{
    if (!sorted_.empty()) return;
    std::vector<Run> runs = runs_;
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
        return a.value < b.value;
    });
    size_t end = 0;
    for (const Run& r : runs) {
        end += r.count;
        if (!sorted_.empty() && SameBits(sorted_.back().value, r.value)) {
            sorted_.back().end = end;
        } else {
            sorted_.push_back(OrderStat{r.value, end});
        }
    }
}

double
SampleStats::SortedAt(size_t rank) const
{
    auto it = std::upper_bound(
        sorted_.begin(), sorted_.end(), rank,
        [](size_t r, const OrderStat& s) { return r < s.end; });
    return it->value;
}

double
SampleStats::Percentile(double p) const
{
    POD_CHECK_ARG(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
    if (count_ == 0) return 0.0;
    EnsureSorted();
    if (count_ == 1) return sorted_.front().value;
    double rank = (p / 100.0) * static_cast<double>(count_ - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, count_ - 1);
    double frac = rank - static_cast<double>(lo);
    return SortedAt(lo) * (1.0 - frac) + SortedAt(hi) * frac;
}

double
SampleStats::FractionAbove(double threshold) const
{
    if (count_ == 0) return 0.0;
    size_t n = 0;
    for (const Run& r : runs_) {
        if (r.value > threshold) n += r.count;
    }
    return static_cast<double>(n) / static_cast<double>(count_);
}

void
SampleStats::Clear()
{
    runs_.clear();
    count_ = 0;
    sorted_.clear();
}

}  // namespace pod
