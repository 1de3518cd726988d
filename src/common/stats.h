/**
 * @file
 * Summary statistics and percentile accumulators used by the
 * benchmarks and the serving metrics collector.
 */
#ifndef POD_COMMON_STATS_H
#define POD_COMMON_STATS_H

#include <cstddef>
#include <vector>

namespace pod {

/**
 * Accumulates scalar samples and reports summary statistics.
 *
 * The multiset is stored as run-length (value, count) pairs in
 * insertion order: Add() extends the last run when the new sample is
 * bit-identical to it. A stream of repeated values — one inter-token
 * gap shared by every decode of an iteration — therefore costs one
 * run, not one double per sample.
 *
 * Exactness contract: every accessor returns what a plain vector of
 * the samples would, bit for bit. Sum, Mean and Stddev add the
 * samples one by one in insertion order (a run of n adds its value n
 * times); Min and Max scan the runs in insertion order; Percentile
 * reads order statistics from a lazily built sorted, merged copy of
 * the runs. No accessor reorders the stored runs.
 */
class SampleStats
{
  public:
    /** `count` consecutive samples of `value`. */
    struct Run
    {
        double value = 0.0;
        size_t count = 0;
    };

    /** Add one sample. */
    void Add(double value);

    /** Add many samples. */
    void AddAll(const std::vector<double>& values);

    /** Append another set's samples after this one's, in its order. */
    void Append(const SampleStats& other);

    /** Make room for `runs` runs, so appends up to it never regrow. */
    void Reserve(size_t runs) { runs_.reserve(runs); }

    /** Number of samples recorded. */
    size_t Count() const { return count_; }

    /** Arithmetic mean (0 if empty). */
    double Mean() const;

    /** Population standard deviation (0 if fewer than 2 samples). */
    double Stddev() const;

    /** Minimum sample (0 if empty). */
    double Min() const;

    /** Maximum sample (0 if empty). */
    double Max() const;

    /** Sum of all samples, added in insertion order. */
    double Sum() const;

    /**
     * Exact percentile via linear interpolation between order
     * statistics. @param p in [0, 100].
     */
    double Percentile(double p) const;

    /** Median, shorthand for Percentile(50). */
    double Median() const { return Percentile(50.0); }

    /** Fraction of samples strictly greater than the threshold. */
    double FractionAbove(double threshold) const;

    /** The samples as maximal runs, in insertion order. */
    const std::vector<Run>& Runs() const { return runs_; }

    /** Reset to empty. */
    void Clear();

  private:
    /** A distinct value and the number of samples <= it. */
    struct OrderStat
    {
        double value;
        size_t end;
    };

    /** Build the sorted order statistics unless already built. */
    void EnsureSorted() const;

    /** The sample at `rank` in sorted order (rank < Count()). */
    double SortedAt(size_t rank) const;

    std::vector<Run> runs_;
    size_t count_ = 0;
    /** Sorted, merged runs; empty until a percentile query. */
    mutable std::vector<OrderStat> sorted_;
};

}  // namespace pod

#endif  // POD_COMMON_STATS_H
