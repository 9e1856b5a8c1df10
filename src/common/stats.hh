/**
 * @file
 * Lightweight statistics: running averages and the
 * logarithmically-bucketed histograms used by the frequency-profile
 * experiments (paper Figure 3).
 */

#ifndef CDVM_COMMON_STATS_HH
#define CDVM_COMMON_STATS_HH

#include <vector>

#include "common/types.hh"

namespace cdvm
{

/** A running mean / min / max / variance over double samples. */
class RunningStat
{
  public:
    void
    add(double v)
    {
        if (n == 0 || v < mn)
            mn = v;
        if (n == 0 || v > mx)
            mx = v;
        sum += v;
        sumSq += v * v;
        ++n;
    }

    u64 count() const { return n; }
    double mean() const { return n ? sum / n : 0.0; }
    double min() const { return mn; }
    double max() const { return mx; }
    double total() const { return sum; }

    /** Population variance (0 with fewer than two samples). */
    double
    variance() const
    {
        if (n < 2)
            return 0.0;
        double m = mean();
        double v = sumSq / n - m * m;
        return v > 0.0 ? v : 0.0; // clamp catastrophic cancellation
    }

    /** Population standard deviation. */
    double stddev() const;

  private:
    u64 n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double mn = 0.0;
    double mx = 0.0;
};

/**
 * Histogram over power-of-base buckets: bucket k covers
 * [base^k, base^(k+1)). Bucket 0 additionally absorbs values < base.
 * Used for the Fig. 3 execution-frequency profile (base 10).
 */
class LogHistogram
{
  public:
    explicit LogHistogram(double base = 10.0, unsigned num_buckets = 10);

    /** Record one occurrence of the given value with the given weight. */
    void add(u64 value, double weight = 1.0);

    /** Index of the bucket that value falls into. */
    unsigned bucketOf(u64 value) const;

    /** Lower edge of bucket k (base^k, with bucket 0 starting at 0). */
    u64 bucketLow(unsigned k) const;

    double bucketWeight(unsigned k) const { return counts.at(k); }
    unsigned numBuckets() const { return static_cast<unsigned>(counts.size()); }
    /** The bucket base (copying registries needs the geometry). */
    double logBase() const { return base; }
    double totalWeight() const { return total; }

    /** Sum of bucket weights for buckets whose low edge >= threshold. */
    double weightAtOrAbove(u64 threshold) const;

    /**
     * Approximate p-th percentile (p in [0, 100]) of the recorded
     * values, linearly interpolated within the containing bucket.
     * Returns 0 for an empty histogram.
     */
    double percentile(double p) const;

  private:
    double base;
    std::vector<double> counts;
    double total = 0.0;
};

} // namespace cdvm

#endif // CDVM_COMMON_STATS_HH
