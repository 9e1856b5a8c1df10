#include "common/stats.hh"

#include <cassert>
#include <cmath>

namespace cdvm
{

LogHistogram::LogHistogram(double b, unsigned num_buckets)
    : base(b), counts(num_buckets, 0.0)
{
    assert(b > 1.0 && num_buckets >= 1);
}

unsigned
LogHistogram::bucketOf(u64 value) const
{
    if (value < static_cast<u64>(base))
        return 0;
    unsigned k = static_cast<unsigned>(std::log(static_cast<double>(value)) /
                                       std::log(base));
    // Guard against floating-point edge effects at exact powers.
    while (k + 1 < counts.size() &&
           static_cast<double>(value) >= std::pow(base, k + 1)) {
        ++k;
    }
    while (k > 0 && static_cast<double>(value) < std::pow(base, k))
        --k;
    if (k >= counts.size())
        k = static_cast<unsigned>(counts.size()) - 1;
    return k;
}

u64
LogHistogram::bucketLow(unsigned k) const
{
    assert(k < counts.size());
    if (k == 0)
        return 0;
    return static_cast<u64>(std::llround(std::pow(base, k)));
}

void
LogHistogram::add(u64 value, double weight)
{
    counts[bucketOf(value)] += weight;
    total += weight;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
LogHistogram::percentile(double p) const
{
    if (total <= 0.0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    const double target = total * p / 100.0;
    double cum = 0.0;
    for (unsigned k = 0; k < counts.size(); ++k) {
        if (counts[k] <= 0.0)
            continue;
        if (cum + counts[k] >= target) {
            // Interpolate within [low, high) by the fraction of the
            // bucket's weight needed to reach the target.
            double low = static_cast<double>(bucketLow(k));
            double high =
                k + 1 < counts.size()
                    ? static_cast<double>(bucketLow(k + 1))
                    : low * base;
            if (k == 0)
                high = base; // bucket 0 covers [0, base)
            double frac = counts[k] > 0.0
                              ? (target - cum) / counts[k]
                              : 0.0;
            return low + frac * (high - low);
        }
        cum += counts[k];
    }
    // All weight below target (p == 100 with rounding): top edge.
    unsigned last = static_cast<unsigned>(counts.size()) - 1;
    return static_cast<double>(bucketLow(last)) * base;
}

double
LogHistogram::weightAtOrAbove(u64 threshold) const
{
    double sum = 0.0;
    for (unsigned k = 0; k < counts.size(); ++k) {
        if (bucketLow(k) >= threshold)
            sum += counts[k];
    }
    return sum;
}

} // namespace cdvm
