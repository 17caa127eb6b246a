#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/**
 * @file
 * The benchmark's own arithmetic: percentiles, the geometric mean over
 * circuits, the tail-percentile rule, the statistical acceptance bound for
 * sampled distributions, and layer self time.  Pure functions, so
 * tests/perfbench_test.cc pins each one.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Linear-interpolation percentile @p p (0..100) of @p values (any order).
 *  Throws std::invalid_argument on an empty sample. */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        throw std::invalid_argument("percentile: empty sample");
    }
    std::sort(values.begin(), values.end());
    const double pos =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/**
 * The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that still
 * has at least @p min_beyond samples above it in a sample of @p n, i.e.
 * n * (1 - p/100) >= min_beyond.  Returns 50 when even the median has fewer
 * (the median is always reported).
 */
inline double
tail_percentile(std::size_t n, std::size_t min_beyond = 10)
{
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        // Compare in integers of tenths of a percent to avoid rounding
        // n = 200 at p95 (exactly 10 beyond) to 9.999...
        const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10));
        if (static_cast<std::uint64_t>(n) * (1000 - tenths) >=
            static_cast<std::uint64_t>(min_beyond) * 1000) {
            return p;
        }
    }
    return 50.0;
}

/** Geometric mean of strictly positive @p values.  Throws on an empty
 *  sample or a non-positive entry. */
inline double
geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        throw std::invalid_argument("geomean: empty sample");
    }
    double log_sum = 0.0;
    for (const double v : values) {
        if (!(v > 0.0)) {
            throw std::invalid_argument("geomean: non-positive value");
        }
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/**
 * Bretagnolle–Huber–Carol bound: for n i.i.d. draws from a distribution over
 * k categories, P(||p_hat - p||_1 >= eps) <= 2^k exp(-n eps^2 / 2).  Returns
 * the eps at which that tail probability equals @p delta.
 *
 * The same bound holds when p_hat is the mean of n i.i.d. random
 * probability vectors with mean p (Hoeffding on each of the 2^k events plus
 * a union bound; one-hot vectors are the multinomial case).  A reuse tree's
 * shots are not independent — siblings share their ancestors' noise — but
 * its level-0 subtrees are: pass their count, not the shot count.
 */
inline double
bhc_l1_bound(std::uint64_t samples, std::uint64_t categories, double delta)
{
    if (samples == 0 || categories == 0 || !(delta > 0.0 && delta < 1.0)) {
        throw std::invalid_argument("bhc_l1_bound: bad arguments");
    }
    const double log_terms = static_cast<double>(categories) * std::log(2.0) +
                             std::log(1.0 / delta);
    return std::sqrt(2.0 * log_terms / static_cast<double>(samples));
}

/** Indices of the @p count most likely outcomes of @p reference (ties to
 *  the lower index), most likely first. */
inline std::vector<std::size_t>
top_outcomes(const std::vector<double>& reference, std::size_t count)
{
    std::vector<std::size_t> idx(reference.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        idx[i] = i;
    }
    count = std::min(count, idx.size());
    std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(count),
                      idx.end(), [&](std::size_t a, std::size_t b) {
                          return reference[a] > reference[b] ||
                                 (reference[a] == reference[b] && a < b);
                      });
    idx.resize(count);
    return idx;
}

/** @p probs on the buckets {top[0]}, ..., {top[K-1]}, everything else. */
inline std::vector<double>
coarsen(const std::vector<double>& probs, const std::vector<std::size_t>& top)
{
    std::vector<double> out(top.size() + 1, 0.0);
    double in_top = 0.0;
    for (std::size_t b = 0; b < top.size(); ++b) {
        out[b] = probs.at(top[b]);
        in_top += out[b];
    }
    double total = 0.0;
    for (const double p : probs) {
        total += p;
    }
    out.back() = std::max(0.0, total - in_top);
    return out;
}

/** L1 distance between two probability vectors of equal length. */
inline double
l1_distance(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size()) {
        throw std::invalid_argument("l1_distance: size mismatch");
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum += std::abs(a[i] - b[i]);
    }
    return sum;
}

/**
 * A layer's self share: the part of its capacity (wall seconds x threads
 * that could run it) that its traced child spans do not cover.
 * @p child_ns is the summed child time over all threads.
 */
inline double
self_fraction(double child_ns, double wall_ns, int threads)
{
    if (!(wall_ns > 0.0) || threads < 1) {
        throw std::invalid_argument("self_fraction: bad capacity");
    }
    return 1.0 - child_ns / (wall_ns * static_cast<double>(threads));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
