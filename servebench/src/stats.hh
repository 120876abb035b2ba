/**
 * @file
 * Exact order statistics over per-sample measurements.
 *
 * Percentiles here are computed from the samples themselves (nearest
 * rank on the sorted values), never from bucketed histograms, and
 * every reported percentile carries its sample count.
 */

#ifndef SERVEBENCH_STATS_HH
#define SERVEBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/** A percentile read from @p count sorted samples. */
struct Percentile
{
    double value = 0.0;
    double percent = 0.0;     //!< e.g. 99.0 for p99
    std::size_t beyond = 0;   //!< samples strictly after its rank
    std::size_t count = 0;    //!< samples it was read from
};

/** Samples that must lie beyond the reported tail percentile. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * Nearest-rank percentile of ascending @p sorted: the value at rank
 * ceil(q * n) (1-based), q in (0, 1]. Empty input gives value 0 and
 * count 0.
 */
Percentile percentile(const std::vector<double> &sorted, double q);

/** Percentiles a tail is read at, lowest first. */
inline constexpr double kTailLadder[] = {0.90, 0.95, 0.99};

/**
 * The tail: the highest percentile of kTailLadder that has at least
 * kTailBeyond samples beyond its rank. A fixed ladder keeps the tail at
 * the same percentile for every run of a workload (its sample count is
 * set by the schedule, not by speed), so runs compare like with like.
 * It stops at p99: a p99.9 rests on so few samples that one scheduler
 * stall of a few milliseconds decides it. With too few samples for p90
 * the maximum is returned, beyond = 0.
 */
Percentile tailPercentile(const std::vector<double> &sorted);

/** Frames per window of windowedTail. */
inline constexpr std::size_t kTailWindowFrames = 1000;

/** A tail read per window; see windowedTail. */
struct WindowedTail
{
    double value = 0.0;      //!< median over windows of the window tails
    std::size_t windows = 0;
    Percentile first;        //!< the first window's, for its percent and n
};

/**
 * Open-loop tail of @p in_order samples (in arrival order): the
 * tailPercentile of each window of @p window consecutive samples (the
 * last partial window joins the one before; fewer samples make one
 * window), and the median over windows. With 1000 samples a window's
 * tail is its p99, with 10 samples beyond it. A host stall delays the
 * samples of one window, so it cannot set the tail of a whole run.
 */
WindowedTail windowedTail(const std::vector<double> &in_order,
                          std::size_t window = kTailWindowFrames);

/** Median of @p values (mean of the middle two for even counts). */
double median(std::vector<double> values);

/**
 * Open-loop latency of one frame in milliseconds, timed from the
 * moment it was due rather than the moment it was submitted, so a
 * generator stall is charged to every frame it delayed:
 * (submit - due) + server-side submit->completion time.
 */
double dueLatencyMs(std::int64_t due_ns, std::int64_t submit_ns,
                    std::int64_t total_nanos);

} // namespace servebench

#endif // SERVEBENCH_STATS_HH
