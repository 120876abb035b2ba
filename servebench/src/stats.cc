#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace servebench {

Percentile
percentile(const std::vector<double> &sorted, double q)
{
    Percentile p;
    p.count = sorted.size();
    p.percent = 100.0 * q;
    if (sorted.empty())
        return p;
    const double n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    p.value = sorted[rank - 1];
    p.beyond = sorted.size() - rank;
    return p;
}

Percentile
tailPercentile(const std::vector<double> &sorted)
{
    Percentile best;
    best.count = sorted.size();
    if (sorted.empty())
        return best;
    best.value = sorted.back();
    best.percent = 100.0;
    for (double q : kTailLadder) {
        const Percentile p = percentile(sorted, q);
        if (p.beyond < kTailBeyond)
            break;
        best = p;
    }
    return best;
}

WindowedTail
windowedTail(const std::vector<double> &in_order, std::size_t window)
{
    WindowedTail out;
    out.windows = std::max<std::size_t>(1, in_order.size() / window);
    std::vector<double> tails;
    for (std::size_t w = 0; w < out.windows; ++w) {
        const auto begin =
            in_order.begin() + static_cast<std::ptrdiff_t>(w * window);
        const auto end = w + 1 == out.windows
                             ? in_order.end()
                             : begin + static_cast<std::ptrdiff_t>(window);
        std::vector<double> sorted(begin, end);
        std::sort(sorted.begin(), sorted.end());
        const Percentile p = tailPercentile(sorted);
        if (w == 0)
            out.first = p;
        tails.push_back(p.value);
    }
    out.value = median(tails);
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
dueLatencyMs(std::int64_t due_ns, std::int64_t submit_ns,
             std::int64_t total_nanos)
{
    return static_cast<double>((submit_ns - due_ns) + total_nanos) / 1e6;
}

} // namespace servebench
