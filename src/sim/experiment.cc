#include "sim/experiment.hh"

#include <cmath>
#include <thread>

#include "common/env.hh"

namespace eole {

std::uint64_t
warmupUops()
{
    return envU64("EOLE_WARMUP", defaultWarmupUops, maxRunLengthUops);
}

std::uint64_t
measureUops()
{
    return envU64("EOLE_INSTS", defaultMeasureUops, maxRunLengthUops);
}

int
runnerThreads()
{
    const auto hw = std::thread::hardware_concurrency();
    return static_cast<int>(envU64("EOLE_THREADS", hw ? hw : 4));
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace eole
