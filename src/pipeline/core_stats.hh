/**
 * @file
 * The core's one counter record.
 *
 * PipelineState derives from CoreStats, so every stage counts into this
 * record at the point where it sees the event (`++st.loads`).
 * Core::stats() returns the live record and Core::resetStats() zeroes
 * it in one assignment; a new counter is one field here plus its
 * record() key.
 */

#ifndef EOLE_PIPELINE_CORE_STATS_HH
#define EOLE_PIPELINE_CORE_STATS_HH

#include <cstdint>

#include "common/stats.hh"

namespace eole {

/** Per-run core counters. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committedUops = 0;

    // Branches.
    std::uint64_t condBranches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t highConfBranches = 0;
    std::uint64_t highConfMispredicts = 0;
    std::uint64_t btbMissBubbles = 0;

    // Value prediction.
    std::uint64_t vpEligible = 0;
    std::uint64_t vpPredictionsUsed = 0;
    std::uint64_t vpCorrectUsed = 0;
    std::uint64_t vpMispredictSquashes = 0;

    // EOLE.
    std::uint64_t earlyExecuted = 0;
    std::uint64_t lateExecutedAlu = 0;
    std::uint64_t lateExecutedBranches = 0;

    // Memory.
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t storeToLoadForwards = 0;
    std::uint64_t memOrderViolations = 0;

    // Stalls.
    std::uint64_t renameBankStalls = 0;
    std::uint64_t dispatchPortStalls = 0;
    std::uint64_t commitPortStalls = 0;
    std::uint64_t robFullStalls = 0;
    std::uint64_t iqFullStalls = 0;

    // Occupancy.
    std::uint64_t iqOccupancySum = 0;
    std::uint64_t dispatchedToIQ = 0;

    double ipc() const { return ratio(double(committedUops), double(cycles)); }

    StatRecord record() const;
};

} // namespace eole

#endif // EOLE_PIPELINE_CORE_STATS_HH
