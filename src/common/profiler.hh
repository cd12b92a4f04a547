/**
 * @file
 * The tick-loop profiler behind `eole bench --profile`.
 *
 * A fixed set of sections (one per pipeline stage tick, plus the
 * predictor-model, memory-hierarchy, and functional-warming phases)
 * accumulate wall nanoseconds in relaxed atomics. The whole facility
 * hides behind one global bool: when profiling is off, a ScopedTimer
 * costs a single predictable branch and no clock reads, so leaving the
 * instrumentation compiled into the hot tick loop is free (the bench
 * lane enforces this).
 *
 * Nesting: the Model* sections time model calls made *inside* stage
 * ticks (e.g. the value-predictor lookup inside fetch), so they are
 * nested within the Stage* sections and must not be added to them when
 * reconciling against total run time. The self-consistency invariant is
 * over the top-level sections only: sum(Stage*) + sum(Warm*) <= total
 * measured wall time (modulo clock-read overhead). The LE/VT stage's
 * work runs inside commit's tick and is timed in StageCommit.
 *
 * Off until setEnabled(true); `eole bench --profile`, the only reader
 * of the sections, turns it on for its measured runs.
 */

#ifndef EOLE_COMMON_PROFILER_HH
#define EOLE_COMMON_PROFILER_HH

#include <chrono>
#include <cstdint>

namespace eole {
namespace prof {

enum Section : int {
    StageFetch,
    StageRename,
    StageDispatch,
    StageIssue,
    StageCompletion,
    StageCommit,
    ModelVpred,      ///< value-predictor lookup/train (nested in stages)
    ModelBpred,      ///< branch-predictor lookup/train (nested in stages)
    ModelMem,        ///< memory-hierarchy accesses (nested in stages)
    WarmFunctional,  ///< functional warming walk (predictor/memory updates)
    WarmRestore,     ///< warm-state checkpoint restore
    NumSections,
};

/** Dotted stable name, e.g. "stage.issue", "model.vpred". */
const char *sectionName(Section s);

/** True when profiling is on (setEnabled). */
bool enabled();
void setEnabled(bool on);

/** Zero all section accumulators. */
void reset();

/** Accumulated nanoseconds / timer count for one section. */
std::uint64_t sectionNanos(Section s);
std::uint64_t sectionCount(Section s);

void add(Section s, std::uint64_t nanos);

/**
 * Times one section for the enclosing scope. When profiling is
 * disabled the constructor takes one branch and the destructor another;
 * no clocks are read.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Section s)
        : section_(s), active_(enabled())
    {
        if (active_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (active_) {
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_).count();
            add(section_, static_cast<std::uint64_t>(ns));
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Section section_;
    bool active_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace prof
} // namespace eole

#endif // EOLE_COMMON_PROFILER_HH
