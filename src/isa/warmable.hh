/**
 * @file
 * WarmableComponent: the update-only interface behind functional
 * warming (SMARTS-style sampling, sim/sample/).
 *
 * A warmable component consumes the architecturally-correct committed
 * µ-op stream in order and updates its *predictive* state — predictor
 * tables, histories, cache tags/LRU — without any timing simulation.
 * Streaming a trace prefix through the warmable components of a core
 * puts its substrate close to where a full detailed run would have
 * left it, at a small fraction of the cost; a short detailed warmup
 * then absorbs the residual transient (pipeline occupancy, in-flight
 * predictor instances). See DESIGN.md §8 for the exact fidelity
 * contract of each implementor.
 *
 * Warmed state travels in two equivalent forms:
 *  - by value, inside one process: clone() copies the complete
 *    predictive state into a detached instance and copyStateFrom()
 *    copies it back into a same-geometry one. The sampling subsystem
 *    warms each (config, workload) cell once and feeds every
 *    measurement interval from such copies (isa/checkpoint.hh,
 *    sim/sample/);
 *  - as canonical byte-stable text, wherever state leaves the
 *    process: appendSnapshot() writes the complete predictive state
 *    (tables, histories, LRU/row/bus state, the warming pseudo-clock
 *    and every RNG) into a buffer, snapshotState() to a stream, and
 *    restoreState() rebuilds it. That is the form of `eole ckpt save`
 *    files and store objects.
 * Either way the restored component's future decisions are identical
 * to the original's, and a by-value copy snapshots to the original's
 * exact bytes (both pinned by tests/test_ckpt_state.cc).
 *
 * Implementors: BranchUnit (bpred/), ValuePredictor (vpred/),
 * MemHierarchy (mem/).
 */

#ifndef EOLE_ISA_WARMABLE_HH
#define EOLE_ISA_WARMABLE_HH

#include <memory>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "isa/trace.hh"

namespace eole {

class WarmableComponent
{
  public:
    virtual ~WarmableComponent() = default;

    /**
     * Observe one µ-op of the committed stream (called in program
     * order) and update internal predictive state only. Must be
     * deterministic: warming the same stream twice from the same
     * initial state yields identical component state.
     */
    virtual void warmUpdate(const TraceUop &uop) = 0;

    /**
     * Append the complete predictive state to @p out as canonical text
     * (isa/snapshot.hh): writing the same state twice yields identical
     * bytes, and statistics counters are excluded (they are
     * measurement state, zeroed by Core::resetTiming before any
     * measured window opens).
     */
    virtual void appendSnapshot(std::string &out) const = 0;

    /** The appendSnapshot() text, written to @p os. */
    void
    snapshotState(std::ostream &os) const
    {
        std::string text;
        appendSnapshot(text);
        os.write(text.data(), static_cast<std::streamsize>(text.size()));
    }

    /**
     * Rebuild state from an appendSnapshot() document into an instance
     * of the *same configured geometry* (fatal, with the section name
     * and line number, on geometry mismatch or any malformed/truncated
     * input). Afterwards the component is decision-for-decision
     * identical to the snapshotted one.
     */
    virtual void restoreState(std::istream &is) = 0;

    /**
     * A by-value copy of the complete predictive state: a new instance
     * of the same kind and geometry holding exactly what
     * appendSnapshot() would write. The copy carries state, not wiring:
     * a value predictor's clone is bound to no branch history, so it
     * serves as a snapshot source and a copyStateFrom() source only.
     */
    virtual std::unique_ptr<WarmableComponent> clone() const = 0;

    /**
     * The by-value restoreState(): copy @p src's predictive state into
     * this instance, which keeps its own wiring (cache next-level
     * links, the value predictor's history binding, the branch
     * snapshot pool) and its statistics counters. Fatal on a kind
     * mismatch and on every geometry mismatch restoreState rejects.
     */
    virtual void copyStateFrom(const WarmableComponent &src) = 0;
};

/** copyStateFrom's source as the implementor's own type @p T (fatal,
 *  naming @p what, when it is another kind of component). */
template <typename T>
const T &
copySource(const WarmableComponent &src, const char *what)
{
    const T *same = dynamic_cast<const T *>(&src);
    fatal_if(same == nullptr,
             "%s copy: the source is a different kind of component",
             what);
    return *same;
}

/** A geometry check of copyStateFrom: unless @p same, fatal with
 *  "<what> copy: <mismatch>", in restoreState's wording. */
inline void
copyCheck(bool same, const char *what, const char *mismatch)
{
    fatal_if(!same, "%s copy: %s", what, mismatch);
}

} // namespace eole

#endif // EOLE_ISA_WARMABLE_HH
