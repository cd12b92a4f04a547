/**
 * @file
 * Checkpoint: a resumable simulation start point inside a workload's
 * dynamic µ-op stream.
 *
 * A checkpoint pins (a) the position in the functional stream — the
 * FrozenTrace cursor, as a count of µ-ops already executed — and (b)
 * the architectural register state at that boundary, i.e. exactly what
 * a live KernelVM would hold after stepping that many µ-ops. Because
 * the timing core is trace-driven (load values and branch outcomes
 * travel in the TraceUop records), registers + cursor are the complete
 * architectural restart state: simulated data memory never needs to be
 * serialized.
 *
 * On top of the architectural state, a checkpoint may carry the warmed
 * *microarchitectural* state of the core that produced it: one named
 * section per WarmableComponent (isa/warmable.hh) — predictor tables,
 * histories, cache tags/LRU, DRAM rows, the warming pseudo-clock.
 * Core::restoreWarmState() rebuilds a same-configuration core to the
 * exact state continuous functional warming would have produced, which
 * is what lets the sampling subsystem warm each (config, workload)
 * cell once and feed every measurement interval from checkpoints
 * (sim/sample/), and what makes checkpoint directories the unit
 * shipped across hosts (`eole ckpt save`).
 *
 * A section holds its state in one of two forms. Inside one process it
 * is a by-value copy (WarmableComponent::clone): Core::captureWarmState
 * takes copies and restoreWarmState copies them back, with no text in
 * between. A checkpoint parsed from a file or the store holds each
 * component's appendSnapshot() text instead. appendCheckpoint renders
 * a by-value section through the component's appendSnapshot, so both
 * forms of the same state serialize to the same bytes (pinned by
 * tests/test_sample.cc).
 *
 * Checkpoints come from two equivalent sources (pinned equal by
 * tests/test_sample.cc):
 *  - captureFromVM: snapshot a live KernelVM mid-run, and
 *  - captureAt: reconstruct the register state at any index of a
 *    FrozenTrace by scalar-replaying its destination writes — no VM
 *    re-execution, one linear scan, resumable from an earlier capture.
 *
 * Serialized forms are canonical text: writing the same checkpoint
 * twice yields identical bytes, and a serialize -> deserialize -> run
 * equals a straight-through run commit-for-commit (the sampling
 * subsystem's correctness anchor). A checkpoint without µarch sections
 * serializes as the legacy "eole-ckpt-v1" schema, byte-identical to
 * earlier releases; one with sections uses "eole-ckpt-v2" (v1 stays
 * readable forever). Parsing is strict with line-numbered diagnostics
 * (fuzzed in tests/test_torture.cc).
 */

#ifndef EOLE_ISA_CHECKPOINT_HH
#define EOLE_ISA_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/frozen_trace.hh"
#include "isa/warmable.hh"

namespace eole {

class KernelVM;

/**
 * One named µarch section: a WarmableComponent's warmed state, held by
 * value (in-process captures) or as its appendSnapshot() text
 * (checkpoints parsed from a file or the store).
 */
struct CheckpointSection
{
    std::string name;   //!< "branch", "vpred" or "mem"
    std::string text;   //!< appendSnapshot() document; empty by value
    /** The by-value copy (shared, immutable), or null for text. */
    std::shared_ptr<const WarmableComponent> state;

    CheckpointSection(std::string name_, std::string text_)
        : name(std::move(name_)), text(std::move(text_))
    {
    }

    CheckpointSection(std::string name_,
                      std::shared_ptr<const WarmableComponent> state_)
        : name(std::move(name_)), state(std::move(state_))
    {
    }

    /** The appendSnapshot() document: the text, or rendered from the
     *  by-value copy. */
    std::string payload() const;

    /** Restore into @p target: copyStateFrom for a by-value section,
     *  restoreState over the text otherwise. */
    void restoreInto(WarmableComponent &target) const;

    /** Equal names and equal payload bytes, whatever the forms. */
    bool operator==(const CheckpointSection &o) const;
};

/** Architectural (+ optionally microarchitectural) restart state at a
 *  µ-op boundary. */
struct Checkpoint
{
    std::string workload;        //!< registry name (provenance only)
    std::string config;          //!< producing config (provenance,
                                 //!< v2 only; empty for pure-arch v1)
    std::uint64_t uopIndex = 0;  //!< µ-ops executed before this point
    RegVal intRegs[numArchIntRegs] = {};
    RegVal fpRegs[numArchFpRegs] = {};

    /**
     * Named µarch sections, canonical order ("branch", "vpred" when
     * value prediction is on, "mem"). Empty for purely architectural
     * (v1) checkpoints.
     */
    std::vector<CheckpointSection> uarch;

    /** Does this checkpoint carry warmed µarch state (v2)? */
    bool hasWarmState() const { return !uarch.empty(); }

    bool
    operator==(const Checkpoint &o) const
    {
        if (workload != o.workload || config != o.config
            || uopIndex != o.uopIndex || uarch != o.uarch)
            return false;
        for (int r = 0; r < numArchIntRegs; ++r) {
            if (intRegs[r] != o.intRegs[r])
                return false;
        }
        for (int r = 0; r < numArchFpRegs; ++r) {
            if (fpRegs[r] != o.fpRegs[r])
                return false;
        }
        return true;
    }
};

/**
 * Reconstruct the architectural state after the first @p uop_index
 * µ-ops of @p trace by replaying destination writes over the trace's
 * post-init register image. Exact: bit-identical to stepping a live
 * VM the same distance.
 *
 * @param trace the recorded stream (must cover uop_index µ-ops)
 * @param workload_name provenance tag stored in the checkpoint
 * @param uop_index boundary (0 = the trace's own start state)
 */
Checkpoint captureAt(const FrozenTrace &trace,
                     const std::string &workload_name,
                     std::uint64_t uop_index);

/**
 * captureAt resumed from @p from, an earlier capture of the same trace
 * (from.uopIndex <= @p uop_index): replays only the destination writes
 * in between, so a pass over increasing indices costs one scan in
 * total. Bit-identical to the from-scratch form (pinned by
 * tests/test_sample.cc). The result is architectural only.
 */
Checkpoint captureAt(const FrozenTrace &trace,
                     const std::string &workload_name,
                     std::uint64_t uop_index, const Checkpoint &from);

/** Snapshot a live VM mid-run (uopIndex = vm.executedUops()). */
Checkpoint captureFromVM(const KernelVM &vm,
                         const std::string &workload_name);

/** The schema name serializeCheckpoint writes for @p ckpt:
 *  "eole-ckpt-v1" for purely architectural checkpoints (byte-
 *  compatible with earlier releases), "eole-ckpt-v2" when µarch
 *  sections or provenance ride along. */
const char *checkpointSchemaName(const Checkpoint &ckpt);

/** Append the canonical text of @p ckpt (schema per
 *  checkpointSchemaName) to @p out; by-value sections render straight
 *  into @p out through their appendSnapshot. */
void appendCheckpoint(std::string &out, const Checkpoint &ckpt);

/** appendCheckpoint's text, written to @p os. */
void serializeCheckpoint(std::ostream &os, const Checkpoint &ckpt);

/**
 * Strict parse of either schema. Returns true and fills @p out on
 * success; otherwise false with a line-numbered diagnostic in @p err
 * ("checkpoint line N: ..."). Never crashes on corrupt input — the
 * operator-facing form behind `eole ckpt info` exit-2 diagnostics
 * (fuzzed in tests/test_torture.cc).
 */
bool tryDeserializeCheckpoint(std::istream &is, Checkpoint *out,
                              std::string *err);

/** Parse a serialized checkpoint (fatal on malformed input). */
Checkpoint deserializeCheckpoint(std::istream &is);

/** Convenience: serialize to / parse from a string. */
std::string checkpointString(const Checkpoint &ckpt);
Checkpoint checkpointFromString(const std::string &text);

} // namespace eole

#endif // EOLE_ISA_CHECKPOINT_HH
