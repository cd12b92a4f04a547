/**
 * @file
 * The shared pipeline substrate every stage operates on.
 *
 * PipelineState owns the structural resources (ROB, LSQ, IQ, physical
 * register files, rename maps, FU pool, PRF port model) and the
 * architectural machinery (trace source, predictors, memory hierarchy)
 * that the stage objects read and mutate through their tick() methods.
 * It also implements the cross-stage recovery machinery: a full squash
 * walks the stages in their fixed youngest-first unwind order
 * (PipelineStages::squash), and a resolved-branch redirect drops the
 * front end's speculative state (the Early Execution bypass).
 *
 * PipelineState is also the core's one counter record: it derives from
 * CoreStats, and each stage increments the field for an event where it
 * sees it. Stages keep only configuration scalars and their own scan
 * state.
 */

#ifndef EOLE_PIPELINE_PIPELINE_STATE_HH
#define EOLE_PIPELINE_PIPELINE_STATE_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "bpred/branch_unit.hh"
#include "common/queues.hh"
#include "mem/hierarchy.hh"
#include "pipeline/core_stats.hh"
#include "pipeline/dyn_inst.hh"
#include "pipeline/fu_pool.hh"
#include "pipeline/port_model.hh"
#include "pipeline/regfile.hh"
#include "pipeline/store_sets.hh"
#include "sim/config.hh"
#include "vpred/value_predictor.hh"
#include "workloads/workload.hh"

namespace eole {

class PipeTracer;
struct PipelineStages;

struct PipelineState : CoreStats
{
    PipelineState(const SimConfig &config, const Workload &workload);
    ~PipelineState();

    // --- Configuration & substrate ---
    SimConfig cfg;
    TraceSource ts;
    std::unique_ptr<ValuePredictor> vp;
    std::unique_ptr<BranchUnit> bu;
    std::unique_ptr<MemHierarchy> mem;
    std::unique_ptr<PhysRegFile> prf[numRegClasses];
    std::unique_ptr<RenameMap> rmap[numRegClasses];
    StoreSets ssets;
    FuPool fus;
    PrfPortModel ports;

    // --- Inter-stage pipeline registers ---

    /** Per-core DynInst arena. Declared before every container that
     *  holds DynInstPtr handles (and before the stages, via Core's
     *  member order) so reverse destruction drains all handles first —
     *  the pool panics on live objects (common/slab.hh lifetime
     *  rules). */
    DynInstPool dynInstPool;

    Cycle now = 0;
    DelayedPipe<DynInstPtr> frontPipe;  //!< fetch -> rename
    std::deque<DynInstPtr> renameOut;   //!< rename -> dispatch
    CircularQueue<DynInstPtr> rob;
    CircularQueue<DynInstPtr> lq;
    CircularQueue<DynInstPtr> sq;
    std::vector<DynInstPtr> iq;
    /** Bumped by every event that can change what the issue scan would
     *  find: a PRF readiness write outside the scan (dispatch's EE/VP
     *  port write — issue's own writes happen during a scan), an IQ
     *  insert, and a squash. IssueStage uses it to skip provably
     *  issue-free cycles (see IssueStage::tick). */
    std::uint64_t iqWakeEpoch = 0;
    /** Executed µ-ops waiting for their result-ready cycle
     *  (common/queues.hh timing wheel; drained by CompletionStage). */
    TimingWheel<DynInstPtr> completions;

    Cycle fetchStallUntil = 0;
    DynInstPtr fetchBlockedOnBranch;
    int bankCursor = 0;

    /** Optional commit observer, invoked for every retiring µ-op after
     *  the oracle check (tests and tools capture the commit stream
     *  through this; unset in normal runs). */
    std::function<void(const DynInst &)> onCommit;

    /** Per-µop lifecycle event sink (common/pipetrace.hh). Null in
     *  normal runs; every stage hook is guarded by this null check, so
     *  tracing off costs one predictable branch per event site. Set
     *  through Core::setPipeTracer. Non-owning. */
    PipeTracer *tracer = nullptr;

    /** The stages a squash unwinds and a redirect reaches. Set by the
     *  Core that owns both; non-owning. */
    PipelineStages *stages = nullptr;

    /** Start-of-cycle housekeeping (per-cycle port budgets). */
    void beginCycle();

    /** End-of-cycle housekeeping (advance time). */
    void endCycle();

    // --- Register helpers ---
    PhysRegFile &prfOf(RegClass cls) { return *prf[int(cls)]; }
    const PhysRegFile &prfOf(RegClass cls) const { return *prf[int(cls)]; }
    RenameMap &mapOf(RegClass cls) { return *rmap[int(cls)]; }

    int bankOfReg(RegClass cls, RegIndex phys) const;
    RegVal readOperand(const DynInst &di, int idx) const;

    /** Are both source operands of @p di ready? Memoized: when every
     *  producer has already scheduled its writeback, the combined
     *  ready cycle is final and is cached in @p di.srcReadyAt so later
     *  polls compare a field the issue scan already has in cache
     *  instead of re-reading the register file. */
    bool operandsReadyCaching(DynInst &di) const;

    // --- Recovery ---

    /**
     * Full squash of everything younger than @p keep_seq: every stage
     * unwinds its in-flight state (in PipelineStages::squash's order),
     * then the trace source rewinds and the front-end history is
     * restored.
     *
     * @param keep_seq youngest surviving sequence number
     * @param restore front-end snapshot to restore (state after
     *        keep_seq)
     * @param resume_fetch_at first cycle fetch may run again
     */
    void squashAfter(SeqNum keep_seq, const BranchUnit::SnapshotPtr &restore,
                     Cycle resume_fetch_at);

    /** Mark one µ-op squashed and release its predictor resources. */
    void markSquashed(const DynInstPtr &di);

    /** Walk back one µ-op's rename (map restore + register free). */
    void undoRename(const DynInstPtr &di);

    /** A mispredicted branch resolved: repair + un-stall fetch. */
    void resolveMispredictedBranch(const DynInstPtr &di);
};

} // namespace eole

#endif // EOLE_PIPELINE_PIPELINE_STATE_HH
