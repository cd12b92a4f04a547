#include "pipeline/pipeline_state.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "common/profiler.hh"
#include "pipeline/stages/pipeline_stages.hh"

namespace eole {

PipelineState::PipelineState(const SimConfig &config, const Workload &workload)
    : cfg(config), ts(workload.makeTrace()),
      vp(createValuePredictor(cfg.vp, cfg.seed ^ 0x70)),
      ssets(cfg.ssitLog2Entries, cfg.lfstEntries),
      fus(cfg.numAlu, cfg.numMulDiv, cfg.numFp, cfg.numFpMulDiv,
          cfg.numMemPorts),
      ports(cfg.prfBanks, cfg.eeWritePortsPerBank, cfg.levtReadPortsPerBank),
      frontPipe(cfg.frontEndCycles, cfg.fetchWidth,
                static_cast<size_t>(cfg.frontEndCycles) * cfg.fetchWidth),
      rob(cfg.robEntries), lq(cfg.lqEntries), sq(cfg.sqEntries)
{
    fatal_if(cfg.levtReadPortsPerBank == 1,
             "LE/VT needs >= 2 read ports per bank (a late-executed µ-op "
             "may read two operands from one bank)");
    fatal_if(cfg.prfBanks > 64, "at most 64 PRF banks supported");

    // The branch unit owns the global history; VTAGE folds ride along.
    std::vector<std::pair<int, int>> extra;
    if (vp)
        extra = vp->foldSpecs();
    bu = std::make_unique<BranchUnit>(cfg.bp, extra, cfg.seed ^ 0xb0);
    if (vp)
        vp->bindHistory(bu->history(), bu->extraFoldBase());

    mem = std::make_unique<MemHierarchy>(cfg.mem);

    prf[0] = std::make_unique<PhysRegFile>(cfg.physIntRegs, cfg.prfBanks);
    prf[1] = std::make_unique<PhysRegFile>(cfg.physFpRegs, cfg.prfBanks);
    rmap[0] = std::make_unique<RenameMap>(numArchIntRegs);
    rmap[1] = std::make_unique<RenameMap>(numArchFpRegs);

    // Initial mapping: arch reg i -> phys reg i, holding the VM's
    // post-init architectural values.
    prf[0]->initFreeLists(numArchIntRegs);
    prf[1]->initFreeLists(numArchFpRegs);
    for (int r = 0; r < numArchIntRegs; ++r) {
        rmap[0]->rename(static_cast<RegIndex>(r), static_cast<RegIndex>(r));
        prf[0]->write(static_cast<RegIndex>(r),
                      ts.initialIntReg(static_cast<RegIndex>(r)), 0);
    }
    for (int r = 0; r < numArchFpRegs; ++r) {
        rmap[1]->rename(static_cast<RegIndex>(r), static_cast<RegIndex>(r));
        prf[1]->write(static_cast<RegIndex>(r),
                      ts.initialFpReg(static_cast<RegIndex>(r)), 0);
    }
}

PipelineState::~PipelineState() = default;

void
PipelineState::beginCycle()
{
    ports.newCycle();
}

void
PipelineState::endCycle()
{
    ++now;
    ++cycles;
}

int
PipelineState::bankOfReg(RegClass cls, RegIndex phys) const
{
    return prf[int(cls)]->bankOf(phys);
}

RegVal
PipelineState::readOperand(const DynInst &di, int idx) const
{
    const RegIndex src = idx == 0 ? di.uop().src1() : di.uop().src2();
    if (src == invalidReg)
        return 0;
    return prf[int(di.uop().srcClass(idx))]->read(di.physSrc[idx]);
}

bool
PipelineState::operandsReadyCaching(DynInst &di) const
{
    if (di.opsReady)
        return true;
    if (di.srcReadyAt != invalidCycle) {
        // Both producers scheduled on an earlier poll: one compare.
        if (now < di.srcReadyAt)
            return false;
        di.opsReady = true;
        return true;
    }
    // All sources are ready iff the max of their readyAt cycles is
    // <= now (an unscheduled producer has readyAt == invalidCycle,
    // which also dominates the max and correctly blocks caching).
    Cycle latest = 0;
    for (int i = 0; i < 2; ++i) {
        const RegIndex src = i == 0 ? di.uop().src1() : di.uop().src2();
        if (src == invalidReg)
            continue;
        const Cycle r =
            prf[int(di.uop().srcClass(i))]->readyCycle(di.physSrc[i]);
        if (r > latest)
            latest = r;
    }
    if (latest == invalidCycle)
        return false;
    di.srcReadyAt = latest;
    if (now < latest)
        return false;
    di.opsReady = true;
    return true;
}

void
PipelineState::markSquashed(const DynInstPtr &di)
{
    di->squashed = true;
    if (tracer && tracer->wants(di->seq))
        tracer->squash(now, di->seq);
    if (di->vpLookupValid && vp) {
        prof::ScopedTimer vp_timer(prof::ModelVpred);
        vp->squash(di->uop().pc(), di->vp);
    }
    if (di->isStore())
        ssets.storeResolved(di->uop().pc(), di->seq);
}

void
PipelineState::undoRename(const DynInstPtr &di)
{
    if (di->physDst != invalidReg) {
        mapOf(di->uop().dstClass()).restore(di->uop().dst(), di->oldPhysDst);
        prfOf(di->uop().dstClass()).freeReg(di->physDst);
    }
}

void
PipelineState::squashAfter(SeqNum keep_seq,
                           const BranchUnit::SnapshotPtr &restore,
                           Cycle resume_fetch_at)
{
    stages->squash(*this, keep_seq, resume_fetch_at);
    ts.rewindTo(keep_seq + 1);
    bu->restoreTo(restore);
}

void
PipelineState::resolveMispredictedBranch(const DynInstPtr &di)
{
    // Nothing younger was fetched (fetch stalls behind a branch known
    // to be mispredicted), so repair state and redirect fetch.
    bu->repairAfterBranch(di->uop(), di->preSnap);
    stages->rename.onFetchRedirect();
    if (fetchBlockedOnBranch && fetchBlockedOnBranch->seq == di->seq)
        fetchBlockedOnBranch.reset();
    fetchStallUntil = std::max(fetchStallUntil, now + 1);
    ++branchMispredicts;
    if (di->bp.highConf)
        ++highConfMispredicts;
}

} // namespace eole
