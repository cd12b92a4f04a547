#include "pipeline/stages/issue.hh"

#include <algorithm>

#include "common/pipetrace.hh"
#include "common/profiler.hh"
#include "isa/functional.hh"
#include "pipeline/pipeline_state.hh"

namespace eole {

namespace {

/** Deterministic garbage for wrong-address speculative loads. */
RegVal
garbageValue(Addr addr)
{
    return (addr * 0x9e3779b97f4a7c15ULL) >> 11;
}

/** Do two byte ranges overlap? */
bool
rangesOverlap(Addr a1, unsigned s1, Addr a2, unsigned s2)
{
    return a1 < a2 + s2 && a2 < a1 + s1;
}

RegVal
sliceValue(RegVal v, unsigned size)
{
    if (size >= 8)
        return v;
    return v & ((1ULL << (8 * size)) - 1);
}

} // namespace

IssueStage::IssueStage(const SimConfig &cfg) : issueWidth(cfg.issueWidth)
{
}

void
IssueStage::tick(PipelineState &st)
{
    // Issue-free-cycle skip. A previous full scan proved every queued
    // µ-op operand-blocked: the earliest any of them can become ready
    // is `wakeAt` (the min of the memoized srcReadyAt values), and a
    // producer that has not yet scheduled its writeback can only do so
    // through an event that bumps st.iqWakeEpoch (dispatch's PRF
    // write, an IQ insert, a squash) — issue's own writes need a scan,
    // and there is none while asleep. On a low-IPC phase (a load
    // stalled on DRAM) this turns ~100 no-op scans into one compare
    // per cycle. Bit-exact: skipped cycles could not have issued,
    // selected or moved anything; only the occupancy stat accrues.
    if (asleep) {
        if (st.now < wakeAt && st.iqWakeEpoch == wakeEpoch) {
            st.iqOccupancySum += st.iq.size();
            return;
        }
        asleep = false;
    }

    st.fus.newCycle();
    int issued = 0;
    Cycle minReady = invalidCycle;
    bool allBlocked = true;

    // One in-place pass in age order: select, execute and compact
    // (drop issued/squashed entries) without the whole-IQ snapshot
    // copy this loop used to take every cycle. Entries are examined
    // through a reference and a handle moves only to close a gap, so
    // a cycle that issues nothing touches no refcounts at all; once
    // the issue budget is spent with no gap open (and no mid-scan
    // squash), the tail cannot issue or move and the scan stops. A
    // store's violation check can squash the pipeline mid-scan;
    // squash() defers its IQ erase while `scanning` is set so
    // positions stay valid, and because the IQ is age-ordered
    // (dispatch appends in program order) a mid-scan squash can only
    // mark entries the scan has not compacted yet — the keep/drop
    // decisions already made match what the old snapshot-then-erase_if
    // form would have computed from the final flags.
    scanning = true;
    squashedDuringScan = false;
    const std::size_t n = st.iq.size();
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
        DynInstPtr &di = st.iq[i];
        if (issued < issueWidth && !di->squashed && !di->issued) {
            if (!st.operandsReadyCaching(*di)) {
                // Operand-blocked. srcReadyAt is the memoized wake
                // cycle when every producer has scheduled writeback,
                // invalidCycle (ignored by the min) otherwise.
                if (di->srcReadyAt < minReady)
                    minReady = di->srcReadyAt;
            } else {
                allBlocked = false;
                const OpClass cls = di->uop().opClass();
                // Store Sets: loads and stores wait for the in-flight
                // store the predictor says they depend on. executeInst
                // returning false means blocked (e.g. a partial store
                // overlap); the entry stays queued and retries.
                if (st.fus.canIssue(cls, st.now)
                    && (!(di->isLoad() || di->isStore())
                        || di->dependsOnStore == 0
                        || storeExecuted(st, di->dependsOnStore))
                    && executeInst(st, di)) {
                    di->issued = true;
                    if (st.tracer && st.tracer->wants(di->seq)) {
                        st.tracer->event(st.now, di->seq, PipeEvent::Issue);
                        st.tracer->event(st.now, di->seq, PipeEvent::Exec);
                    }
                    const unsigned lat = opLatency(cls);
                    st.fus.issue(cls, st.now, st.now + lat);
                    ++issued;
                }
            }
        }
        if (!(di->issued || di->squashed)) {
            if (out != i)
                st.iq[out] = std::move(di);
            ++out;
        }
        if (issued >= issueWidth && out == i + 1 && !squashedDuringScan) {
            // Width exhausted, every entry so far kept in place and
            // nothing was marked mid-scan: the rest stays put.
            out = n;
            break;
        }
    }
    if (out != n)
        st.iq.resize(out);
    scanning = false;
    if (issued == 0 && allBlocked && !squashedDuringScan) {
        // Full scan (issued == 0 means no early stop), every entry
        // operand-blocked: nothing can issue before the earliest
        // memoized ready cycle unless a wake event (dispatch write,
        // IQ insert, squash — all bump iqWakeEpoch) intervenes. An
        // unknown-producer entry (srcReadyAt == invalidCycle) needs a
        // producer execution first, which itself needs a scan or a
        // dispatch write, so it cannot overtake the sleep. This also
        // covers the empty IQ (minReady == invalidCycle: sleep until
        // an epoch bump).
        asleep = true;
        wakeAt = minReady;
        wakeEpoch = st.iqWakeEpoch;
    }
    st.iqOccupancySum += st.iq.size();
}

bool
IssueStage::storeExecuted(const PipelineState &st, SeqNum store_seq) const
{
    // The SQ is age-ordered (dispatch appends in program order), so
    // stop as soon as the scan passes store_seq.
    for (size_t i = 0; i < st.sq.size(); ++i) {
        const DynInstPtr &stq = st.sq.at(i);
        if (stq->seq == store_seq)
            return stq->effAddrValid;
        if (stq->seq > store_seq)
            break;
    }
    // Not in the SQ: already committed (or squashed).
    return true;
}

void
IssueStage::finishExec(PipelineState &st, const DynInstPtr &di, RegVal value,
                       Cycle ready)
{
    di->computedValue = value;
    di->hasComputedValue = true;
    if (di->physDst != invalidReg) {
        PhysRegFile &f = st.prfOf(di->uop().dstClass());
        if (di->predictionUsed) {
            // The prediction was written (and made ready) at dispatch;
            // writeback replaces the value, as in the paper's baseline.
            f.overwriteValue(di->physDst, value);
        } else {
            f.write(di->physDst, value, ready);
        }
    }
    st.completions.schedule(ready, di);
}

void
IssueStage::checkStoreViolation(PipelineState &st, const DynInstPtr &store)
{
    // The LQ is age-ordered, so the first overlapping younger load is
    // the oldest one — i.e. the victim the old full-scan min picked.
    DynInstPtr victim;
    for (size_t i = 0; i < st.lq.size(); ++i) {
        const DynInstPtr &ld = st.lq.at(i);
        if (ld->seq <= store->seq || !ld->effAddrValid || ld->squashed)
            continue;
        if (!ld->issued && !ld->completed)
            continue;
        if (!rangesOverlap(ld->effAddr, ld->uop().memSize(), store->effAddr,
                           store->uop().memSize())) {
            continue;
        }
        victim = ld;
        break;
    }
    if (!victim)
        return;

    ++st.memOrderViolations;
    st.ssets.violation(victim->uop().pc(), store->uop().pc());
    // Squash from the violating load (it re-executes after the store).
    st.squashAfter(victim->seq - 1, victim->postSnap, st.now + 1);
}

bool
IssueStage::executeInst(PipelineState &st, const DynInstPtr &di)
{
    const OpClass cls = di->uop().opClass();

    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv: {
        const RegVal a = st.readOperand(*di, 0);
        const RegVal b = st.readOperand(*di, 1);
        const RegVal val = execAlu(di->uop().opc(), a, b, di->uop().imm());
        finishExec(st, di, val, st.now + opLatency(cls));
        return true;
      }

      case OpClass::Branch: {
        // Branches resolve one cycle after issue on an ALU. Calls
        // produce the link value.
        const RegVal val = di->uop().isCall() ? di->uop().pc() + uopBytes : 0;
        finishExec(st, di, val, st.now + 1);
        return true;
      }

      case OpClass::MemRead: {
        const Addr addr =
            effectiveAddr(st.readOperand(*di, 0), di->uop().imm());
        di->effAddr = addr;
        di->effAddrValid = true;

        // Search the SQ for the youngest older overlapping store.
        DynInstPtr match;
        bool partial = false;
        for (size_t i = st.sq.size(); i-- > 0;) {
            const DynInstPtr &stq = st.sq.at(i);
            if (stq->seq > di->seq || stq->squashed)
                continue;
            if (!stq->effAddrValid) {
                // Unknown address older store: proceed speculatively
                // (Store Sets vouched); violations are caught later.
                continue;
            }
            if (!rangesOverlap(addr, di->uop().memSize(), stq->effAddr,
                               stq->uop().memSize())) {
                continue;
            }
            if (stq->effAddr == addr
                && di->uop().memSize() <= stq->uop().memSize())
                match = stq;
            else
                partial = true;
            break;  // youngest older overlapping store decides
        }

        if (partial) {
            // Partial overlap: wait until the store drains (retry).
            return false;
        }

        RegVal val;
        Cycle ready;
        if (match) {
            val = sliceValue(match->storeData, di->uop().memSize());
            ready = st.now + 2;  // forwarding at L1-hit-like latency
            ++st.storeToLoadForwards;
        } else {
            // Architecturally correct value when the address is right;
            // deterministic garbage when executing with mispredicted
            // operands (will be squashed).
            val = addr == di->uop().effAddr() ? di->uop().result()
                                          : sliceValue(garbageValue(addr),
                                                       di->uop().memSize());
            prof::ScopedTimer mem_timer(prof::ModelMem);
            ready = st.mem->loadAccess(di->uop().pc(), addr, st.now + 1);
        }
        finishExec(st, di, val, ready);
        return true;
      }

      case OpClass::MemWrite: {
        const Addr addr =
            effectiveAddr(st.readOperand(*di, 0), di->uop().imm());
        di->effAddr = addr;
        di->effAddrValid = true;
        di->storeData = st.readOperand(*di, 1);
        st.ssets.storeResolved(di->uop().pc(), di->seq);
        // Violation check first: the squash (if any) only removes µ-ops
        // younger than the violating load; this store survives it.
        checkStoreViolation(st, di);
        finishExec(st, di, di->storeData, st.now + 1);
        return true;
      }

      default:
        finishExec(st, di, 0, st.now + 1);
        return true;
    }
}

void
IssueStage::squash(PipelineState &st)
{
    // The ROB walk (commit's squash) has already marked the dead µ-ops.
    // When the squash was triggered from inside tick()'s own scan (a
    // store's violation check), erasing here would invalidate the
    // scan's positions; the scan's compaction drops the marked entries
    // itself, so the erase is simply skipped (and the scan is told not
    // to stop early, so the compaction reaches them).
    if (scanning) {
        squashedDuringScan = true;
        return;
    }
    std::erase_if(st.iq, [](const DynInstPtr &di) { return di->squashed; });
    ++st.iqWakeEpoch;  // surviving entries must be rescanned
}

} // namespace eole
