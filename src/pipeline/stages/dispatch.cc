#include "pipeline/stages/dispatch.hh"

#include "common/pipetrace.hh"
#include "pipeline/pipeline_state.hh"

namespace eole {

DispatchStage::DispatchStage(const SimConfig &cfg)
    : dispatchWidth(cfg.dispatchWidth), iqEntries(cfg.iqEntries)
{
}

void
DispatchStage::tick(PipelineState &st)
{
    int dispatched = 0;
    while (dispatched < dispatchWidth && !st.renameOut.empty()) {
        // Run the stall checks through a reference (most iterations end
        // in a break); the handle moves out only once dispatch is
        // certain.
        DynInstPtr &head = st.renameOut.front();

        if (st.rob.full()) {
            ++st.robFullStalls;
            break;
        }
        if (head->isLoad() && st.lq.full())
            break;
        if (head->isStore() && st.sq.full())
            break;

        const bool needs_iq = !head->bypassesOoO()
            && head->uop().opClass() != OpClass::NoOp;
        if (needs_iq && static_cast<int>(st.iq.size()) >= iqEntries) {
            ++st.iqFullStalls;
            break;
        }

        // EE results and used predictions are written to the PRF at
        // dispatch, consuming constrained write ports (§6.3).
        if (head->physDst != invalidReg
            && (head->earlyExecuted || head->predictionUsed)) {
            const int bank =
                st.bankOfReg(head->uop().dstClass(), head->physDst);
            if (!st.ports.tryEeWrite(bank)) {
                ++st.dispatchPortStalls;
                break;
            }
            const RegVal v = head->earlyExecuted ? head->computedValue
                                                 : head->predictedValue;
            st.prfOf(head->uop().dstClass()).write(head->physDst, v, st.now);
            ++st.iqWakeEpoch;  // a queued consumer may now be ready
        }

        DynInstPtr di = std::move(head);
        st.renameOut.pop_front();
        di->dispatched = true;
        st.rob.pushBack(di);
        if (di->isLoad())
            st.lq.pushBack(di);
        if (di->isStore())
            st.sq.pushBack(di);

        if (st.tracer && st.tracer->wants(di->seq))
            st.tracer->event(st.now, di->seq, PipeEvent::Dispatch);

        if (di->earlyExecuted || di->uop().opClass() == OpClass::NoOp) {
            di->completed = true;
            di->completeCycle = st.now;
            if (st.tracer && st.tracer->wants(di->seq))
                st.tracer->event(st.now, di->seq, PipeEvent::Complete);
        } else if (di->lateExecutable()) {
            di->completeCycle = st.now;  // LE gating base (see commit)
        } else {
            st.iq.push_back(std::move(di));
            ++st.iqWakeEpoch;
            ++st.dispatchedToIQ;
        }
        ++dispatched;
    }
}

} // namespace eole
