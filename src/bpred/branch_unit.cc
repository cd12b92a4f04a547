#include "bpred/branch_unit.hh"

#include "isa/snapshot.hh"

namespace eole {

namespace {

std::vector<std::pair<int, int>>
combinedSpecs(const Tage &tage,
              const std::vector<std::pair<int, int>> &extra,
              std::size_t &extra_base_out)
{
    auto specs = tage.foldSpecs();
    extra_base_out = specs.size();
    specs.insert(specs.end(), extra.begin(), extra.end());
    return specs;
}

} // namespace

BranchUnit::BranchUnit(const BpConfig &config,
                       const std::vector<std::pair<int, int>> &extra_folds,
                       std::uint64_t seed)
    : cfg(config), tage(config.tage, seed),
      hist(combinedSpecs(tage, extra_folds, extraBase)),
      btb(config.btbLog2Entries, config.btbWays), ras(config.rasEntries),
      confTable(config.confLog2Entries > 0
                    ? (1u << config.confLog2Entries) : 0, 0)
{
}

std::uint8_t &
BranchUnit::confSlot(Addr pc)
{
    return confTable[(pc >> 2) & (confTable.size() - 1)];
}

BranchUnit::SnapshotPtr
BranchUnit::currentSnapshot()
{
    if (!cached) {
        SnapshotPtr s = snapPool.allocate();
        hist.snapshotInto(s->hist);
        ras.snapshotInto(s->ras);
        cached = std::move(s);
    }
    return cached;
}

void
BranchUnit::speculativeApply(const TraceUop &uop, bool taken, Addr target)
{
    if (uop.isCondBr())
        hist.push(taken);
    if (uop.isCall())
        ras.push(uop.pc() + uopBytes);
    else if (uop.isRet())
        (void)ras.pop();
    (void)target;
    cached.reset();
}

BranchPrediction
BranchUnit::predictBranch(const TraceUop &uop, SnapshotPtr &pre_out)
{
    pre_out = currentSnapshot();

    BranchPrediction bp;
    if (uop.isCondBr()) {
        bp.predTaken = tage.predict(uop.pc(), hist, 0, bp.tage);
        bp.highConf = bp.tage.highConf;
        if (!confTable.empty() && bp.highConf) {
            const std::uint8_t full = (1u << cfg.confBits) - 1;
            bp.highConf = confSlot(uop.pc()) == full;
        }
        if (bp.predTaken) {
            bp.predTarget = btb.lookup(uop.pc());
            bp.btbMiss = bp.predTarget == 0;
        } else {
            bp.predTarget = uop.pc() + uopBytes;
        }
    } else if (uop.isRet()) {
        bp.predTaken = true;
        // Peek then re-push so speculativeApply sees a consistent stack.
        bp.predTarget = ras.pop();
        ras.push(bp.predTarget);
    } else if (uop.opc() == Opcode::Jr) {
        bp.predTaken = true;
        bp.predTarget = btb.lookup(uop.pc());
    } else {
        // Direct jmp/call: target known at decode.
        bp.predTaken = true;
        bp.predTarget = btb.lookup(uop.pc());
        bp.btbMiss = bp.predTarget == 0;
        if (bp.btbMiss)
            bp.predTarget = uop.nextPc();  // decode supplies it (bubble)
    }

    // Oracle comparison (the penalty is applied at resolution time).
    const bool dir_wrong = bp.predTaken != uop.taken();
    const bool tgt_wrong = bp.predTaken && uop.taken() && !bp.btbMiss
        && bp.predTarget != uop.nextPc();
    bp.mispredict = dir_wrong || tgt_wrong;

    // Speculative state advances with the *predicted* direction.
    speculativeApply(uop, bp.predTaken, bp.predTarget);
    return bp;
}

void
BranchUnit::repairAfterBranch(const TraceUop &uop, const SnapshotPtr &pre)
{
    hist.restore(pre->hist);
    ras.restore(pre->ras);
    cached.reset();
    speculativeApply(uop, uop.taken(), uop.nextPc());
}

void
BranchUnit::restoreTo(const SnapshotPtr &snap)
{
    hist.restore(snap->hist);
    ras.restore(snap->ras);
    cached.reset();
}

void
BranchUnit::warmUpdate(const TraceUop &uop)
{
    if (!uop.isBranch())
        return;
    // State-equivalent to predictBranch + repair-on-mispredict +
    // commitBranch (pinned by tests/test_sample.cc) without the
    // snapshot machinery: in this trace-driven front end, fetch never
    // advances past an unrepaired mispredict, so the net speculative
    // effect of predict-then-repair is always "apply the actual
    // outcome".
    BranchPrediction bp;
    if (uop.isCondBr()) {
        bp.predTaken = tage.predict(uop.pc(), hist, 0, bp.tage);
        hist.push(uop.taken());
    }
    commitBranch(uop, bp);  // TAGE + JRS confidence + BTB training
    if (uop.isCall())
        ras.push(uop.pc() + uopBytes);
    else if (uop.isRet())
        (void)ras.pop();
    cached.reset();
}

void
BranchUnit::appendSnapshot(std::string &out) const
{
    SnapshotWriter w(out);
    w.tag("branch-unit").u64(1);
    w.end();
    tage.snapshotState(w);
    hist.snapshotState(w);
    btb.snapshotState(w);
    ras.snapshotState(w);
    w.tag("conf").u64(confTable.size());
    w.end();
    w.tag("conf.t");
    for (const std::uint8_t c : confTable)
        w.u64(c);
    w.end();
}

void
BranchUnit::restoreState(std::istream &is)
{
    SnapshotReader r(is, "branch-unit");
    r.line("branch-unit");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.endLine();
    tage.restoreState(r);
    hist.restoreState(r);
    btb.restoreState(r);
    ras.restoreState(r);
    r.line("conf");
    r.fatalIf(r.u64("entries") != confTable.size(),
              "confidence-table size mismatch");
    r.endLine();
    r.line("conf.t");
    const std::uint64_t full = (1u << cfg.confBits) - 1;
    for (std::uint8_t &c : confTable)
        c = static_cast<std::uint8_t>(r.u64Max("ctr", full));
    r.endLine();
    cached.reset();
}

BranchUnit::BranchUnit(const BranchUnit &o)
    : WarmableComponent(o), cfg(o.cfg), tage(o.tage), hist(o.hist),
      btb(o.btb), ras(o.ras), confTable(o.confTable),
      extraBase(o.extraBase)
{
}

std::unique_ptr<WarmableComponent>
BranchUnit::clone() const
{
    return std::unique_ptr<WarmableComponent>(new BranchUnit(*this));
}

void
BranchUnit::copyStateFrom(const WarmableComponent &src)
{
    const BranchUnit &o = copySource<BranchUnit>(src, "branch-unit");
    tage.copyStateFrom(o.tage);
    hist.copyStateFrom(o.hist);
    btb.copyStateFrom(o.btb);
    ras.copyStateFrom(o.ras);
    copyCheck(o.confTable.size() == confTable.size(), "branch-unit",
              "confidence-table size mismatch");
    copyCheck(o.cfg.confBits == cfg.confBits, "branch-unit",
              "confidence-counter width mismatch");
    confTable = o.confTable;
    cached.reset();
}

void
BranchUnit::commitBranch(const TraceUop &uop, const BranchPrediction &bp)
{
    if (uop.isCondBr()) {
        tage.update(uop.pc(), uop.taken(), bp.tage);
        if (!confTable.empty()) {
            std::uint8_t &c = confSlot(uop.pc());
            const std::uint8_t full = (1u << cfg.confBits) - 1;
            if (bp.predTaken == uop.taken()) {
                if (c < full)
                    ++c;
            } else {
                c = 0;
            }
        }
    }
    // Keep targets of taken control transfers in the BTB (returns are
    // served by the RAS).
    if (uop.taken() && !uop.isRet())
        btb.update(uop.pc(), uop.nextPc());
}

} // namespace eole
