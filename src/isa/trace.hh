/**
 * @file
 * The recorded µ-op stream: the interface between the functional
 * producers (the KernelVM and the RV64I ingester, which produce the
 * architecturally-correct stream) and the timing simulator (which
 * consumes it).
 *
 * A recording has two parts. Its static table holds one StaticUop per
 * static µ-op shape the stream can execute: the fields that repeat for
 * every dynamic instance. Each executed µ-op is one 32-byte UopRecord:
 * the index of its static entry (its static id) and the oracle outcome.
 * Readers never see the parts apart: TraceUop is a 16-byte view of one
 * (entry, record) pair with an accessor per field.
 */

#ifndef EOLE_ISA_TRACE_HH
#define EOLE_ISA_TRACE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/opcodes.hh"
#include "isa/static_inst.hh"

namespace eole {

/** The static half of a µ-op: everything that is the same for every
 *  dynamic instance of one static shape. */
struct StaticUop
{
    Addr pc = 0;                //!< byte PC
    std::int64_t imm = 0;
    std::uint32_t sidx = 0;     //!< static instruction index
    RegIndex dst = invalidReg;
    RegIndex src1 = invalidReg;
    RegIndex src2 = invalidReg;
    Opcode opc = Opcode::Nop;
    std::uint8_t memSize = 8;
    RegClass dstClass = RegClass::Int;
    RegClass srcClass[2] = {RegClass::Int, RegClass::Int};
};

static_assert(sizeof(StaticUop) == 32, "one static entry is 32 bytes");

/**
 * The dynamic half: one executed µ-op. result and effAddr are the
 * *oracle* values — the timing core recomputes everything through its
 * renamed dataflow and checks itself against the oracle at commit.
 */
struct UopRecord
{
    RegVal result = 0;          //!< oracle result (load value for loads,
                                //!< store data for stores)
    Addr effAddr = 0;           //!< oracle effective address (ld/st)
    Addr nextPc = 0;            //!< architectural next byte-PC
    std::uint32_t staticId = 0; //!< index into the static table
    bool taken = false;         //!< branch outcome
};

static_assert(sizeof(UopRecord) == 32, "one dynamic record is 32 bytes");

/**
 * One dynamic µ-op as executed by the functional machine: a view of its
 * static entry and its dynamic record. Copy it by value; it borrows
 * both parts from the recording, which must outlive it.
 */
class TraceUop
{
  public:
    TraceUop() = default;
    TraceUop(const StaticUop *entry, const UopRecord *record)
        : st(entry), rec(record)
    {}

    Addr pc() const { return st->pc; }
    std::uint32_t sidx() const { return st->sidx; }
    Opcode opc() const { return st->opc; }
    RegIndex dst() const { return st->dst; }
    RegIndex src1() const { return st->src1; }
    RegIndex src2() const { return st->src2; }
    std::int64_t imm() const { return st->imm; }
    std::uint8_t memSize() const { return st->memSize; }
    RegClass dstClass() const { return st->dstClass; }
    RegClass srcClass(int idx) const { return st->srcClass[idx]; }

    RegVal result() const { return rec->result; }
    Addr effAddr() const { return rec->effAddr; }
    bool taken() const { return rec->taken; }
    Addr nextPc() const { return rec->nextPc; }

    OpClass opClass() const { return opClassOf(opc()); }
    bool isLoad() const { return isLoadOp(opc()); }
    bool isStore() const { return isStoreOp(opc()); }
    bool isBranch() const { return isBranchOp(opc()); }
    bool isCondBr() const { return isCondBranch(opc()); }
    bool isCall() const { return isCallOp(opc()); }
    bool isRet() const { return isRetOp(opc()); }
    bool isIndirect() const { return isIndirectOp(opc()); }
    bool hasDst() const { return dst() != invalidReg; }

    /**
     * Value-prediction eligibility (§4.2 of the paper): the µ-op
     * produces a result of 64 bits or less that can be read by a
     * subsequent µ-op. In this ISA that is every register-writing µ-op.
     */
    bool vpEligible() const { return hasDst(); }

    /**
     * Does the pipeline actually predict this µ-op? Eligible, minus
     * writes to the int zero register (architecturally dropped). The
     * fetch stage and every functional-warming path share this
     * predicate — warming fidelity depends on them never diverging.
     */
    bool
    vpPredictable() const
    {
        return vpEligible() && !(dstClass() == RegClass::Int && dst() == 0);
    }

    /** Number of register source operands actually used. */
    int
    numSrcs() const
    {
        return (src1() != invalidReg ? 1 : 0)
            + (src2() != invalidReg ? 1 : 0);
    }

  private:
    const StaticUop *st = nullptr;
    const UopRecord *rec = nullptr;
};

/**
 * One line of text naming every field of @p u the simulator reads (for
 * debugging and tests). A digest of these lines pins a µ-op stream
 * whatever layout its recording has in memory or on disk.
 */
std::string describe(const TraceUop &u);

} // namespace eole

#endif // EOLE_ISA_TRACE_HH
