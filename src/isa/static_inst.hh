/**
 * @file
 * Static micro-op representation and the Program container.
 */

#ifndef EOLE_ISA_STATIC_INST_HH
#define EOLE_ISA_STATIC_INST_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace eole {

/**
 * One static micro-op. Register classes are implied by the opcode (see
 * srcRegClass/dstRegClass); invalidReg marks absent operands.
 */
struct StaticInst
{
    Opcode opc = Opcode::Nop;
    RegIndex dst = invalidReg;
    RegIndex src1 = invalidReg;
    RegIndex src2 = invalidReg;
    std::int64_t imm = 0;
    /** Branch/call target as a static instruction index. */
    std::int32_t target = -1;
    /** Memory access size in bytes (loads/stores only). */
    std::uint8_t memSize = 8;

    bool hasDst() const { return dst != invalidReg; }

    /** Register class of the destination, if any. */
    RegClass
    dstRegClass() const
    {
        switch (opc) {
          case Opcode::Fadd: case Opcode::Fsub: case Opcode::Fmin:
          case Opcode::Fmax: case Opcode::Fmov: case Opcode::Fcvtif:
          case Opcode::Fmul: case Opcode::Fdiv: case Opcode::Lfd:
            return RegClass::Fp;
          default:
            return RegClass::Int;
        }
    }

    /** Register class of source operand @p idx (0 or 1). */
    RegClass
    srcRegClass(int idx) const
    {
        switch (opc) {
          case Opcode::Fadd: case Opcode::Fsub: case Opcode::Fmin:
          case Opcode::Fmax: case Opcode::Fmov: case Opcode::Fcvtfi:
          case Opcode::Fmul: case Opcode::Fdiv:
            return RegClass::Fp;
          case Opcode::Sfd:
            // src1 is the integer base address, src2 the FP data.
            return idx == 1 ? RegClass::Fp : RegClass::Int;
          default:
            return RegClass::Int;
        }
    }
};

/**
 * A complete kernel program: a flat vector of static µ-ops. Execution
 * starts at index 0; a program ends with Halt or runs forever inside an
 * outer loop (the usual shape for workload kernels).
 */
struct Program
{
    std::vector<StaticInst> code;

    /** Byte PC of static instruction @p idx. */
    static Addr
    pcOf(std::size_t idx)
    {
        return codeBase + static_cast<Addr>(idx) * uopBytes;
    }

    /** Static index of byte PC @p pc. */
    static std::size_t
    idxOf(Addr pc)
    {
        return static_cast<std::size_t>((pc - codeBase) / uopBytes);
    }

    std::size_t size() const { return code.size(); }
};

} // namespace eole

#endif // EOLE_ISA_STATIC_INST_HH
