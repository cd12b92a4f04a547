/**
 * @file
 * The simulator's RISC-like 64-bit micro-op ISA.
 *
 * The ISA substitutes for gem5's x86_64 µ-op front end (see DESIGN.md §5):
 * it is register-rich, has explicit immediates (which matter for Early
 * Execution eligibility), compare-and-branch µ-ops that produce no
 * register (so, like x86 flag handling in the paper, branches need no
 * value validation), and the same functional-unit classes as Table 1 of
 * the paper.
 */

#ifndef EOLE_ISA_OPCODES_HH
#define EOLE_ISA_OPCODES_HH

#include <cstdint>

#include "common/types.hh"

namespace eole {

/** Number of architectural integer registers. Register 0 reads as zero. */
constexpr int numArchIntRegs = 32;
/** Number of architectural floating-point registers. */
constexpr int numArchFpRegs = 32;
/** Link register written by Call and read by Ret. */
constexpr RegIndex linkReg = 31;
/** Byte address of the first static instruction. */
constexpr Addr codeBase = 0x400000;
/** Nominal byte size of one µ-op, used to form PCs. */
constexpr Addr uopBytes = 4;

/** Micro-operations. */
enum class Opcode : std::uint8_t {
    // Single-cycle integer ALU, register-register.
    Add, Sub, And, Or, Xor, Shl, Shr, Sar, Slt, Sltu, Mov,
    // Single-cycle integer ALU, register-immediate.
    Addi, Andi, Ori, Xori, Shli, Shri, Sari, Slti, Sltiu, Movi,
    // Multi-cycle integer.
    Mul, Div, Rem,
    // Floating point (operands/results are bit-punned doubles).
    Fadd, Fsub, Fmin, Fmax, Fmov, Fcvtif, Fcvtfi,
    Fmul, Fdiv,
    // Memory. Loads zero-extend; size is carried by StaticInst::memSize.
    Ld, Lfd, St, Sfd,
    // Control flow. Compare-and-branch µ-ops produce no register.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Jmp, Jr, Call, Ret,
    // Misc.
    Nop, Halt,

    NumOpcodes
};

/** Functional-unit class, mirroring Table 1 of the paper. */
enum class OpClass : std::uint8_t {
    IntAlu,   //!< 1 cycle, 6 units in the baseline
    IntMul,   //!< 3 cycles, pipelined, 4 MulDiv units
    IntDiv,   //!< 25 cycles, not pipelined, shares MulDiv units
    FpAlu,    //!< 3 cycles, 6 units
    FpMul,    //!< 5 cycles, pipelined, 4 FpMulDiv units
    FpDiv,    //!< 10 cycles, not pipelined, shares FpMulDiv units
    MemRead,  //!< AGU + cache access, 4 ld/st ports
    MemWrite, //!< AGU, 4 ld/st ports
    Branch,   //!< resolved on an ALU (1 cycle)
    NoOp      //!< Nop/Halt
};

/** Map a µ-op to its functional-unit class. */
constexpr OpClass
opClassOf(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::Sar: case Opcode::Slt:
      case Opcode::Sltu: case Opcode::Mov:
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Shli: case Opcode::Shri:
      case Opcode::Sari: case Opcode::Slti: case Opcode::Sltiu:
      case Opcode::Movi:
        return OpClass::IntAlu;
      case Opcode::Mul:
        return OpClass::IntMul;
      case Opcode::Div: case Opcode::Rem:
        return OpClass::IntDiv;
      case Opcode::Fadd: case Opcode::Fsub: case Opcode::Fmin:
      case Opcode::Fmax: case Opcode::Fmov: case Opcode::Fcvtif:
      case Opcode::Fcvtfi:
        return OpClass::FpAlu;
      case Opcode::Fmul:
        return OpClass::FpMul;
      case Opcode::Fdiv:
        return OpClass::FpDiv;
      case Opcode::Ld: case Opcode::Lfd:
        return OpClass::MemRead;
      case Opcode::St: case Opcode::Sfd:
        return OpClass::MemWrite;
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Bgeu:
      case Opcode::Jmp: case Opcode::Jr: case Opcode::Call:
      case Opcode::Ret:
        return OpClass::Branch;
      default:
        return OpClass::NoOp;
    }
}

constexpr bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Bgeu:
        return true;
      default:
        return false;
    }
}

constexpr bool
isBranchOp(Opcode op)
{
    return opClassOf(op) == OpClass::Branch;
}

constexpr bool isLoadOp(Opcode op)
{
    return op == Opcode::Ld || op == Opcode::Lfd;
}

constexpr bool isStoreOp(Opcode op)
{
    return op == Opcode::St || op == Opcode::Sfd;
}

constexpr bool isCallOp(Opcode op) { return op == Opcode::Call; }
constexpr bool isRetOp(Opcode op) { return op == Opcode::Ret; }

/** Indirect control flow (target comes from a register). */
constexpr bool
isIndirectOp(Opcode op)
{
    return op == Opcode::Jr || op == Opcode::Ret;
}

/**
 * Single-cycle ALU µ-op: the only category eligible for Early and Late
 * Execution in the paper (§3.2, §3.3).
 */
constexpr bool
isSingleCycleAlu(Opcode op)
{
    return opClassOf(op) == OpClass::IntAlu;
}

/** Execution latency (cycles) per FU class; memory excluded. */
constexpr unsigned
opLatency(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return 1;
      case OpClass::IntMul: return 3;
      case OpClass::IntDiv: return 25;
      case OpClass::FpAlu: return 3;
      case OpClass::FpMul: return 5;
      case OpClass::FpDiv: return 10;
      case OpClass::Branch: return 1;
      default: return 1;
    }
}

/** Is this FU class pipelined? Div units are not (Table 1). */
constexpr bool
opPipelined(OpClass cls)
{
    return cls != OpClass::IntDiv && cls != OpClass::FpDiv;
}

/** Short mnemonic for disassembly and debugging. */
const char *opcodeName(Opcode op);

} // namespace eole

#endif // EOLE_ISA_OPCODES_HH
