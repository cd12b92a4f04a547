#include "isa/kernel_vm.hh"

#include <cerrno>
#include <cstring>

#include <sys/mman.h>

#include "isa/functional.hh"

namespace eole {

KernelVM::KernelVM(const Program &program, std::size_t mem_bytes)
    : prog(program), memBytes(mem_bytes)
{
    fatal_if(prog.code.empty(), "KernelVM: empty program");
    if (memBytes == 0)
        return;
    void *base = ::mmap(nullptr, memBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(base == MAP_FAILED, "KernelVM: cannot map %zu bytes: %s",
             memBytes, std::strerror(errno));
    mem = static_cast<std::uint8_t *>(base);
}

KernelVM::~KernelVM()
{
    if (mem)
        ::munmap(mem, memBytes);
}

bool
KernelVM::step(TraceUop &out)
{
    if (isHalted)
        return false;

    panic_if(pc >= prog.code.size(), "VM pc %zu past end of program %zu",
             pc, prog.code.size());

    const StaticInst &si = prog.code[pc];

    out = TraceUop{};
    out.pc = Program::pcOf(pc);
    out.sidx = static_cast<std::uint32_t>(pc);
    out.opc = si.opc;
    out.dst = si.dst;
    out.src1 = si.src1;
    out.src2 = si.src2;
    out.imm = si.imm;
    out.memSize = si.memSize;
    out.dstClass = si.dstRegClass();
    out.srcClass[0] = si.srcRegClass(0);
    out.srcClass[1] = si.srcRegClass(1);

    auto read_src = [&](RegIndex r, RegClass cls) -> RegVal {
        if (r == invalidReg)
            return 0;
        return cls == RegClass::Fp ? readFpReg(r) : readIntReg(r);
    };

    const RegVal a = read_src(si.src1, si.srcRegClass(0));
    const RegVal b = read_src(si.src2, si.srcRegClass(1));
    out.srcVals[0] = a;
    out.srcVals[1] = b;

    std::size_t next_pc = pc + 1;

    switch (opClassOf(si.opc)) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        out.result = execAlu(si.opc, a, b, si.imm);
        break;

      case OpClass::MemRead:
        out.effAddr = effectiveAddr(a, si.imm);
        out.result = readMem(out.effAddr, si.memSize);
        break;

      case OpClass::MemWrite:
        out.effAddr = effectiveAddr(a, si.imm);
        out.result = b;
        writeMem(out.effAddr, si.memSize, b);
        break;

      case OpClass::Branch:
        switch (si.opc) {
          case Opcode::Jmp:
            out.taken = true;
            next_pc = static_cast<std::size_t>(si.target);
            break;
          case Opcode::Jr:
            out.taken = true;
            next_pc = Program::idxOf(a);
            break;
          case Opcode::Call:
            out.taken = true;
            out.result = Program::pcOf(pc + 1);
            next_pc = static_cast<std::size_t>(si.target);
            break;
          case Opcode::Ret:
            out.taken = true;
            next_pc = Program::idxOf(a);
            break;
          default:
            out.taken = evalCondBranch(si.opc, a, b);
            if (out.taken)
                next_pc = static_cast<std::size_t>(si.target);
            break;
        }
        break;

      case OpClass::NoOp:
        if (si.opc == Opcode::Halt) {
            isHalted = true;
            return false;
        }
        break;
    }

    if (si.dst != invalidReg) {
        if (si.dstRegClass() == RegClass::Fp)
            setFpReg(si.dst, out.result);
        else
            setIntReg(si.dst, out.result);
        // Register 0 reads as zero: reflect the architectural result.
        if (si.dstRegClass() == RegClass::Int && si.dst == 0)
            out.result = 0;
    }

    pc = next_pc;
    out.nextPc = Program::pcOf(next_pc);
    ++uopCount;
    return true;
}

std::string
disassemble(const StaticInst &inst)
{
    std::string s = opcodeName(inst.opc);
    if (inst.dst != invalidReg)
        s += csprintf(" d%u", inst.dst);
    if (inst.src1 != invalidReg)
        s += csprintf(" s%u", inst.src1);
    if (inst.src2 != invalidReg)
        s += csprintf(" s%u", inst.src2);
    if (hasImmOperand(inst.opc))
        s += csprintf(" #%lld", static_cast<long long>(inst.imm));
    if (inst.target >= 0)
        s += csprintf(" @%d", inst.target);
    return s;
}

} // namespace eole
