#include "isa/kernel_vm.hh"

#include <cerrno>
#include <cstring>

#include <sys/mman.h>

#include "isa/functional.hh"

namespace eole {

namespace {

/** The static entry of @p inst at static index @p sidx. */
StaticUop
staticUopOf(const StaticInst &inst, std::uint32_t sidx)
{
    StaticUop s;
    s.pc = Program::pcOf(sidx);
    s.imm = inst.imm;
    s.sidx = sidx;
    s.dst = inst.dst;
    s.src1 = inst.src1;
    s.src2 = inst.src2;
    s.opc = inst.opc;
    s.memSize = inst.memSize;
    s.dstClass = inst.dstRegClass();
    s.srcClass[0] = inst.srcRegClass(0);
    s.srcClass[1] = inst.srcRegClass(1);
    return s;
}

} // namespace

KernelVM::KernelVM(const Program &program, std::size_t mem_bytes)
    : prog(program), memBytes(mem_bytes)
{
    fatal_if(prog.code.empty(), "KernelVM: empty program");
    statics.reserve(prog.code.size());
    for (std::size_t i = 0; i < prog.code.size(); ++i)
        statics.push_back(staticUopOf(prog.code[i],
                                      static_cast<std::uint32_t>(i)));
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
KernelVM::step(UopRecord &out)
{
    if (isHalted)
        return false;

    panic_if(pc >= prog.code.size(), "VM pc %zu past end of program %zu",
             pc, prog.code.size());

    const StaticInst &si = prog.code[pc];

    out = UopRecord{};
    out.staticId = static_cast<std::uint32_t>(pc);

    auto read_src = [&](RegIndex r, RegClass cls) -> RegVal {
        if (r == invalidReg)
            return 0;
        return cls == RegClass::Fp ? readFpReg(r) : readIntReg(r);
    };

    const RegVal a = read_src(si.src1, si.srcRegClass(0));
    const RegVal b = read_src(si.src2, si.srcRegClass(1));

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
describe(const TraceUop &u)
{
    return csprintf("%#llx %u %s %u %u %u %lld %u %u %u %u %#llx %#llx %d "
                    "%#llx",
                    (unsigned long long)u.pc(), u.sidx(), opcodeName(u.opc()),
                    u.dst(), u.src1(), u.src2(), (long long)u.imm(),
                    u.memSize(), unsigned(u.dstClass()),
                    unsigned(u.srcClass(0)), unsigned(u.srcClass(1)),
                    (unsigned long long)u.result(),
                    (unsigned long long)u.effAddr(), int(u.taken()),
                    (unsigned long long)u.nextPc());
}

} // namespace eole
