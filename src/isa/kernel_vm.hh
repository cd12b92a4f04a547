/**
 * @file
 * The KernelVM: functional execution of workload kernels.
 *
 * The VM owns the simulated architectural state (integer/FP registers
 * and a flat byte-addressed memory) and executes a Program one µ-op at
 * a time, emitting the UopRecords the timing simulator consumes. The
 * static id of each record is its static instruction index, so the
 * VM's static table is the program's code, entry for entry.
 */

#ifndef EOLE_ISA_KERNEL_VM_HH
#define EOLE_ISA_KERNEL_VM_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/static_inst.hh"
#include "isa/trace.hh"

namespace eole {

/**
 * Functional simulator for one kernel. Memory is lazily zero-initialized
 * (an anonymous mapping: the kernel zeroes each page on first touch, so
 * an untouched page costs nothing) and bounded by memBytes; all
 * accesses must stay within bounds (kernels are trusted code authored
 * in this repository, so out-of-bounds is a panic, not an architectural
 * event).
 */
class KernelVM
{
  public:
    /**
     * @param program the kernel to execute (not owned; must outlive VM)
     * @param mem_bytes size of simulated data memory
     */
    KernelVM(const Program &program, std::size_t mem_bytes);
    ~KernelVM();

    KernelVM(const KernelVM &) = delete;
    KernelVM &operator=(const KernelVM &) = delete;

    /**
     * Execute one µ-op.
     *
     * @param out filled with the dynamic record of the executed µ-op
     * @retval false if the machine has halted (out is not filled)
     */
    bool step(UopRecord &out);

    /** The static table step()'s records index: entry i describes
     *  static instruction i of the program. */
    const std::vector<StaticUop> &staticTable() const { return statics; }

    /** The µ-op @p rec (a record of this VM) describes. */
    TraceUop
    uopOf(const UopRecord &rec) const
    {
        return TraceUop(&statics[rec.staticId], &rec);
    }

    bool halted() const { return isHalted; }
    std::uint64_t executedUops() const { return uopCount; }

    // --- Architectural state accessors (workload setup & tests) ---
    RegVal readIntReg(RegIndex r) const { return r == 0 ? 0 : intRegs[r]; }
    RegVal readFpReg(RegIndex r) const { return fpRegs[r]; }

    void
    setIntReg(RegIndex r, RegVal v)
    {
        if (r != 0)
            intRegs[r] = v;
    }

    void setFpReg(RegIndex r, RegVal v) { fpRegs[r] = v; }

    /** Little-endian read of @p size bytes at @p addr. */
    RegVal
    readMem(Addr addr, unsigned size) const
    {
        checkBounds(addr, size, "load");
        RegVal v = 0;
        std::memcpy(&v, mem + addr, size);
        return v;
    }

    /** Little-endian write of @p size bytes at @p addr. */
    void
    writeMem(Addr addr, unsigned size, RegVal value)
    {
        checkBounds(addr, size, "store");
        std::memcpy(mem + addr, &value, size);
    }

    /**
     * The @p len bytes at @p addr, checked against the bounds once:
     * workload set-up builds memory images through it in bulk (words
     * are little-endian, as readMem and writeMem see them).
     */
    std::uint8_t *
    memSpan(Addr addr, std::size_t len)
    {
        checkBounds(addr, len, "span");
        return mem + addr;
    }

    std::size_t memSize() const { return memBytes; }

    /** Current program counter, as a static instruction index. */
    std::size_t pcIndex() const { return pc; }

  private:
    /** Panic unless [addr, addr + len) lies in memory. Written so that
     *  no sum can wrap: a negative address is out of bounds. */
    void
    checkBounds(Addr addr, std::size_t len, const char *what) const
    {
        panic_if(len > memBytes || addr > memBytes - len,
                 "VM %s out of bounds: addr %#lx size %zu (mem %zu)", what,
                 static_cast<unsigned long>(addr), len, memBytes);
    }

    const Program &prog;
    std::vector<StaticUop> statics;
    std::uint8_t *mem = nullptr;
    const std::size_t memBytes;
    RegVal intRegs[numArchIntRegs] = {};
    RegVal fpRegs[numArchFpRegs] = {};
    std::size_t pc = 0;
    std::uint64_t uopCount = 0;
    bool isHalted = false;
};

} // namespace eole

#endif // EOLE_ISA_KERNEL_VM_HH
