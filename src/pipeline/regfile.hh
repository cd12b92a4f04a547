/**
 * @file
 * Physical register file with banked free lists, plus the speculative
 * rename map.
 *
 * Banking (§6.3 of the paper): physical registers are statically
 * partitioned across banks (reg % numBanks); rename allocates
 * destinations round-robin across banks so that a dispatch group
 * spreads its Early-Execution/prediction writes evenly. Rename stalls
 * when the designated bank has no free register, exactly as in the
 * paper's evaluation (Fig 10 measures the cost of this imbalance).
 */

#ifndef EOLE_PIPELINE_REGFILE_HH
#define EOLE_PIPELINE_REGFILE_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace eole {

/** One register class (INT or FP) of the PRF. */
class PhysRegFile
{
  public:
    /**
     * @param num_regs physical registers in this class
     * @param num_banks bank count (must divide evenly)
     */
    PhysRegFile(int num_regs, int num_banks)
        : values(num_regs, 0), readyAt(num_regs, 0), banks(num_banks),
          freeLists(num_banks)
    {
        fatal_if(num_regs % num_banks != 0,
                 "%d registers not divisible into %d banks", num_regs,
                 num_banks);
    }

    /**
     * Mark registers [0, reserved) as architecturally held (initial
     * rename map); the rest populate the per-bank free lists.
     */
    void
    initFreeLists(int reserved)
    {
        for (auto &fl : freeLists)
            fl.clear();
        for (int r = reserved; r < static_cast<int>(values.size()); ++r)
            freeLists[bankOf(static_cast<RegIndex>(r))].push_back(
                static_cast<RegIndex>(r));
    }

    int bankOf(RegIndex reg) const { return reg % banks; }
    int numBanks() const { return banks; }

    bool
    bankHasFree(int bank) const
    {
        return !freeLists[bank].empty();
    }

    RegIndex
    allocFromBank(int bank)
    {
        panic_if(freeLists[bank].empty(), "alloc from empty bank %d", bank);
        const RegIndex r = freeLists[bank].back();
        freeLists[bank].pop_back();
        return r;
    }

    void
    freeReg(RegIndex reg)
    {
        freeLists[bankOf(reg)].push_back(reg);
    }

    RegVal read(RegIndex reg) const { return values[reg]; }

    /** Write a value that becomes visible (ready) at @p ready. */
    void
    write(RegIndex reg, RegVal value, Cycle ready)
    {
        values[reg] = value;
        readyAt[reg] = ready;
    }

    /** Overwrite the value without changing readiness (writeback of a
     *  predicted register: the prediction was already usable). */
    void
    overwriteValue(RegIndex reg, RegVal value)
    {
        values[reg] = value;
    }

    Cycle readyCycle(RegIndex reg) const { return readyAt[reg]; }

    /** Mark not-ready (allocation). */
    void
    markPending(RegIndex reg)
    {
        readyAt[reg] = invalidCycle;
    }

  private:
    std::vector<RegVal> values;
    std::vector<Cycle> readyAt;
    int banks;
    std::vector<std::vector<RegIndex>> freeLists;
};

/** Speculative rename map for one register class. */
class RenameMap
{
  public:
    explicit RenameMap(int arch_regs) : map(arch_regs, invalidReg) {}

    RegIndex lookup(RegIndex arch) const { return map[arch]; }

    /** @return the previous mapping (for squash walk-back). */
    RegIndex
    rename(RegIndex arch, RegIndex phys)
    {
        const RegIndex old = map[arch];
        map[arch] = phys;
        return old;
    }

    void restore(RegIndex arch, RegIndex old_phys) { map[arch] = old_phys; }

  private:
    std::vector<RegIndex> map;
};

} // namespace eole

#endif // EOLE_PIPELINE_REGFILE_HH
