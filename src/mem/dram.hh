/**
 * @file
 * DDR3-like main-memory model (Table 1: single channel DDR3-1600,
 * 2 ranks x 8 banks, open-row policy; minimum read latency 75 cycles
 * and ~185 cycles under contention, measured from the core at 4 GHz).
 *
 * The model tracks per-bank open rows and busy times plus data-bus
 * occupancy. It is a latency oracle: access() returns the cycle at
 * which the requested line is available and updates internal state.
 */

#ifndef EOLE_MEM_DRAM_HH
#define EOLE_MEM_DRAM_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"
#include "isa/snapshot.hh"
#include "isa/warmable.hh"

namespace eole {

/** DRAM geometry/timing knobs (CPU cycles at 4 GHz).
 *  String-addressable as "mem.dram.*" via the parameter registry
 *  (sim/params.hh); new fields must be registered there. */
struct DramConfig
{
    int ranks = 2;
    int banksPerRank = 8;
    std::uint32_t rowBytes = 8192;
    /** Core cycles from request to first data on a row hit. */
    Cycle rowHitLatency = 61;
    /** Extra cycles for precharge + activate on a row miss. */
    Cycle rowMissExtra = 28;
    /** Data-bus occupancy per 64B line (12.8 GB/s at 4 GHz). */
    Cycle burstCycles = 20;
};

class Dram
{
  public:
    explicit Dram(const DramConfig &config = DramConfig{})
        : cfg(config),
          banks(static_cast<std::size_t>(config.ranks)
                * config.banksPerRank)
    {
    }

    /**
     * Access one cache line.
     *
     * @param addr line-aligned physical address
     * @param is_write write accesses occupy the bank/bus but the
     *                 caller needs no completion time
     * @param now current cycle
     * @return cycle at which read data is available
     */
    Cycle
    access(Addr addr, bool is_write, Cycle now)
    {
        const std::size_t bank = bankOf(addr);
        const std::uint64_t row = rowOf(addr);
        Bank &b = banks[bank];

        Cycle start = std::max(now, b.busyUntil);
        Cycle lat = cfg.rowHitLatency;
        if (!b.rowOpen || b.openRow != row)
            lat += cfg.rowMissExtra;
        b.rowOpen = true;
        b.openRow = row;

        // Serialize bursts on the shared data bus.
        Cycle data_start = std::max(start + lat - cfg.burstCycles,
                                    busBusyUntil);
        const Cycle done = data_start + cfg.burstCycles;
        busBusyUntil = done;
        b.busyUntil = start + lat / 2;  // bank frees before data drains

        if (is_write)
            ++writes;
        else
            ++reads;
        return done;
    }

    std::uint64_t readCount() const { return reads; }
    std::uint64_t writeCount() const { return writes; }

    /** Zero the access counters (bank/bus state is kept). */
    void resetStats() { reads = writes = 0; }

    /** Serialize bank rows/busy times and bus occupancy (canonical
     *  text; access counters are measurement state, excluded). */
    void
    snapshotState(SnapshotWriter &w) const
    {
        w.tag("dram").u64(banks.size()).u64(busBusyUntil);
        w.end();
        w.tag("dram.banks");
        for (const Bank &b : banks)
            w.u64(b.busyUntil).flag(b.rowOpen).u64(b.openRow);
        w.end();
    }

    /** Restore into a same-geometry controller. */
    void
    restoreState(SnapshotReader &r)
    {
        r.line("dram");
        r.fatalIf(r.u64("banks") != banks.size(),
                  "DRAM bank-count mismatch");
        busBusyUntil = r.u64("busBusyUntil");
        r.endLine();
        r.line("dram.banks");
        for (Bank &b : banks) {
            b.busyUntil = r.u64("busyUntil");
            b.rowOpen = r.flag("rowOpen");
            b.openRow = r.u64("openRow");
        }
        r.endLine();
    }

    /** The by-value restoreState (isa/warmable.hh). */
    void
    copyStateFrom(const Dram &o)
    {
        copyCheck(o.banks.size() == banks.size(), "DRAM",
                  "DRAM bank-count mismatch");
        banks = o.banks;
        busBusyUntil = o.busBusyUntil;
    }

  private:
    struct Bank
    {
        Cycle busyUntil = 0;
        bool rowOpen = false;
        std::uint64_t openRow = 0;
    };

    std::size_t
    bankOf(Addr addr) const
    {
        return (addr / 64) % banks.size();
    }

    std::uint64_t
    rowOf(Addr addr) const
    {
        return addr / cfg.rowBytes;
    }

    DramConfig cfg;
    std::vector<Bank> banks;
    Cycle busBusyUntil = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

} // namespace eole

#endif // EOLE_MEM_DRAM_HH
