/**
 * @file
 * Global branch-history management with geometric folded registers and
 * O(1) checkpoint/restore.
 *
 * Both TAGE (direction prediction) and VTAGE (value prediction) index
 * their tagged components with hashes of geometrically increasing
 * history lengths. The standard implementation keeps, per component,
 * "folded" registers that are updated incrementally as bits enter and
 * leave the history. The raw history lives in a large circular bit
 * buffer that is only ever appended to, so a checkpoint is just the
 * write position plus the folded registers — restoring is O(folds).
 */

#ifndef EOLE_BPRED_HISTORY_HH
#define EOLE_BPRED_HISTORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/snapshot.hh"
#include "isa/warmable.hh"

namespace eole {

/**
 * One incrementally-folded view of the global history: the most recent
 * @c histLen bits XOR-folded down to @c width bits.
 */
struct FoldedHistory
{
    std::uint32_t comp = 0;
    int histLen = 0;
    int width = 1;
    int outPoint = 0;

    void
    configure(int hist_len, int fold_width)
    {
        panic_if(fold_width <= 0 || fold_width > 30,
                 "bad fold width %d", fold_width);
        histLen = hist_len;
        width = fold_width;
        outPoint = hist_len % fold_width;
        comp = 0;
    }

    /** Shift in @p in_bit; @p out_bit is the bit leaving the history. */
    void
    update(bool in_bit, bool out_bit)
    {
        comp = (comp << 1) | static_cast<std::uint32_t>(in_bit);
        comp ^= static_cast<std::uint32_t>(out_bit) << outPoint;
        comp ^= comp >> width;
        comp &= (1u << width) - 1;
    }
};

/**
 * Append-only global history with folded views.
 *
 * Component folds are registered once at construction; every push()
 * updates all of them. Snapshots capture the fold states and the
 * logical position; the underlying circular buffer is never rewound,
 * so snapshots stay valid as long as fewer than bufferBits new bits
 * were pushed since (far beyond any pipeline depth).
 */
class GlobalHistory
{
  public:
    struct Snapshot
    {
        std::uint64_t pos = 0;
        std::vector<std::uint32_t> folds;
    };

    /**
     * @param fold_specs (histLen, width) pairs; one fold per pair
     * @param buffer_bits circular raw-history capacity (power of two)
     */
    GlobalHistory(const std::vector<std::pair<int, int>> &fold_specs,
                  std::size_t buffer_bits = 4096)
        : bits(buffer_bits, 0)
    {
        panic_if((buffer_bits & (buffer_bits - 1)) != 0,
                 "buffer_bits must be a power of two");
        folds.resize(fold_specs.size());
        for (std::size_t i = 0; i < fold_specs.size(); ++i) {
            folds[i].configure(fold_specs[i].first, fold_specs[i].second);
            panic_if(static_cast<std::size_t>(fold_specs[i].first)
                         >= buffer_bits,
                     "history length exceeds buffer");
        }
    }

    /** Append one direction bit. */
    void
    push(bool bit)
    {
        for (auto &f : folds) {
            const bool out = bitAt(f.histLen);
            f.update(bit, out);
        }
        bits[pos & (bits.size() - 1)] = bit;
        ++pos;
    }

    /** Bit at @p distance (1 = most recent); 0 before history fills. */
    bool
    bitAt(std::uint64_t distance) const
    {
        if (distance > pos)
            return false;
        return bits[(pos - distance) & (bits.size() - 1)] != 0;
    }

    /** Folded value of registered component @p i. */
    std::uint32_t folded(std::size_t i) const { return folds[i].comp; }

    std::uint64_t position() const { return pos; }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        snapshotInto(s);
        return s;
    }

    /** Fill @p s in place, reusing its fold buffer's capacity (the
     *  per-branch snapshot path recycles Snapshot objects). */
    void
    snapshotInto(Snapshot &s) const
    {
        s.pos = pos;
        s.folds.resize(folds.size());
        for (std::size_t i = 0; i < folds.size(); ++i)
            s.folds[i] = folds[i].comp;
    }

    void
    restore(const Snapshot &s)
    {
        panic_if(s.folds.size() != folds.size(), "snapshot shape mismatch");
        panic_if(pos - s.pos >= bits.size(),
                 "snapshot too old: %llu bits pushed since",
                 static_cast<unsigned long long>(pos - s.pos));
        pos = s.pos;
        for (std::size_t i = 0; i < folds.size(); ++i)
            folds[i].comp = s.folds[i];
    }

    /** Serialize position, fold values and the raw bit buffer
     *  (canonical text; isa/snapshot.hh). Fold geometry is derived
     *  from construction and not serialized. */
    void
    snapshotState(SnapshotWriter &w) const
    {
        w.tag("hist").u64(pos).u64(folds.size()).u64(bits.size());
        w.end();
        w.tag("hist.folds");
        for (const auto &f : folds)
            w.u64(f.comp);
        w.end();
        // The raw buffer packs 4 direction bits per hex nibble,
        // buffer-index order.
        std::string nibbles;
        nibbles.reserve((bits.size() + 3) / 4);
        for (std::size_t i = 0; i < bits.size(); i += 4) {
            unsigned nib = 0;
            for (std::size_t b = 0; b < 4 && i + b < bits.size(); ++b)
                nib |= (bits[i + b] ? 1u : 0u) << (3 - b);
            nibbles += "0123456789abcdef"[nib];
        }
        w.tag("hist.bits").str(nibbles);
        w.end();
    }

    /** Restore into a same-geometry instance (fatal with section/line
     *  context otherwise). */
    void
    restoreState(SnapshotReader &r)
    {
        r.line("hist");
        const std::uint64_t p = r.u64("pos");
        r.fatalIf(r.u64("folds") != folds.size(),
                  "history fold-count mismatch");
        r.fatalIf(r.u64("bits") != bits.size(),
                  "history buffer-size mismatch");
        r.endLine();
        r.line("hist.folds");
        for (auto &f : folds) {
            const std::uint64_t c = r.u64("fold");
            r.fatalIf(c >= (1ULL << f.width), "fold value too wide");
            f.comp = static_cast<std::uint32_t>(c);
        }
        r.endLine();
        r.line("hist.bits");
        const std::string packed = r.str("bits");
        r.fatalIf(packed.size() != (bits.size() + 3) / 4,
                  "bit buffer truncated");
        for (std::size_t i = 0; i < bits.size(); i += 4) {
            const char c = packed[i / 4];
            int nib;
            if (c >= '0' && c <= '9')
                nib = c - '0';
            else if (c >= 'a' && c <= 'f')
                nib = c - 'a' + 10;
            else
                r.fail("bit buffer has a non-hex character");
            for (std::size_t b = 0; b < 4 && i + b < bits.size(); ++b)
                bits[i + b] = (nib >> (3 - b)) & 1;
        }
        r.endLine();
        pos = p;
    }

    /** The by-value restoreState (isa/warmable.hh): position, fold
     *  values and raw bits; fold geometry stays this instance's. */
    void
    copyStateFrom(const GlobalHistory &o)
    {
        copyCheck(o.folds.size() == folds.size(), "history",
                  "history fold-count mismatch");
        copyCheck(o.bits.size() == bits.size(), "history",
                  "history buffer-size mismatch");
        for (std::size_t i = 0; i < folds.size(); ++i) {
            copyCheck(o.folds[i].histLen == folds[i].histLen
                          && o.folds[i].width == folds[i].width,
                      "history", "history fold-geometry mismatch");
            folds[i].comp = o.folds[i].comp;
        }
        bits = o.bits;
        pos = o.pos;
    }

  private:
    std::vector<std::uint8_t> bits;
    std::vector<FoldedHistory> folds;
    std::uint64_t pos = 0;
};

} // namespace eole

#endif // EOLE_BPRED_HISTORY_HH
