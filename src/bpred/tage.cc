#include "bpred/tage.hh"

#include <cmath>

#include "common/logging.hh"
#include "isa/warmable.hh"

namespace eole {

Tage::Tage(const TageConfig &config, std::uint64_t seed)
    : cfg(config), useAltOnNa(4, 0), rng(seed)
{
    panic_if(cfg.numTagged < 1 || cfg.numTagged > TageLookup::maxComps,
             "unsupported number of tagged components %d", cfg.numTagged);
    panic_if(cfg.ctrBits < 1 || cfg.ctrBits > 8 || cfg.uBits < 1
                 || cfg.uBits > 8 || cfg.tagBits < 1 || cfg.tagBits > 16,
             "TAGE field widths out of range (ctr %d, u %d, tag %d bits)",
             cfg.ctrBits, cfg.uBits, cfg.tagBits);
    taggedCtr = {static_cast<std::int8_t>(-(1 << (cfg.ctrBits - 1))),
                 static_cast<std::int8_t>((1 << (cfg.ctrBits - 1)) - 1)};

    // Geometric history lengths from minHist to maxHist.
    histLens.resize(cfg.numTagged);
    const double ratio = cfg.numTagged > 1
        ? std::pow(double(cfg.maxHist) / cfg.minHist,
                   1.0 / (cfg.numTagged - 1))
        : 1.0;
    double len = cfg.minHist;
    int prev = 0;
    for (int i = 0; i < cfg.numTagged; ++i) {
        int l = static_cast<int>(len + 0.5);
        if (l <= prev)
            l = prev + 1;
        histLens[i] = l;
        prev = l;
        len *= ratio;
    }

    tagged.assign(static_cast<std::size_t>(cfg.numTagged) * compEntries(),
                  TaggedEntry{});
    base.assign(1u << cfg.baseLog2Entries, 0);
}

std::vector<std::pair<int, int>>
Tage::foldSpecs() const
{
    // Per component: one index fold and two tag folds (widths tagBits
    // and tagBits-1, the classic PPM-like tag hash).
    std::vector<std::pair<int, int>> specs;
    for (int i = 0; i < cfg.numTagged; ++i) {
        specs.emplace_back(histLens[i], cfg.taggedLog2Entries);
        specs.emplace_back(histLens[i], cfg.tagBits);
        specs.emplace_back(histLens[i], cfg.tagBits - 1);
    }
    return specs;
}

std::uint32_t
Tage::baseIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2)
        & ((1u << cfg.baseLog2Entries) - 1);
}

std::uint32_t
Tage::taggedIndex(Addr pc, const GlobalHistory &hist,
                  std::size_t fold_base, int comp) const
{
    const std::uint32_t p = static_cast<std::uint32_t>(pc >> 2);
    const std::uint32_t h = hist.folded(fold_base + 3 * comp);
    return (p ^ (p >> (cfg.taggedLog2Entries - comp % 4)) ^ h)
        & ((1u << cfg.taggedLog2Entries) - 1);
}

std::uint16_t
Tage::taggedTag(Addr pc, const GlobalHistory &hist, std::size_t fold_base,
                int comp) const
{
    const std::uint32_t p = static_cast<std::uint32_t>(pc >> 2);
    const std::uint32_t h1 = hist.folded(fold_base + 3 * comp + 1);
    const std::uint32_t h2 = hist.folded(fold_base + 3 * comp + 2);
    return static_cast<std::uint16_t>((p ^ h1 ^ (h2 << 1))
                                      & ((1u << cfg.tagBits) - 1));
}

bool
Tage::predict(Addr pc, const GlobalHistory &hist, std::size_t fold_base,
              TageLookup &out)
{
    out = TageLookup{};
    out.baseIdx = baseIndex(pc);

    for (int i = 0; i < cfg.numTagged; ++i) {
        out.idx[i] = taggedIndex(pc, hist, fold_base, i);
        out.tag[i] = taggedTag(pc, hist, fold_base, i);
    }

    // Longest-history hit is the provider; next hit is the alternate.
    for (int i = cfg.numTagged - 1; i >= 0; --i) {
        if (entry(i, out.idx[i]).tag == out.tag[i]) {
            if (out.provider < 0) {
                out.provider = i;
            } else {
                out.altProvider = i;
                break;
            }
        }
    }

    const bool base_pred = base[out.baseIdx] >= 0;
    out.altPred = out.altProvider >= 0
        ? entry(out.altProvider, out.idx[out.altProvider]).ctr >= 0
        : base_pred;

    bool high_conf;
    if (out.provider >= 0) {
        const TaggedEntry &e = entry(out.provider, out.idx[out.provider]);
        out.providerPred = e.ctr >= 0;
        // Newly-allocated (weak, not yet useful) entries may be
        // bypassed in favour of the alternate prediction.
        out.usedAlt = useAltOnNa.predictTaken() && isWeak(e.ctr)
            && e.u == 0;
        out.predTaken = out.usedAlt ? out.altPred : out.providerPred;
        // Storage-free confidence: saturated provider counter, not
        // overridden by the alternate prediction path.
        high_conf = !out.usedAlt && taggedCtr.saturated(e.ctr);
    } else {
        out.predTaken = base_pred;
        high_conf = baseCtr.saturated(base[out.baseIdx]);
    }
    out.highConf = high_conf;
    return out.predTaken;
}

void
Tage::update(Addr pc, bool taken, const TageLookup &lookup)
{
    (void)pc;
    ++updates;

    // Periodic graceful reset of useful bits (alternating halves).
    if (updates % cfg.uResetPeriod == 0) {
        const std::uint8_t mask = (updates / cfg.uResetPeriod) % 2 ? 1 : 2;
        for (TaggedEntry &e : tagged)
            e.u &= mask;
    }

    const bool mispredicted = lookup.predTaken != taken;

    if (lookup.provider >= 0) {
        TaggedEntry &e = entry(lookup.provider, lookup.idx[lookup.provider]);
        // use_alt_on_na bias update: did bypassing (or not) pay off?
        if (isWeak(e.ctr) && e.u == 0
            && lookup.providerPred != lookup.altPred) {
            useAltOnNa.update(lookup.altPred == taken);
        }
        taggedCtr.update(e.ctr, taken);
        if (lookup.providerPred != lookup.altPred) {
            if (lookup.providerPred == taken) {
                if (e.u < ((1u << cfg.uBits) - 1))
                    ++e.u;
            } else {
                if (e.u > 0)
                    --e.u;
            }
        }
    } else {
        baseCtr.update(base[lookup.baseIdx], taken);
    }

    // Allocate a new entry in a longer-history component on a
    // misprediction (provider counter update alone was insufficient).
    if (mispredicted && lookup.provider < cfg.numTagged - 1) {
        const int start = lookup.provider + 1;
        // Find allocation candidates (u == 0).
        int candidates = 0;
        for (int i = start; i < cfg.numTagged; ++i) {
            if (entry(i, lookup.idx[i]).u == 0)
                ++candidates;
        }
        if (candidates == 0) {
            // Nothing allocatable: age all would-be victims instead.
            for (int i = start; i < cfg.numTagged; ++i) {
                TaggedEntry &e = entry(i, lookup.idx[i]);
                if (e.u > 0)
                    --e.u;
            }
            return;
        }
        // Pick, with geometric bias toward shorter histories: skip a
        // candidate with probability 1/2 (standard TAGE allocation).
        int chosen = -1;
        for (int i = start; i < cfg.numTagged; ++i) {
            if (entry(i, lookup.idx[i]).u != 0)
                continue;
            chosen = i;
            if (rng.below(2) == 0)
                break;
        }
        TaggedEntry &e = entry(chosen, lookup.idx[chosen]);
        e.tag = lookup.tag[chosen];
        e.ctr = taken ? 0 : -1;
        e.u = 0;
    }
}

void
Tage::snapshotState(std::ostream &os) const
{
    SnapshotWriter w(os);
    w.tag("tage")
        .u64(static_cast<std::uint64_t>(cfg.numTagged))
        .u64(compEntries())
        .u64(base.size())
        .u64(updates);
    w.end();
    for (int i = 0; i < cfg.numTagged; ++i) {
        w.tag("tage.comp").u64(static_cast<std::uint64_t>(i));
        for (std::uint32_t j = 0; j < compEntries(); ++j) {
            const TaggedEntry &e = entry(i, j);
            w.u64(e.tag).i64(e.ctr).u64(e.u);
        }
        w.end();
    }
    w.tag("tage.base");
    for (const std::int8_t c : base)
        w.i64(c);
    w.end();
    w.tag("tage.meta").i64(useAltOnNa.value());
    w.end();
    w.tag("tage.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        w.u64(rng.word(i));
    w.end();
}

void
Tage::restoreState(SnapshotReader &r)
{
    r.line("tage");
    r.fatalIf(r.u64("numTagged")
                  != static_cast<std::uint64_t>(cfg.numTagged),
              "TAGE component-count mismatch");
    r.fatalIf(r.u64("taggedEntries") != compEntries(),
              "TAGE tagged-table size mismatch");
    r.fatalIf(r.u64("baseEntries") != base.size(),
              "TAGE base-table size mismatch");
    updates = r.u64("updates");
    r.endLine();
    for (int i = 0; i < cfg.numTagged; ++i) {
        r.line("tage.comp");
        r.fatalIf(r.u64("comp") != static_cast<std::uint64_t>(i),
                  "TAGE components out of order");
        const std::uint64_t tag_max = (1u << cfg.tagBits) - 1;
        const std::uint64_t u_max = (1u << cfg.uBits) - 1;
        for (std::uint32_t j = 0; j < compEntries(); ++j) {
            TaggedEntry &e = entry(i, j);
            e.tag = static_cast<std::uint16_t>(r.u64Max("tag", tag_max));
            const std::int64_t c = r.i64("ctr");
            r.fatalIf(c < taggedCtr.lo || c > taggedCtr.hi,
                      "TAGE counter out of range");
            e.ctr = static_cast<std::int8_t>(c);
            e.u = static_cast<std::uint8_t>(r.u64Max("u", u_max));
        }
        r.endLine();
    }
    r.line("tage.base");
    for (std::int8_t &c : base) {
        const std::int64_t v = r.i64("ctr");
        r.fatalIf(v < baseCtr.lo || v > baseCtr.hi,
                  "TAGE base counter out of range");
        c = static_cast<std::int8_t>(v);
    }
    r.endLine();
    r.line("tage.meta");
    const std::int64_t alt = r.i64("useAltOnNa");
    r.fatalIf(alt < useAltOnNa.min() || alt > useAltOnNa.max(),
              "useAltOnNa out of range");
    useAltOnNa.reset(static_cast<int>(alt));
    r.endLine();
    r.line("tage.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        rng.setWord(i, r.u64("word"));
    r.endLine();
}

void
Tage::copyStateFrom(const Tage &o)
{
    copyCheck(o.cfg.numTagged == cfg.numTagged, "TAGE",
              "TAGE component-count mismatch");
    copyCheck(o.compEntries() == compEntries(), "TAGE",
              "TAGE tagged-table size mismatch");
    copyCheck(o.base.size() == base.size(), "TAGE",
              "TAGE base-table size mismatch");
    copyCheck(o.cfg.tagBits == cfg.tagBits && o.cfg.ctrBits == cfg.ctrBits
                  && o.cfg.uBits == cfg.uBits,
              "TAGE", "TAGE counter-width mismatch");
    tagged = o.tagged;
    base = o.base;
    useAltOnNa = o.useAltOnNa;
    rng = o.rng;
    updates = o.updates;
}

} // namespace eole
