#include "vpred/vtage.hh"

#include "common/logging.hh"

namespace eole {

Vtage::Vtage(const VpConfig &config, std::uint64_t seed)
    : cfg(config),
      fpc(config.fpcVector.empty() ? Fpc::paperVector() : config.fpcVector),
      rng(seed)
{
    panic_if(cfg.vtageNumTagged < 1
                 || cfg.vtageNumTagged > VpLookup::maxComps - 1,
             "unsupported VTAGE component count %d", cfg.vtageNumTagged);

    // Geometric histories doubling from minHist to maxHist.
    histLens.resize(cfg.vtageNumTagged);
    int len = cfg.vtageMinHist;
    for (int i = 0; i < cfg.vtageNumTagged; ++i) {
        histLens[i] = len;
        len = len < cfg.vtageMaxHist ? len * 2 : len + 1;
    }

    base.assign(1u << cfg.vtageBaseLog2Entries, BaseEntry{});
    tagged.assign(
        static_cast<std::size_t>(cfg.vtageNumTagged) * compEntries(),
        TaggedEntry{});
}

int
Vtage::tagBitsOf(int comp) const
{
    // Tags are 12 + rank bits, rank 1 for the shortest history.
    const int bits = cfg.vtageTagBits + comp + 1;
    return bits > 15 ? 15 : bits;
}

std::vector<std::pair<int, int>>
Vtage::foldSpecs() const
{
    std::vector<std::pair<int, int>> specs;
    for (int i = 0; i < cfg.vtageNumTagged; ++i) {
        specs.emplace_back(histLens[i], cfg.vtageTaggedLog2Entries);
        specs.emplace_back(histLens[i], tagBitsOf(i));
        specs.emplace_back(histLens[i], tagBitsOf(i) - 1);
    }
    return specs;
}

void
Vtage::bindHistory(const GlobalHistory &h, std::size_t fold_base)
{
    hist = &h;
    foldBase = fold_base;
}

std::uint32_t
Vtage::baseIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2)
        & ((1u << cfg.vtageBaseLog2Entries) - 1);
}

std::uint32_t
Vtage::taggedIndex(Addr pc, int comp) const
{
    const std::uint32_t p = static_cast<std::uint32_t>(pc >> 2);
    const std::uint32_t h = hist->folded(foldBase + 3 * comp);
    return (p ^ (p >> (1 + comp)) ^ h)
        & ((1u << cfg.vtageTaggedLog2Entries) - 1);
}

std::uint16_t
Vtage::taggedTag(Addr pc, int comp) const
{
    const std::uint32_t p = static_cast<std::uint32_t>(pc >> 2);
    const std::uint32_t h1 = hist->folded(foldBase + 3 * comp + 1);
    const std::uint32_t h2 = hist->folded(foldBase + 3 * comp + 2);
    return static_cast<std::uint16_t>(
        (p ^ (p >> 5) ^ h1 ^ (h2 << 1))
        & ((1u << tagBitsOf(comp)) - 1));
}

void
Vtage::predictInto(Addr pc, VpLookup::VtagePart &l) const
{
    panic_if(hist == nullptr, "VTAGE history not bound");

    for (int i = 0; i < cfg.vtageNumTagged; ++i) {
        l.idx[i] = taggedIndex(pc, i);
        l.tag[i] = taggedTag(pc, i);
    }

    // Longest matching tagged component provides; next hit (or the
    // base) is the alternate.
    int provider = -1;
    int alt = -1;
    for (int i = cfg.vtageNumTagged - 1; i >= 0; --i) {
        const TaggedEntry &e = entry(i, l.idx[i]);
        if (e.valid && e.tag == l.tag[i]) {
            if (provider < 0) {
                provider = i;
            } else {
                alt = i;
                break;
            }
        }
    }
    l.provider = static_cast<std::int8_t>(provider);
    l.altProvider = static_cast<std::int8_t>(alt);
    l.made = true;

    const BaseEntry &b = base[baseIndex(pc)];
    if (provider >= 0) {
        const TaggedEntry &e = entry(provider, l.idx[provider]);
        l.value = e.value;
        l.confident = fpc.saturated(e.conf);
        l.altValue = alt >= 0 ? entry(alt, l.idx[alt]).value : b.value;
    } else {
        l.value = b.value;
        l.confident = fpc.saturated(b.conf);
        l.altValue = b.value;
    }
}

VpLookup
Vtage::predict(Addr pc)
{
    VpLookup l;
    predictInto(pc, l.vtage);
    l.choose(l.vtage);
    return l;
}

void
Vtage::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    train(pc, actual, lookup.vtage);
}

void
Vtage::train(Addr pc, RegVal actual, const VpLookup::VtagePart &l)
{
    const bool correct = l.value == actual;

    if (l.provider >= 0) {
        TaggedEntry &e = entry(l.provider, l.idx[l.provider]);
        fpc.update(e.conf, correct, rng);
        if (correct) {
            if (l.altValue != actual)
                e.u = 1;
        } else {
            // Replace the value only once confidence has drained.
            if (e.conf == 0)
                e.value = actual;
            e.u = 0;
        }
    } else {
        BaseEntry &b = base[baseIndex(pc)];
        fpc.update(b.conf, correct, rng);
        if (!correct && b.conf == 0)
            b.value = actual;
    }

    // ITTAGE-style allocation in a longer-history component on a
    // misprediction.
    if (!correct && l.provider < cfg.vtageNumTagged - 1) {
        const int start = l.provider + 1;
        bool any_free = false;
        for (int i = start; i < cfg.vtageNumTagged; ++i) {
            if (entry(i, l.idx[i]).u == 0) {
                any_free = true;
                break;
            }
        }
        if (!any_free) {
            for (int i = start; i < cfg.vtageNumTagged; ++i)
                entry(i, l.idx[i]).u = 0;
            return;
        }
        // Pick among free slots with geometric bias toward shorter
        // histories (probability 1/2 to stop at each candidate).
        int chosen = -1;
        for (int i = start; i < cfg.vtageNumTagged; ++i) {
            if (entry(i, l.idx[i]).u != 0)
                continue;
            chosen = i;
            if (rng.below(2) == 0)
                break;
        }
        TaggedEntry &e = entry(chosen, l.idx[chosen]);
        e.valid = true;
        e.tag = l.tag[chosen];
        e.value = actual;
        e.conf = 0;
        e.u = 0;
    }
}

void
Vtage::snapshotState(std::ostream &os) const
{
    SnapshotWriter w(os);
    w.tag("vtage")
        .u64(1)
        .u64(base.size())
        .u64(static_cast<std::uint64_t>(cfg.vtageNumTagged))
        .u64(compEntries());
    w.end();
    w.tag("vtage.base");
    for (const BaseEntry &b : base)
        w.u64(b.value).u64(b.conf);
    w.end();
    for (int i = 0; i < cfg.vtageNumTagged; ++i) {
        w.tag("vtage.comp").u64(static_cast<std::uint64_t>(i));
        for (std::uint32_t j = 0; j < compEntries(); ++j) {
            const TaggedEntry &e = entry(i, j);
            w.flag(e.valid).u64(e.tag).u64(e.value).u64(e.conf)
                .u64(e.u);
        }
        w.end();
    }
    w.tag("vtage.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        w.u64(rng.word(i));
    w.end();
}

void
Vtage::restoreStateBody(SnapshotReader &r)
{
    r.line("vtage");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.fatalIf(r.u64("baseEntries") != base.size(),
              "VTAGE base-table size mismatch");
    r.fatalIf(r.u64("numTagged")
                  != static_cast<std::uint64_t>(cfg.vtageNumTagged),
              "VTAGE component-count mismatch");
    r.fatalIf(r.u64("taggedEntries") != compEntries(),
              "VTAGE tagged-table size mismatch");
    r.endLine();
    r.line("vtage.base");
    for (BaseEntry &b : base) {
        b.value = r.u64("value");
        b.conf = static_cast<std::uint8_t>(r.u64Max("conf", fpc.max()));
    }
    r.endLine();
    for (int i = 0; i < cfg.vtageNumTagged; ++i) {
        r.line("vtage.comp");
        r.fatalIf(r.u64("comp") != static_cast<std::uint64_t>(i),
                  "VTAGE components out of order");
        const std::uint64_t tag_max = (1u << tagBitsOf(i)) - 1;
        for (std::uint32_t j = 0; j < compEntries(); ++j) {
            TaggedEntry &e = entry(i, j);
            e.valid = r.flag("valid");
            e.tag =
                static_cast<std::uint16_t>(r.u64Max("tag", tag_max));
            e.value = r.u64("value");
            e.conf =
                static_cast<std::uint8_t>(r.u64Max("conf", fpc.max()));
            e.u = static_cast<std::uint8_t>(r.u64Max("u", 1));
        }
        r.endLine();
    }
    r.line("vtage.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        rng.setWord(i, r.u64("word"));
    r.endLine();
}

void
Vtage::restoreState(std::istream &is)
{
    SnapshotReader r(is, name());
    restoreStateBody(r);
}

std::unique_ptr<WarmableComponent>
Vtage::clone() const
{
    auto copy = std::make_unique<Vtage>(*this);
    copy->unbindHistory();
    return copy;
}

void
Vtage::copyStateFrom(const WarmableComponent &src)
{
    const auto &o = copySource<Vtage>(src, name());
    copyCheck(o.base.size() == base.size(), name(),
              "VTAGE base-table size mismatch");
    copyCheck(o.cfg.vtageNumTagged == cfg.vtageNumTagged, name(),
              "VTAGE component-count mismatch");
    copyCheck(o.compEntries() == compEntries(), name(),
              "VTAGE tagged-table size mismatch");
    copyCheck(o.cfg.vtageTagBits == cfg.vtageTagBits
                  && o.fpc.max() == fpc.max(),
              name(), "VTAGE tag or confidence width mismatch");
    base = o.base;
    tagged = o.tagged;
    rng = o.rng;
}

} // namespace eole
