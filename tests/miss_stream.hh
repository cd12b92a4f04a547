/**
 * @file
 * A seeded memory µ-op stream shaped like 429.mcf under functional
 * warming, shared by test_mem and test_ckpt_state.
 *
 * One memory µ-op per cycle over a 64 MB footprint: nearly every
 * access misses L1D and L2, so misses arrive faster than DRAM returns
 * lines (one per 20 cycles). Each miss that finds the MSHRs full
 * stalls and still adds its fill, so the in-flight lists of L1D and
 * L2 grow far past `mshrs`. One static load walks a 64-byte stride to
 * keep the L2 prefetcher issuing into that regime too.
 */

#ifndef EOLE_TESTS_MISS_STREAM_HH
#define EOLE_TESTS_MISS_STREAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "isa/frozen_trace.hh"

namespace eole::test {

inline std::shared_ptr<const FrozenTrace>
missStream(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    auto trace = std::make_shared<FrozenTrace>();
    // Eight static µ-ops in one I-cache line: the stream stays on the
    // D-side.
    for (std::uint32_t slot = 0; slot < 8; ++slot) {
        StaticUop &s = trace->staticStorage.emplace_back();
        s.pc = 0x400000 + 4 * slot;
        s.sidx = slot;
        s.opc = slot == 1 ? Opcode::St : Opcode::Ld;
    }
    trace->storage.resize(n);
    Addr strided = 0x2000000;
    for (UopRecord &u : trace->storage) {
        u.staticId = static_cast<std::uint32_t>(rng.below(8));
        if (u.staticId == 0) {
            u.effAddr = strided;
            strided += 64;
        } else {
            u.effAddr = rng.below(64ULL << 20) & ~Addr{7};
        }
    }
    trace->seal();
    return trace;
}

/** In-flight fill count per cache level, read from the "cache" header
 *  lines of a MemHierarchy snapshot ("cache <name> <lines> <inflight>
 *  <lruClock>", hex fields). */
inline std::map<std::string, std::uint64_t>
inflightFills(const std::string &snapshot)
{
    std::map<std::string, std::uint64_t> out;
    std::istringstream lines(snapshot);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream words(line);
        std::string tag, name, n_lines, n_inflight;
        if (words >> tag >> name >> n_lines >> n_inflight && tag == "cache")
            out[name] = std::stoull(n_inflight, nullptr, 16);
    }
    return out;
}

} // namespace eole::test

#endif // EOLE_TESTS_MISS_STREAM_HH
