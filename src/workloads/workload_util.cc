#include "workloads/workload_util.hh"

#include <numeric>
#include <vector>

#include "isa/functional.hh"

namespace eole {
namespace workloads {

void
fillRandomBytes(KernelVM &vm, Addr base, std::size_t len, std::uint64_t seed)
{
    std::uint8_t *p = vm.memSpan(base, len);
    Rng rng(seed);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        storeWord(p + i, rng.next());
    for (; i < len; ++i)
        p[i] = static_cast<std::uint8_t>(rng.next());
}

void
fillRandomWords(KernelVM &vm, Addr base, std::size_t n, std::uint64_t bound,
                std::uint64_t seed)
{
    std::uint8_t *p = vm.memSpan(base, n * 8);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        storeWord(p + i * 8, bound == ~0ULL ? rng.next() : rng.below(bound));
}

void
fillRandomDoubles(KernelVM &vm, Addr base, std::size_t n, double lo,
                  double hi, std::uint64_t seed)
{
    std::uint8_t *p = vm.memSpan(base, n * 8);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        storeWord(p + i * 8, fromDouble(lo + rng.uniform() * (hi - lo)));
}

void
linkRandomCycle(KernelVM &vm, Addr base, std::size_t count,
                std::size_t node_bytes, std::uint64_t seed)
{
    std::vector<std::uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    // Fisher-Yates shuffle.
    for (std::size_t i = count - 1; i > 0; --i) {
        const std::size_t j = rng.below(i + 1);
        std::swap(order[i], order[j]);
    }
    // Up to word 0 of the last node.
    std::uint8_t *p = vm.memSpan(base, (count - 1) * node_bytes + 8);
    for (std::size_t k = 0; k < count; ++k) {
        const Addr to = base + order[(k + 1) % count] * node_bytes;
        storeWord(p + order[k] * node_bytes, to);
    }
}

} // namespace workloads
} // namespace eole
