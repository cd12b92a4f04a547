/**
 * @file
 * Shared helpers for workload kernel construction and memory
 * initialization.
 */

#ifndef EOLE_WORKLOADS_WORKLOAD_UTIL_HH
#define EOLE_WORKLOADS_WORKLOAD_UTIL_HH

#include <cstdint>
#include <cstring>

#include "common/random.hh"
#include "isa/kernel_vm.hh"

namespace eole {
namespace workloads {

/** Store the 64-bit word @p v at @p p, a KernelVM::memSpan pointer
 *  (little-endian, as KernelVM::writeMem stores it). */
inline void
storeWord(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}

/** Fill [base, base+len) with uniformly random bytes (8 at a time). */
void fillRandomBytes(KernelVM &vm, Addr base, std::size_t len,
                     std::uint64_t seed);

/** Fill an array of @p n 64-bit words with random values below bound. */
void fillRandomWords(KernelVM &vm, Addr base, std::size_t n,
                     std::uint64_t bound, std::uint64_t seed);

/** Fill an array of @p n doubles with uniform values in [lo, hi). */
void fillRandomDoubles(KernelVM &vm, Addr base, std::size_t n,
                       double lo, double hi, std::uint64_t seed);

/**
 * Link @p count fixed-size nodes starting at @p base into one random
 * cycle: word 0 of each node holds the absolute byte address of the
 * next node in a random permutation.
 */
void linkRandomCycle(KernelVM &vm, Addr base, std::size_t count,
                     std::size_t node_bytes, std::uint64_t seed);

} // namespace workloads
} // namespace eole

#endif // EOLE_WORKLOADS_WORKLOAD_UTIL_HH
