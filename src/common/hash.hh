/**
 * @file
 * SHA-256 (FIPS 180-4), self-contained and allocation-free.
 *
 * The content-addressed store (sim/store.hh) keys artifacts and
 * checkpoints by the hash of a canonical key document; a keyed lookup
 * must mean "the inputs are byte-identical", so the hash has to be
 * collision-resistant, stable across platforms and independent of any
 * library version — hence a fixed, standardized digest implemented
 * here rather than std::hash (whose value is unspecified and
 * per-process) or a non-cryptographic mix (whose collisions would
 * silently alias two different experiments onto one cached result).
 *
 * The same digest checks every trace file in full at each load
 * (trace/trace_file.hh), so the block function is the cost of a
 * `file:` workload. Two implementations exist (hash.cc): the portable
 * one, and one on the x86 SHA extensions, which Sha256 uses when CPUID
 * reports them. Both produce the same digest; nothing selects between
 * them but the CPU.
 */

#ifndef EOLE_COMMON_HASH_HH
#define EOLE_COMMON_HASH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace eole {

/** A SHA-256 block function: compress @p blocks consecutive 64-byte
 *  blocks starting at @p data into @p state (FIPS 180-4 §6.2.2). */
using Sha256BlockFn = void (*)(std::uint32_t *state,
                               const unsigned char *data,
                               std::size_t blocks);

/** The portable block function: the only one on CPUs without SHA
 *  instructions, and the reference the tests compare against. */
void sha256BlocksPortable(std::uint32_t *state, const unsigned char *data,
                          std::size_t blocks);

/** The block function Sha256 uses on this host, chosen once from
 *  CPUID: the SHA-extension one on x86-64 CPUs that report SHA, SSSE3
 *  and SSE4.1, sha256BlocksPortable everywhere else. */
Sha256BlockFn sha256Blocks();

class Sha256
{
  public:
    Sha256() { reset(); }

    void reset();

    void update(const void *data, std::size_t len);

    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Finish and return the digest as 64 lowercase hex characters.
     *  The object must be reset() before further use. */
    std::string hexDigest();

  private:
    std::array<std::uint32_t, 8> state;
    unsigned char block[64];
    std::uint64_t total = 0;
    std::size_t fill = 0;
};

/** One-shot convenience: 64-hex-char SHA-256 of @p text. */
inline std::string
sha256Hex(const std::string &text)
{
    Sha256 h;
    h.update(text);
    return h.hexDigest();
}

} // namespace eole

#endif // EOLE_COMMON_HASH_HH
