#include "common/hash.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace eole {

namespace {

constexpr std::uint32_t k[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

void
compress(std::uint32_t *state, const unsigned char *chunk)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t(chunk[4 * i]) << 24)
            | (std::uint32_t(chunk[4 * i + 1]) << 16)
            | (std::uint32_t(chunk[4 * i + 2]) << 8)
            | std::uint32_t(chunk[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7)
            ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17)
            ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + k[i] + w[i];
        const std::uint32_t s0 =
            rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

#if defined(__x86_64__)

/**
 * The block function on the SHA extensions. The state lives in two
 * registers as ABEF and CDGH, the layout sha256rnds2 works on (lane
 * comments list 32-bit lanes high to low). Group g runs rounds
 * 4g..4g+3: it adds the round constants to W[4g..4g+3], which sits in
 * msg[g % 4], runs two sha256rnds2, and extends the schedule four
 * words at a time with sha256msg1/msg2.
 */
__attribute__((target("sha,sse4.1,ssse3"))) void
blocksShaNi(std::uint32_t *state, const unsigned char *data,
            std::size_t blocks)
{
    // Big-endian message words: reverse the bytes of each 32-bit lane.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i cdgh =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    tmp = _mm_shuffle_epi32(tmp, 0xb1);                  // CDAB
    cdgh = _mm_shuffle_epi32(cdgh, 0x1b);                // EFGH
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);       // ABEF
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);             // CDGH

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abefSaved = abef, cdghSaved = cdgh;
        __m128i msg[4];
#pragma GCC unroll 4
        for (int i = 0; i < 4; ++i) {
            msg[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(data + 16 * i)),
                bswap);
        }
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i m = _mm_add_epi32(
                msg[g & 3],
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(k + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);
            if (g >= 3 && g < 15) {
                // Each new word W[t], t in 4g+4..4g+7: its msg1
                // partial W[t-16] + σ0(W[t-15]), plus W[t-7]; msg2
                // then adds σ1(W[t-2]).
                __m128i &next = msg[(g + 1) & 3];
                next = _mm_add_epi32(
                    next, _mm_alignr_epi8(msg[g & 3], msg[(g - 1) & 3], 4));
                next = _mm_sha256msg2_epu32(next, msg[g & 3]);
            }
            m = _mm_shuffle_epi32(m, 0x0e);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, m);
            if (g >= 1 && g < 13) {
                __m128i &prev = msg[(g - 1) & 3];
                prev = _mm_sha256msg1_epu32(prev, msg[g & 3]);
            }
        }
        abef = _mm_add_epi32(abef, abefSaved);
        cdgh = _mm_add_epi32(cdgh, cdghSaved);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1b);                 // FEBA
    cdgh = _mm_shuffle_epi32(cdgh, 0xb1);                // DCHG
    abef = _mm_blend_epi16(tmp, cdgh, 0xf0);             // DCBA
    cdgh = _mm_alignr_epi8(cdgh, tmp, 8);                // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), abef);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), cdgh);
}

bool
cpuHasShaNi()
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d))
        return false;
    if (!(c & bit_SSSE3) || !(c & bit_SSE4_1))
        return false;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
        return false;
    return (b & bit_SHA) != 0;
}

#endif

Sha256BlockFn
chooseBlocks()
{
#if defined(__x86_64__)
    if (cpuHasShaNi())
        return blocksShaNi;
#endif
    return sha256BlocksPortable;
}

} // namespace

void
sha256BlocksPortable(std::uint32_t *state, const unsigned char *data,
                     std::size_t blocks)
{
    for (; blocks > 0; --blocks, data += 64)
        compress(state, data);
}

Sha256BlockFn
sha256Blocks()
{
    static const Sha256BlockFn chosen = chooseBlocks();
    return chosen;
}

void
Sha256::reset()
{
    state = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
             0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
    total = 0;
    fill = 0;
}

void
Sha256::update(const void *data, std::size_t len)
{
    if (len == 0)
        return;
    const auto *p = static_cast<const unsigned char *>(data);
    const Sha256BlockFn blocks = sha256Blocks();
    total += len;
    // Top up a partial block first; whole blocks then hash straight
    // from the caller's buffer, and only the tail is copied.
    if (fill > 0) {
        const std::size_t take = std::min(len, sizeof(block) - fill);
        std::memcpy(block + fill, p, take);
        fill += take;
        p += take;
        len -= take;
        if (fill < sizeof(block))
            return;
        blocks(state.data(), block, 1);
        fill = 0;
    }
    const std::size_t whole = len / sizeof(block);
    blocks(state.data(), p, whole);
    p += whole * sizeof(block);
    len -= whole * sizeof(block);
    std::memcpy(block, p, len);
    fill = len;
}

std::string
Sha256::hexDigest()
{
    // 0x80, zeros up to 56 mod 64, then the bit length big-endian.
    const std::uint64_t bits = total * 8;
    unsigned char pad[72] = {0x80};
    const std::size_t zeros = (119 - fill) % 64;
    for (int i = 0; i < 8; ++i)
        pad[1 + zeros + i] = static_cast<unsigned char>(bits >> (56 - 8 * i));
    update(pad, 1 + zeros + 8);

    std::string out;
    out.reserve(64);
    for (const std::uint32_t w : state) {
        for (int shift = 28; shift >= 0; shift -= 4)
            out += "0123456789abcdef"[(w >> shift) & 0xf];
    }
    return out;
}

} // namespace eole
