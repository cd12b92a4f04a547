#include "trace/trace_file.hh"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"

namespace eole {

namespace {

// Header field offsets (documented in trace_file.hh).
constexpr std::size_t offMagic = 0;
constexpr std::size_t offHeaderBytes = 8;
constexpr std::size_t offVersion = 12;
constexpr std::size_t offRecordBytes = 16;
constexpr std::size_t offFlags = 20;
constexpr std::size_t offUopCount = 24;
constexpr std::size_t offLayoutHash = 32;
constexpr std::size_t offEndian = 40;
constexpr std::size_t offName = 48;
constexpr std::size_t offSource = 112;
constexpr std::size_t offIntRegs = 128;
constexpr std::size_t offFpRegs = 384;

/** µ-op records the writer packs per hash update and fwrite. */
constexpr std::size_t chunkUops = 4096;

constexpr std::uint32_t flagComplete = 1u << 0;
constexpr std::uint32_t flagIsFp = 1u << 1;
constexpr std::uint32_t endianTag = 0x01020304u;

static_assert(offFpRegs + numArchFpRegs * sizeof(RegVal)
              == traceFileHeaderBytes,
              "header layout out of sync with traceFileHeaderBytes");
static_assert(traceFileHeaderBytes % alignof(TraceUop) == 0,
              "µ-op array must start 8-byte aligned in the mapping");

template <typename T>
void
packAt(unsigned char *buf, std::size_t off, const T &v)
{
    std::memcpy(buf + off, &v, sizeof(T));
}

template <typename T>
T
unpackAt(const unsigned char *buf, std::size_t off)
{
    T v;
    std::memcpy(&v, buf + off, sizeof(T));
    return v;
}

/** Serialize one TraceUop field-by-field into a zeroed buffer: the
 *  on-disk record matches the in-memory layout with every padding
 *  byte pinned to zero (struct assignment would copy indeterminate
 *  padding and break byte-stability). */
void
packUop(unsigned char *buf, const TraceUop &u)
{
    std::memset(buf, 0, sizeof(TraceUop));
    packAt(buf, offsetof(TraceUop, pc), u.pc);
    packAt(buf, offsetof(TraceUop, sidx), u.sidx);
    packAt(buf, offsetof(TraceUop, opc), u.opc);
    packAt(buf, offsetof(TraceUop, dst), u.dst);
    packAt(buf, offsetof(TraceUop, src1), u.src1);
    packAt(buf, offsetof(TraceUop, src2), u.src2);
    packAt(buf, offsetof(TraceUop, imm), u.imm);
    packAt(buf, offsetof(TraceUop, memSize), u.memSize);
    packAt(buf, offsetof(TraceUop, srcVals), u.srcVals);
    packAt(buf, offsetof(TraceUop, result), u.result);
    packAt(buf, offsetof(TraceUop, effAddr), u.effAddr);
    packAt(buf, offsetof(TraceUop, taken), u.taken);
    packAt(buf, offsetof(TraceUop, nextPc), u.nextPc);
    packAt(buf, offsetof(TraceUop, dstClass), u.dstClass);
    packAt(buf, offsetof(TraceUop, srcClass), u.srcClass);
}

struct Mapping
{
    void *base = nullptr;
    std::size_t len = 0;

    ~Mapping()
    {
        if (base)
            ::munmap(base, len);
    }
};

} // namespace

std::uint64_t
traceUopLayoutHash()
{
    // FNV-1a over the (offset, size) of every field plus the struct
    // size: any reorder, retype, insertion or ABI drift changes it.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
#define EOLE_MIX_FIELD(f) \
    do { \
        mix(offsetof(TraceUop, f)); \
        mix(sizeof(TraceUop{}.f)); \
    } while (0)
    EOLE_MIX_FIELD(pc);
    EOLE_MIX_FIELD(sidx);
    EOLE_MIX_FIELD(opc);
    EOLE_MIX_FIELD(dst);
    EOLE_MIX_FIELD(src1);
    EOLE_MIX_FIELD(src2);
    EOLE_MIX_FIELD(imm);
    EOLE_MIX_FIELD(memSize);
    EOLE_MIX_FIELD(srcVals);
    EOLE_MIX_FIELD(result);
    EOLE_MIX_FIELD(effAddr);
    EOLE_MIX_FIELD(taken);
    EOLE_MIX_FIELD(nextPc);
    EOLE_MIX_FIELD(dstClass);
    EOLE_MIX_FIELD(srcClass);
#undef EOLE_MIX_FIELD
    mix(sizeof(TraceUop));
    // The opcode numbering is part of the record semantics: renumber
    // the enum and old files silently decode to different µ-ops.
    mix(static_cast<std::uint64_t>(Opcode::NumOpcodes));
    return h;
}

bool
writeTraceFile(const FrozenTrace &trace, const std::string &path,
               const std::string &source, std::string *err)
{
    const auto fail = [&](const std::string &msg) {
        if (err)
            *err = path + ": " + msg;
        std::remove(path.c_str());
        return false;
    };
    if (trace.name.size() >= traceFileNameBytes) {
        return fail("workload name \"" + trace.name + "\" exceeds "
                    + std::to_string(traceFileNameBytes - 1) + " bytes");
    }
    if (source.size() >= traceFileSourceBytes)
        return fail("source kind \"" + source + "\" too long");

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (err)
            *err = path + ": " + std::strerror(errno);
        return false;
    }

    unsigned char header[traceFileHeaderBytes];
    std::memset(header, 0, sizeof(header));
    std::memcpy(header + offMagic, traceFileMagic, 8);
    packAt(header, offHeaderBytes,
           static_cast<std::uint32_t>(traceFileHeaderBytes));
    packAt(header, offVersion, traceFileVersion);
    packAt(header, offRecordBytes,
           static_cast<std::uint32_t>(sizeof(TraceUop)));
    std::uint32_t flags = 0;
    if (trace.complete)
        flags |= flagComplete;
    if (trace.isFp)
        flags |= flagIsFp;
    packAt(header, offFlags, flags);
    packAt(header, offUopCount,
           static_cast<std::uint64_t>(trace.uops.size()));
    packAt(header, offLayoutHash, traceUopLayoutHash());
    packAt(header, offEndian, endianTag);
    std::memcpy(header + offName, trace.name.data(), trace.name.size());
    std::memcpy(header + offSource, source.data(), source.size());
    for (int r = 0; r < numArchIntRegs; ++r)
        packAt(header, offIntRegs + r * sizeof(RegVal),
               trace.initIntRegs[r]);
    for (int r = 0; r < numArchFpRegs; ++r)
        packAt(header, offFpRegs + r * sizeof(RegVal),
               trace.initFpRegs[r]);

    Sha256 sha;
    const auto put = [&](const void *data, std::size_t len) {
        sha.update(data, len);
        return std::fwrite(data, 1, len, f) == len;
    };

    // Records are packed into a chunk, then hashed and written a chunk
    // at a time: the hash takes whole blocks straight from the buffer
    // and stdio sees one large write instead of one per record.
    bool ok = put(header, sizeof(header));
    std::vector<unsigned char> chunk(chunkUops * sizeof(TraceUop));
    for (std::size_t i = 0; ok && i < trace.uops.size(); i += chunkUops) {
        const std::size_t n = std::min(chunkUops, trace.uops.size() - i);
        for (std::size_t j = 0; j < n; ++j)
            packUop(chunk.data() + j * sizeof(TraceUop), trace.uops[i + j]);
        ok = put(chunk.data(), n * sizeof(TraceUop));
    }

    if (ok) {
        unsigned char footer[traceFileFooterBytes];
        std::memset(footer, 0, sizeof(footer));
        std::memcpy(footer, traceFileFooterMagic, 8);
        packAt(footer, std::size_t{8},
               static_cast<std::uint64_t>(trace.uops.size()));
        const std::string hex = sha.hexDigest();
        std::memcpy(footer + 16, hex.data(), 64);
        ok = std::fwrite(footer, 1, sizeof(footer), f) == sizeof(footer);
    }

    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return fail("write failure");
    return true;
}

namespace {

/** Shared open/validate path for load and info. On success @p map
 *  owns the mapping and @p hdr points at its first byte. */
bool
mapAndValidate(const std::string &path, std::shared_ptr<Mapping> *map,
               const unsigned char **hdr, std::string *err)
{
    const auto fail = [&](const std::string &msg) {
        if (err)
            *err = path + ": " + msg;
        return false;
    };

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        const int e = errno;
        ::close(fd);
        return fail(std::strerror(e));
    }
    const std::uint64_t fileBytes = static_cast<std::uint64_t>(st.st_size);
    constexpr std::uint64_t minBytes =
        traceFileHeaderBytes + traceFileFooterBytes;
    if (fileBytes < minBytes) {
        ::close(fd);
        return fail(csprintf("truncated: %llu bytes, but an empty "
                             "eole-trace-v1 file needs %llu",
                             (unsigned long long)fileBytes,
                             (unsigned long long)minBytes));
    }

    auto m = std::make_shared<Mapping>();
    m->len = static_cast<std::size_t>(fileBytes);
    void *base = ::mmap(nullptr, m->len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (base == MAP_FAILED)
        return fail(std::string("mmap: ") + std::strerror(errno));
    m->base = base;
    const auto *p = static_cast<const unsigned char *>(base);

    if (std::memcmp(p + offMagic, traceFileMagic, 8) != 0)
        return fail("bad magic at byte 0 (not an eole-trace-v1 file)");
    const auto headerBytes = unpackAt<std::uint32_t>(p, offHeaderBytes);
    if (headerBytes != traceFileHeaderBytes) {
        return fail(csprintf("header size %u at byte %zu (expected %zu)",
                             headerBytes, offHeaderBytes,
                             traceFileHeaderBytes));
    }
    const auto version = unpackAt<std::uint32_t>(p, offVersion);
    if (version != traceFileVersion) {
        return fail(csprintf("unsupported version %u at byte %zu "
                             "(this build reads version %u)",
                             version, offVersion, traceFileVersion));
    }
    const auto recordBytes = unpackAt<std::uint32_t>(p, offRecordBytes);
    if (recordBytes != sizeof(TraceUop)) {
        return fail(csprintf("record size %u at byte %zu differs from "
                             "this build's TraceUop (%zu bytes)",
                             recordBytes, offRecordBytes,
                             sizeof(TraceUop)));
    }
    const auto layout = unpackAt<std::uint64_t>(p, offLayoutHash);
    if (layout != traceUopLayoutHash()) {
        return fail(csprintf("TraceUop layout hash %#llx at byte %zu "
                             "does not match this build (%#llx) — the "
                             "file was written by an incompatible "
                             "binary; re-record it",
                             (unsigned long long)layout, offLayoutHash,
                             (unsigned long long)traceUopLayoutHash()));
    }
    const auto endian = unpackAt<std::uint32_t>(p, offEndian);
    if (endian != endianTag) {
        return fail(csprintf("endianness tag %#x at byte %zu (file "
                             "written on an incompatible host)",
                             endian, offEndian));
    }
    // Bound the count by what the file can hold before multiplying:
    // a count near 2^64 / sizeof(TraceUop) would wrap the size check.
    const auto count = unpackAt<std::uint64_t>(p, offUopCount);
    const std::uint64_t fits = (fileBytes - minBytes) / sizeof(TraceUop);
    if (count > fits) {
        return fail(csprintf("µ-op count %llu at byte %zu exceeds the "
                             "%llu records a %llu-byte file can hold "
                             "(truncated, or a corrupt count)",
                             (unsigned long long)count, offUopCount,
                             (unsigned long long)fits,
                             (unsigned long long)fileBytes));
    }
    const std::uint64_t want = traceFileHeaderBytes
        + count * sizeof(TraceUop) + traceFileFooterBytes;
    if (fileBytes != want) {
        return fail(csprintf("%llu µ-ops need %llu bytes but the file "
                             "has %llu (truncated or trailing garbage)",
                             (unsigned long long)count,
                             (unsigned long long)want,
                             (unsigned long long)fileBytes));
    }

    const std::size_t footerOff = static_cast<std::size_t>(
        traceFileHeaderBytes + count * sizeof(TraceUop));
    if (std::memcmp(p + footerOff, traceFileFooterMagic, 8) != 0) {
        return fail(csprintf("bad footer magic at byte %zu", footerOff));
    }
    const auto echo = unpackAt<std::uint64_t>(p, footerOff + 8);
    if (echo != count) {
        return fail(csprintf("footer µ-op count %llu at byte %zu "
                             "disagrees with header count %llu",
                             (unsigned long long)echo, footerOff + 8,
                             (unsigned long long)count));
    }
    Sha256 sha;
    sha.update(p, footerOff);
    const std::string hex = sha.hexDigest();
    if (std::memcmp(p + footerOff + 16, hex.data(), 64) != 0) {
        return fail(csprintf("checksum mismatch over bytes [0, %zu) — "
                             "the file is corrupted", footerOff));
    }

    *map = std::move(m);
    *hdr = p;
    return true;
}

std::string
fixedString(const unsigned char *p, std::size_t off, std::size_t cap)
{
    const char *s = reinterpret_cast<const char *>(p + off);
    return std::string(s, strnlen(s, cap));
}

} // namespace

std::shared_ptr<const FrozenTrace>
loadTraceFile(const std::string &path, std::string *err)
{
    std::shared_ptr<Mapping> map;
    const unsigned char *p = nullptr;
    if (!mapAndValidate(path, &map, &p, err))
        return nullptr;

    auto trace = std::make_shared<FrozenTrace>();
    const auto flags = unpackAt<std::uint32_t>(p, offFlags);
    trace->complete = (flags & flagComplete) != 0;
    trace->isFp = (flags & flagIsFp) != 0;
    trace->name = fixedString(p, offName, traceFileNameBytes);
    for (int r = 0; r < numArchIntRegs; ++r)
        trace->initIntRegs[r] =
            unpackAt<RegVal>(p, offIntRegs + r * sizeof(RegVal));
    for (int r = 0; r < numArchFpRegs; ++r)
        trace->initFpRegs[r] =
            unpackAt<RegVal>(p, offFpRegs + r * sizeof(RegVal));

    const auto count = unpackAt<std::uint64_t>(p, offUopCount);
    trace->uops = FrozenTrace::UopView{
        reinterpret_cast<const TraceUop *>(p + traceFileHeaderBytes),
        static_cast<std::size_t>(count)};
    trace->mmapBacked = true;
    trace->mapping = std::move(map);
    return trace;
}

bool
readTraceFileInfo(const std::string &path, TraceFileInfo *out,
                  std::string *err)
{
    std::shared_ptr<Mapping> map;
    const unsigned char *p = nullptr;
    if (!mapAndValidate(path, &map, &p, err))
        return false;
    const auto flags = unpackAt<std::uint32_t>(p, offFlags);
    out->name = fixedString(p, offName, traceFileNameBytes);
    out->source = fixedString(p, offSource, traceFileSourceBytes);
    out->uopCount = unpackAt<std::uint64_t>(p, offUopCount);
    out->complete = (flags & flagComplete) != 0;
    out->isFp = (flags & flagIsFp) != 0;
    out->fileBytes = map->len;
    return true;
}

} // namespace eole
