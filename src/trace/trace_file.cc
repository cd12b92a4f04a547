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
#include "common/whole_file.hh"

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
constexpr std::size_t offStaticBytes = 44;
constexpr std::size_t offName = 48;
constexpr std::size_t offSource = 112;
constexpr std::size_t offIntRegs = 128;
constexpr std::size_t offFpRegs = 384;
constexpr std::size_t offStaticCount = 640;

/** Records the writer packs per hash update and fwrite. */
constexpr std::size_t chunkUops = 4096;

constexpr std::uint32_t flagComplete = 1u << 0;
constexpr std::uint32_t flagIsFp = 1u << 1;
constexpr std::uint32_t endianTag = 0x01020304u;

/** The first format's magic: recognized only to say what to do. */
constexpr char traceFileMagicV1[8] =
    {'E', 'O', 'L', 'E', 'T', 'R', 'C', '1'};

static_assert(offStaticCount + sizeof(std::uint64_t)
              == traceFileHeaderBytes,
              "header layout out of sync with traceFileHeaderBytes");
static_assert(traceFileHeaderBytes % alignof(StaticUop) == 0
              && sizeof(StaticUop) % alignof(UopRecord) == 0,
              "both arrays must start 8-byte aligned in the mapping");

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

/** Serialize one static entry / record field-by-field into a zeroed
 *  buffer: the on-disk bytes match the in-memory layout with every
 *  padding byte pinned to zero (struct assignment would copy
 *  indeterminate padding and break byte-stability). */
void
packStatic(unsigned char *buf, const StaticUop &s)
{
    std::memset(buf, 0, sizeof(StaticUop));
    packAt(buf, offsetof(StaticUop, pc), s.pc);
    packAt(buf, offsetof(StaticUop, imm), s.imm);
    packAt(buf, offsetof(StaticUop, sidx), s.sidx);
    packAt(buf, offsetof(StaticUop, dst), s.dst);
    packAt(buf, offsetof(StaticUop, src1), s.src1);
    packAt(buf, offsetof(StaticUop, src2), s.src2);
    packAt(buf, offsetof(StaticUop, opc), s.opc);
    packAt(buf, offsetof(StaticUop, memSize), s.memSize);
    packAt(buf, offsetof(StaticUop, dstClass), s.dstClass);
    packAt(buf, offsetof(StaticUop, srcClass), s.srcClass);
}

void
packRecord(unsigned char *buf, const UopRecord &r)
{
    std::memset(buf, 0, sizeof(UopRecord));
    packAt(buf, offsetof(UopRecord, result), r.result);
    packAt(buf, offsetof(UopRecord, effAddr), r.effAddr);
    packAt(buf, offsetof(UopRecord, nextPc), r.nextPc);
    packAt(buf, offsetof(UopRecord, staticId), r.staticId);
    packAt(buf, offsetof(UopRecord, taken), r.taken);
}

/** Is @p reg a register number of class @p cls, or no register? */
bool
validReg(RegIndex reg, RegClass cls)
{
    return reg == invalidReg
        || reg < (cls == RegClass::Fp ? numArchFpRegs : numArchIntRegs);
}

bool
validClass(RegClass cls)
{
    return cls == RegClass::Int || cls == RegClass::Fp;
}

/** Empty when the static entry at @p p is one this build can replay,
 *  else what is wrong with it. Reads the raw bytes: a field's stored
 *  value may not be one its type can hold. */
std::string
staticEntryError(const unsigned char *p)
{
    const auto opc = unpackAt<std::uint8_t>(p, offsetof(StaticUop, opc));
    if (opc >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
        return csprintf("opcode %u", opc);
    const auto mem = unpackAt<std::uint8_t>(p, offsetof(StaticUop, memSize));
    if (mem != 1 && mem != 2 && mem != 4 && mem != 8)
        return csprintf("memory size %u", mem);
    const std::size_t classOff[3] = {offsetof(StaticUop, dstClass),
                                     offsetof(StaticUop, srcClass),
                                     offsetof(StaticUop, srcClass) + 1};
    const std::size_t regOff[3] = {offsetof(StaticUop, dst),
                                   offsetof(StaticUop, src1),
                                   offsetof(StaticUop, src2)};
    for (int i = 0; i < 3; ++i) {
        const auto cls = static_cast<RegClass>(
            unpackAt<std::uint8_t>(p, classOff[i]));
        if (!validClass(cls))
            return csprintf("register class %u", unsigned(cls));
        const auto reg = unpackAt<RegIndex>(p, regOff[i]);
        if (!validReg(reg, cls))
            return csprintf("register %u", reg);
    }
    return "";
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
traceLayoutHash()
{
    // FNV-1a over the (offset, size) of every field plus the struct
    // sizes: any reorder, retype, insertion or ABI drift changes it.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
#define EOLE_MIX_FIELD(T, f) \
    do { \
        mix(offsetof(T, f)); \
        mix(sizeof(T{}.f)); \
    } while (0)
    EOLE_MIX_FIELD(StaticUop, pc);
    EOLE_MIX_FIELD(StaticUop, imm);
    EOLE_MIX_FIELD(StaticUop, sidx);
    EOLE_MIX_FIELD(StaticUop, dst);
    EOLE_MIX_FIELD(StaticUop, src1);
    EOLE_MIX_FIELD(StaticUop, src2);
    EOLE_MIX_FIELD(StaticUop, opc);
    EOLE_MIX_FIELD(StaticUop, memSize);
    EOLE_MIX_FIELD(StaticUop, dstClass);
    EOLE_MIX_FIELD(StaticUop, srcClass);
    mix(sizeof(StaticUop));
    EOLE_MIX_FIELD(UopRecord, result);
    EOLE_MIX_FIELD(UopRecord, effAddr);
    EOLE_MIX_FIELD(UopRecord, nextPc);
    EOLE_MIX_FIELD(UopRecord, staticId);
    EOLE_MIX_FIELD(UopRecord, taken);
    mix(sizeof(UopRecord));
#undef EOLE_MIX_FIELD
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
        return false;
    };
    if (trace.name.size() >= traceFileNameBytes) {
        return fail("workload name \"" + trace.name + "\" exceeds "
                    + std::to_string(traceFileNameBytes - 1) + " bytes");
    }
    if (source.size() >= traceFileSourceBytes)
        return fail("source kind \"" + source + "\" too long");

    const FrozenTrace::UopView &v = trace.uops;
    unsigned char header[traceFileHeaderBytes];
    std::memset(header, 0, sizeof(header));
    std::memcpy(header + offMagic, traceFileMagic, 8);
    packAt(header, offHeaderBytes,
           static_cast<std::uint32_t>(traceFileHeaderBytes));
    packAt(header, offVersion, traceFileVersion);
    packAt(header, offRecordBytes,
           static_cast<std::uint32_t>(sizeof(UopRecord)));
    std::uint32_t flags = 0;
    if (trace.complete)
        flags |= flagComplete;
    if (trace.isFp)
        flags |= flagIsFp;
    packAt(header, offFlags, flags);
    packAt(header, offUopCount, static_cast<std::uint64_t>(v.count));
    packAt(header, offLayoutHash, traceLayoutHash());
    packAt(header, offEndian, endianTag);
    packAt(header, offStaticBytes,
           static_cast<std::uint32_t>(sizeof(StaticUop)));
    std::memcpy(header + offName, trace.name.data(), trace.name.size());
    std::memcpy(header + offSource, source.data(), source.size());
    for (int r = 0; r < numArchIntRegs; ++r)
        packAt(header, offIntRegs + r * sizeof(RegVal),
               trace.initIntRegs[r]);
    for (int r = 0; r < numArchFpRegs; ++r)
        packAt(header, offFpRegs + r * sizeof(RegVal),
               trace.initFpRegs[r]);
    packAt(header, offStaticCount, static_cast<std::uint64_t>(v.staticCount));

    // The table and the records are packed into a chunk, then hashed
    // and written a chunk at a time: the hash takes whole blocks
    // straight from the buffer and stdio sees one large write instead
    // of one per record.
    const auto writeAll = [&](std::FILE *f) {
        Sha256 sha;
        const auto put = [&](const void *data, std::size_t len) {
            sha.update(data, len);
            return std::fwrite(data, 1, len, f) == len;
        };
        bool ok = put(header, sizeof(header));
        static_assert(sizeof(StaticUop) == sizeof(UopRecord));
        std::vector<unsigned char> chunk(chunkUops * sizeof(UopRecord));
        for (std::size_t i = 0; ok && i < v.staticCount; i += chunkUops) {
            const std::size_t n = std::min(chunkUops, v.staticCount - i);
            for (std::size_t j = 0; j < n; ++j)
                packStatic(chunk.data() + j * sizeof(StaticUop),
                           v.statics[i + j]);
            ok = put(chunk.data(), n * sizeof(StaticUop));
        }
        for (std::size_t i = 0; ok && i < v.count; i += chunkUops) {
            const std::size_t n = std::min(chunkUops, v.count - i);
            for (std::size_t j = 0; j < n; ++j)
                packRecord(chunk.data() + j * sizeof(UopRecord),
                           v.records[i + j]);
            ok = put(chunk.data(), n * sizeof(UopRecord));
        }
        if (!ok)
            return false;

        unsigned char footer[traceFileFooterBytes];
        std::memset(footer, 0, sizeof(footer));
        std::memcpy(footer, traceFileFooterMagic, 8);
        packAt(footer, std::size_t{8}, static_cast<std::uint64_t>(v.count));
        const std::string hex = sha.hexDigest();
        std::memcpy(footer + 16, hex.data(), 64);
        return std::fwrite(footer, 1, sizeof(footer), f) == sizeof(footer);
    };
    std::string why;
    return writeWholeFile(path, writeAll, &why) || fail(why);
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
                             "eole-trace-v2 file needs %llu",
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

    if (std::memcmp(p + offMagic, traceFileMagicV1, 8) == 0) {
        return fail("an eole-trace-v1 file (96-byte records); this build "
                    "reads eole-trace-v2 only — re-record it");
    }
    if (std::memcmp(p + offMagic, traceFileMagic, 8) != 0)
        return fail("bad magic at byte 0 (not an eole-trace-v2 file)");
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
    if (recordBytes != sizeof(UopRecord)) {
        return fail(csprintf("record size %u at byte %zu differs from "
                             "this build's UopRecord (%zu bytes)",
                             recordBytes, offRecordBytes,
                             sizeof(UopRecord)));
    }
    const auto staticBytes = unpackAt<std::uint32_t>(p, offStaticBytes);
    if (staticBytes != sizeof(StaticUop)) {
        return fail(csprintf("static entry size %u at byte %zu differs "
                             "from this build's StaticUop (%zu bytes)",
                             staticBytes, offStaticBytes,
                             sizeof(StaticUop)));
    }
    const auto layout = unpackAt<std::uint64_t>(p, offLayoutHash);
    if (layout != traceLayoutHash()) {
        return fail(csprintf("record layout hash %#llx at byte %zu "
                             "does not match this build (%#llx) — the "
                             "file was written by an incompatible "
                             "binary; re-record it",
                             (unsigned long long)layout, offLayoutHash,
                             (unsigned long long)traceLayoutHash()));
    }
    const auto endian = unpackAt<std::uint32_t>(p, offEndian);
    if (endian != endianTag) {
        return fail(csprintf("endianness tag %#x at byte %zu (file "
                             "written on an incompatible host)",
                             endian, offEndian));
    }
    // Bound each count by what the file can hold before multiplying:
    // a count near 2^64 / 32 would wrap the size check.
    const std::uint64_t room = fileBytes - minBytes;
    const auto nStatic = unpackAt<std::uint64_t>(p, offStaticCount);
    if (nStatic > room / sizeof(StaticUop)) {
        return fail(csprintf("static entry count %llu at byte %zu "
                             "exceeds the %llu entries a %llu-byte file "
                             "can hold (truncated, or a corrupt count)",
                             (unsigned long long)nStatic, offStaticCount,
                             (unsigned long long)(room / sizeof(StaticUop)),
                             (unsigned long long)fileBytes));
    }
    const std::uint64_t recordRoom = room - nStatic * sizeof(StaticUop);
    const auto count = unpackAt<std::uint64_t>(p, offUopCount);
    if (count > recordRoom / sizeof(UopRecord)) {
        return fail(csprintf("µ-op count %llu at byte %zu exceeds the "
                             "%llu records a %llu-byte file can hold "
                             "(truncated, or a corrupt count)",
                             (unsigned long long)count, offUopCount,
                             (unsigned long long)(recordRoom
                                                  / sizeof(UopRecord)),
                             (unsigned long long)fileBytes));
    }
    const std::uint64_t recordsOff =
        traceFileHeaderBytes + nStatic * sizeof(StaticUop);
    const std::uint64_t want =
        recordsOff + count * sizeof(UopRecord) + traceFileFooterBytes;
    if (fileBytes != want) {
        return fail(csprintf("%llu static entries and %llu µ-ops need "
                             "%llu bytes but the file has %llu "
                             "(truncated or trailing garbage)",
                             (unsigned long long)nStatic,
                             (unsigned long long)count,
                             (unsigned long long)want,
                             (unsigned long long)fileBytes));
    }

    const std::size_t footerOff = static_cast<std::size_t>(
        recordsOff + count * sizeof(UopRecord));
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

    // Content: every entry replayable, every record naming an entry.
    for (std::uint64_t i = 0; i < nStatic; ++i) {
        const std::size_t off =
            traceFileHeaderBytes + i * sizeof(StaticUop);
        const std::string bad = staticEntryError(p + off);
        if (!bad.empty()) {
            return fail(csprintf("static entry %llu at byte %zu has an "
                                 "invalid %s",
                                 (unsigned long long)i, off, bad.c_str()));
        }
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t off = recordsOff + i * sizeof(UopRecord);
        const auto id =
            unpackAt<std::uint32_t>(p, off + offsetof(UopRecord, staticId));
        if (id >= nStatic) {
            return fail(csprintf("µ-op %llu at byte %zu names static "
                                 "entry %u of %llu",
                                 (unsigned long long)i, off, id,
                                 (unsigned long long)nStatic));
        }
        const auto taken =
            unpackAt<std::uint8_t>(p, off + offsetof(UopRecord, taken));
        if (taken > 1) {
            return fail(csprintf("µ-op %llu at byte %zu has branch "
                                 "outcome %u", (unsigned long long)i,
                                 off, taken));
        }
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

    const auto nStatic = unpackAt<std::uint64_t>(p, offStaticCount);
    const auto count = unpackAt<std::uint64_t>(p, offUopCount);
    const auto *statics =
        reinterpret_cast<const StaticUop *>(p + traceFileHeaderBytes);
    trace->uops = FrozenTrace::UopView{
        statics, static_cast<std::size_t>(nStatic),
        reinterpret_cast<const UopRecord *>(statics + nStatic),
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
    out->staticCount = unpackAt<std::uint64_t>(p, offStaticCount);
    out->complete = (flags & flagComplete) != 0;
    out->isFp = (flags & flagIsFp) != 0;
    out->fileBytes = map->len;
    return true;
}

} // namespace eole
