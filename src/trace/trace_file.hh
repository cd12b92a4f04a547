/**
 * @file
 * eole-trace-v2: the on-disk FrozenTrace format.
 *
 * A trace file is a byte-stable serialization of one FrozenTrace —
 * fixed header, architectural register seed block, the static table,
 * the dynamic record array, SHA-256 footer — designed so the reader
 * can hand both arrays to the replay path zero-copy: they use the
 * in-memory StaticUop and UopRecord layouts (isa/trace.hh; padding
 * bytes written as zero), the file is mmap'd read-only, and
 * FrozenTrace::uops points straight into the mapping. A billion-µ-op
 * trace therefore costs address space and evictable page cache (32
 * bytes per µ-op), not resident heap, and is exempt from the
 * trace-cache RAM budget (sim/trace_cache.hh).
 *
 * Layout (all integers little-endian; offsets fixed):
 *
 *   0    char[8]  magic "EOLETRC2"
 *   8    u32      header bytes (== traceFileHeaderBytes)
 *   12   u32      format version (== 2)
 *   16   u32      record bytes (== sizeof(UopRecord), 32)
 *   20   u32      flags: bit0 complete, bit1 isFp
 *   24   u64      µ-op count
 *   32   u64      layout hash (offset/size of every field of both
 *                 record types)
 *   40   u32      endianness tag 0x01020304 as written
 *   44   u32      static entry bytes (== sizeof(StaticUop), 32)
 *   48   char[64] workload name, NUL-padded
 *   112  char[16] source kind ("generated", "rv64i"), NUL-padded
 *   128  u64[32]  initIntRegs
 *   384  u64[32]  initFpRegs
 *   640  u64      static entry count
 *   648  static table: count * sizeof(StaticUop)
 *        record array: µ-op count * sizeof(UopRecord)
 *   then char[8]  footer magic "EOLETRCF"
 *        u64      µ-op count echo
 *        char[64] SHA-256 (lowercase hex) of every byte before the
 *                 footer
 *
 * Static ids: a record names its static entry by index. A generated
 * recording's table is the program's code (the id is the static
 * instruction index); an RV64I ingest's table has one entry per
 * distinct shape, because one instruction can execute several (see
 * trace/rv64_ingest.hh).
 *
 * Byte stability: the writer serializes each entry and record
 * field-by-field at its offsetof() position into a zeroed buffer —
 * copying whole structs would copy indeterminate padding and break
 * `cmp`-equality of independently produced files. The layout hash
 * rejects files written by a binary whose layout differs (field
 * added, reordered, ABI drift) before any µ-op is interpreted.
 *
 * The loader trusts nothing it maps: it bounds both counts by the
 * file size before multiplying, checks the SHA-256, then checks every
 * static entry (opcode, register numbers and classes, memory size)
 * and every record (static id inside the table, branch outcome 0 or
 * 1), so a crafted file with a recomputed checksum is an error, not
 * an out-of-bounds read. An eole-trace-v1 file (96-byte records) is
 * rejected with a "re-record it" diagnostic.
 *
 * Readers report structural problems with byte offsets (the
 * ckpt/shard reader convention); the CLI turns them into exit-2
 * diagnostics.
 */

#ifndef EOLE_TRACE_TRACE_FILE_HH
#define EOLE_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "isa/frozen_trace.hh"

namespace eole {

constexpr char traceFileMagic[8] =
    {'E', 'O', 'L', 'E', 'T', 'R', 'C', '2'};
constexpr char traceFileFooterMagic[8] =
    {'E', 'O', 'L', 'E', 'T', 'R', 'C', 'F'};
constexpr std::uint32_t traceFileVersion = 2;
constexpr std::size_t traceFileHeaderBytes = 648;
constexpr std::size_t traceFileFooterBytes = 8 + 8 + 64;
constexpr std::size_t traceFileNameBytes = 64;
constexpr std::size_t traceFileSourceBytes = 16;

/** Order-sensitive hash over (offsetof, sizeof) of every StaticUop
 *  and UopRecord field plus both struct sizes — the layout
 *  fingerprint stamped into and checked against every file. */
std::uint64_t traceLayoutHash();

/**
 * Write @p trace to @p path as eole-trace-v2, whole or not at all
 * (writeWholeFile, common/whole_file.hh): a regular or absent @p path
 * is replaced by a rename once the file is complete, and any other
 * file (a device, a FIFO) is written in place.
 *
 * @param source provenance tag for the header ("generated", "rv64i")
 * @param err diagnostic on failure
 * @return false (with @p err set) on I/O failure or an over-long
 *         workload name or source; only the temporary file is
 *         removed.
 */
bool writeTraceFile(const FrozenTrace &trace, const std::string &path,
                    const std::string &source, std::string *err);

/**
 * Map @p path and return a FrozenTrace whose µ-op view aliases the
 * read-only mapping (mmapBacked, residentBytes() == 0). The whole
 * file is validated up front — structure, layout hash, and the
 * SHA-256 footer — so a load that succeeds can never fault on a
 * truncated tail mid-replay. Returns null with a byte-offset
 * diagnostic in @p err on any validation failure.
 */
std::shared_ptr<const FrozenTrace>
loadTraceFile(const std::string &path, std::string *err);

/** Header fields `eole trace info` prints (the whole file is still
 *  validated — info is the integrity check). */
struct TraceFileInfo
{
    std::string name;
    std::string source;
    std::uint64_t uopCount = 0;
    std::uint64_t staticCount = 0;  //!< static table entries
    bool complete = false;
    bool isFp = false;
    std::uint64_t fileBytes = 0;
};

/** Validate @p path like loadTraceFile and fill @p out. */
bool readTraceFileInfo(const std::string &path, TraceFileInfo *out,
                       std::string *err);

} // namespace eole

#endif // EOLE_TRACE_TRACE_FILE_HH
