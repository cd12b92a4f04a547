/**
 * @file
 * Tests for the on-disk trace subsystem (src/trace/): eole-trace-v1
 * write/load round-trips, clamped prefix views, the bound-registry
 * `file:` workload path and its byte-identical sweep artifacts, the
 * trace cache's budget-exempt file accounting, a seeded corruption
 * fuzzer over the loader, and the RV64I ingestion frontend's golden
 * µ-op stream.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "sim/artifact.hh"
#include "sim/plans.hh"
#include "sim/store.hh"
#include "sim/sweep.hh"
#include "sim/trace_cache.hh"
#include "trace/rv64_ingest.hh"
#include "trace/trace_file.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

namespace fs = std::filesystem;

/** A unique scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path dir;

    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        dir = fs::temp_directory_path()
            / ("eole_trace_test_" + tag + "_" + std::to_string(::getpid())
               + "_" + std::to_string(counter++));
        fs::create_directories(dir);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    std::string path(const std::string &leaf) const
    {
        return (dir / leaf).string();
    }
};

/** Bound traces are process-global; undo them even if a test fails. */
struct BoundTraceGuard
{
    ~BoundTraceGuard() { workloads::clearBoundTraces(); }
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    EXPECT_TRUE(is.good() || is.eof()) << path;
    return os.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Record a workload (torture or registry name) and write it as a
 *  trace file. */
std::shared_ptr<const FrozenTrace>
writeTortureTrace(const std::string &wl, std::uint64_t max_uops,
                  const std::string &path)
{
    const Workload w = workloads::build(wl);
    const auto trace = w.freeze(max_uops);
    std::string err;
    EXPECT_TRUE(writeTraceFile(*trace, path, "generated", &err)) << err;
    return trace;
}

void
expectSameUop(const TraceUop &a, const TraceUop &b, std::size_t i)
{
    EXPECT_EQ(a.pc, b.pc) << "µ-op " << i;
    EXPECT_EQ(a.sidx, b.sidx) << "µ-op " << i;
    EXPECT_EQ(a.opc, b.opc) << "µ-op " << i;
    EXPECT_EQ(a.dst, b.dst) << "µ-op " << i;
    EXPECT_EQ(a.src1, b.src1) << "µ-op " << i;
    EXPECT_EQ(a.src2, b.src2) << "µ-op " << i;
    EXPECT_EQ(a.imm, b.imm) << "µ-op " << i;
    EXPECT_EQ(a.memSize, b.memSize) << "µ-op " << i;
    EXPECT_EQ(a.srcVals[0], b.srcVals[0]) << "µ-op " << i;
    EXPECT_EQ(a.srcVals[1], b.srcVals[1]) << "µ-op " << i;
    EXPECT_EQ(a.result, b.result) << "µ-op " << i;
    EXPECT_EQ(a.effAddr, b.effAddr) << "µ-op " << i;
    EXPECT_EQ(a.taken, b.taken) << "µ-op " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "µ-op " << i;
    EXPECT_EQ(a.dstClass, b.dstClass) << "µ-op " << i;
    EXPECT_EQ(a.srcClass[0], b.srcClass[0]) << "µ-op " << i;
    EXPECT_EQ(a.srcClass[1], b.srcClass[1]) << "µ-op " << i;
}

} // namespace

// ------------------------- round trip ------------------------------------

TEST(TraceFile, RoundTripIsLossless)
{
    TempDir tmp("roundtrip");
    const std::string path = tmp.path("t7.trace");
    const auto orig = writeTortureTrace("torture:7", 50000, path);

    std::string err;
    const auto back = loadTraceFile(path, &err);
    ASSERT_NE(back, nullptr) << err;

    EXPECT_TRUE(back->mmapBacked);
    EXPECT_EQ(back->residentBytes(), 0u);
    EXPECT_EQ(back->bytes(), orig->bytes());
    EXPECT_EQ(back->name, "torture:7");
    EXPECT_EQ(back->complete, orig->complete);
    EXPECT_EQ(back->isFp, orig->isFp);
    for (int r = 0; r < numArchIntRegs; ++r)
        EXPECT_EQ(back->initIntRegs[r], orig->initIntRegs[r]) << r;
    for (int r = 0; r < numArchFpRegs; ++r)
        EXPECT_EQ(back->initFpRegs[r], orig->initFpRegs[r]) << r;

    ASSERT_EQ(back->uops.size(), orig->uops.size());
    for (std::size_t i = 0; i < orig->uops.size(); ++i)
        expectSameUop(orig->uops[i], back->uops[i], i);
}

TEST(TraceFile, WritesAreByteStable)
{
    // Two independent serializations of the same stream must be
    // cmp-equal — padding must never leak into the file.
    TempDir tmp("stable");
    writeTortureTrace("torture:9", 50000, tmp.path("a.trace"));
    writeTortureTrace("torture:9", 50000, tmp.path("b.trace"));
    const std::string a = slurp(tmp.path("a.trace"));
    EXPECT_EQ(a, slurp(tmp.path("b.trace")));
    // Pinned: how the writer packs, hashes and writes may change, the
    // bytes of the file (footer digest included) may not.
    EXPECT_EQ(sha256Hex(a), "1287c43a18850ac1d70841466cea049b"
                            "c6054f1562f0e00f09bf99a5059e90c9");
}

TEST(TraceFile, InfoMatchesTheHeader)
{
    TempDir tmp("info");
    const std::string path = tmp.path("t7.trace");
    const auto orig = writeTortureTrace("torture:7", 50000, path);

    TraceFileInfo info;
    std::string err;
    ASSERT_TRUE(readTraceFileInfo(path, &info, &err)) << err;
    EXPECT_EQ(info.name, "torture:7");
    EXPECT_EQ(info.source, "generated");
    EXPECT_EQ(info.uopCount, orig->uops.size());
    EXPECT_EQ(info.complete, orig->complete);
    EXPECT_FALSE(info.isFp);
    EXPECT_EQ(info.fileBytes, fs::file_size(path));
}

TEST(TraceFile, WriterRejectsAnOverlongName)
{
    TempDir tmp("longname");
    FrozenTrace t;
    t.name = std::string(traceFileNameBytes, 'x');
    t.seal();
    std::string err;
    EXPECT_FALSE(writeTraceFile(t, tmp.path("bad.trace"), "generated",
                                &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(fs::exists(tmp.path("bad.trace")));
}

// ------------------------- clamped views ---------------------------------

TEST(TraceFile, ClampReturnsSharedPrefixViews)
{
    const Workload w = workloads::build("torture:7");
    const auto full = w.freeze(50000);
    ASSERT_TRUE(full->complete);

    // Fits: same object, not a copy.
    EXPECT_EQ(clampTrace(full, full->uops.size()), full);
    EXPECT_EQ(clampTrace(full, 1u << 20), full);

    // Cut: a borrowed prefix marked incomplete.
    const auto cut = clampTrace(full, 100);
    ASSERT_NE(cut, nullptr);
    EXPECT_EQ(cut->uops.size(), 100u);
    EXPECT_FALSE(cut->complete);
    EXPECT_EQ(cut->uops.begin(), full->uops.begin());  // no copy
    EXPECT_EQ(cut->name, full->name);
    EXPECT_EQ(cut->initIntRegs[5], full->initIntRegs[5]);
}

TEST(TraceFile, FreezeDiesWhenAnIncompleteFileIsTooShort)
{
    TempDir tmp("short");
    BoundTraceGuard guard;

    // A deliberately cut recording: incomplete prefix on disk.
    const Workload w = workloads::build("torture:11");
    const auto full = w.freeze(50000);
    const auto cut = clampTrace(full, 64);
    std::string err;
    ASSERT_TRUE(writeTraceFile(*cut, tmp.path("cut.trace"), "generated",
                               &err)) << err;

    std::string canonical;
    ASSERT_TRUE(workloads::bindTraceFile(tmp.path("cut.trace"),
                                         &canonical, &err)) << err;
    const Workload bound = workloads::build(canonical);
    ASSERT_TRUE(bound.fileBacked);
    EXPECT_EQ(bound.freeze(64)->uops.size(), 64u);
    EXPECT_DEATH((void)bound.freeze(50000), "re-record");
}

// ------------------------- file: binding ---------------------------------

TEST(Workloads, FileBindingShadowsTheGenerator)
{
    TempDir tmp("bind");
    BoundTraceGuard guard;
    const std::string path = tmp.path("t7.trace");
    writeTortureTrace("torture:7", 50000, path);

    EXPECT_FALSE(workloads::build("torture:7").fileBacked);

    std::string canonical, err;
    ASSERT_TRUE(workloads::bindTraceFile(path, &canonical, &err)) << err;
    EXPECT_EQ(canonical, "torture:7");

    const Workload w = workloads::build("torture:7");
    EXPECT_TRUE(w.fileBacked);
    ASSERT_NE(w.frozen, nullptr);
    EXPECT_TRUE(w.frozen->mmapBacked);

    workloads::clearBoundTraces();
    EXPECT_FALSE(workloads::build("torture:7").fileBacked);
}

TEST(Workloads, BindReportsLoaderDiagnostics)
{
    TempDir tmp("binderr");
    std::string canonical, err;
    EXPECT_FALSE(workloads::bindTraceFile(tmp.path("absent.trace"),
                                          &canonical, &err));
    EXPECT_FALSE(err.empty());

    spit(tmp.path("junk.trace"), "this is not a trace file at all");
    EXPECT_FALSE(workloads::bindTraceFile(tmp.path("junk.trace"),
                                          &canonical, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Sweep, FileBackedArtifactsAreByteIdentical)
{
    // The tentpole guarantee: the same 2x2 grid produces cmp-equal
    // JSON whether the workloads run from the generator registry or
    // from recorded eole-trace-v1 files.
    TempDir tmp("bytes");
    BoundTraceGuard guard;

    ExperimentPlan p = plans::get("smoke");
    p.workloads = {"torture:3", "torture:4"};
    p.warmup = 2000;
    p.measure = 20000;

    const std::string live = jsonArtifactString(runPlan(p));

    for (const char *wl : {"torture:3", "torture:4"}) {
        const std::string path =
            tmp.path(std::string(wl) + ".trace");
        writeTortureTrace(wl, 200000, path);
        std::string canonical, err;
        ASSERT_TRUE(workloads::bindTraceFile(path, &canonical, &err))
            << err;
        ASSERT_EQ(canonical, wl);
    }

    const std::string replayed = jsonArtifactString(runPlan(p));
    EXPECT_EQ(live, replayed);
}

// ------------------------- cache accounting ------------------------------

TEST(TraceCacheT, FileTracesAreBudgetExemptAndCountedSeparately)
{
    TempDir tmp("cache");
    BoundTraceGuard guard;
    const std::string path = tmp.path("t7.trace");
    writeTortureTrace("torture:7", 50000, path);
    std::string canonical, err;
    ASSERT_TRUE(workloads::bindTraceFile(path, &canonical, &err)) << err;

    // A zero-byte RAM budget blocks every generated recording but no
    // mmap-backed file (resident bytes ≈ 0 by construction).
    setenv("EOLE_TRACE_CACHE_MB", "0", 1);
    TraceCache cache;
    const Workload file_wl = workloads::build("torture:7");
    ASSERT_TRUE(file_wl.fileBacked);

    const auto t = cache.get(file_wl, 100);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->residentBytes(), 0u);
    EXPECT_EQ(cache.fileMissCount(), 1u);
    EXPECT_EQ(cache.fileHitCount(), 0u);

    (void)cache.get(file_wl, 100);
    EXPECT_EQ(cache.fileHitCount(), 1u);

    // Totals fold both populations; the generated-only counters stay
    // untouched by the file path.
    EXPECT_EQ(cache.hitCount(), 1u);
    EXPECT_EQ(cache.missCount(), 1u);

    const Workload gen_wl = workloads::build("164.gzip");
    EXPECT_EQ(cache.get(gen_wl, 100000), nullptr);  // over budget
    unsetenv("EOLE_TRACE_CACHE_MB");

    EXPECT_EQ(cache.evictCount(), 0u);
    cache.drop(file_wl.name);
    EXPECT_EQ(cache.evictCount(), 1u);
}

// ------------------------- corruption fuzzer -----------------------------

TEST(TraceFile, FuzzedFilesAreRejectedNotCrashed)
{
    TempDir tmp("fuzz");
    const std::string path = tmp.path("t7.trace");
    writeTortureTrace("torture:7", 50000, path);
    const std::string good = slurp(path);
    ASSERT_GT(good.size(),
              traceFileHeaderBytes + traceFileFooterBytes);

    const std::string mut = tmp.path("mut.trace");
    std::string err;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;  // fixed seed
    const auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    // Truncations: structural boundaries plus seeded random cuts.
    std::vector<std::size_t> cuts = {0, 1, 7, 8, 63,
                                     traceFileHeaderBytes - 1,
                                     traceFileHeaderBytes,
                                     good.size() - traceFileFooterBytes,
                                     good.size() - 1};
    for (int i = 0; i < 24; ++i)
        cuts.push_back(next() % good.size());
    for (const std::size_t cut : cuts) {
        spit(mut, good.substr(0, cut));
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr) << "cut=" << cut;
        EXPECT_FALSE(err.empty()) << "cut=" << cut;
    }

    // Bit flips anywhere in the file: every byte is covered by the
    // header checks or the checksum, so any flip must be rejected.
    for (int i = 0; i < 48; ++i) {
        std::string bad = good;
        const std::size_t at = next() % bad.size();
        bad[at] = static_cast<char>(bad[at] ^ (1u << (next() % 8)));
        spit(mut, bad);
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr) << "flip@" << at;
        EXPECT_FALSE(err.empty()) << "flip@" << at;
    }

    // Splice: header of one valid file, body of another — the count /
    // checksum cross-checks must catch the franken-file.
    const std::string other_path = tmp.path("t9.trace");
    writeTortureTrace("torture:9", 50000, other_path);
    const std::string other = slurp(other_path);
    spit(mut, good.substr(0, traceFileHeaderBytes)
              + other.substr(traceFileHeaderBytes));
    err.clear();
    EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
    EXPECT_FALSE(err.empty());

    // A layout-hash mismatch must be rejected even when the checksum
    // is made internally consistent again.
    {
        std::string bad = good;
        bad[32] = static_cast<char>(bad[32] ^ 0x01);
        const std::string body =
            bad.substr(0, bad.size() - traceFileFooterBytes);
        const std::string sum = sha256Hex(body);
        bad.replace(bad.size() - 64, 64, sum);
        spit(mut, bad);
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
        EXPECT_NE(err.find("layout"), std::string::npos) << err;
    }

    // A µ-op count that wraps when multiplied by the record size:
    // 1000 records on disk, 1000 + 2^59 in the header and the footer
    // (96 · 2^59 = 3 · 2^64, so the size equation still balances) and
    // a consistent checksum. The count must be bounded by the file
    // size before any arithmetic with it.
    {
        const std::string small = tmp.path("gzip1000.trace");
        writeTortureTrace("164.gzip", 1000, small);
        std::string bad = slurp(small);
        ASSERT_EQ(bad.size(), traceFileHeaderBytes + 1000 * sizeof(TraceUop)
                                  + traceFileFooterBytes);
        const std::uint64_t wrapped = 1000 + (1ULL << 59);
        const std::size_t footer = bad.size() - traceFileFooterBytes;
        bad.replace(24, 8, reinterpret_cast<const char *>(&wrapped), 8);
        bad.replace(footer + 8, 8, reinterpret_cast<const char *>(&wrapped),
                    8);
        bad.replace(bad.size() - 64, 64, sha256Hex(bad.substr(0, footer)));
        spit(mut, bad);
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
        EXPECT_NE(err.find("at byte 24"), std::string::npos) << err;
        TraceFileInfo info;
        EXPECT_FALSE(readTraceFileInfo(mut, &info, &err));
    }

    // The original is still pristine (fuzzing wrote copies only).
    EXPECT_NE(loadTraceFile(path, &err), nullptr) << err;
}

// ------------------------- store objects ---------------------------------

TEST(TraceFile, StoreRoundTripsTraceObjects)
{
    TempDir tmp("store");
    const std::string path = tmp.path("t7.trace");
    writeTortureTrace("torture:7", 50000, path);
    const std::string bytes = slurp(path);

    StoreKey key;
    key.kind = "trace";
    key.workload = "torture:7";
    key.content = sha256Hex(bytes);

    // The content field participates in the address: different bytes,
    // different object.
    StoreKey other = key;
    other.content = sha256Hex(bytes + "x");
    EXPECT_NE(storeKeyHash(key), storeKeyHash(other));

    Store store(tmp.path("store"));
    store.put(key, bytes);
    std::string back;
    ASSERT_TRUE(store.get(storeKeyHash(key), &back));
    EXPECT_EQ(back, bytes);  // binary payloads survive exactly
}

// ------------------------- RV64I ingestion -------------------------------

namespace {

std::shared_ptr<const FrozenTrace>
ingest(const std::string &text, std::string *err)
{
    std::istringstream is(text);
    return ingestRv64Log(is, "rv64:test", err);
}

void
expectIngestError(const std::string &text, const std::string &needle)
{
    std::string err;
    EXPECT_EQ(ingest(text, &err), nullptr) << text;
    EXPECT_NE(err.find(needle), std::string::npos)
        << "\"" << err << "\" lacks \"" << needle << "\"";
}

} // namespace

TEST(Rv64Ingest, GoldenUopStream)
{
    // Seven committed RV64I instructions exercising the interesting
    // cracks: ALU immediate, LUI, a sign-extended halfword load
    // (3 µops), a store carrying the full register, and a call/return
    // pair whose link value lives in the synthetic µ-op PC space.
    const std::string log =
        "# golden ingestion input\n"
        "reg x5 7\n"
        "reg x11 0x100\n"
        "mem 0x100 0x0807060504030201\n"
        "1000 00328393\n"   // addi x7, x5, 3        -> 10
        "1004 123454b7\n"   // lui  x9, 0x12345
        "1008 00259503\n"   // lh   x10, 2(x11)      -> 0x0403
        "100c 00a5a423\n"   // sw   x10, 8(x11)
        "1010 008000ef\n"   // jal  x1, +8           (call 0x1018)
        "1018 00008067\n"   // jalr x0, 0(x1)        (ret -> 0x1014)
        "1014 40a38633\n";  // sub  x12, x7, x10     -> 10 - 0x403

    std::string err;
    const auto t = ingest(log, &err);
    ASSERT_NE(t, nullptr) << err;
    EXPECT_TRUE(t->complete);
    EXPECT_EQ(t->name, "rv64:test");
    EXPECT_EQ(t->initIntRegs[5], 7u);
    EXPECT_EQ(t->initIntRegs[11], 0x100u);
    EXPECT_EQ(t->initIntRegs[0], 0u);

    // Static µ-op indices follow sorted-pc order: 0x1000→0, 0x1004→1,
    // 0x1008→2..4 (lh cracks to 3), 0x100c→5, 0x1010→6, 0x1014→7,
    // 0x1018→8.
    const auto pc = [](std::uint32_t sidx) {
        return codeBase + sidx * uopBytes;
    };
    ASSERT_EQ(t->uops.size(), 9u);

    const TraceUop &addi = t->uops[0];
    EXPECT_EQ(addi.opc, Opcode::Addi);
    EXPECT_EQ(addi.pc, pc(0));
    EXPECT_EQ(addi.dst, 7);
    EXPECT_EQ(addi.src1, 5);
    EXPECT_EQ(addi.imm, 3);
    EXPECT_EQ(addi.srcVals[0], 7u);
    EXPECT_EQ(addi.result, 10u);
    EXPECT_EQ(addi.nextPc, pc(1));

    const TraceUop &lui = t->uops[1];
    EXPECT_EQ(lui.opc, Opcode::Movi);
    EXPECT_EQ(lui.result, 0x12345000u);
    EXPECT_EQ(lui.nextPc, pc(2));

    const TraceUop &ld = t->uops[2];
    EXPECT_EQ(ld.opc, Opcode::Ld);
    EXPECT_EQ(ld.dst, 10);
    EXPECT_EQ(ld.src1, 11);
    EXPECT_EQ(ld.imm, 2);
    EXPECT_EQ(ld.memSize, 2);
    EXPECT_EQ(ld.effAddr, 0x102u);
    EXPECT_EQ(ld.result, 0x0403u);  // zero-extended raw load
    const TraceUop &shl = t->uops[3];
    EXPECT_EQ(shl.opc, Opcode::Shli);
    EXPECT_EQ(shl.imm, 48);
    EXPECT_EQ(shl.result, 0x0403ULL << 48);
    const TraceUop &sar = t->uops[4];
    EXPECT_EQ(sar.opc, Opcode::Sari);
    EXPECT_EQ(sar.imm, 48);
    EXPECT_EQ(sar.result, 0x0403u);  // positive half: sext is identity

    const TraceUop &st = t->uops[5];
    EXPECT_EQ(st.opc, Opcode::St);
    EXPECT_EQ(st.src1, 11);
    EXPECT_EQ(st.src2, 10);
    EXPECT_EQ(st.imm, 8);
    EXPECT_EQ(st.memSize, 4);
    EXPECT_EQ(st.effAddr, 0x108u);
    EXPECT_EQ(st.result, 0x0403u);  // full register, commit-check form
    EXPECT_EQ(st.nextPc, pc(6));

    const TraceUop &call = t->uops[6];
    EXPECT_EQ(call.opc, Opcode::Call);
    EXPECT_EQ(call.pc, pc(6));
    EXPECT_EQ(call.dst, 1);
    EXPECT_TRUE(call.taken);
    EXPECT_EQ(call.result, pc(7));  // synthetic link: µ-op after me
    EXPECT_EQ(call.nextPc, pc(8));

    const TraceUop &ret = t->uops[7];
    EXPECT_EQ(ret.opc, Opcode::Ret);
    EXPECT_EQ(ret.pc, pc(8));
    EXPECT_EQ(ret.src1, 1);
    EXPECT_EQ(ret.srcVals[0], pc(7));
    EXPECT_TRUE(ret.taken);
    EXPECT_EQ(ret.nextPc, pc(7));

    const TraceUop &sub = t->uops[8];
    EXPECT_EQ(sub.opc, Opcode::Sub);
    EXPECT_EQ(sub.pc, pc(7));
    EXPECT_EQ(sub.dst, 12);
    EXPECT_EQ(sub.srcVals[0], 10u);
    EXPECT_EQ(sub.srcVals[1], 0x0403u);
    EXPECT_EQ(sub.result, static_cast<RegVal>(10 - 0x0403));
}

TEST(Rv64Ingest, GoldenStreamSurvivesAFileRoundTrip)
{
    TempDir tmp("ingestrt");
    const std::string log =
        "reg x5 7\n"
        "1000 00328393\n"   // addi x7, x5, 3
        "1004 407282b3\n";  // sub  x5, x5, x7
    std::string err;
    const auto t = ingest(log, &err);
    ASSERT_NE(t, nullptr) << err;
    ASSERT_TRUE(writeTraceFile(*t, tmp.path("g.trace"), "rv64i", &err))
        << err;
    const auto back = loadTraceFile(tmp.path("g.trace"), &err);
    ASSERT_NE(back, nullptr) << err;
    ASSERT_EQ(back->uops.size(), t->uops.size());
    for (std::size_t i = 0; i < t->uops.size(); ++i)
        expectSameUop(t->uops[i], back->uops[i], i);
}

TEST(Rv64Ingest, IngestedTracesRunThroughTheTimingModel)
{
    TempDir tmp("ingestrun");
    BoundTraceGuard guard;
    // A counted loop long enough to cover warmup + measurement (a
    // complete trace ends the run when it runs out; there is no wrap).
    std::string log = "reg x5 0\nreg x6 1200\n";
    for (int i = 0; i < 1200; ++i) {
        log += "1000 00128293\n";  // addi x5, x5, 1
        log += "1004 fe62cee3\n";  // blt  x5, x6, -4
    }
    log += "1008 00028513\n";      // addi x10, x5, 0
    std::string err;
    const auto t = ingest(log, &err);
    ASSERT_NE(t, nullptr) << err;
    ASSERT_TRUE(writeTraceFile(*t, tmp.path("loop.trace"), "rv64i",
                               &err)) << err;

    std::string canonical;
    ASSERT_TRUE(workloads::bindTraceFile(tmp.path("loop.trace"),
                                         &canonical, &err)) << err;
    EXPECT_EQ(canonical, "rv64:test");

    ExperimentPlan p = plans::get("smoke");
    p.configs.resize(1);
    p.workloads = {canonical};
    p.warmup = 200;
    p.measure = 2000;
    const PlanResult res = runPlan(p);
    ASSERT_EQ(res.cells.size(), 1u);
    EXPECT_GT(res.cells[0].ipc(), 0.0);
    EXPECT_GE(res.cells[0].stats.get("committed_uops"), 2000.0);
}

TEST(Rv64Ingest, RejectsWhatItCannotRepresent)
{
    // Compressed instructions.
    expectIngestError("1000 0001\n", "compressed");
    // System instructions.
    expectIngestError("1000 00000073\n", "line 1");
    // Unsigned division.
    expectIngestError("1000 0273d2b3\n", "line 1");  // divu x5,x7,x7
    // Signed division by zero diverges from RISC-V semantics.
    expectIngestError("1000 0273c2b3\n", "zero");    // div x5,x7,x7; x7=0
    // Control-flow divergence: fall-through must land on the next line.
    expectIngestError("1000 00128293\n"
                      "2000 00128293\n", "diverges");
    // Seeds after the first instruction.
    expectIngestError("1000 00128293\n"
                      "reg x5 1\n"
                      "1004 00128293\n", "seed");
    // Self-modifying code: one pc, two encodings.
    expectIngestError("1000 00128293\n"
                      "1004 00130313\n"
                      "1000 00128513\n", "encoding");
    // A nonzero x0 seed is meaningless.
    expectIngestError("reg x0 5\n1000 00128293\n", "x0");
}
