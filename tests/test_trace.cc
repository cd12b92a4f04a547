/**
 * @file
 * Tests for the on-disk trace subsystem (src/trace/): eole-trace-v2
 * write/load round-trips, clamped prefix views, the bound-registry
 * `file:` workload path and its byte-identical sweep artifacts, the
 * trace cache's budget-exempt file accounting and its spill of
 * recordings over the RAM budget to mapped files, a seeded corruption
 * fuzzer over the loader, and the RV64I ingestion frontend's golden
 * µ-op stream.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "sim/artifact.hh"
#include "sim/plans.hh"
#include "sim/sample/sample.hh"
#include "sim/sweep.hh"
#include "sim/telemetry.hh"
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

/** What a µ-op's source operands produced: a memory µ-op's address, a
 *  branch's direction, anything else's result. */
RegVal
producedBy(const TraceUop &u)
{
    if (u.isLoad() || u.isStore())
        return u.effAddr();
    return u.isBranch() ? u.taken() : u.result();
}

void
expectSameUop(const TraceUop &a, const TraceUop &b, std::size_t i)
{
    EXPECT_EQ(a.pc(), b.pc()) << "µ-op " << i;
    EXPECT_EQ(a.sidx(), b.sidx()) << "µ-op " << i;
    EXPECT_EQ(a.opc(), b.opc()) << "µ-op " << i;
    EXPECT_EQ(a.dst(), b.dst()) << "µ-op " << i;
    EXPECT_EQ(a.src1(), b.src1()) << "µ-op " << i;
    EXPECT_EQ(a.src2(), b.src2()) << "µ-op " << i;
    EXPECT_EQ(a.imm(), b.imm()) << "µ-op " << i;
    EXPECT_EQ(a.memSize(), b.memSize()) << "µ-op " << i;
    EXPECT_EQ(producedBy(a), producedBy(b)) << "µ-op " << i;
    EXPECT_EQ(a.result(), b.result()) << "µ-op " << i;
    EXPECT_EQ(a.effAddr(), b.effAddr()) << "µ-op " << i;
    EXPECT_EQ(a.taken(), b.taken()) << "µ-op " << i;
    EXPECT_EQ(a.nextPc(), b.nextPc()) << "µ-op " << i;
    EXPECT_EQ(a.dstClass(), b.dstClass()) << "µ-op " << i;
    EXPECT_EQ(a.srcClass(0), b.srcClass(0)) << "µ-op " << i;
    EXPECT_EQ(a.srcClass(1), b.srcClass(1)) << "µ-op " << i;
}

} // namespace

// ------------------------- round trip ------------------------------------

TEST(TraceFile, RoundTripIsLossless)
{
    // An INT torture program and an FP registry workload's prefix.
    for (const auto &[wl, is_fp] :
         {std::pair{"torture:7", false}, std::pair{"173.applu", true}}) {
        SCOPED_TRACE(wl);
        TempDir tmp("roundtrip");
        const std::string path = tmp.path("t.trace");
        const auto orig = writeTortureTrace(wl, 50000, path);

        std::string err;
        const auto back = loadTraceFile(path, &err);
        ASSERT_NE(back, nullptr) << err;

        EXPECT_TRUE(back->mmapBacked);
        EXPECT_EQ(back->residentBytes(), 0u);
        EXPECT_EQ(back->bytes(), orig->bytes());
        EXPECT_EQ(back->name, wl);
        EXPECT_EQ(back->complete, orig->complete);
        EXPECT_EQ(back->isFp, orig->isFp);
        EXPECT_EQ(back->isFp, is_fp);
        for (int r = 0; r < numArchIntRegs; ++r)
            EXPECT_EQ(back->initIntRegs[r], orig->initIntRegs[r]) << r;
        for (int r = 0; r < numArchFpRegs; ++r)
            EXPECT_EQ(back->initFpRegs[r], orig->initFpRegs[r]) << r;

        ASSERT_EQ(back->uops.size(), orig->uops.size());
        for (std::size_t i = 0; i < orig->uops.size(); ++i)
            expectSameUop(orig->uops[i], back->uops[i], i);
    }
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
    EXPECT_EQ(sha256Hex(a), "3ad4631b349d0ff80082c26f282d464a"
                            "ef9bef1dec971c26222e57fe9cb8c3c4");
}

TEST(TraceFile, InfoMatchesTheHeader)
{
    // An INT torture program and an FP registry workload's prefix.
    for (const auto &[wl, is_fp] :
         {std::pair{"torture:7", false}, std::pair{"173.applu", true}}) {
        SCOPED_TRACE(wl);
        TempDir tmp("info");
        const std::string path = tmp.path("t.trace");
        const auto orig = writeTortureTrace(wl, 50000, path);

        TraceFileInfo info;
        std::string err;
        ASSERT_TRUE(readTraceFileInfo(path, &info, &err)) << err;
        EXPECT_EQ(info.name, wl);
        EXPECT_EQ(info.source, "generated");
        EXPECT_EQ(info.uopCount, orig->uops.size());
        EXPECT_EQ(info.complete, orig->complete);
        EXPECT_EQ(info.isFp, is_fp);
        EXPECT_EQ(info.fileBytes, fs::file_size(path));
    }
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

// ------------------------- failed writes ---------------------------------

namespace {

/** Run writeTraceFile(@p trace, @p path) in a forked child whose files
 *  may not grow past 64 KiB: with @p killed the child dies of SIGXFSZ
 *  mid-write, otherwise the write fails with EFBIG. The wait status. */
int
writeUnderSizeLimit(const FrozenTrace &trace, const std::string &path,
                    bool killed)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        if (!killed)
            std::signal(SIGXFSZ, SIG_IGN);
        const struct rlimit cap = {64 * 1024, 64 * 1024};
        ::setrlimit(RLIMIT_FSIZE, &cap);
        std::string err;
        ::_exit(writeTraceFile(trace, path, "generated", &err) ? 0 : 3);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

} // namespace

TEST(TraceFile, KilledWriterLeavesNoTruncatedFile)
{
    TempDir tmp("killed");
    const auto trace = workloads::build("164.gzip").freeze(50000);
    const std::string path = tmp.path("t.trace");
    const int status = writeUnderSizeLimit(*trace, path, true);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGXFSZ)
        << "status " << status;
    EXPECT_FALSE(fs::exists(path));
}

TEST(TraceFile, FailedRewriteKeepsTheOldFile)
{
    TempDir tmp("rewrite");
    const std::string path = tmp.path("t.trace");
    writeTortureTrace("torture:7", 1000, path);
    const std::string before = slurp(path);

    // A write error on the way (the file size limit).
    const auto big = workloads::build("164.gzip").freeze(50000);
    const int status = writeUnderSizeLimit(*big, path, false);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 3)
        << "status " << status;
    EXPECT_EQ(slurp(path), before);

    // Only the file itself is left in its directory.
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto &e : fs::directory_iterator(tmp.dir))
        ++entries;
    EXPECT_EQ(entries, 1u);
    std::string err;
    EXPECT_NE(loadTraceFile(path, &err), nullptr) << err;
}

TEST(TraceFile, RejectedRewriteKeepsTheOldFile)
{
    // A rewrite rejected before any byte is written.
    TempDir tmp("rejected");
    const std::string path = tmp.path("t.trace");
    writeTortureTrace("torture:7", 1000, path);
    const std::string before = slurp(path);
    FrozenTrace named;
    named.name = std::string(traceFileNameBytes, 'x');
    named.seal();
    std::string err;
    EXPECT_FALSE(writeTraceFile(named, path, "generated", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(slurp(path), before);
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
    // from recorded eole-trace-v2 files.
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

    // A zero-byte RAM budget spills every generated recording but
    // leaves an mmap-backed file as it is (resident bytes ≈ 0 by
    // construction).
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

    // Over budget, a generated recording spills to a mapped file.
    const Workload gen_wl = workloads::build("164.gzip");
    const auto spilled = cache.get(gen_wl, 100000);
    unsetenv("EOLE_TRACE_CACHE_MB");
    ASSERT_NE(spilled, nullptr);
    EXPECT_TRUE(spilled->mmapBacked);
    EXPECT_EQ(spilled->residentBytes(), 0u);
    EXPECT_EQ(cache.missCount(), 2u);

    EXPECT_EQ(cache.evictCount(), 0u);
    cache.drop(file_wl.name);
    EXPECT_EQ(cache.evictCount(), 1u);
}

TEST(TraceCacheT, ByteBudgetEnforcedUnderPressure)
{
    // The per-trace byte budget chooses heap or file: a recording that
    // fits stays on the heap, one that does not spills to an unlinked
    // temporary file mapped read-only (no resident heap) — and holds
    // exactly the µ-ops a heap recording would.
    setenv("EOLE_TRACE_CACHE_MB", "1", 1);  // 1 MB budget
    TraceCache cache;
    const Workload w = workloads::build("164.gzip");

    const std::uint64_t fits = (512 * 1024) / sizeof(UopRecord);
    const std::uint64_t toobig = (2 * 1024 * 1024) / sizeof(UopRecord);
    const auto small = cache.get(w, fits);
    ASSERT_NE(small, nullptr);
    EXPECT_FALSE(small->mmapBacked);
    EXPECT_LE(small->bytes(), TraceCache::byteBudget());

    const auto spilled = cache.get(w, toobig);
    ASSERT_NE(spilled, nullptr);
    EXPECT_TRUE(spilled->mmapBacked);
    EXPECT_EQ(spilled->residentBytes(), 0u);
    const auto heap = w.freeze(toobig);
    EXPECT_EQ(spilled->name, heap->name);
    EXPECT_EQ(spilled->isFp, heap->isFp);
    EXPECT_EQ(spilled->complete, heap->complete);
    for (int r = 0; r < numArchIntRegs; ++r)
        EXPECT_EQ(spilled->initIntRegs[r], heap->initIntRegs[r]) << r;
    for (int r = 0; r < numArchFpRegs; ++r)
        EXPECT_EQ(spilled->initFpRegs[r], heap->initFpRegs[r]) << r;
    ASSERT_EQ(spilled->uops.size(), heap->uops.size());
    for (std::size_t i = 0; i < heap->uops.size(); ++i)
        expectSameUop(heap->uops[i], spilled->uops[i], i);

    // The sweep engines under the same pressure spill every recording;
    // full and sampled artifact bytes must not move, and each workload
    // is recorded once.
    ExperimentPlan plan = plans::get("smoke");
    plan.warmup = 2000;
    plan.measure = 20000;
    SampleSpec spec;
    spec.intervals = 3;
    spec.intervalUops = 2000;
    spec.detailUops = 1000;
    TempDir tmp("budget");
    const std::string telemetry = tmp.path("run.jsonl");
    const std::string pressuredFull =
        jsonArtifactString(runPlan(plan, SweepOptions{}));
    std::string pressuredSampled;
    {
        TelemetrySink sink(telemetry);
        SweepOptions o;
        o.telemetry = &sink;
        pressuredSampled = jsonArtifactString(runSampledPlan(plan, spec, o));
    }
    unsetenv("EOLE_TRACE_CACHE_MB");
    EXPECT_EQ(pressuredFull,
              jsonArtifactString(runPlan(plan, SweepOptions{})));
    EXPECT_EQ(pressuredSampled,
              jsonArtifactString(runSampledPlan(plan, spec)));

    bool sawCache = false;
    for (const TelemetryEvent &ev : readTelemetry(telemetry)) {
        if (ev.ev != "trace_cache")
            continue;
        sawCache = true;
        EXPECT_EQ(ev.num("misses"), double(plan.workloads.size()));
        EXPECT_GT(ev.num("record_ms"), 0.0);
    }
    EXPECT_TRUE(sawCache);
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
    // (32 · 2^59 = 2^64, so the size equation still balances) and
    // a consistent checksum. The count must be bounded by the file
    // size before any arithmetic with it.
    const std::string small = tmp.path("gzip1000.trace");
    const std::size_t statics =
        writeTortureTrace("164.gzip", 1000, small)->uops.staticCount;
    const std::string small_good = slurp(small);
    ASSERT_EQ(small_good.size(),
              traceFileHeaderBytes + statics * sizeof(StaticUop)
                  + 1000 * sizeof(UopRecord) + traceFileFooterBytes);
    const std::size_t footer = small_good.size() - traceFileFooterBytes;
    // Overwrite the u64 at @p off and recompute the checksum.
    const auto forged = [&](std::size_t off, std::uint64_t v) {
        std::string bad = small_good;
        bad.replace(off, 8, reinterpret_cast<const char *>(&v), 8);
        bad.replace(bad.size() - 64, 64, sha256Hex(bad.substr(0, footer)));
        return bad;
    };
    {
        const std::uint64_t wrapped = 1000 + (1ULL << 59);
        std::string bad = forged(24, wrapped);
        bad.replace(footer + 8, 8, reinterpret_cast<const char *>(&wrapped),
                    8);
        spit(mut, bad);
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
        EXPECT_NE(err.find("at byte 24"), std::string::npos) << err;
        TraceFileInfo info;
        EXPECT_FALSE(readTraceFileInfo(mut, &info, &err));
    }

    // The same wrap in the static-entry count (32 · 2^59 = 2^64).
    {
        spit(mut, forged(traceFileHeaderBytes - 8, statics + (1ULL << 59)));
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
        EXPECT_NE(err.find("static entry count"), std::string::npos) << err;
    }

    // A record naming a static entry past the table, and a static
    // entry with an opcode past the enum, each under a consistent
    // checksum: content errors, not out-of-bounds reads.
    {
        const std::size_t records =
            traceFileHeaderBytes + statics * sizeof(StaticUop);
        const std::size_t id_at = records + sizeof(UopRecord)
            + offsetof(UopRecord, staticId);
        std::uint64_t word = 0;
        std::memcpy(&word, small_good.data() + id_at, 8);
        word = (word & ~0xffffffffULL) | statics;
        spit(mut, forged(id_at, word));
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
        EXPECT_NE(err.find("µ-op 1 at byte"), std::string::npos) << err;

        const std::size_t opc_at = traceFileHeaderBytes + sizeof(StaticUop)
            + offsetof(StaticUop, opc);
        std::memcpy(&word, small_good.data() + opc_at, 8);
        word = (word & ~0xffULL) | 0xff;
        spit(mut, forged(opc_at, word));
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
        EXPECT_NE(err.find("static entry 1 at byte"), std::string::npos)
            << err;
    }

    // A file of the first format is named as such, not as noise.
    {
        std::string v1 = small_good;
        v1[7] = '1';
        spit(mut, v1);
        err.clear();
        EXPECT_EQ(loadTraceFile(mut, &err), nullptr);
        EXPECT_NE(err.find("re-record"), std::string::npos) << err;
    }

    // The original is still pristine (fuzzing wrote copies only).
    EXPECT_NE(loadTraceFile(path, &err), nullptr) << err;
}

// ------------------------- decoded µ-op streams --------------------------

namespace {

/** SHA-256 over describe() of every µ-op of @p trace, one per line. */
std::string
streamDigest(const FrozenTrace &trace)
{
    Sha256 sha;
    for (std::size_t i = 0; i < trace.uops.size(); ++i)
        sha.update(describe(trace.uops[i]) + "\n");
    return sha.hexDigest();
}

} // namespace

TEST(TraceStream, DecodedStreamsArePinned)
{
    // What the simulator reads of a recording, µ-op by µ-op: a torture
    // program at 50k µ-ops, every registry workload at 20k and each
    // RV64I ingest. How a recording is laid out may change; these
    // digests may not.
    const auto digestOf = [](const std::string &workload,
                             std::uint64_t uops) {
        return streamDigest(*workloads::build(workload).freeze(uops));
    };
    EXPECT_EQ(digestOf("torture:9", 50000),
              "1e32a91d02ae2f8c845f2ccfd2e6b545"
              "5843499ab73881cd9edaa1f562b7d19a");

    const std::vector<std::pair<std::string, std::string>> registry = {
        {"164.gzip", "1c795e579ebdc2b0109e8567ab335eab"
                     "b1ba6f2eb260b749975848799dcb2e79"},
        {"168.wupwise", "6a136ea8f39fd6ec5483edd16467e22b"
                        "ad69149639ac8cfab1b7f5461104226b"},
        {"173.applu", "386feeb2fb25af46460777d95697b706"
                      "cf72db40762583614d7cdc1f9557dcad"},
        {"175.vpr", "a71271f9a0eb51179883547ea0d5e41c"
                    "ae826ec7481ee4491731f66859fc99a1"},
        {"179.art", "9da9ad35cee3bd64524f6ac0d418cbe2"
                    "5bc46a321db4c3e95412f26365a0355c"},
        {"186.crafty", "161b7b3c68aabab122b3c49f0470abf8"
                       "96bd037ea7a2c02b66093a0b921aa19e"},
        {"197.parser", "ee80ee7615453d4fefa32a7c1169eb80"
                       "a97c4effa87b799d61dda64b18296e1e"},
        {"255.vortex", "2bd3e8e385f846a1d52ad8c4fcc1333f"
                       "698374925941520610aafd670d09605e"},
        {"401.bzip2", "ccfee587f16099919d8164c47f99a9ac"
                      "3454ce2148747bbb1871e90ee9f14ecd"},
        {"403.gcc", "c1fe7bd9c2818ed5d2a54d40a192f981"
                    "80be07dfdf93f263ca73fff9c33ebb10"},
        {"416.gamess", "24cff74cc6aeb78f481c1fb846cef769"
                       "88f0828847cefa620ff41f638293337a"},
        {"429.mcf", "ecc43a9ebe6950b8f8f48ecf48c40a63"
                    "5174e7b9b5b6c73e741d4e7c4c283967"},
        {"433.milc", "ef2b01699936a63b2b2fa6bdb9fefe7d"
                     "faa8bcbf88a90a6c83052c8230684edc"},
        {"444.namd", "86f582f4112044de89b6dc2a365b5453"
                     "133720e0388a5bc9af4880d64390627e"},
        {"445.gobmk", "56e4c9a809e9d6d4441c11cdb94e197b"
                      "bcc5bbc3ac809b465ec6e88eee0e8dfd"},
        {"456.hmmer", "71b91084ef6030ce50d4ac5ee093db7d"
                      "295dcd95c165bfec1e1b124fa8dfb413"},
        {"458.sjeng", "77512f8f93855820baa66763f1b36077"
                      "f93a0b1496f7746faf681411a3b8d495"},
        {"464.h264ref", "695330714beeb1801d1801d41914f2b5"
                        "0cd0014a6fad4f89de0867b4ef645a05"},
        {"470.lbm", "45a7dc05540f6c71093568537ef5805c"
                    "4b92cc227f6ac3ccb07afea6c5c7ebdc"},
    };
    std::vector<std::string> covered;
    for (const auto &[name, digest] : registry) {
        EXPECT_EQ(digestOf(name, 20000), digest) << name;
        covered.push_back(name);
    }
    EXPECT_EQ(covered, workloads::allNames()) << "pin every workload";

    const std::vector<std::pair<std::string, std::string>> rv64 = {
        {"bitops", "36d21b7083b43f5466e6492ecd5e470b"
                   "71f01b283beb3a630d9a538aae37c3df"},
        {"fib", "6d7231ae30b2e6f836fbd30f0c5bce44"
                "ed1e7ecd6be8bd72269dcb97a6c13fd3"},
        {"memsum", "47f13f4dd3263ae05e967ad0a73a24d0"
                   "d1a526b1ba3deba4882c002abddb2162"},
        {"wrap", "74cf20fc313dbc34bb68e0868ecd02a0"
                 "81e743d44e7c5ea4fa15289648cb5604"},
    };
    for (const auto &[log, digest] : rv64) {
        std::string err;
        const auto trace = ingestRv64LogFile(
            std::string(EOLE_TEST_DATA_DIR) + "/rv64/" + log + ".rvlog",
            "rv64:" + log, &err);
        ASSERT_NE(trace, nullptr) << err;
        EXPECT_EQ(streamDigest(*trace), digest) << log;
    }
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
    EXPECT_EQ(addi.opc(), Opcode::Addi);
    EXPECT_EQ(addi.pc(), pc(0));
    EXPECT_EQ(addi.dst(), 7);
    EXPECT_EQ(addi.src1(), 5);
    EXPECT_EQ(addi.imm(), 3);
    EXPECT_EQ(addi.result(), 7u + 3);  // x5 plus the immediate
    EXPECT_EQ(addi.result(), 10u);
    EXPECT_EQ(addi.nextPc(), pc(1));

    const TraceUop &lui = t->uops[1];
    EXPECT_EQ(lui.opc(), Opcode::Movi);
    EXPECT_EQ(lui.result(), 0x12345000u);
    EXPECT_EQ(lui.nextPc(), pc(2));

    const TraceUop &ld = t->uops[2];
    EXPECT_EQ(ld.opc(), Opcode::Ld);
    EXPECT_EQ(ld.dst(), 10);
    EXPECT_EQ(ld.src1(), 11);
    EXPECT_EQ(ld.imm(), 2);
    EXPECT_EQ(ld.memSize(), 2);
    EXPECT_EQ(ld.effAddr(), 0x102u);
    EXPECT_EQ(ld.result(), 0x0403u);  // zero-extended raw load
    const TraceUop &shl = t->uops[3];
    EXPECT_EQ(shl.opc(), Opcode::Shli);
    EXPECT_EQ(shl.imm(), 48);
    EXPECT_EQ(shl.result(), 0x0403ULL << 48);
    const TraceUop &sar = t->uops[4];
    EXPECT_EQ(sar.opc(), Opcode::Sari);
    EXPECT_EQ(sar.imm(), 48);
    EXPECT_EQ(sar.result(), 0x0403u);  // positive half: sext is identity

    const TraceUop &st = t->uops[5];
    EXPECT_EQ(st.opc(), Opcode::St);
    EXPECT_EQ(st.src1(), 11);
    EXPECT_EQ(st.src2(), 10);
    EXPECT_EQ(st.imm(), 8);
    EXPECT_EQ(st.memSize(), 4);
    EXPECT_EQ(st.effAddr(), 0x108u);
    EXPECT_EQ(st.result(), 0x0403u);  // full register, commit-check form
    EXPECT_EQ(st.nextPc(), pc(6));

    const TraceUop &call = t->uops[6];
    EXPECT_EQ(call.opc(), Opcode::Call);
    EXPECT_EQ(call.pc(), pc(6));
    EXPECT_EQ(call.dst(), 1);
    EXPECT_TRUE(call.taken());
    EXPECT_EQ(call.result(), pc(7));  // synthetic link: µ-op after me
    EXPECT_EQ(call.nextPc(), pc(8));

    const TraceUop &ret = t->uops[7];
    EXPECT_EQ(ret.opc(), Opcode::Ret);
    EXPECT_EQ(ret.pc(), pc(8));
    EXPECT_EQ(ret.src1(), 1);
    EXPECT_EQ(ret.nextPc(), call.result());  // the link x1 holds
    EXPECT_TRUE(ret.taken());
    EXPECT_EQ(ret.nextPc(), pc(7));

    const TraceUop &sub = t->uops[8];
    EXPECT_EQ(sub.opc(), Opcode::Sub);
    EXPECT_EQ(sub.pc(), pc(7));
    EXPECT_EQ(sub.dst(), 12);
    // x7 and x10: what the addi and the sign-extension produced.
    EXPECT_EQ(sub.result(), addi.result() - sar.result());
    EXPECT_EQ(sub.result() + 0x0403u, 10u);
    EXPECT_EQ(sub.result(), static_cast<RegVal>(10 - 0x0403));
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
