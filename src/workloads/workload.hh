/**
 * @file
 * Workload registry: 19 synthetic SPEC-like kernels.
 *
 * Each kernel is a real program (authored with the Assembler, executed
 * functionally by the KernelVM) engineered to reproduce the traits the
 * paper's mechanisms key on for the corresponding SPEC benchmark:
 * value-predictability mix, branch behaviour, memory footprint/pattern,
 * and ILP. See DESIGN.md §5 for the substitution rationale.
 *
 * A timing core never steps the program itself: it replays a recording
 * of it. Whoever builds a Core sets `frozen` first — the sweep engine
 * from its trace cache, anyone else with `w.frozen = w.freeze(n)`,
 * where n covers the run's commit target plus the in-flight window
 * (maxInflightUops), or the whole program for one that halts.
 */

#ifndef EOLE_WORKLOADS_WORKLOAD_HH
#define EOLE_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "isa/frozen_trace.hh"
#include "isa/kernel_vm.hh"
#include "isa/static_inst.hh"
#include "isa/trace_source.hh"

namespace eole {

/** A buildable workload. */
struct Workload
{
    std::string name;       //!< e.g. "164.gzip"
    bool isFp = false;      //!< SPEC FP (vs INT) suite member
    std::size_t memBytes = 0;
    Program program;
    std::function<void(KernelVM &)> init;

    /** The shared pre-executed stream every run of this workload
     *  replays (freeze(), sim/trace_cache.hh or a trace file).
     *  makeTrace() requires it. */
    std::shared_ptr<const FrozenTrace> frozen;

    /** Optional resume point inside `frozen` (isa/checkpoint.hh): the
     *  run starts at the checkpoint's µ-op with its architectural
     *  register state. Used by the sampling subsystem (sim/sample/) to
     *  start measurement intervals mid-workload. */
    std::shared_ptr<const Checkpoint> start;

    /** The workload IS its frozen trace (loaded from an eole-trace-v2
     *  file; see workloads::bindTraceFile): there is no program to
     *  re-record from, so freeze() serves clamped views of `frozen`
     *  instead of running a VM. */
    bool fileBacked = false;

    /** Construct a fresh replay of `frozen` for one simulation run. */
    TraceSource
    makeTrace() const
    {
        panic_if(!frozen,
                 "workload %s has no recording: set frozen = "
                 "freeze(n) (Workload::freeze) before building a Core",
                 name.c_str());
        return start ? TraceSource(frozen, *start) : TraceSource(frozen);
    }

    /** Record this workload's first @p max_uops µ-ops for replay, to
     *  the heap or, given @p spill_dir, to a mapped temporary file
     *  there (recordTrace). A file-backed workload cannot re-record;
     *  it returns a clamped prefix view of the loaded trace —
     *  decision-identical to what a recording of the same length would
     *  hold, and a hard error when the file holds fewer µ-ops than an
     *  incomplete replay needs. */
    std::shared_ptr<const FrozenTrace>
    freeze(std::uint64_t max_uops, const std::string &spill_dir = "") const
    {
        if (fileBacked) {
            fatal_if(!frozen->complete && frozen->uops.size() < max_uops,
                     "trace file for workload %s holds %zu µ-ops but "
                     "this run needs %llu; re-record with a larger "
                     "--uops", name.c_str(), frozen->uops.size(),
                     (unsigned long long)max_uops);
            return clampTrace(frozen, max_uops);
        }
        return recordTrace(program, memBytes, init, max_uops, name, isFp,
                           spill_dir);
    }
};

namespace workloads {

/** Names of all 19 benchmarks, in the paper's Table 3 order. */
const std::vector<std::string> &allNames();

/** Build a workload by name (fatal on unknown name). Besides the
 *  registry names, "torture:<seed>" builds a seeded random program
 *  from the differential torture generator — usable anywhere a
 *  workload name is accepted (plans, sampling) but not listed in
 *  allNames(). Names bound by bindTraceFile() resolve to their
 *  file-backed trace and shadow a same-named generator. */
Workload build(const std::string &name);

/**
 * Load the eole-trace-v2 file at @p path (mmap-backed, see
 * src/trace/trace_file.hh) and register its embedded workload name:
 * from then on build() of that name returns the file-backed workload.
 * This is how `file:<path>` specs become plan-addressable — the
 * canonical name is the one recorded in the file, so cells, seeds,
 * shard ownership and store keys are byte-identical to the generator
 * path.
 *
 * @param name_out the embedded canonical name
 * @param err offset diagnostic on a missing/corrupt file
 * @return false (with @p err) on failure; nothing is registered.
 */
bool bindTraceFile(const std::string &path, std::string *name_out,
                   std::string *err);

/**
 * Resolve one workload spec, the one way every front end takes it (a
 * plan file's `workloads =` list, `--workloads`, `list --workloads`,
 * `trace record`): plain names pass through untouched (the caller
 * validates them), "file:<path>" binds the trace file (bindTraceFile)
 * and resolves to the canonical name embedded in it. A file that
 * cannot be loaded produces a diagnostic naming the resolved absolute
 * path plus a did-you-mean over the sibling .trace files — the usual
 * typo is the filename, not the directory.
 */
bool resolveWorkloadSpec(const std::string &spec, std::string *resolved,
                         std::string *err);

/** Drop every bindTraceFile() registration (test isolation). */
void clearBoundTraces();

// Individual builders (one per SPEC benchmark analog).
Workload makeGzip();     //!< 164.gzip: LZ hashing, data-dependent branches
Workload makeWupwise();  //!< 168.wupwise: predictable-index FP streams
Workload makeApplu();    //!< 173.applu: 5-point stencil, high ILP FP
Workload makeVpr();      //!< 175.vpr: placement cost, abs-diff kernels
Workload makeArt();      //!< 179.art: neural match, highly repetitive values
Workload makeCrafty();   //!< 186.crafty: bitboard immediate-ALU chains
Workload makeParser();   //!< 197.parser: linked-list chasing, branchy
Workload makeVortex();   //!< 255.vortex: call/ret heavy record updates
Workload makeBzip2();    //!< 401.bzip2: counting sort, ld-mod-st aliasing
Workload makeGcc();      //!< 403.gcc: indirect jumps, irregular mix
Workload makeGamess();   //!< 416.gamess: dense FP with index arithmetic
Workload makeMcf();      //!< 429.mcf: huge-footprint pointer chase
Workload makeMilc();     //!< 433.milc: streaming FP, low predictability
Workload makeNamd();     //!< 444.namd: force loops, massive offload
Workload makeGobmk();    //!< 445.gobmk: hard branches, board scans
Workload makeHmmer();    //!< 456.hmmer: Viterbi DP, high ILP, random data
Workload makeSjeng();    //!< 458.sjeng: search mix, hash probes
Workload makeH264ref();  //!< 464.h264ref: SAD loops on slowly varying data
Workload makeLbm();      //!< 470.lbm: lattice streaming, memory bound

/** Simple synthetic micro-workloads used by tests and microbenches. */
namespace micro {

/** Serial dependency chain of addi (IPC -> 1). */
Workload depChain();
/** Fully independent int ALU stream (IPC -> issue width). */
Workload independent();
/** Tight loop with an almost-always-taken back edge. */
Workload loopTaken(int body_len = 6);
/** Branch whose direction alternates every iteration. */
Workload togglingBranch();
/** Strided load stream with strided values (VP-friendly). */
Workload stridedLoads();
/** Same-address load/store ping-pong (forwarding stress). */
Workload storeLoadForward();
/** Random-direction branch (bp stress), seeded deterministically. */
Workload randomBranch(std::uint64_t seed = 7);

} // namespace micro

} // namespace workloads
} // namespace eole

#endif // EOLE_WORKLOADS_WORKLOAD_HH
