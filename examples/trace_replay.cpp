/**
 * @file
 * On-disk traces end to end through the library API: record a workload
 * to an eole-trace-v2 file, mmap it back, bind it into the workload
 * registry, and show that a sweep over the file-backed workload
 * produces the byte-identical artifact a live-generated run does.
 *
 *   ./build/trace_replay [workload] [uops]
 *
 * The CLI equivalent (see examples/README.md):
 *
 *   eole trace record torture:7 --out t7.trace
 *   eole trace info t7.trace
 *   eole run smoke --workloads file:t7.trace --out replayed.json
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/artifact.hh"
#include "sim/plans.hh"
#include "sim/sweep.hh"
#include "trace/trace_file.hh"
#include "workloads/workload.hh"

using namespace eole;

int
main(int argc, char **argv)
{
    const std::string wl = argc > 1 ? argv[1] : "torture:7";
    const std::uint64_t uops =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 200000;
    const std::string path = "replay_example.trace";

    // 1. Record: functionally execute the workload once and write the
    //    µ-op stream (plus the architectural register seed) to disk.
    const Workload live = workloads::build(wl);
    const auto recording = live.freeze(uops);
    std::string err;
    if (!writeTraceFile(*recording, path, "generated", &err)) {
        std::fprintf(stderr, "write failed: %s\n", err.c_str());
        return 1;
    }
    std::printf("recorded %s: %zu u-ops (%s) -> %s\n", wl.c_str(),
                recording->uops.size(),
                recording->complete ? "complete" : "prefix",
                path.c_str());

    // 2. Load: the reader validates the whole file (layout hash,
    //    SHA-256 footer) and maps the µ-op array read-only — note the
    //    zero resident cost.
    const auto mapped = loadTraceFile(path, &err);
    if (!mapped) {
        std::fprintf(stderr, "load failed: %s\n", err.c_str());
        return 1;
    }
    std::printf("mapped back: %zu u-ops, %zu bytes on disk, %zu bytes "
                "resident\n", mapped->uops.size(), mapped->bytes(),
                mapped->residentBytes());

    // 3. Bind: the trace's embedded name now resolves to the file
    //    everywhere a workload name is accepted — plans, sweeps,
    //    sampling, the trace cache.
    std::string canonical;
    if (!workloads::bindTraceFile(path, &canonical, &err)) {
        std::fprintf(stderr, "bind failed: %s\n", err.c_str());
        return 1;
    }

    // 4. Prove the guarantee: one-workload sweep, live vs file-backed,
    //    byte-identical artifacts.
    ExperimentPlan p = plans::get("smoke");
    p.workloads = {canonical};
    p.warmup = 2000;
    p.measure = 20000;

    const std::string replayed = jsonArtifactString(runPlan(p));
    workloads::clearBoundTraces();  // back to the generator
    const std::string generated = jsonArtifactString(runPlan(p));

    std::printf("artifact bytes: %zu replayed, %zu generated -> %s\n",
                replayed.size(), generated.size(),
                replayed == generated ? "IDENTICAL" : "DIFFERENT");
    std::remove(path.c_str());
    return replayed == generated ? 0 : 1;
}
