/**
 * @file
 * Randomized differential torture test.
 *
 * A seeded generator (src/workloads/torture_gen.hh, shared with the
 * sampling checkpoint suite) assembles random-but-always-terminating
 * µ-op programs (random ALU/memory/FP mixes, data-dependent forward
 * branches, calls/returns, indirect jumps, a bounded outer loop) with
 * src/isa/assembler.hh. Each program is executed:
 *
 *   1. by a standalone KernelVM — the functional oracle stream, and
 *   2. through the full cycle-level pipeline, replaying a recording
 *      of the program, under several configurations (VP off, VP on,
 *      idealized EOLE, port/bank constrained EOLE),
 *
 * asserting that every configuration commits exactly the oracle
 * stream (program counters, results, effective addresses, branch
 * outcomes — captured via Core::setCommitHook) and drains completely.
 * The in-pipeline oracle lockstep check panics on any dataflow
 * divergence on top of this.
 *
 * Failures are seed-reproducible: every assertion carries a
 * re-runnable repro line. Defaults: 100 programs from base seed
 * 0xE01E; override with EOLE_TORTURE_RUNS / EOLE_TORTURE_SEED.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/random.hh"
#include "isa/checkpoint.hh"
#include "isa/kernel_vm.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "workloads/torture_gen.hh"
#include "workloads/workload.hh"

using namespace eole;
using workloads::generateTortureProgram;
using workloads::tortureMemBytes;

namespace {


/** The commit-stream fields we hold every configuration to. */
struct CommitRecord
{
    Addr pc;
    Opcode opc;
    RegVal result;
    Addr effAddr;
    bool taken;
    Addr nextPc;

    bool
    operator==(const CommitRecord &o) const
    {
        return pc == o.pc && opc == o.opc && result == o.result
            && effAddr == o.effAddr && taken == o.taken
            && nextPc == o.nextPc;
    }
};

CommitRecord
recordOf(const TraceUop &u)
{
    CommitRecord r{};
    r.pc = u.pc();
    r.opc = u.opc();
    r.result = (u.hasDst() || u.isStore()) ? u.result() : 0;
    r.effAddr = (u.isLoad() || u.isStore()) ? u.effAddr() : 0;
    r.taken = u.isBranch() ? u.taken() : false;
    r.nextPc = u.isBranch() ? u.nextPc() : 0;
    return r;
}

std::string
reproLine(std::uint64_t seed)
{
    return "repro: EOLE_TORTURE_SEED=" + std::to_string(seed)
        + " EOLE_TORTURE_RUNS=1 ./build/test_torture";
}

/** Functional oracle: the full committed stream of @p prog. */
std::vector<CommitRecord>
oracleStream(const Program &prog, std::uint64_t seed)
{
    KernelVM vm(prog, tortureMemBytes);
    std::vector<CommitRecord> ref;
    UopRecord rec;
    while (vm.step(rec)) {
        ref.push_back(recordOf(vm.uopOf(rec)));
        if (ref.size() > 2000000) {
            ADD_FAILURE() << "generated program did not halt; "
                          << reproLine(seed);
            return ref;
        }
    }
    EXPECT_TRUE(vm.halted()) << reproLine(seed);
    return ref;
}

/** Run @p w through the pipeline under @p cfg and capture commits. */
void
runAndCompare(const SimConfig &cfg, const Workload &w,
              const std::vector<CommitRecord> &ref, std::uint64_t seed)
{
    std::vector<CommitRecord> got;
    got.reserve(ref.size());

    Core core(cfg, w);
    core.setCommitHook([&](const DynInst &di) {
        got.push_back(recordOf(di.uop()));
        // The pipeline recomputes every result through its renamed
        // dataflow; hold it to the oracle value here as well (the
        // commit stage's internal lockstep check panics first in
        // practice).
        if (di.hasDst())
            got.back().result = di.computedValue;
    });
    const std::uint64_t cap = ref.size() * 300 + 200000;
    core.run(ref.size() + 64, cap);

    ASSERT_EQ(got.size(), ref.size())
        << cfg.name << ": committed stream length diverges; "
        << reproLine(seed);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_TRUE(got[i] == ref[i])
            << cfg.name << ": commit #" << i << " diverges at pc=" << std::hex
            << ref[i].pc << std::dec << " (" << opcodeName(ref[i].opc)
            << "); " << reproLine(seed);
    }
}

} // namespace

TEST(Torture, RandomProgramsMatchFunctionalOracle)
{
    const std::uint64_t runs = envU64("EOLE_TORTURE_RUNS", 100);
    const std::uint64_t base = envU64("EOLE_TORTURE_SEED", 0xE01E);

    const SimConfig cfgs[] = {
        configs::baseline(6, 64),            // no VP, no LE/VT stage
        configs::baselineVp(6, 64),          // VP + validation at commit
        configs::eole(4, 64),                // EE + LE, idealized
        configs::eoleConstrained(4, 64, 4, 4),  // banked + port limited
    };

    std::uint64_t total_uops = 0;
    for (std::uint64_t r = 0; r < runs; ++r) {
        const std::uint64_t seed = base + r;
        Workload w;
        w.name = "torture-" + std::to_string(seed);
        w.memBytes = tortureMemBytes;
        w.program = generateTortureProgram(seed);

        const auto ref = oracleStream(w.program, seed);
        ASSERT_FALSE(ref.empty()) << reproLine(seed);
        if (::testing::Test::HasFailure())
            return;
        total_uops += ref.size();

        // Every config replays one recording of the whole program.
        w.frozen = w.freeze(ref.size() + 16);
        ASSERT_TRUE(w.frozen->complete) << reproLine(seed);
        for (const SimConfig &cfg : cfgs) {
            runAndCompare(cfg, w, ref, seed);
            if (::testing::Test::HasFailure())
                return;
        }
    }
    std::printf("torture: %llu programs, %llu oracle µ-ops, %zu configs "
                "each\n",
                (unsigned long long)runs,
                (unsigned long long)total_uops,
                std::size(cfgs));
}

TEST(Torture, CheckpointParsersSurviveSeededCorruption)
{
    // Fuzz both checkpoint schemas through the non-fatal parse API
    // (the one behind `eole ckpt info`'s exit-2 diagnostics): random
    // section reorder/duplication, truncation at every granularity and
    // byte-level corruption must either parse cleanly (a harmless
    // mutation) or produce a line-numbered diagnostic — never crash,
    // hang or misparse silently. Runs in-process so the asan lane
    // (scripts/check.sh --sample) checks every mutation for memory
    // errors.
    const std::uint64_t base = envU64("EOLE_TORTURE_SEED", 0xE01E);
    Rng rng(base ^ 0xCC);

    Workload w;
    w.name = "fuzz victim";
    w.memBytes = tortureMemBytes;
    w.program = generateTortureProgram(base);
    const auto trace = w.freeze(1u << 20);
    ASSERT_TRUE(trace->complete);

    // Seed corpus: a v1 checkpoint and a v2 checkpoint with sections.
    Checkpoint v1 = captureAt(*trace, w.name, trace->uops.size() / 2);
    Checkpoint v2 = v1;
    v2.config = "Fuzz_Config";
    v2.uarch.emplace_back("branch", "branch-unit 1\ntage 1 2 3 4\n");
    v2.uarch.emplace_back("vpred", "hybrid 1\nvtage 1 0 0 0\n");
    v2.uarch.emplace_back("mem", "mem-hierarchy 1\nclock 5 6\n");
    const std::string corpus[] = {checkpointString(v1),
                                  checkpointString(v2)};

    const auto parse = [](const std::string &text, std::string *err) {
        std::istringstream is(text);
        Checkpoint out;
        return tryDeserializeCheckpoint(is, &out, err);
    };
    // The untouched corpus must parse.
    for (const std::string &doc : corpus) {
        std::string err;
        EXPECT_TRUE(parse(doc, &err)) << err;
    }

    std::size_t rejected = 0, survived = 0;
    const std::uint64_t rounds = envU64("EOLE_FUZZ_ROUNDS", 600);
    for (std::uint64_t i = 0; i < rounds; ++i) {
        std::string doc = corpus[rng.below(2)];
        switch (rng.below(5)) {
          case 0:
            // Truncate anywhere (header, register block, mid-payload).
            doc.resize(rng.below(doc.size()));
            break;
          case 1: {
            // Flip one byte to a random printable character.
            const std::size_t at = rng.below(doc.size());
            doc[at] = static_cast<char>(' ' + rng.below(95));
            break;
          }
          case 2: {
            // Duplicate a random line (section headers included).
            std::vector<std::string> lines;
            std::istringstream is(doc);
            for (std::string l; std::getline(is, l);)
                lines.push_back(l);
            const std::size_t at = rng.below(lines.size());
            lines.insert(lines.begin() + at, lines[at]);
            doc.clear();
            for (const std::string &l : lines)
                doc += l + "\n";
            break;
          }
          case 3: {
            // Swap two random lines (section reorder and worse).
            std::vector<std::string> lines;
            std::istringstream is(doc);
            for (std::string l; std::getline(is, l);)
                lines.push_back(l);
            std::swap(lines[rng.below(lines.size())],
                      lines[rng.below(lines.size())]);
            doc.clear();
            for (const std::string &l : lines)
                doc += l + "\n";
            break;
          }
          default: {
            // Splice a random chunk of the other document in.
            const std::string &other = corpus[rng.below(2)];
            const std::size_t from = rng.below(other.size());
            const std::size_t len =
                std::min<std::size_t>(other.size() - from,
                                      rng.below(256) + 1);
            const std::size_t at = rng.below(doc.size());
            doc.insert(at, other.substr(from, len));
            break;
          }
        }
        std::string err;
        if (parse(doc, &err)) {
            ++survived;  // harmless mutation — fine
        } else {
            ++rejected;
            ASSERT_FALSE(err.empty());
            ASSERT_NE(err.find("checkpoint line "), std::string::npos)
                << "diagnostic without a line number: " << err;
        }
    }
    // Corruption overwhelmingly produces diagnostics, and at least
    // some mutations must be harmless (proving the harness doesn't
    // reject everything trivially).
    EXPECT_GT(rejected, rounds / 2);
    std::printf("checkpoint fuzz: %llu mutations, %zu rejected with "
                "line-numbered diagnostics, %zu harmless\n",
                (unsigned long long)rounds, rejected, survived);
}
