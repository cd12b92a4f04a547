/**
 * @file
 * Integer (SPEC INT analog) workload kernels, part 2:
 * gcc, mcf, gobmk, hmmer, sjeng, h264ref.
 */

#include "workloads/workload.hh"

#include <vector>

#include "common/random.hh"
#include "isa/assembler.hh"
#include "workloads/workload_util.hh"

namespace eole {
namespace workloads {

// ---------------------------------------------------------------------
// 403.gcc -- interpreter-style dispatch: an opcode byte stream drives an
// indirect jump into equal-sized case blocks. Irregular control flow
// (the BTB mispredicts whenever the opcode changes), mixed ALU/memory
// case bodies.
// ---------------------------------------------------------------------
Workload
makeGcc()
{
    constexpr Addr codeBufBase = 0x0;      // 1 MB opcode stream
    constexpr std::int64_t codeMask = 0xfffff;
    constexpr Addr dataBase = 0x100000;    // 64 KB scratch data
    constexpr std::int64_t dataMask = 0xfff8;
    constexpr int caseLen = 8;             // µ-ops per case block

    Assembler a;
    const IntReg i = 1, op = 2, tgt = 3, t = 4, u = 5, acc = 6, cnt = 7;
    const IntReg cstream = 20, dbase = 21, cbase = 22, three = 23;

    Label top = a.newLabel();
    Label join = a.newLabel();
    Label case0 = a.newLabel();

    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, codeMask);
    a.add(t, cstream, i);
    a.ld(op, t, 0, 1);
    // Dispatch: tgt = &case0 + op * caseLen * 4 bytes.
    a.shli(tgt, op, 5);
    a.add(tgt, tgt, cbase);
    a.jr(tgt);

    // Case blocks. Each is exactly caseLen µ-ops (jmp included).
    const std::size_t case0_at = a.here();
    a.bind(case0);                         // constant fold
    a.addi(acc, acc, 1);
    a.addi(cnt, cnt, 1);
    a.nop();
    a.nop();
    a.nop();
    a.nop();
    a.nop();
    a.jmp(join);

    const std::size_t case1_at = a.here(); // bitmask algebra
    a.shli(t, acc, 3);
    a.xor_(acc, acc, t);
    a.andi(acc, acc, 0xffffff);
    a.ori(acc, acc, 0x11);
    a.nop();
    a.nop();
    a.nop();
    a.jmp(join);

    const std::size_t case2_at = a.here(); // scratch load/store
    a.andi(t, acc, dataMask);
    a.add(t, t, dbase);
    a.ld(u, t, 0);
    a.add(acc, acc, u);
    a.st(acc, t, 0);
    a.nop();
    a.nop();
    a.jmp(join);

    const std::size_t case3_at = a.here(); // multiply
    a.mul(t, acc, three);
    a.addi(acc, t, 7);
    a.nop();
    a.nop();
    a.nop();
    a.nop();
    a.nop();
    a.jmp(join);

    a.bind(join);
    a.addi(cnt, cnt, 2);
    a.jmp(top);

    Workload w;
    w.name = "403.gcc";
    w.isFp = false;
    w.memBytes = 0x110000;
    w.program = a.finish();

    // Sanity-check the case-block spacing assumed by the dispatch shift.
    panic_if(case1_at - case0_at != caseLen,
             "gcc case blocks must be %d µ-ops", caseLen);
    panic_if(case2_at - case1_at != caseLen,
             "gcc case blocks must be %d µ-ops", caseLen);
    panic_if(case3_at - case2_at != caseLen,
             "gcc case blocks must be %d µ-ops", caseLen);

    w.init = [=](KernelVM &vm) {
        // Skewed opcode stream with short runs: 55/20/15/10 mix.
        Rng rng(0x4031);
        std::uint8_t cur = 0;
        std::uint8_t *code = vm.memSpan(codeBufBase, codeMask + 1);
        for (std::size_t n = 0; n <= codeMask; ++n) {
            if (!rng.chance(0.4)) {
                const double r = rng.uniform();
                cur = r < 0.55 ? 0 : r < 0.75 ? 1 : r < 0.90 ? 2 : 3;
            }
            code[n] = cur;
        }
        fillRandomWords(vm, dataBase, 0x2000, 1000, 0x4032);
        vm.setIntReg(cstream.idx, codeBufBase);
        vm.setIntReg(dbase.idx, dataBase);
        vm.setIntReg(three.idx, 3);
        vm.setIntReg(cbase.idx, Program::pcOf(case0_at));
    };
    return w;
}

// ---------------------------------------------------------------------
// 429.mcf -- network-simplex arc scan: two independent pointer chases
// over a 64 MB node pool (DRAM-resident), a data-dependent cost branch.
// Memory bound; very low IPC.
// ---------------------------------------------------------------------
Workload
makeMcf()
{
    constexpr Addr nodeBase = 0x0;
    constexpr std::size_t nodeBytes = 64;
    constexpr std::size_t nodeCount = 0x100000;   // 1M nodes = 64 MB

    Assembler a;
    const IntReg p = 1, q = 2, cp = 3, cq = 4, acc = 5, acc2 = 6;
    const IntReg cnt = 7;
    const IntReg klim = 20;

    Label top = a.newLabel();
    Label cheap = a.newLabel();

    a.bind(top);
    a.ld(p, p, 0);
    a.ld(q, q, 0);
    a.ld(cp, p, 8);
    a.ld(cq, q, 8);
    a.add(acc, acc, cp);
    a.add(acc2, acc2, cq);
    a.blt(cp, klim, cheap);     // ~70% taken (costs below 700 of 1000)
    a.xor_(acc, acc, cq);
    a.bind(cheap);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    Workload w;
    w.name = "429.mcf";
    w.isFp = false;
    w.memBytes = nodeCount * nodeBytes;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        // Two disjoint random cycles, even nodes and odd nodes, are
        // scattered into next[] first; the pool is then written once,
        // in address order, with each node's link and cost.
        const std::size_t half = nodeCount / 2;
        std::vector<std::uint32_t> next(nodeCount);
        for (std::uint32_t parity = 0; parity < 2; ++parity) {
            Rng rng(0x4291 + parity);
            std::vector<std::uint32_t> order(half);
            for (std::size_t k = 0; k < half; ++k)
                order[k] = static_cast<std::uint32_t>(2 * k + parity);
            for (std::size_t k = half - 1; k > 0; --k)
                std::swap(order[k], order[rng.below(k + 1)]);
            for (std::size_t k = 0; k < half; ++k)
                next[order[k]] = order[(k + 1) % half];
        }
        Rng rng(0x4293);
        std::uint8_t *pool = vm.memSpan(nodeBase, nodeCount * nodeBytes);
        for (std::size_t n = 0; n < nodeCount; ++n) {
            std::uint8_t *node = pool + n * nodeBytes;
            storeWord(node, nodeBase + Addr(next[n]) * nodeBytes);
            storeWord(node + 8, rng.below(1000));
        }
        vm.setIntReg(p.idx, nodeBase);
        vm.setIntReg(q.idx, nodeBase + nodeBytes);
        vm.setIntReg(klim.idx, 700);
    };
    return w;
}

// ---------------------------------------------------------------------
// 445.gobmk -- board evaluation with hostile branches: an LCG generates
// effectively random board positions; several data-dependent branches
// per iteration mispredict heavily.
// ---------------------------------------------------------------------
Workload
makeGobmk()
{
    constexpr Addr boardBase = 0x0;        // 64 KB board bytes
    constexpr std::int64_t boardMask = 0xffff;

    Assembler a;
    const IntReg seed = 1, idx = 2, b = 3, n1 = 4, n2 = 5, t = 6;
    const IntReg c0 = 7, c1 = 8, c2 = 9, acc = 10;
    const IntReg pos = 11, row = 12, col = 13, visits = 14, rowsum = 15;
    const IntReg bbase = 20, lcgMul = 21, two = 22;

    Label top = a.newLabel();
    Label not_empty = a.newLabel();
    Label strong = a.newLabel();
    Label done = a.newLabel();
    Label same_row = a.newLabel();

    a.bind(top);
    // Sequential board-scan bookkeeping (predictable: the part of the
    // evaluator that EOLE offloads even when the branches are hostile).
    a.addi(pos, pos, 1);
    a.andi(pos, pos, boardMask);
    a.shri(row, pos, 8);
    a.andi(col, pos, 0xff);
    a.addi(visits, visits, 1);
    // Row-boundary branch: taken 1/256 (very high confidence).
    a.beq(col, IntReg(0), same_row);
    a.add(rowsum, rowsum, row);
    a.bind(same_row);
    // LCG: effectively random inspection point near the scan.
    a.mul(seed, seed, lcgMul);
    a.addi(seed, seed, 1442695040888963407LL);
    a.shri(idx, seed, 33);
    a.andi(idx, idx, boardMask);
    a.add(t, bbase, idx);
    a.ld(b, t, 0, 1);
    // Branch 1: empty point? (~25% of board bytes are 0).
    a.bne(b, IntReg(0), not_empty);
    a.addi(c0, c0, 1);
    a.jmp(done);
    a.bind(not_empty);
    // Neighbor inspection.
    a.andi(t, idx, 0xfffe);
    a.add(t, bbase, t);
    a.ld(n1, t, 0, 1);
    a.ld(n2, t, 1, 1);
    a.add(acc, n1, n2);
    // Branch 2: liberties comparison, close to 50/50.
    a.blt(b, two, strong);
    a.add(c1, c1, acc);
    a.jmp(done);
    a.bind(strong);
    a.xor_(c2, c2, acc);
    a.addi(c2, c2, 1);
    a.bind(done);
    a.addi(acc, acc, 1);
    a.jmp(top);

    Workload w;
    w.name = "445.gobmk";
    w.isFp = false;
    w.memBytes = 0x10800;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        // Board byte values 0..3 uniform.
        Rng rng(0x4451);
        std::uint8_t *board = vm.memSpan(boardBase, boardMask + 2);
        for (std::size_t n = 0; n <= boardMask + 1; ++n)
            board[n] = static_cast<std::uint8_t>(rng.below(4));
        vm.setIntReg(seed.idx, 0x2545f4914f6cdd1dULL);
        vm.setIntReg(bbase.idx, boardBase);
        vm.setIntReg(lcgMul.idx, 6364136223846793005LL);
        vm.setIntReg(two.idx, 2);
    };
    return w;
}

// ---------------------------------------------------------------------
// 456.hmmer -- Viterbi dynamic-programming inner loop: L1-resident DP
// rows plus a streaming L2 score array; branchless max() chains on
// random data. Very high ILP (iterations independent), essentially no
// value predictability, one predictable back edge.
// ---------------------------------------------------------------------
Workload
makeHmmer()
{
    // DP rows interleaved per cell: {M, I, D, pad} x 32 B, 512 cells
    // (16 KB, L1-resident). Unrolled 3x so the index bookkeeping is a
    // small fraction of the (unpredictable) score arithmetic.
    constexpr Addr rowBase = 0x0;
    constexpr std::int64_t rowByteMask = 0x3fff;   // 16 KB
    constexpr Addr tscBase = 0x4200;               // 2 MB scores
    constexpr std::int64_t tscByteMask = 0x1ffff0;

    Assembler a;
    const IntReg jb = 1, ra = 2, m = 3, ii = 4, dd = 5, t1 = 6, t2 = 7;
    const IntReg va = 8, vb = 9, vc = 10, d = 11, s = 12, u = 13, mx = 14;
    const IntReg k1 = 15, ta = 16;
    const IntReg rb = 20, tb = 21;

    Label top = a.newLabel();

    // Branchless mx = max(va, vb): d = va-vb; s = d>>63; mx = va - (d&s).
    auto emit_max = [&](IntReg out, IntReg x, IntReg y) {
        a.sub(d, x, y);
        a.sari(s, d, 63);
        a.and_(u, d, s);
        a.sub(out, x, u);
    };

    a.bind(top);
    a.addi(jb, jb, 96);
    a.andi(jb, jb, rowByteMask);
    a.add(ra, rb, jb);
    a.addi(k1, k1, 48);
    a.andi(k1, k1, tscByteMask);
    a.add(ta, tb, k1);
    for (int k = 0; k < 3; ++k) {
        const std::int64_t row = k * 32;
        const std::int64_t tsc = k * 16;
        // DP cell loads (L1 resident) + streaming scores (through L2).
        a.ld(m, ra, row);
        a.ld(ii, ra, row + 8);
        a.ld(dd, ra, row + 16);
        a.ld(t1, ta, tsc);
        a.ld(t2, ta, tsc + 8);
        // Match-state candidates and max reduction.
        a.add(va, m, t1);
        a.add(vb, ii, t2);
        a.add(vc, dd, t1);
        emit_max(mx, va, vb);
        emit_max(mx, mx, vc);
        a.st(mx, ra, row);
        // Insert-state update reusing the loaded values.
        a.add(va, m, t2);
        a.add(vb, ii, t1);
        emit_max(mx, va, vb);
        a.st(mx, ra, row + 8);
    }
    a.jmp(top);

    Workload w;
    w.name = "456.hmmer";
    w.isFp = false;
    w.memBytes = 0x210000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomWords(vm, rowBase, (rowByteMask + 1 + 96) / 8, 10000,
                        0x4561);
        fillRandomWords(vm, tscBase, (tscByteMask + 64) / 8, 10000,
                        0x4564);
        vm.setIntReg(rb.idx, rowBase);
        vm.setIntReg(tb.idx, tscBase);
    };
    return w;
}

// ---------------------------------------------------------------------
// 458.sjeng -- game-tree search mix: bitboard move generation (immediate
// ALU chains), a transposition-table probe, evaluation branches of mixed
// predictability, a periodic helper call.
// ---------------------------------------------------------------------
Workload
makeSjeng()
{
    constexpr Addr ttBase = 0x0;           // 16K-entry TT (128 KB)
    constexpr std::int64_t ttMask = 0x3fff;

    Assembler a;
    const IntReg bb = 1, mv = 2, mv2 = 3, seed = 4, hkey = 5, hidx = 6;
    const IntReg e = 7, t = 8, cnt = 9, score = 10, k = 11;
    const IntReg tbase = 20, lcgMul = 21, c11 = 22;

    Label top = a.newLabel();
    Label tt_hit = a.newLabel();
    Label tt_done = a.newLabel();
    Label eval_lo = a.newLabel();
    Label eval_done = a.newLabel();
    Label skip_call = a.newLabel();
    Label helper = a.newLabel();

    a.bind(top);
    // Move generation: immediate-ALU cascade on the bitboard.
    a.shli(mv, bb, 7);
    a.andi(mv, mv, 0x7f7f7f7f);
    a.shri(mv2, bb, 9);
    a.andi(mv2, mv2, 0x3f3f3f3f);
    a.or_(bb, mv, mv2);
    // Mix in LCG randomness so the board does not cycle.
    a.mul(seed, seed, lcgMul);
    a.addi(seed, seed, 12345);
    a.shri(t, seed, 40);
    a.xor_(bb, bb, t);
    // Transposition-table probe.
    a.xor_(hkey, bb, seed);
    a.andi(hidx, hkey, ttMask);
    a.shli(t, hidx, 3);
    a.add(t, t, tbase);
    a.ld(e, t, 0);
    a.beq(e, hkey, tt_hit);
    a.st(hkey, t, 0);
    a.jmp(tt_done);
    a.bind(tt_hit);
    a.addi(score, score, 50);
    a.bind(tt_done);
    // Evaluation branch: ~34% taken on uniform 5-bit values.
    a.andi(t, bb, 31);
    a.blt(t, c11, eval_lo);
    a.addi(score, score, 1);
    a.jmp(eval_done);
    a.bind(eval_lo);
    a.addi(score, score, 2);
    a.bind(eval_done);
    // Every 4th iteration: helper call.
    a.addi(k, k, 1);
    a.andi(t, k, 3);
    a.bne(t, IntReg(0), skip_call);
    a.call(helper);
    a.bind(skip_call);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    a.bind(helper);
    a.shri(t, score, 2);
    a.add(score, score, t);
    a.andi(score, score, 0xffffff);
    a.ret();

    Workload w;
    w.name = "458.sjeng";
    w.isFp = false;
    w.memBytes = 0x20800;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomWords(vm, ttBase, 0x4000, ~0ULL, 0x4581);
        vm.setIntReg(bb.idx, 0x0f0f00ff00f0f0f0ULL);
        vm.setIntReg(seed.idx, 0x853c49e6748fea9bULL);
        vm.setIntReg(tbase.idx, ttBase);
        vm.setIntReg(lcgMul.idx, 6364136223846793005LL);
        vm.setIntReg(c11.idx, 11);
    };
    return w;
}

// ---------------------------------------------------------------------
// 464.h264ref -- sum-of-absolute-differences motion search: a constant
// 16-byte current block (perfectly value-predictable loads) against a
// piecewise-constant reference window (runs of 32 equal bytes, so
// last-value/stride prediction covers ~97% of reference loads). The
// SAD chains become Early-Executable once their operands are predicted.
// ---------------------------------------------------------------------
Workload
makeH264ref()
{
    constexpr Addr curBase = 0x0;          // 16-byte current block
    constexpr Addr refBase = 0x40;         // 1 MB reference window
    constexpr std::int64_t refMask = 0xfffff;

    Assembler a;
    const IntReg pos = 1, rp = 2, sad = 3, best = 4, cnt = 5;
    const IntReg c0 = 6, r0 = 7, dv = 8, sm = 9, ab = 10, step = 11;
    const IntReg cb = 20, rb = 21;

    Label top = a.newLabel();
    Label no_update = a.newLabel();

    a.bind(top);
    a.add(rp, rb, pos);
    a.movi(sad, 0);
    for (int kpix = 0; kpix < 4; ++kpix) {
        a.ld(c0, cb, kpix, 1);       // constant block: value-predictable
        a.ld(r0, rp, kpix, 1);       // piecewise-constant reference
        a.sub(dv, c0, r0);
        a.sari(sm, dv, 63);
        a.xor_(ab, dv, sm);
        a.sub(ab, ab, sm);
        a.add(sad, sad, ab);
    }
    // Best-SAD update: rarely taken.
    a.bge(sad, best, no_update);
    a.addi(best, sad, 0);
    a.bind(no_update);
    // Search step depends on the last pixel's sign mask: the scan
    // position chains through part of the SAD computation (serial
    // without VP; within a flat reference run the mask -- and hence
    // the stride -- is constant, so value prediction breaks the
    // recurrence: the paper's h264 win, throttled to a mild factor).
    a.andi(step, sm, 1);
    a.addi(step, step, 1);
    a.add(pos, pos, step);
    a.andi(pos, pos, refMask);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    Workload w;
    w.name = "464.h264ref";
    w.isFp = false;
    w.memBytes = 0x100100;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        Rng rng(0x4641);
        std::uint8_t *cur_blk = vm.memSpan(curBase, 16);
        for (int n = 0; n < 16; ++n)
            cur_blk[n] = static_cast<std::uint8_t>(100 + rng.below(56));
        // Reference: runs of 2048 identical bytes (flat background
        // regions), long enough for FPC confidence to saturate on the
        // reference loads and rare enough that run-boundary squashes
        // stay cheap.
        std::uint8_t cur = 128;
        std::uint8_t *ref = vm.memSpan(refBase, refMask + 5);
        for (std::size_t n = 0; n <= refMask + 4; ++n) {
            if (n % 2048 == 0)
                cur = static_cast<std::uint8_t>(96 + rng.below(64));
            ref[n] = cur;
        }
        vm.setIntReg(cb.idx, curBase);
        vm.setIntReg(rb.idx, refBase);
        vm.setIntReg(best.idx, 1);     // keeps the update branch rare
    };
    return w;
}

} // namespace workloads
} // namespace eole
