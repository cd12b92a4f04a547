/**
 * @file
 * Floating-point (SPEC FP analog) workload kernels:
 * wupwise, applu, art, gamess, milc, namd, lbm.
 */

#include "workloads/workload.hh"

#include "common/random.hh"
#include "isa/assembler.hh"
#include "isa/functional.hh"
#include "workloads/workload_util.hh"

namespace eole {
namespace workloads {

// ---------------------------------------------------------------------
// 168.wupwise -- lattice update walking a mostly-strided index chain:
// the next site index is *loaded* through the current one (a serial
// load-to-load recurrence), but the chain values are strided except
// for an occasional irregular hop. Value-predicting the index load
// therefore breaks the recurrence -- the paper's prime VP win -- while
// the hop rate throttles the attainable coverage.
// ---------------------------------------------------------------------
Workload
makeWupwise()
{
    constexpr Addr idxBase = 0x0;          // 64K-entry index chain
    constexpr std::int64_t idxEntries = 0x10000;
    constexpr Addr xBase = 0x100000;       // 1 MB of doubles
    constexpr Addr yBase = 0x200000;
    constexpr Addr zBase = 0x300000;
    constexpr std::int64_t xMask = 0xffff8;
    constexpr std::int64_t chainBytes = idxEntries * 8;

    Assembler a;
    const IntReg jb = 1, ja = 2, xa = 3, ya = 4, za = 5, t = 6;
    const IntReg ibase = 20, xb = 21, yb = 22, zb = 23;
    const FpReg x = 1, y = 2, fz = 3, alpha = 10;

    Label top = a.newLabel();

    a.bind(top);
    // Serial recurrence: jb = I[jb] (byte offset into the chain).
    a.add(ja, ibase, jb);
    a.ld(jb, ja, 0);             // strided values: VP breaks the chain
    // Site update off the loaded index.
    a.andi(t, jb, xMask);
    a.add(xa, xb, t);
    a.lfd(x, xa, 0);
    a.add(ya, yb, t);
    a.lfd(y, ya, 0);
    a.fmul(fz, x, alpha);
    a.fadd(fz, fz, y);
    a.add(za, zb, t);
    a.sfd(fz, za, 0);
    a.jmp(top);

    Workload w;
    w.name = "168.wupwise";
    w.isFp = true;
    w.memBytes = 0x400000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        // Chain of byte offsets: I[k] -> (k+1)*8, except an irregular
        // hop roughly every 400 entries (keeps long-run stride-
        // predictability around 99.75%).
        Rng rng(0x1680);
        std::uint8_t *idx = vm.memSpan(idxBase, idxEntries * 8);
        for (std::int64_t n = 0; n < idxEntries; ++n) {
            std::int64_t next = ((n + 1) * 8) % chainBytes;
            if (rng.chance(1.0 / 400))
                next = static_cast<std::int64_t>(
                    rng.below(idxEntries)) * 8;
            storeWord(idx + n * 8, static_cast<RegVal>(next));
        }
        fillRandomDoubles(vm, xBase, 0x20000, 0.0, 2.0, 0x1681);
        fillRandomDoubles(vm, yBase, 0x20000, -1.0, 1.0, 0x1682);
        vm.setIntReg(ibase.idx, idxBase);
        vm.setIntReg(xb.idx, xBase);
        vm.setIntReg(yb.idx, yBase);
        vm.setIntReg(zb.idx, zBase);
        vm.setFpReg(alpha.idx, fromDouble(1.00000025));
    };
    return w;
}

// ---------------------------------------------------------------------
// 173.applu -- 5-point stencil sweep: five neighbouring loads, a small
// multiply-add tree, strided store. High FP ILP (issue-width
// sensitive); index arithmetic is stride-predictable.
// ---------------------------------------------------------------------
Workload
makeApplu()
{
    constexpr Addr gridBase = 0x0;         // 512 KB grid + halo pad
    constexpr Addr outBase = 0x120000;
    constexpr std::int64_t iMask = 0xffff; // 64K interior points
    constexpr std::int64_t rowBytes = 0x1000;

    Assembler a;
    const IntReg i = 1, addr = 2, oaddr = 3, cnt = 4;
    const IntReg gb = 20, ob = 21;
    const FpReg va = 1, vb = 2, vc = 3, vd = 4, ve = 5;
    const FpReg r1 = 6, r2 = 7, r3 = 8, s1 = 9, s2 = 10, s3 = 11;
    const FpReg w1 = 12, w2 = 13, w3 = 14;

    Label top = a.newLabel();

    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, iMask);
    a.shli(addr, i, 3);
    a.add(addr, addr, gb);
    a.lfd(va, addr, 0);
    a.lfd(vb, addr, 8);
    a.lfd(vc, addr, 16);
    a.lfd(vd, addr, rowBytes);
    a.lfd(ve, addr, rowBytes * 2);
    a.fmul(r1, va, w1);
    a.fmul(r2, vc, w2);
    a.fmul(r3, ve, w3);
    a.fadd(s1, r1, vb);
    a.fadd(s2, r2, vd);
    a.fadd(s3, s1, s2);
    a.fadd(s3, s3, r3);
    a.shli(oaddr, i, 3);
    a.add(oaddr, oaddr, ob);
    a.sfd(s3, oaddr, 0);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    Workload w;
    w.name = "173.applu";
    w.isFp = true;
    w.memBytes = 0x240000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomDoubles(vm, gridBase, 0x20000 + 0x2000, 0.0, 4.0, 0x1731);
        vm.setIntReg(gb.idx, gridBase);
        vm.setIntReg(ob.idx, outBase);
        vm.setFpReg(w1.idx, fromDouble(0.25));
        vm.setFpReg(w2.idx, fromDouble(0.5));
        vm.setFpReg(w3.idx, fromDouble(0.125));
    };
    return w;
}

// ---------------------------------------------------------------------
// 179.art -- neural-network F1 match: weights are heavily quantized
// (85% of loads return the same bit pattern -> near-perfect value
// prediction), small counter arrays cycle with period 16 (VTAGE
// territory), plus index bookkeeping. Very high EOLE offload.
// ---------------------------------------------------------------------
Workload
makeArt()
{
    constexpr Addr wBase = 0x0;            // 64K weights (512 KB)
    constexpr Addr xBase = 0x80000;        // 64K inputs (512 KB)
    constexpr std::int64_t jMask = 0xffff;
    constexpr Addr cBase = 0x100000;       // 16 bucket counters

    Assembler a;
    const IntReg j = 1, wa = 2, xa = 3, bidx = 4, baddr = 5, c = 6, c2 = 7;
    const IntReg f1 = 8, f2 = 9, f3 = 10, cnt = 11, t = 12, f4 = 13;
    const IntReg f5 = 14;
    const IntReg wb = 20, xb = 21, cb = 22;
    const FpReg fw = 1, fx = 2, fp = 3, facc = 4;

    Label top = a.newLabel();

    a.bind(top);
    a.addi(j, j, 1);
    a.andi(j, j, jMask);
    a.shli(wa, j, 3);
    a.add(wa, wa, wb);
    a.lfd(fw, wa, 0);            // 85% constant value: predictable
    a.shli(xa, j, 3);
    a.add(xa, xa, xb);
    a.lfd(fx, xa, 0);
    a.fmul(fp, fw, fx);
    a.fadd(facc, facc, fp);
    // Bucket counter: 16 interleaved +1 streams (period-16 pattern).
    a.andi(bidx, j, 15);
    a.shli(baddr, bidx, 3);
    a.add(baddr, baddr, cb);
    a.ld(c, baddr, 0);
    a.addi(c2, c, 1);
    a.st(c2, baddr, 0);
    // Index bookkeeping: predictable single-cycle ALU chains.
    a.addi(f1, f1, 2);
    a.andi(f1, f1, 0xfffff);
    a.addi(f2, f1, 5);
    a.xori(f3, f2, 0x3c);
    a.shri(t, f3, 2);
    a.add(cnt, cnt, t);
    a.addi(f4, f4, 3);
    a.ori(f5, f4, 0x10);
    a.jmp(top);

    Workload w;
    w.name = "179.art";
    w.isFp = true;
    w.memBytes = 0x100080;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        Rng rng(0x1791);
        const RegVal onePattern = fromDouble(1.0);
        std::uint8_t *wt = vm.memSpan(wBase, (jMask + 1) * 8);
        for (std::int64_t n = 0; n <= jMask; ++n) {
            const RegVal v = rng.chance(0.85)
                ? onePattern
                : fromDouble(rng.uniform() * 2.0);
            storeWord(wt + n * 8, v);
        }
        fillRandomDoubles(vm, xBase, jMask + 1, 0.0, 1.0, 0x1792);
        vm.setIntReg(wb.idx, wBase);
        vm.setIntReg(xb.idx, xBase);
        vm.setIntReg(cb.idx, cBase);
    };
    return w;
}

// ---------------------------------------------------------------------
// 416.gamess -- dense dot products, unrolled 4x with independent
// accumulators: very high FP ILP, predictable index arithmetic
// (Early-Execution sensitive, like crafty).
// ---------------------------------------------------------------------
Workload
makeGamess()
{
    constexpr Addr xBase = 0x0;            // 2 MB each
    constexpr Addr yBase = 0x200000;
    constexpr std::int64_t iMask = 0xffff; // 64K groups of 4 doubles

    Assembler a;
    const IntReg i = 1, bx = 2, by = 3, cnt = 4;
    const IntReg xb = 20, yb = 21;
    const FpReg a0 = 1, a1 = 2, a2 = 3, a3 = 4;
    const FpReg b0 = 5, b1 = 6, b2 = 7, b3 = 8;
    const FpReg p0 = 9, p1 = 10, p2 = 11, p3 = 12;
    const FpReg s0 = 13, s1 = 14, s2 = 15, s3 = 16;

    Label top = a.newLabel();

    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, iMask);
    a.shli(bx, i, 5);            // 4 doubles per group
    a.add(bx, bx, xb);
    a.shli(by, i, 5);
    a.add(by, by, yb);
    a.lfd(a0, bx, 0);
    a.lfd(a1, bx, 8);
    a.lfd(a2, bx, 16);
    a.lfd(a3, bx, 24);
    a.lfd(b0, by, 0);
    a.lfd(b1, by, 8);
    a.lfd(b2, by, 16);
    a.lfd(b3, by, 24);
    a.fmul(p0, a0, b0);
    a.fmul(p1, a1, b1);
    a.fmul(p2, a2, b2);
    a.fmul(p3, a3, b3);
    a.fadd(s0, s0, p0);
    a.fadd(s1, s1, p1);
    a.fadd(s2, s2, p2);
    a.fadd(s3, s3, p3);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    Workload w;
    w.name = "416.gamess";
    w.isFp = true;
    w.memBytes = 0x400000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomDoubles(vm, xBase, 0x40000, -1.0, 1.0, 0x4161);
        fillRandomDoubles(vm, yBase, 0x40000, -1.0, 1.0, 0x4162);
        vm.setIntReg(xb.idx, xBase);
        vm.setIntReg(yb.idx, yBase);
    };
    return w;
}

// ---------------------------------------------------------------------
// 433.milc -- streaming SU(3)-like arithmetic over 8 MB arrays: memory
// bandwidth bound, random FP data (no value predictability), almost no
// integer work -> minimal EOLE offload (paper: < 10%).
// ---------------------------------------------------------------------
Workload
makeMilc()
{
    constexpr Addr aBase = 0x0;            // 8 MB
    constexpr Addr bBase = 0x800000;       // 8 MB
    constexpr Addr cBase = 0x1000000;      // 8 MB
    // Byte-offset index over 4-complex groups (64 B per group); the
    // loop is unrolled 4x so index arithmetic stays a small fraction
    // of the work, as in the real (heavily unrolled) SU(3) routines.
    constexpr std::int64_t iMask = 0x7fffc0;

    Assembler a;
    const IntReg i = 1, pa = 2, pb = 3, pc = 4;
    const IntReg ab = 20, bb = 21, cb = 22;
    const FpReg ar = 1, ai = 2, br = 3, bi = 4;
    const FpReg t1 = 5, t2 = 6, t3 = 7, t4 = 8, cr = 9, ci = 10;

    Label top = a.newLabel();

    a.bind(top);
    a.addi(i, i, 64);
    a.andi(i, i, iMask);
    a.add(pa, ab, i);
    a.add(pb, bb, i);
    a.add(pc, cb, i);
    for (int k = 0; k < 4; ++k) {
        const std::int64_t off = k * 16;
        // Complex multiply: (ar+i*ai) * (br+i*bi).
        a.lfd(ar, pa, off);
        a.lfd(ai, pa, off + 8);
        a.lfd(br, pb, off);
        a.lfd(bi, pb, off + 8);
        a.fmul(t1, ar, br);
        a.fmul(t2, ai, bi);
        a.fmul(t3, ar, bi);
        a.fmul(t4, ai, br);
        a.fsub(cr, t1, t2);
        a.fadd(ci, t3, t4);
        a.sfd(cr, pc, off);
        a.sfd(ci, pc, off + 8);
    }
    a.jmp(top);

    Workload w;
    w.name = "433.milc";
    w.isFp = true;
    w.memBytes = 0x1800000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomDoubles(vm, aBase, 0x100000, -1.0, 1.0, 0x4331);
        fillRandomDoubles(vm, bBase, 0x100000, -1.0, 1.0, 0x4332);
        vm.setIntReg(ab.idx, aBase);
        vm.setIntReg(bb.idx, bBase);
        vm.setIntReg(cb.idx, cBase);
    };
    return w;
}

// ---------------------------------------------------------------------
// 444.namd -- pairwise force loop: a strided pairlist (value-predictable
// index load), a short FP distance computation, and a wide block of
// independent, predictable integer bookkeeping chains. The paper's
// highest EOLE offload (~60%) and the benchmark that wants more issue
// width.
// ---------------------------------------------------------------------
Workload
makeNamd()
{
    constexpr Addr plBase = 0x0;           // 64K-entry pairlist (512 KB)
    constexpr std::int64_t iMask = 0xffff;
    constexpr Addr xBase = 0x100000;       // 4 MB coordinates
    constexpr std::int64_t xMask = 0x3ffff0;

    Assembler a;
    const IntReg i = 1, pla = 2, jj = 3, xa = 4, t = 5;
    const IntReg c1 = 6, c2 = 7, c3 = 8, c4 = 9, c5 = 10;
    const IntReg e1 = 11, e2 = 12, e3 = 13, h1 = 14, h2 = 15, cnt = 16;
    const IntReg c6 = 17, h3 = 18;
    const IntReg plb = 20, xb = 21, c60 = 22;
    const FpReg fx = 1, fy = 2, fd = 3, ff = 4, facc = 5;

    Label top = a.newLabel();
    Label skip = a.newLabel();

    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, iMask);
    a.shli(pla, i, 3);
    a.add(pla, pla, plb);
    a.ld(jj, pla, 0);            // pairlist: stride-16 values
    a.add(xa, xb, jj);
    a.lfd(fx, xa, 0);
    a.lfd(fy, xa, 8);
    a.fsub(fd, fx, fy);
    a.fmul(ff, fd, fd);
    a.fadd(facc, facc, ff);
    // Wide, independent, predictable integer bookkeeping.
    a.addi(c1, c1, 2);
    a.addi(c2, c1, 5);           // same-group consumer of predicted c1
    a.andi(e1, c2, 0xffff);
    a.ori(e2, e1, 3);
    a.xor_(e3, e2, c1);
    a.addi(c3, c3, 1);
    a.xori(c4, c4, 0x55);
    a.addi(c5, c5, 4);
    a.addi(c6, c6, 8);
    a.shli(h1, c3, 2);
    a.add(h2, h1, c4);
    a.ori(h3, h2, 1);
    a.add(cnt, cnt, h3);
    // Cutoff test: ~94% taken (jj & 63 < 60).
    a.andi(t, jj, 63);
    a.blt(t, c60, skip);
    a.addi(cnt, cnt, 7);
    a.bind(skip);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    Workload w;
    w.name = "444.namd";
    w.isFp = true;
    w.memBytes = 0x500000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        // Pairlist: stride-16 byte offsets wrapping inside the coords.
        std::uint8_t *pl = vm.memSpan(plBase, (iMask + 1) * 8);
        for (std::int64_t n = 0; n <= iMask; ++n)
            storeWord(pl + n * 8, (n * 16) & xMask);
        fillRandomDoubles(vm, xBase, 0x80000, -10.0, 10.0, 0x4441);
        vm.setIntReg(plb.idx, plBase);
        vm.setIntReg(xb.idx, xBase);
        vm.setIntReg(c60.idx, 60);
    };
    return w;
}

// ---------------------------------------------------------------------
// 470.lbm -- lattice-Boltzmann streaming: six concurrent read streams
// and two write streams over 16 MB, a short FP collision kernel,
// nothing predictable. Memory bandwidth bound, minimal offload.
// ---------------------------------------------------------------------
Workload
makeLbm()
{
    constexpr Addr aBase = 0x0;            // 8 MB source grid
    constexpr Addr bBase = 0x800000;       // 8 MB destination grid
    constexpr std::int64_t iMask = 0xfffff8;  // byte offset within 1 MB
    constexpr std::int64_t streamOff = 0x100000;

    Assembler a;
    const IntReg i = 1, p0 = 2, p1 = 3;
    const IntReg ab = 20, bb = 21;
    const FpReg d0 = 1, d1 = 2, d2 = 3, d3 = 4, d4 = 5, d5 = 6;
    const FpReg s0 = 7, s1 = 8, s2 = 9, m0 = 10, m1 = 11;
    const FpReg omega = 12;

    Label top = a.newLabel();

    // Unrolled 4x (32 B per iteration) so the site-index bookkeeping is
    // a tiny fraction of the streamed FP work, as in the real code.
    a.bind(top);
    a.addi(i, i, 32);
    a.andi(i, i, 0xfffe0);       // 1 MB per stream lane
    a.add(p0, ab, i);
    a.add(p1, bb, i);
    for (int k = 0; k < 4; ++k) {
        const std::int64_t off = k * 8;
        a.lfd(d0, p0, off);
        a.lfd(d1, p0, streamOff + off);
        a.lfd(d2, p0, streamOff * 2 + off);
        a.lfd(d3, p0, streamOff * 3 + off);
        a.lfd(d4, p0, streamOff * 4 + off);
        a.lfd(d5, p0, streamOff * 5 + off);
        a.fadd(s0, d0, d1);
        a.fadd(s1, d2, d3);
        a.fadd(s2, d4, d5);
        a.fadd(s0, s0, s1);
        a.fadd(s0, s0, s2);
        a.fmul(m0, s0, omega);
        a.fsub(m1, d0, m0);
        a.sfd(m0, p1, off);
        a.sfd(m1, p1, streamOff + off);
    }
    a.jmp(top);

    Workload w;
    w.name = "470.lbm";
    w.isFp = true;
    w.memBytes = 0x1000000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        (void)iMask;
        fillRandomDoubles(vm, aBase, 0x100000, 0.0, 1.0, 0x4701);
        vm.setIntReg(ab.idx, aBase);
        vm.setIntReg(bb.idx, bBase);
        vm.setFpReg(omega.idx, fromDouble(1.0 / 6.0));
    };
    return w;
}

} // namespace workloads
} // namespace eole
