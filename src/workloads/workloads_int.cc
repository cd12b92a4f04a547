/**
 * @file
 * Integer (SPEC INT analog) workload kernels, part 1:
 * gzip, vpr, crafty, parser, vortex, bzip2.
 *
 * Each kernel reproduces the microarchitectural traits the paper's
 * evaluation exposes for the corresponding benchmark (value
 * predictability, branch behaviour, footprint, ILP). Every kernel is an
 * infinite loop; the trace source stops it after the requested µ-op
 * budget. Registers r20..r30 hold loop-invariant bases/constants set up
 * by the init hook; r1..r19 are kernel-local temporaries.
 */

#include "workloads/workload.hh"

#include "common/random.hh"
#include "isa/assembler.hh"
#include "workloads/workload_util.hh"

namespace eole {
namespace workloads {

// ---------------------------------------------------------------------
// 164.gzip -- LZ77-style hashing: rolling hash over a byte window, hash
// table probe + update, data-dependent match check. Moderate branch
// predictability; pos/index chains are stride-predictable.
// ---------------------------------------------------------------------
Workload
makeGzip()
{
    constexpr Addr winBase = 0x0;          // 256 KB byte window
    constexpr std::int64_t winMask = 0x3ffff;
    constexpr Addr hashBase = 0x100000;    // 64K-entry hash table
    constexpr std::int64_t hashMask = 0xffff;

    Assembler a;
    const IntReg pos = 1, b0 = 2, b1 = 3, b2 = 4, h = 5, t1 = 6, t2 = 7;
    const IntReg haddr = 8, cand = 9, diff = 10, cnt = 11, m0 = 12, m1 = 13;
    const IntReg wbase = 20, hbase = 21;

    Label top = a.newLabel();
    Label no_match = a.newLabel();

    a.bind(top);
    // pos = (pos + 1) & winMask : stride-predictable self-recurrence.
    a.addi(pos, pos, 1);
    a.andi(pos, pos, winMask);
    a.add(t1, wbase, pos);
    a.ld(b0, t1, 0, 1);
    a.ld(b1, t1, 1, 1);
    a.ld(b2, t1, 2, 1);
    // Rolling hash from the three window bytes.
    a.shli(h, b0, 10);
    a.shli(t2, b1, 5);
    a.xor_(h, h, t2);
    a.xor_(h, h, b2);
    a.andi(h, h, hashMask);
    // Probe and update the hash chain head.
    a.shli(haddr, h, 3);
    a.add(haddr, haddr, hbase);
    a.ld(cand, haddr, 0);
    a.st(pos, haddr, 0);
    // Data-dependent match test (candidate distance alignment).
    a.sub(diff, pos, cand);
    a.andi(t1, diff, 7);
    a.bne(t1, IntReg(0), no_match);
    // "Match": compare two window dwords (taken ~1/8 of the time).
    a.andi(t2, cand, winMask);
    a.add(t2, wbase, t2);
    a.ld(m0, t2, 0, 4);
    a.add(t1, wbase, pos);
    a.ld(m1, t1, 0, 4);
    a.xor_(m0, m0, m1);
    a.add(cnt, cnt, m0);
    a.bind(no_match);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    Workload w;
    w.name = "164.gzip";
    w.isFp = false;
    w.memBytes = 0x180000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomBytes(vm, winBase, 0x40000 + 8, 0x6421);
        fillRandomWords(vm, hashBase, 0x10000, 0x40000, 0x6422);
        vm.setIntReg(wbase.idx, winBase);
        vm.setIntReg(hbase.idx, hashBase);
    };
    return w;
}

// ---------------------------------------------------------------------
// 175.vpr -- placement cost evaluation: paired array loads, absolute
// difference chains, threshold branch (~80% one way), occasional
// scaled-index store. Exercises the IntMul pipes.
// ---------------------------------------------------------------------
Workload
makeVpr()
{
    constexpr Addr aBase = 0x0;            // 512 KB of 64-bit values
    constexpr Addr bBase = 0x80000;
    constexpr std::int64_t mask = 0xffff;  // 64K entries

    Assembler a;
    const IntReg i = 1, av = 2, bv = 3, d = 4, m = 5, absd = 6, cost = 7;
    const IntReg i2 = 8, t = 9, u = 10;
    const IntReg abase = 20, bbase = 21, thresh = 22, five = 23;

    Label top = a.newLabel();
    Label cheap = a.newLabel();

    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, mask);
    a.shli(t, i, 3);
    a.add(t, t, abase);
    a.ld(av, t, 0);
    a.shli(u, i, 3);
    a.add(u, u, bbase);
    a.ld(bv, u, 0);
    // abs(av - bv) without branches.
    a.sub(d, av, bv);
    a.sari(m, d, 63);
    a.xor_(absd, d, m);
    a.sub(absd, absd, m);
    a.add(cost, cost, absd);
    // Threshold branch: data dependent, skewed by the init distribution.
    a.blt(absd, thresh, cheap);
    // Expensive path: store through a multiplied index.
    a.mul(i2, i, five);
    a.addi(i2, i2, 1);
    a.andi(i2, i2, mask);
    a.shli(t, i2, 3);
    a.add(t, t, abase);
    a.st(cost, t, 0);
    a.bind(cheap);
    a.addi(cost, cost, 3);
    a.jmp(top);

    Workload w;
    w.name = "175.vpr";
    w.isFp = false;
    w.memBytes = 0x100000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomWords(vm, aBase, 0x10000, 1000, 0x7511);
        fillRandomWords(vm, bBase, 0x10000, 1000, 0x7512);
        vm.setIntReg(abase.idx, aBase);
        vm.setIntReg(bbase.idx, bBase);
        // ~73% of |av-bv| falls below 450 for two uniform [0,1000) draws.
        vm.setIntReg(thresh.idx, 450);
        vm.setIntReg(five.idx, 5);
    };
    return w;
}

// ---------------------------------------------------------------------
// 186.crafty -- bitboard manipulation: long chains of immediate-operand
// single-cycle ALU ops (Early-Execution heaven), an unrolled popcount,
// a multiply-based hash probe into a small table, highly predictable
// branches.
// ---------------------------------------------------------------------
Workload
makeCrafty()
{
    constexpr Addr tblBase = 0x0;          // 2K-entry hash table (16 KB)
    constexpr std::int64_t tblMask = 0x7ff;
    constexpr Addr atkBase = 0x4000;       // 1.5K-entry attack table
    constexpr std::int64_t atkMask = 0x2ff8;

    Assembler a;
    const IntReg occ = 1, t = 2, u = 3, mv = 4, v = 5, cnt = 7;
    const IntReg hash = 8, idx = 9, probe = 10, haddr = 11;
    const IntReg atk = 12, aaddr = 13, blockers = 14, w1 = 15;
    const IntReg sq = 16, q1 = 17, q2 = 18, q3 = 19, material = 6;
    const IntReg tbase = 20, hmul = 21, abase = 22;

    Label top = a.newLabel();
    Label rare = a.newLabel();
    Label cont = a.newLabel();
    Label no_block = a.newLabel();

    a.bind(top);
    // Square-index mask computation: a stride-predictable counter
    // seeding an immediate-ALU cascade (the Early-Execution content
    // crafty is known for; Fig 13 shows crafty is EE-sensitive).
    a.addi(sq, sq, 1);
    a.andi(sq, sq, 63);
    a.shli(q1, sq, 3);
    a.xori(q2, q1, 0x155);
    a.andi(q3, q2, 0xff0);
    a.or_(q1, q3, q2);
    a.xori(t, q3, 0xa5);
    a.shli(u, t, 1);
    a.or_(q2, u, q3);
    // Rotate-left-by-one of the occupancy board.
    a.shli(t, occ, 1);
    a.shri(u, occ, 63);
    a.or_(occ, t, u);
    // Attack-table lookup (L1 resident, data-dependent values).
    a.andi(aaddr, occ, atkMask);
    a.add(aaddr, aaddr, abase);
    a.ld(atk, aaddr, 0);
    // Move mask: an in-group cascade of immediate ALU ops.
    a.xori(mv, occ, 0x5555);
    a.shri(t, occ, 8);
    a.andi(t, t, 0x7fff);
    a.or_(mv, mv, t);
    a.shli(u, mv, 3);
    a.xor_(mv, mv, u);
    a.andi(mv, mv, 0xffffff);
    // Blocker test on low attack bits: taken ~7/8, data dependent.
    a.andi(blockers, atk, 7);
    a.bne(blockers, IntReg(0), no_block);
    a.ld(w1, aaddr, 8);
    a.add(material, material, w1);  // separate, data-dependent lane
    a.bind(no_block);
    // Unrolled popcount steps: v &= v - 1.
    a.mov(v, mv);
    for (int k = 0; k < 3; ++k) {
        a.addi(t, v, -1);
        a.and_(v, v, t);
        a.addi(cnt, cnt, 1);
    }
    // Zobrist-ish hash probe.
    a.mul(hash, occ, hmul);
    a.shri(idx, hash, 48);
    a.andi(idx, idx, tblMask);
    a.shli(haddr, idx, 3);
    a.add(haddr, haddr, tbase);
    a.ld(probe, haddr, 0);
    a.beq(probe, occ, rare);
    a.st(occ, haddr, 0);
    a.bind(cont);
    // Zobrist-style evolution: the probed entry perturbs the board,
    // serializing successive iterations through the table load.
    a.xor_(occ, occ, probe);
    a.addi(cnt, cnt, 2);
    a.jmp(top);
    // Hash hit: essentially never taken.
    a.bind(rare);
    a.addi(cnt, cnt, 100);
    a.jmp(cont);

    Workload w;
    w.name = "186.crafty";
    w.isFp = false;
    w.memBytes = 0x8000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        fillRandomWords(vm, tblBase, 0x800, ~0ULL, 0x8611);
        fillRandomWords(vm, atkBase, 0x602, ~0ULL, 0x8612);
        vm.setIntReg(occ.idx, 0x123456789abcdef1ULL);
        vm.setIntReg(tbase.idx, tblBase);
        vm.setIntReg(hmul.idx, 0x9e3779b97f4a7c15ULL);
        vm.setIntReg(abase.idx, atkBase);
    };
    return w;
}

// ---------------------------------------------------------------------
// 197.parser -- linked-list chasing through an L2-resident node pool
// with data-dependent branches and a periodic helper call. Low IPC,
// chain bound, hard-to-predict values.
// ---------------------------------------------------------------------
Workload
makeParser()
{
    constexpr Addr nodeBase = 0x0;         // 8K nodes x 64 B = 512 KB
    constexpr std::size_t nodeCount = 0x2000;
    constexpr Addr dictBase = 0x80000;     // 64 KB dictionary
    constexpr std::int64_t dictMask = 0xfff8;

    Assembler a;
    const IntReg p = 1, v = 2, t = 3, c1 = 4, c2 = 5, acc = 6, k = 7;
    const IntReg dv = 8;
    const IntReg dbase = 20, c5 = 21;

    Label top = a.newLabel();
    Label odd = a.newLabel();
    Label merge = a.newLabel();
    Label skip_call = a.newLabel();
    Label func = a.newLabel();

    a.bind(top);
    // Pointer chase: p holds an absolute node address.
    a.ld(p, p, 0);
    a.ld(v, p, 8);
    a.andi(t, v, 15);
    a.blt(t, c5, odd);          // ~31% taken on uniform nibbles
    a.addi(c1, c1, 1);
    a.add(acc, acc, v);
    a.jmp(merge);
    a.bind(odd);
    a.addi(c2, c2, 3);
    a.xor_(acc, acc, v);
    a.bind(merge);
    a.ld(t, p, 16);
    a.add(acc, acc, t);
    // Every 8th iteration: dictionary helper call.
    a.addi(k, k, 1);
    a.andi(t, k, 7);
    a.bne(t, IntReg(0), skip_call);
    a.call(func);
    a.bind(skip_call);
    a.jmp(top);
    // Helper: one dictionary probe keyed by the accumulator.
    a.bind(func);
    a.andi(t, acc, dictMask);
    a.add(t, t, dbase);
    a.ld(dv, t, 0);
    a.add(acc, acc, dv);
    a.ret();

    Workload w;
    w.name = "197.parser";
    w.isFp = false;
    w.memBytes = 0x90000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        // Random cyclic permutation over the node pool.
        linkRandomCycle(vm, nodeBase, nodeCount, 64, 0x9711);
        Rng rng(0x9712);
        std::uint8_t *node = vm.memSpan(nodeBase, nodeCount * 64);
        for (std::size_t n = 0; n < nodeCount; ++n) {
            storeWord(node + n * 64 + 8, rng.next() & 0xffff);
            storeWord(node + n * 64 + 16, rng.below(100));
        }
        fillRandomWords(vm, dictBase, 0x2000, 50, 0x9713);
        vm.setIntReg(p.idx, nodeBase);
        vm.setIntReg(dbase.idx, dictBase);
        vm.setIntReg(c5.idx, 5);
    };
    return w;
}

// ---------------------------------------------------------------------
// 255.vortex -- object-database record updates through short helper
// functions: call/ret heavy (exercises the RAS), strided record access,
// highly predictable branches, high IPC.
// ---------------------------------------------------------------------
Workload
makeVortex()
{
    constexpr Addr recBase = 0x0;          // 16K records x 64 B = 1 MB
    constexpr std::int64_t recMask = 0x3fff;

    Assembler a;
    const IntReg i = 1, raddr = 2, x = 3, x2 = 4, t = 5, y = 6, cnt = 7;
    const IntReg flag = 8;
    const IntReg rbase = 20;

    Label top = a.newLabel();
    Label get_field = a.newLabel();
    Label check_field = a.newLabel();
    Label put_field = a.newLabel();
    Label is_odd = a.newLabel();
    Label chk_done = a.newLabel();

    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, recMask);
    a.shli(raddr, i, 6);
    a.add(raddr, raddr, rbase);
    a.call(get_field);
    a.call(check_field);
    a.call(put_field);
    a.addi(cnt, cnt, 1);
    a.jmp(top);

    // getField: load two record fields.
    a.bind(get_field);
    a.ld(x, raddr, 0);
    a.ld(x2, raddr, 8);
    a.ret();

    // checkField: mostly-even data makes this branch ~90% not-taken.
    a.bind(check_field);
    a.andi(t, x, 1);
    a.bne(t, IntReg(0), is_odd);
    a.addi(flag, flag, 1);
    a.jmp(chk_done);
    a.bind(is_odd);
    a.addi(flag, flag, 2);
    a.bind(chk_done);
    a.ret();

    // putField: combine and write back.
    a.bind(put_field);
    a.add(y, x, x2);
    a.st(y, raddr, 16);
    a.ret();

    Workload w;
    w.name = "255.vortex";
    w.isFp = false;
    w.memBytes = 0x100000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        Rng rng(0x2551);
        std::uint8_t *rec = vm.memSpan(recBase, (recMask + 1) * 64);
        for (std::size_t n = 0; n <= recMask; ++n) {
            // 90% even field values.
            const RegVal v = rng.below(1000) * 2 + (rng.chance(0.1) ? 1 : 0);
            storeWord(rec + n * 64, v);
            storeWord(rec + n * 64 + 8, rng.below(1000));
        }
        vm.setIntReg(rbase.idx, recBase);
    };
    return w;
}

// ---------------------------------------------------------------------
// 401.bzip2 -- counting phase of a block-sort compressor: byte stream
// with runs (70% repeat) drives a load-increment-store histogram, so
// consecutive iterations alias on the same counter (forwarding and
// Store-Sets stress) and counter values are stride-predictable inside
// runs.
// ---------------------------------------------------------------------
Workload
makeBzip2()
{
    constexpr Addr inBase = 0x0;           // 1 MB input bytes
    constexpr std::int64_t inMask = 0xfffff;
    constexpr Addr cntBase = 0x100000;     // 256 counters

    Assembler a;
    const IntReg i = 1, b = 2, caddr = 3, c = 4, c2 = 5, t = 6, rank = 7;
    const IntReg acc = 8;
    const IntReg ibase = 20, cbase = 21, c128 = 22;

    Label top = a.newLabel();
    Label high = a.newLabel();

    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, inMask);
    a.add(t, ibase, i);
    a.ld(b, t, 0, 1);
    // Histogram update: load-increment-store on counter[b].
    a.shli(caddr, b, 3);
    a.add(caddr, caddr, cbase);
    a.ld(c, caddr, 0);
    a.addi(c2, c, 1);
    a.st(c2, caddr, 0);
    // Skewed data-dependent branch (input bytes are ~75% below 128).
    a.bge(b, c128, high);
    a.shri(rank, b, 4);
    a.add(acc, acc, rank);
    a.jmp(top);
    a.bind(high);
    a.shli(rank, b, 1);
    a.xor_(acc, acc, rank);
    a.jmp(top);

    Workload w;
    w.name = "401.bzip2";
    w.isFp = false;
    w.memBytes = 0x100800;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        // Input with runs: 70% chance to repeat the previous byte, and
        // fresh bytes are drawn low-biased (75% below 128).
        Rng rng(0x4011);
        std::uint8_t prev = 0;
        std::uint8_t *in = vm.memSpan(inBase, inMask + 1);
        for (std::size_t n = 0; n <= inMask; ++n) {
            if (!rng.chance(0.7)) {
                prev = static_cast<std::uint8_t>(
                    rng.chance(0.75) ? rng.below(128)
                                     : 128 + rng.below(128));
            }
            in[n] = prev;
        }
        vm.setIntReg(ibase.idx, inBase);
        vm.setIntReg(cbase.idx, cntBase);
        vm.setIntReg(c128.idx, 128);
    };
    return w;
}

} // namespace workloads
} // namespace eole
