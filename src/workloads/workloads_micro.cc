/**
 * @file
 * Synthetic micro-workloads with precisely known behaviour, used by the
 * unit/integration tests and the structure microbenchmarks.
 */

#include "workloads/workload.hh"

#include "common/random.hh"
#include "isa/assembler.hh"
#include "workloads/workload_util.hh"

namespace eole {
namespace workloads {
namespace micro {

Workload
depChain()
{
    Assembler a;
    const IntReg x = 1;
    Label top = a.newLabel();
    a.bind(top);
    for (int k = 0; k < 16; ++k)
        a.addi(x, x, 1);
    a.jmp(top);

    Workload w;
    w.name = "micro.depchain";
    w.memBytes = 0x1000;
    w.program = a.finish();
    w.init = nullptr;
    return w;
}

Workload
independent()
{
    Assembler a;
    Label top = a.newLabel();
    a.bind(top);
    // 16 independent chains; each register is touched once per loop.
    for (int k = 0; k < 16; ++k)
        a.addi(IntReg(1 + k), IntReg(1 + k), 1);
    a.jmp(top);

    Workload w;
    w.name = "micro.independent";
    w.memBytes = 0x1000;
    w.program = a.finish();
    w.init = nullptr;
    return w;
}

Workload
loopTaken(int body_len)
{
    Assembler a;
    const IntReg i = 1, n = 2, acc = 3;
    Label outer = a.newLabel();
    Label inner = a.newLabel();
    a.bind(outer);
    a.movi(i, 0);
    a.bind(inner);
    for (int k = 0; k < body_len; ++k)
        a.addi(acc, acc, 1);
    a.addi(i, i, 1);
    a.bne(i, n, inner);          // taken 63/64 times
    a.jmp(outer);

    Workload w;
    w.name = "micro.looptaken";
    w.memBytes = 0x1000;
    w.program = a.finish();
    w.init = [](KernelVM &vm) { vm.setIntReg(2, 64); };
    return w;
}

Workload
togglingBranch()
{
    Assembler a;
    const IntReg i = 1, t = 2, acc = 3;
    Label top = a.newLabel();
    Label odd = a.newLabel();
    Label merge = a.newLabel();
    a.bind(top);
    a.addi(i, i, 1);
    a.andi(t, i, 1);
    a.bne(t, IntReg(0), odd);
    a.addi(acc, acc, 2);
    a.jmp(merge);
    a.bind(odd);
    a.addi(acc, acc, 3);
    a.bind(merge);
    a.jmp(top);

    Workload w;
    w.name = "micro.toggle";
    w.memBytes = 0x1000;
    w.program = a.finish();
    w.init = nullptr;
    return w;
}

Workload
stridedLoads()
{
    constexpr std::int64_t mask = 0xfff8;

    Assembler a;
    const IntReg i = 1, t = 2, v = 3, acc = 4;
    const IntReg base = 20;
    Label top = a.newLabel();
    a.bind(top);
    a.addi(i, i, 8);
    a.andi(i, i, mask);
    a.add(t, base, i);
    a.ld(v, t, 0);               // value = 3 * index: stride predictable
    a.add(acc, acc, v);
    a.jmp(top);

    Workload w;
    w.name = "micro.strided";
    w.memBytes = 0x10000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        std::uint8_t *arr = vm.memSpan(0, (mask / 8 + 1) * 8);
        for (std::int64_t n = 0; n * 8 <= mask; ++n)
            storeWord(arr + n * 8, static_cast<RegVal>(n * 3));
        vm.setIntReg(base.idx, 0);
    };
    return w;
}

Workload
storeLoadForward()
{
    Assembler a;
    const IntReg v = 1, u = 2, cnt = 3;
    const IntReg base = 20;
    Label top = a.newLabel();
    a.bind(top);
    a.addi(v, v, 1);
    a.st(v, base, 0);
    a.ld(u, base, 0);            // always forwards from the store above
    a.add(cnt, cnt, u);
    a.jmp(top);

    Workload w;
    w.name = "micro.stlfwd";
    w.memBytes = 0x1000;
    w.program = a.finish();
    w.init = nullptr;
    return w;
}

Workload
randomBranch(std::uint64_t seed)
{
    constexpr std::int64_t mask = 0xffff;

    Assembler a;
    const IntReg i = 1, t = 2, b = 3, c0 = 4, c1 = 5;
    const IntReg base = 20;
    Label top = a.newLabel();
    Label one = a.newLabel();
    Label merge = a.newLabel();
    a.bind(top);
    a.addi(i, i, 1);
    a.andi(i, i, mask);
    a.add(t, base, i);
    a.ld(b, t, 0, 1);
    a.bne(b, IntReg(0), one);    // 50/50, unlearnable
    a.addi(c0, c0, 1);
    a.jmp(merge);
    a.bind(one);
    a.addi(c1, c1, 1);
    a.bind(merge);
    a.jmp(top);

    Workload w;
    w.name = "micro.randbranch";
    w.memBytes = 0x10800;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        Rng rng(seed);
        std::uint8_t *bits = vm.memSpan(0, mask + 1);
        for (std::int64_t n = 0; n <= mask; ++n)
            bits[n] = static_cast<std::uint8_t>(rng.below(2));
        vm.setIntReg(base.idx, 0);
    };
    return w;
}

} // namespace micro
} // namespace workloads
} // namespace eole
