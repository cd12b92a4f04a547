/**
 * @file
 * Unit tests for the ISA layer: functional semantics, the assembler,
 * the KernelVM and the rewindable trace source.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/checkpoint.hh"
#include "isa/frozen_trace.hh"
#include "isa/functional.hh"
#include "isa/kernel_vm.hh"
#include "isa/trace_source.hh"

using namespace eole;

// ---------------------------- Functional --------------------------------

TEST(Functional, IntegerAluBasics)
{
    EXPECT_EQ(execAlu(Opcode::Add, 2, 3, 0), 5u);
    EXPECT_EQ(execAlu(Opcode::Sub, 2, 3, 0), static_cast<RegVal>(-1));
    EXPECT_EQ(execAlu(Opcode::And, 0xf0f0, 0x00ff, 0), 0x00f0u);
    EXPECT_EQ(execAlu(Opcode::Or, 0xf000, 0x000f, 0), 0xf00fu);
    EXPECT_EQ(execAlu(Opcode::Xor, 0xff, 0x0f, 0), 0xf0u);
    EXPECT_EQ(execAlu(Opcode::Shl, 1, 8, 0), 256u);
    EXPECT_EQ(execAlu(Opcode::Shr, 256, 8, 0), 1u);
    EXPECT_EQ(execAlu(Opcode::Sar, static_cast<RegVal>(-8), 2, 0),
              static_cast<RegVal>(-2));
    EXPECT_EQ(execAlu(Opcode::Slt, static_cast<RegVal>(-1), 0, 0), 1u);
    EXPECT_EQ(execAlu(Opcode::Sltu, static_cast<RegVal>(-1), 0, 0), 0u);
    EXPECT_EQ(execAlu(Opcode::Mov, 77, 0, 0), 77u);
}

TEST(Functional, ImmediateForms)
{
    EXPECT_EQ(execAlu(Opcode::Addi, 10, 0, -3), 7u);
    EXPECT_EQ(execAlu(Opcode::Andi, 0xff, 0, 0x0f), 0x0fu);
    EXPECT_EQ(execAlu(Opcode::Ori, 0xf0, 0, 0x0f), 0xffu);
    EXPECT_EQ(execAlu(Opcode::Xori, 0xff, 0, 0xff), 0u);
    EXPECT_EQ(execAlu(Opcode::Shli, 3, 0, 4), 48u);
    EXPECT_EQ(execAlu(Opcode::Shri, 48, 0, 4), 3u);
    EXPECT_EQ(execAlu(Opcode::Sari, static_cast<RegVal>(-16), 0, 2),
              static_cast<RegVal>(-4));
    EXPECT_EQ(execAlu(Opcode::Slti, 5, 0, 6), 1u);
    EXPECT_EQ(execAlu(Opcode::Movi, 0, 0, -1), static_cast<RegVal>(-1));
}

TEST(Functional, MulDivEdgeCases)
{
    EXPECT_EQ(execAlu(Opcode::Mul, 7, 6, 0), 42u);
    EXPECT_EQ(execAlu(Opcode::Div, 42, 6, 0), 7u);
    EXPECT_EQ(execAlu(Opcode::Div, 42, 0, 0), 0u);  // defined, no trap
    EXPECT_EQ(execAlu(Opcode::Div, 0x8000000000000000ULL,
                      static_cast<RegVal>(-1), 0),
              0x8000000000000000ULL);  // INT64_MIN / -1 does not trap
    EXPECT_EQ(execAlu(Opcode::Rem, 43, 6, 0), 1u);
    EXPECT_EQ(execAlu(Opcode::Rem, 43, 0, 0), 43u);
}

TEST(Functional, FloatingPoint)
{
    const RegVal a = fromDouble(1.5), b = fromDouble(2.5);
    EXPECT_DOUBLE_EQ(toDouble(execAlu(Opcode::Fadd, a, b, 0)), 4.0);
    EXPECT_DOUBLE_EQ(toDouble(execAlu(Opcode::Fsub, a, b, 0)), -1.0);
    EXPECT_DOUBLE_EQ(toDouble(execAlu(Opcode::Fmul, a, b, 0)), 3.75);
    EXPECT_DOUBLE_EQ(toDouble(execAlu(Opcode::Fdiv, b, a, 0)),
                     2.5 / 1.5);
    EXPECT_DOUBLE_EQ(toDouble(execAlu(Opcode::Fmin, a, b, 0)), 1.5);
    EXPECT_DOUBLE_EQ(toDouble(execAlu(Opcode::Fmax, a, b, 0)), 2.5);
    EXPECT_DOUBLE_EQ(toDouble(execAlu(Opcode::Fcvtif,
                                      static_cast<RegVal>(-3), 0, 0)),
                     -3.0);
    EXPECT_EQ(execAlu(Opcode::Fcvtfi, fromDouble(-3.7), 0, 0),
              static_cast<RegVal>(-3));
}

TEST(Functional, CondBranches)
{
    EXPECT_TRUE(evalCondBranch(Opcode::Beq, 5, 5));
    EXPECT_FALSE(evalCondBranch(Opcode::Beq, 5, 6));
    EXPECT_TRUE(evalCondBranch(Opcode::Bne, 5, 6));
    EXPECT_TRUE(evalCondBranch(Opcode::Blt, static_cast<RegVal>(-2), 1));
    EXPECT_FALSE(evalCondBranch(Opcode::Bltu, static_cast<RegVal>(-2), 1));
    EXPECT_TRUE(evalCondBranch(Opcode::Bge, 1, 1));
    EXPECT_TRUE(evalCondBranch(Opcode::Bgeu, static_cast<RegVal>(-1), 1));
}

// ------------------------------ Opcodes ---------------------------------

TEST(Opcodes, ClassPredicatesAreConsistent)
{
    for (int o = 0; o < static_cast<int>(Opcode::NumOpcodes); ++o) {
        const Opcode op = static_cast<Opcode>(o);
        const OpClass cls = opClassOf(op);
        EXPECT_EQ(isBranchOp(op), cls == OpClass::Branch);
        EXPECT_EQ(isLoadOp(op), cls == OpClass::MemRead);
        EXPECT_EQ(isStoreOp(op), cls == OpClass::MemWrite);
        EXPECT_EQ(isSingleCycleAlu(op), cls == OpClass::IntAlu);
        if (isCondBranch(op)) {
            EXPECT_TRUE(isBranchOp(op));
        }
        // Unpipelined units are only the divides.
        if (!opPipelined(cls)) {
            EXPECT_TRUE(cls == OpClass::IntDiv || cls == OpClass::FpDiv);
        }
    }
}

TEST(Opcodes, LatenciesMatchTable1)
{
    EXPECT_EQ(opLatency(OpClass::IntAlu), 1u);
    EXPECT_EQ(opLatency(OpClass::IntMul), 3u);
    EXPECT_EQ(opLatency(OpClass::IntDiv), 25u);
    EXPECT_EQ(opLatency(OpClass::FpAlu), 3u);
    EXPECT_EQ(opLatency(OpClass::FpMul), 5u);
    EXPECT_EQ(opLatency(OpClass::FpDiv), 10u);
}

// ----------------------------- Assembler --------------------------------

TEST(Assembler, ResolvesForwardAndBackwardLabels)
{
    Assembler a;
    Label fwd = a.newLabel();
    Label back = a.newLabel();
    a.bind(back);
    a.addi(IntReg(1), IntReg(1), 1);
    a.jmp(fwd);
    a.jmp(back);
    a.bind(fwd);
    a.halt();
    Program p = a.finish();
    EXPECT_EQ(p.code[1].target, 3);
    EXPECT_EQ(p.code[2].target, 0);
}

TEST(Assembler, LeaMaterializesLabelPc)
{
    Assembler a;
    Label tgt = a.newLabel();
    a.lea(IntReg(5), tgt);
    a.nop();
    a.bind(tgt);
    a.halt();
    Program p = a.finish();
    EXPECT_EQ(p.code[0].opc, Opcode::Movi);
    EXPECT_EQ(static_cast<Addr>(p.code[0].imm), Program::pcOf(2));
}

TEST(Assembler, UnboundLabelDies)
{
    EXPECT_DEATH(
        {
            Assembler a;
            Label l = a.newLabel();
            a.jmp(l);
            a.finish();
        },
        "never bound");
}

// ------------------------------ KernelVM --------------------------------

namespace {

Program
tinyProgram()
{
    Assembler a;
    const IntReg x = 1, y = 2, base = 3;
    a.movi(x, 5);
    a.movi(base, 0x100);
    a.addi(y, x, 10);
    a.st(y, base, 8);
    a.ld(x, base, 8);
    a.halt();
    return a.finish();
}

} // namespace

TEST(KernelVM, ExecutesAndHalts)
{
    Program p = tinyProgram();
    KernelVM vm(p, 0x1000);
    TraceUop u;
    int steps = 0;
    while (vm.step(u))
        ++steps;
    EXPECT_EQ(steps, 5);
    EXPECT_TRUE(vm.halted());
    EXPECT_EQ(vm.readIntReg(1), 15u);
    EXPECT_EQ(vm.readMem(0x108, 8), 15u);
    EXPECT_FALSE(vm.step(u));  // stays halted
}

TEST(KernelVM, TraceRecordsOracleValues)
{
    Program p = tinyProgram();
    KernelVM vm(p, 0x1000);
    TraceUop u;
    vm.step(u);
    EXPECT_EQ(u.opc, Opcode::Movi);
    EXPECT_EQ(u.result, 5u);
    EXPECT_EQ(u.nextPc, Program::pcOf(1));
    vm.step(u);
    vm.step(u);
    EXPECT_EQ(u.opc, Opcode::Addi);
    EXPECT_EQ(u.srcVals[0], 5u);
    EXPECT_EQ(u.result, 15u);
    vm.step(u);
    EXPECT_EQ(u.opc, Opcode::St);
    EXPECT_EQ(u.effAddr, 0x108u);
    EXPECT_EQ(u.result, 15u);
    vm.step(u);
    EXPECT_EQ(u.opc, Opcode::Ld);
    EXPECT_EQ(u.result, 15u);
}

TEST(KernelVM, ZeroRegisterReadsAsZero)
{
    Assembler a;
    a.movi(IntReg(0), 99);        // architecturally dropped
    a.addi(IntReg(1), IntReg(0), 3);
    a.halt();
    Program p = a.finish();
    KernelVM vm(p, 0x100);
    TraceUop u;
    vm.step(u);
    EXPECT_EQ(vm.readIntReg(0), 0u);
    vm.step(u);
    EXPECT_EQ(u.result, 3u);
}

TEST(KernelVM, SubWordMemoryAccess)
{
    Assembler a;
    const IntReg b = 1, v = 2, r = 3;
    a.movi(b, 0x40);
    a.movi(v, 0x1122334455667788);
    a.st(v, b, 0, 8);
    a.ld(r, b, 0, 1);
    a.ld(r, b, 1, 1);
    a.ld(r, b, 0, 4);
    a.ld(r, b, 2, 2);
    a.halt();
    Program p = a.finish();
    KernelVM vm(p, 0x100);
    TraceUop u;
    vm.step(u);
    vm.step(u);
    vm.step(u);
    vm.step(u);
    EXPECT_EQ(u.result, 0x88u);   // little endian, byte 0
    vm.step(u);
    EXPECT_EQ(u.result, 0x77u);
    vm.step(u);
    EXPECT_EQ(u.result, 0x55667788u);
    vm.step(u);
    EXPECT_EQ(u.result, 0x5566u);  // little endian: bytes 2..3
}

TEST(KernelVM, CallAndReturn)
{
    Assembler a;
    const IntReg x = 1;
    Label fn = a.newLabel();
    a.call(fn);          // 0
    a.addi(x, x, 100);   // 1 (after return)
    a.halt();            // 2
    a.bind(fn);
    a.addi(x, x, 1);     // 3
    a.ret();             // 4
    Program p = a.finish();
    KernelVM vm(p, 0x100);
    TraceUop u;
    vm.step(u);
    EXPECT_TRUE(u.isCall());
    EXPECT_EQ(u.result, Program::pcOf(1));  // link value
    EXPECT_EQ(u.nextPc, Program::pcOf(3));
    vm.step(u);
    vm.step(u);
    EXPECT_TRUE(u.isRet());
    EXPECT_EQ(u.nextPc, Program::pcOf(1));
    vm.step(u);
    EXPECT_EQ(u.result, 101u);
}

TEST(KernelVM, OutOfBoundsAccessDies)
{
    Assembler a;
    a.movi(IntReg(1), 0x2000);
    a.ld(IntReg(2), IntReg(1), 0);
    a.halt();
    Program p = a.finish();
    KernelVM vm(p, 0x100);
    TraceUop u;
    vm.step(u);
    EXPECT_DEATH(vm.step(u), "out of bounds");

    // A negative offset from r0 names address 2^64 - 8: the bounds
    // check must not wrap around to the bytes before the memory.
    Assembler ld_neg;
    ld_neg.ld(IntReg(2), IntReg(0), -8);
    ld_neg.halt();
    const Program pl = ld_neg.finish();
    KernelVM vl(pl, 0x100);
    EXPECT_DEATH(vl.step(u), "out of bounds");

    Assembler st_neg;
    st_neg.movi(IntReg(1), 0x111);
    st_neg.st(IntReg(1), IntReg(0), -8);
    st_neg.halt();
    const Program ps = st_neg.finish();
    KernelVM vs(ps, 0x100);
    vs.step(u);
    EXPECT_DEATH(vs.step(u), "out of bounds");
}

// ----------------------------- TraceSource ------------------------------

namespace {

Program
countingLoop(int iters)
{
    Assembler a;
    const IntReg i = 1, n = 2;
    Label top = a.newLabel();
    a.movi(n, iters);
    a.bind(top);
    a.addi(i, i, 1);
    a.bne(i, n, top);
    a.halt();
    return a.finish();
}

/** A recording of @p program's whole run (these programs halt). */
std::shared_ptr<const FrozenTrace>
recording(const Program &program,
          const std::function<void(KernelVM &)> &init = nullptr)
{
    const auto trace = recordTrace(program, 0x100, init, 1u << 12);
    EXPECT_TRUE(trace->complete);
    return trace;
}

} // namespace

TEST(TraceSource, SequentialSeqNums)
{
    TraceSource ts(recording(countingLoop(4)));
    SeqNum expect = 1;
    while (ts.hasNext()) {
        EXPECT_EQ(ts.nextSeq(), expect);
        ts.fetch();
        ++expect;
    }
    EXPECT_EQ(expect, 1u + 1 + 4 * 2);  // movi + 4x(addi,bne)
}

TEST(TraceSource, RewindReplaysSameUops)
{
    TraceSource ts(recording(countingLoop(100)));
    std::vector<TraceUop> first;
    for (int i = 0; i < 20; ++i)
        first.push_back(ts.fetch());
    ts.rewindTo(6);
    for (int i = 5; i < 20; ++i) {
        ASSERT_TRUE(ts.hasNext());
        const TraceUop &u = ts.fetch();
        EXPECT_EQ(u.pc, first[i].pc);
        EXPECT_EQ(u.result, first[i].result);
    }
}

TEST(TraceSource, RetireShrinksWindowAndBlocksOldRewind)
{
    TraceSource ts(recording(countingLoop(100)));
    for (int i = 0; i < 10; ++i)
        ts.fetch();
    ts.retireUpTo(5);
    ts.rewindTo(6);  // still allowed: oldest unretired
    EXPECT_EQ(ts.nextSeq(), 6u);
    for (int i = 0; i < 5; ++i)
        ts.fetch();
    EXPECT_DEATH(ts.rewindTo(3), "outside window");
}

TEST(TraceSource, InitHookRuns)
{
    Assembler a;
    a.ld(IntReg(1), IntReg(20), 0);
    a.halt();
    TraceSource ts(recording(a.finish(), [](KernelVM &vm) {
        vm.setIntReg(20, 0x40);
        vm.writeMem(0x40, 8, 0xdead);
    }));
    EXPECT_EQ(ts.fetch().result, 0xdeadu);
}

TEST(TraceSource, ResumedReplayStartsAtTheCheckpoint)
{
    const auto trace = recording(countingLoop(100));
    const Checkpoint ckpt = captureAt(*trace, "loop", 41);
    TraceSource ts(trace, ckpt);

    EXPECT_EQ(ts.nextSeq(), ckpt.uopIndex + 1);
    // movi + 20 x (addi, bne): the counter register has moved on.
    EXPECT_EQ(ckpt.intRegs[1], 20u);
    for (int r = 0; r < numArchIntRegs; ++r)
        EXPECT_EQ(ts.initialIntReg(r), ckpt.intRegs[r]) << r;
    for (int r = 0; r < numArchFpRegs; ++r)
        EXPECT_EQ(ts.initialFpReg(r), ckpt.fpRegs[r]) << r;

    EXPECT_EQ(ts.fetch().pc, trace->uops[41].pc);
    ts.rewindTo(ckpt.uopIndex + 1);  // the resume point itself
    // The skipped prefix counts as retired.
    EXPECT_DEATH(ts.rewindTo(ckpt.uopIndex), "outside window");
}

TEST(TraceSource, CompleteRecordingEndsQuietly)
{
    TraceSource ts(recording(countingLoop(4)));
    for (int i = 0; i < 9; ++i)
        ts.fetch();
    EXPECT_FALSE(ts.hasNext());
}

TEST(TraceSource, IncompleteRecordingDiesAtItsEnd)
{
    const auto prefix =
        recordTrace(countingLoop(100), 0x100, nullptr, 10);
    ASSERT_FALSE(prefix->complete);
    TraceSource ts(prefix);
    for (int i = 0; i < 10; ++i)
        ts.fetch();
    EXPECT_DEATH(ts.hasNext(), "record a longer prefix");
}
