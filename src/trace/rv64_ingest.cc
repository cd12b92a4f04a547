#include "trace/rv64_ingest.hh"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "isa/functional.hh"
#include "isa/static_inst.hh"
#include "isa/trace.hh"

namespace eole {
namespace {

std::int64_t
sext(std::uint64_t v, int bits)
{
    const std::uint64_t m = 1ULL << (bits - 1);
    v &= (1ULL << bits) - 1;
    return static_cast<std::int64_t>((v ^ m) - m);
}

// --- RV64I decode -----------------------------------------------------

/** One decoded static instruction plus its crack bookkeeping. */
struct RvInst
{
    std::uint64_t pc = 0;
    std::uint32_t raw = 0;
    std::uint32_t major = 0;
    int funct3 = 0, funct7 = 0;
    int rd = 0, rs1 = 0, rs2 = 0;
    std::int64_t imm = 0;
    int nUops = 0;          //!< static crack size (fixed per pc)
    std::uint32_t sidx = 0; //!< synthetic base µ-op index
    int lineno = 0;         //!< first log line mentioning this pc
};

/** Decode @p insn; false with a diagnostic for anything the µ-op
 *  vocabulary cannot express faithfully. */
bool
decode(std::uint64_t pc, std::uint32_t insn, RvInst *d, std::string *err)
{
    if ((insn & 3) != 3) {
        *err = csprintf("compressed (RVC) instruction %#x: rebuild the "
                        "workload with -march=rv64i (no C extension)",
                        insn);
        return false;
    }
    d->pc = pc;
    d->raw = insn;
    d->major = insn & 0x7f;
    d->rd = (insn >> 7) & 31;
    d->funct3 = (insn >> 12) & 7;
    d->rs1 = (insn >> 15) & 31;
    d->rs2 = (insn >> 20) & 31;
    d->funct7 = insn >> 25;
    d->nUops = 1;

    const std::int64_t immI = sext(insn >> 20, 12);
    const auto unsupported = [&](const char *what) {
        *err = csprintf("unsupported instruction %#x (%s)", insn, what);
        return false;
    };

    switch (d->major) {
      case 0x37: // LUI
      case 0x17: // AUIPC
        d->imm = sext(insn & 0xfffff000u, 32);
        return true;
      case 0x13: // OP-IMM
        d->imm = immI;
        switch (d->funct3) {
          case 0: case 2: case 3: case 4: case 6: case 7:
            return true;
          case 1: // SLLI
            if ((insn >> 26) != 0)
                return unsupported("bad SLLI funct6");
            d->imm = (insn >> 20) & 63;
            return true;
          case 5: // SRLI / SRAI
            if ((insn >> 26) != 0 && (insn >> 26) != 0x10)
                return unsupported("bad SRLI/SRAI funct6");
            d->imm = (insn >> 20) & 63;
            return true;
        }
        return unsupported("OP-IMM funct3");
      case 0x33: // OP
        switch (d->funct7) {
          case 0x00:
            return true;
          case 0x20:
            if (d->funct3 == 0 || d->funct3 == 5)
                return true;
            return unsupported("OP funct7=0x20 funct3");
          case 0x01: // M extension
            if (d->funct3 == 0) // MUL
                return true;
            if (d->funct3 == 4 || d->funct3 == 6) // DIV / REM
                return true;
            return unsupported("MULH*/DIVU/REMU have no µ-op analog");
        }
        return unsupported("OP funct7");
      case 0x1b: // OP-IMM-32
        switch (d->funct3) {
          case 0: // ADDIW
            d->imm = immI;
            d->nUops = d->rd ? 3 : 1;
            return true;
          case 1: // SLLIW
            if (d->funct7 != 0)
                return unsupported("bad SLLIW funct7");
            d->imm = (insn >> 20) & 31;
            d->nUops = d->rd ? 2 : 1;
            return true;
          case 5: // SRLIW / SRAIW
            if (d->funct7 != 0 && d->funct7 != 0x20)
                return unsupported("bad SRLIW/SRAIW funct7");
            d->imm = (insn >> 20) & 31;
            d->nUops = d->rd ? 2 : 1;
            return true;
        }
        return unsupported("OP-IMM-32 funct3");
      case 0x3b: // OP-32
        switch (d->funct7) {
          case 0x00:
            if (d->funct3 == 0) { // ADDW
                d->nUops = d->rd ? 3 : 1;
                return true;
            }
            if (d->funct3 == 1 || d->funct3 == 5) { // SLLW / SRLW
                d->nUops = d->rd ? 2 : 1;
                return true;
            }
            return unsupported("OP-32 funct3");
          case 0x20:
            if (d->funct3 == 0) { // SUBW
                d->nUops = d->rd ? 3 : 1;
                return true;
            }
            if (d->funct3 == 5) { // SRAW
                d->nUops = d->rd ? 2 : 1;
                return true;
            }
            return unsupported("OP-32 funct7=0x20 funct3");
          case 0x01:
            if (d->funct3 == 0) { // MULW
                d->nUops = d->rd ? 3 : 1;
                return true;
            }
            return unsupported("DIVW/REMW/DIVUW/REMUW have no µ-op "
                               "analog");
        }
        return unsupported("OP-32 funct7");
      case 0x03: // LOAD
        if (d->funct3 == 7)
            return unsupported("LOAD funct3=7");
        d->imm = immI;
        // LB/LH/LW sign-extend: Ld (zero-extending) + Shli + Sari.
        d->nUops = (d->funct3 <= 2 && d->rd) ? 3 : 1;
        return true;
      case 0x23: // STORE
        if (d->funct3 > 3)
            return unsupported("STORE funct3");
        d->imm = sext(((insn >> 25) << 5) | ((insn >> 7) & 31), 12);
        return true;
      case 0x63: // BRANCH
        if (d->funct3 == 2 || d->funct3 == 3)
            return unsupported("BRANCH funct3");
        d->imm = sext(((static_cast<std::uint64_t>(insn) >> 31) << 12)
                      | (((insn >> 7) & 1) << 11)
                      | (((insn >> 25) & 0x3f) << 5)
                      | (((insn >> 8) & 0xf) << 1), 13);
        return true;
      case 0x6f: // JAL
        d->imm = sext(((static_cast<std::uint64_t>(insn) >> 31) << 20)
                      | (((insn >> 12) & 0xff) << 12)
                      | (((insn >> 20) & 1) << 11)
                      | (((insn >> 21) & 0x3ff) << 1), 21);
        return true;
      case 0x67: // JALR
        if (d->funct3 != 0)
            return unsupported("JALR funct3");
        d->imm = immI;
        if (d->imm != 0) {
            return unsupported("JALR with a non-zero offset needs a "
                               "scratch register the µ-op crack does "
                               "not have");
        }
        if (d->rd != 0 && d->rd == d->rs1) {
            return unsupported("JALR rd == rs1: the link write would "
                               "clobber the target");
        }
        d->nUops = d->rd ? 2 : 1;
        return true;
      case 0x0f: // FENCE / FENCE.I: ordering only, no µ-op effect
        return true;
      case 0x73:
        return unsupported("ECALL/EBREAK/CSR");
    }
    return unsupported("major opcode");
}

// --- Synthetic machine ------------------------------------------------

/** Architectural x-registers plus a sparse byte memory: just enough
 *  state to re-execute the committed stream and fill in the oracle
 *  fields (the exact mirror of KernelVM::step, minus the VM's dense
 *  bounded memory), and the recording it emits.
 *
 *  The static table is keyed by shape, not by sidx: a register
 *  W-shift folds its dynamic shift amount into the immediate and
 *  picks Shri or Sari from it, so one sidx can execute several
 *  shapes. Each distinct shape gets one entry, in order of first
 *  execution, and a record carries its entry's index. */
struct Machine
{
    RegVal x[32] = {};
    std::unordered_map<std::uint64_t, std::uint8_t> mem;
    std::vector<StaticUop> statics;
    std::vector<UopRecord> out;

    using Shape = std::tuple<std::uint32_t, Opcode, RegIndex, RegIndex,
                             RegIndex, std::int64_t, std::uint8_t>;
    std::map<Shape, std::uint32_t> ids;

    /** The static id of @p st, added to the table if new. */
    std::uint32_t
    intern(const StaticUop &st)
    {
        const Shape shape{st.sidx, st.opc, st.dst, st.src1, st.src2,
                          st.imm, st.memSize};
        const auto [it, added] = ids.try_emplace(
            shape, static_cast<std::uint32_t>(statics.size()));
        if (added)
            statics.push_back(st);
        return it->second;
    }

    RegVal read(int r) const { return r == 0 ? 0 : x[r]; }

    void
    write(int r, RegVal v)
    {
        if (r != 0)
            x[r] = v;
    }

    RegVal
    load(std::uint64_t addr, unsigned size)
    {
        RegVal v = 0;
        for (unsigned i = 0; i < size; ++i) {
            auto it = mem.find(addr + i);
            if (it != mem.end())
                v |= static_cast<RegVal>(it->second) << (8 * i);
        }
        return v;
    }

    void
    store(std::uint64_t addr, unsigned size, RegVal v)
    {
        for (unsigned i = 0; i < size; ++i)
            mem[addr + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
};

/** Append a µ-op: its static shape to the table, its record to the
 *  stream. The oracle result / effAddr / control flow are filled in
 *  by the caller *before* the next emit (push_back invalidates the
 *  reference), from operands read before any write of this µ-op. */
UopRecord &
emitUop(Machine &m, std::uint32_t sidx, Opcode opc, int dst, int s1,
        int s2, std::int64_t imm, std::uint8_t mem_size = 8)
{
    StaticUop st;
    st.pc = Program::pcOf(sidx);
    st.imm = imm;
    st.sidx = sidx;
    st.dst = dst < 0 ? invalidReg : static_cast<RegIndex>(dst);
    st.src1 = s1 < 0 ? invalidReg : static_cast<RegIndex>(s1);
    st.src2 = s2 < 0 ? invalidReg : static_cast<RegIndex>(s2);
    st.opc = opc;
    st.memSize = mem_size;
    UopRecord u;
    u.staticId = m.intern(st);
    u.nextPc = Program::pcOf(sidx + 1);
    m.out.push_back(u);
    return m.out.back();
}

/** Emit one ALU µ-op, computing the oracle result through the same
 *  execAlu the VM and the timing core use. */
void
aluUop(Machine &m, std::uint32_t sidx, Opcode opc, int dst, int s1,
       int s2, std::int64_t imm)
{
    const RegVal a = s1 < 0 ? 0 : m.read(s1);
    const RegVal b = s2 < 0 ? 0 : m.read(s2);
    UopRecord &u = emitUop(m, sidx, opc, dst, s1, s2, imm);
    u.result = execAlu(opc, a, b, imm);
    m.write(dst, u.result);
    if (dst == 0)
        u.result = 0; // int zero register: architectural result
}

/**
 * Crack and emit one dynamic instruction. On return m.out holds
 * d.nUops new µ-ops and @p next_pc the computed next original PC.
 * The final µ-op's nextPc still points at the synthetic fall-through;
 * the caller patches it once the successor's base index is known.
 */
bool
emitInst(Machine &m, const RvInst &d,
         const std::map<std::uint32_t, std::uint64_t> &pcOfBase,
         std::uint64_t *next_pc, std::string *err)
{
    const std::uint32_t base = d.sidx;
    const int rd = d.rd, rs1 = d.rs1, rs2 = d.rs2;
    *next_pc = d.pc + 4;

    switch (d.major) {
      case 0x37: // LUI
        aluUop(m, base, Opcode::Movi, rd, -1, -1, d.imm);
        return true;
      case 0x17: // AUIPC: the original PC is a decode-time constant
        aluUop(m, base, Opcode::Movi, rd, -1, -1,
               static_cast<std::int64_t>(d.pc) + d.imm);
        return true;
      case 0x13: { // OP-IMM
        static const Opcode byF3[8] = {
            Opcode::Addi, Opcode::Shli, Opcode::Slti, Opcode::Sltiu,
            Opcode::Xori, Opcode::Shri, Opcode::Ori, Opcode::Andi};
        Opcode opc = byF3[d.funct3];
        if (d.funct3 == 5 && (d.raw >> 26) == 0x10)
            opc = Opcode::Sari;
        aluUop(m, base, opc, rd, rs1, -1, d.imm);
        return true;
      }
      case 0x33: { // OP
        Opcode opc;
        if (d.funct7 == 0x01) {
            opc = d.funct3 == 0 ? Opcode::Mul
                : d.funct3 == 4 ? Opcode::Div : Opcode::Rem;
            if (opc == Opcode::Div && m.read(rs2) == 0) {
                *err = "signed division by zero: RISC-V yields -1, "
                       "this ISA 0 (results would diverge)";
                return false;
            }
        } else if (d.funct7 == 0x20) {
            opc = d.funct3 == 0 ? Opcode::Sub : Opcode::Sar;
        } else {
            static const Opcode byF3[8] = {
                Opcode::Add, Opcode::Shl, Opcode::Slt, Opcode::Sltu,
                Opcode::Xor, Opcode::Shr, Opcode::Or, Opcode::And};
            opc = byF3[d.funct3];
        }
        aluUop(m, base, opc, rd, rs1, rs2, 0);
        return true;
      }
      case 0x1b: // OP-IMM-32
        switch (d.funct3) {
          case 0: // ADDIW
            aluUop(m, base, Opcode::Addi, rd, rs1, -1, d.imm);
            if (rd) {
                aluUop(m, base + 1, Opcode::Shli, rd, rd, -1, 32);
                aluUop(m, base + 2, Opcode::Sari, rd, rd, -1, 32);
            }
            return true;
          case 1: // SLLIW
            aluUop(m, base, Opcode::Shli, rd, rs1, -1, 32 + d.imm);
            if (rd)
                aluUop(m, base + 1, Opcode::Sari, rd, rd, -1, 32);
            return true;
          case 5: // SRLIW / SRAIW
            aluUop(m, base, Opcode::Shli, rd, rs1, -1, 32);
            if (rd) {
                if (d.funct7 == 0x20)
                    aluUop(m, base + 1, Opcode::Sari, rd, rd, -1,
                           32 + d.imm);
                else if (d.imm > 0)
                    aluUop(m, base + 1, Opcode::Shri, rd, rd, -1,
                           32 + d.imm);
                else
                    aluUop(m, base + 1, Opcode::Sari, rd, rd, -1, 32);
            }
            return true;
        }
        break;
      case 0x3b: // OP-32
        if (d.funct3 == 0 && d.funct7 != 0x01) { // ADDW / SUBW
            aluUop(m, base, d.funct7 == 0x20 ? Opcode::Sub : Opcode::Add,
                   rd, rs1, rs2, 0);
            if (rd) {
                aluUop(m, base + 1, Opcode::Shli, rd, rd, -1, 32);
                aluUop(m, base + 2, Opcode::Sari, rd, rd, -1, 32);
            }
            return true;
        }
        if (d.funct3 == 0) { // MULW
            aluUop(m, base, Opcode::Mul, rd, rs1, rs2, 0);
            if (rd) {
                aluUop(m, base + 1, Opcode::Shli, rd, rd, -1, 32);
                aluUop(m, base + 2, Opcode::Sari, rd, rd, -1, 32);
            }
            return true;
        }
        {
            // Register W-shifts: the architectural amount is rs2 & 31,
            // known from the synthetic register file, folded into the
            // per-instance immediate. rs2 rides along as a phantom
            // source (imm shifts ignore operand b) so the renamed
            // dataflow still waits on it.
            const std::int64_t sh =
                static_cast<std::int64_t>(m.read(rs2) & 31);
            if (d.funct3 == 1) { // SLLW
                aluUop(m, base, Opcode::Shli, rd, rs1, rs2, 32 + sh);
                if (rd)
                    aluUop(m, base + 1, Opcode::Sari, rd, rd, -1, 32);
                return true;
            }
            // SRLW / SRAW
            aluUop(m, base, Opcode::Shli, rd, rs1, rs2, 32);
            if (rd) {
                if (d.funct7 == 0x20)
                    aluUop(m, base + 1, Opcode::Sari, rd, rd, rs2,
                           32 + sh);
                else if (sh > 0)
                    aluUop(m, base + 1, Opcode::Shri, rd, rd, rs2,
                           32 + sh);
                else
                    aluUop(m, base + 1, Opcode::Sari, rd, rd, rs2, 32);
            }
            return true;
        }
      case 0x03: { // LOAD
        const unsigned size = 1u << (d.funct3 & 3);
        const Addr ea = effectiveAddr(m.read(rs1), d.imm);
        UopRecord &u = emitUop(m, base, Opcode::Ld, rd, rs1, -1, d.imm,
                               static_cast<std::uint8_t>(size));
        u.effAddr = ea;
        u.result = m.load(u.effAddr, size);
        m.write(rd, u.result);
        if (rd == 0)
            u.result = 0;
        if (d.funct3 <= 2 && rd) { // LB/LH/LW sign-extension
            const std::int64_t sh = 64 - 8 * static_cast<int>(size);
            aluUop(m, base + 1, Opcode::Shli, rd, rd, -1, sh);
            aluUop(m, base + 2, Opcode::Sari, rd, rd, -1, sh);
        }
        return true;
      }
      case 0x23: { // STORE
        const unsigned size = 1u << d.funct3;
        UopRecord &u = emitUop(m, base, Opcode::St, -1, rs1, rs2, d.imm,
                               static_cast<std::uint8_t>(size));
        u.effAddr = effectiveAddr(m.read(rs1), d.imm);
        u.result = m.read(rs2); // full register, like the VM
        m.store(u.effAddr, size, u.result);
        return true;
      }
      case 0x63: { // BRANCH
        static const Opcode byF3[8] = {
            Opcode::Beq, Opcode::Bne, Opcode::Nop, Opcode::Nop,
            Opcode::Blt, Opcode::Bge, Opcode::Bltu, Opcode::Bgeu};
        const Opcode opc = byF3[d.funct3];
        UopRecord &u = emitUop(m, base, opc, -1, rs1, rs2, 0);
        u.taken = evalCondBranch(opc, m.read(rs1), m.read(rs2));
        if (u.taken)
            *next_pc = d.pc + static_cast<std::uint64_t>(d.imm);
        return true;
      }
      case 0x6f: { // JAL
        if (rd == 0) {
            UopRecord &u = emitUop(m, base, Opcode::Jmp, -1, -1, -1, 0);
            u.taken = true;
        } else {
            UopRecord &u = emitUop(m, base, Opcode::Call, rd, -1, -1, 0);
            u.taken = true;
            // Link value in synthetic µ-op space: the timing core
            // recomputes a call's link as pc + uopBytes.
            u.result = Program::pcOf(base + 1);
            m.write(rd, u.result);
        }
        *next_pc = d.pc + static_cast<std::uint64_t>(d.imm);
        return true;
      }
      case 0x67: { // JALR (imm == 0, rd != rs1; decode enforced)
        if (rd) {
            // Indirect call: link first (Movi recomputes to its
            // immediate), then the jump. The return predictor never
            // sees a call here — a RAS imbalance, not an error.
            aluUop(m, base, Opcode::Movi, rd, -1, -1,
                   static_cast<std::int64_t>(Program::pcOf(base + 2)));
        }
        const Opcode opc =
            (rd == 0 && (rs1 == 1 || rs1 == 5)) ? Opcode::Ret
                                                : Opcode::Jr;
        UopRecord &u = emitUop(m, base + (rd ? 1 : 0), opc, -1, rs1, -1,
                               0);
        u.taken = true;
        const RegVal tv = m.read(rs1);
        if (tv < codeBase || (tv - codeBase) % uopBytes != 0) {
            *err = csprintf("indirect target %#llx is not a synthetic "
                            "µ-op address (code address computed as "
                            "data?)", (unsigned long long)tv);
            return false;
        }
        const auto tgt = pcOfBase.find(
            static_cast<std::uint32_t>((tv - codeBase) / uopBytes));
        if (tgt == pcOfBase.end()) {
            *err = csprintf("indirect target %#llx is not an "
                            "instruction boundary (computed jump "
                            "table?)", (unsigned long long)tv);
            return false;
        }
        *next_pc = tgt->second;
        return true;
      }
      case 0x0f: // FENCE
        emitUop(m, base, Opcode::Nop, -1, -1, -1, 0);
        return true;
    }
    *err = csprintf("internal: unreachable crack for %#x", d.raw);
    return false;
}

// --- Log parsing ------------------------------------------------------

struct LogLine
{
    int lineno = 0;
    std::uint64_t pc = 0;
    std::uint32_t insn = 0;
};

bool
parseHex(const std::string &tok, std::uint64_t *out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoull(tok.c_str(), &end, 16);
    return end == tok.c_str() + tok.size();
}

bool
parseNum(const std::string &tok, std::uint64_t *out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoull(tok.c_str(), &end, 0);
    return end == tok.c_str() + tok.size();
}

} // namespace

std::shared_ptr<const FrozenTrace>
ingestRv64Log(std::istream &in, const std::string &name, std::string *err)
{
    std::vector<LogLine> lines;
    RegVal seedInt[32] = {};
    Machine m;

    const auto fail = [&](int lineno, const std::string &msg) {
        if (err)
            *err = csprintf("line %d: %s", lineno, msg.c_str());
        return nullptr;
    };

    std::string line;
    int lineno = 0;
    bool sawInst = false;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream is(line);
        std::string t0;
        if (!(is >> t0))
            continue;
        if (t0 == "reg" || t0 == "mem") {
            if (sawInst) {
                return fail(lineno, "state seeds are only legal before "
                            "the first instruction");
            }
            std::string a, v;
            std::uint64_t val = 0;
            if (!(is >> a >> v) || !parseNum(v, &val))
                return fail(lineno, "bad seed directive");
            if (t0 == "reg") {
                std::uint64_t n = 0;
                if (a.size() < 2 || a[0] != 'x'
                    || !parseNum(a.substr(1), &n) || n > 31) {
                    return fail(lineno, "bad register name \"" + a
                                + "\" (want x0..x31)");
                }
                if (n == 0 && val != 0)
                    return fail(lineno, "x0 is hard-wired to zero");
                seedInt[n] = val;
            } else {
                std::uint64_t addr = 0;
                if (!parseNum(a, &addr))
                    return fail(lineno, "bad memory address \"" + a + "\"");
                m.store(addr, 8, val);
            }
            continue;
        }

        // Instruction line: spike "core N: 0xPC (0xINSN) ..." or a
        // bare "PC INSN" hex pair.
        std::string pc_tok, insn_tok;
        if (t0 == "core") {
            std::string hart;
            if (!(is >> hart >> pc_tok >> insn_tok))
                return fail(lineno, "bad spike line");
        } else {
            pc_tok = t0;
            if (!(is >> insn_tok))
                return fail(lineno, "expected \"<pc> <insn>\" hex pair");
        }
        if (insn_tok.size() >= 2 && insn_tok.front() == '(')
            insn_tok = insn_tok.substr(1, insn_tok.size() - 2);
        std::uint64_t pc = 0, insn = 0;
        if (!parseHex(pc_tok, &pc) || !parseHex(insn_tok, &insn))
            return fail(lineno, "bad hex in instruction line");
        if (insn > 0xffffffffULL)
            return fail(lineno, "instruction word wider than 32 bits");
        if (pc % 4 != 0) {
            return fail(lineno, csprintf("misaligned pc %#llx (RVC is "
                        "unsupported)", (unsigned long long)pc));
        }
        sawInst = true;
        lines.push_back({lineno, pc, static_cast<std::uint32_t>(insn)});
    }
    if (lines.empty()) {
        if (err)
            *err = "no instruction lines in log";
        return nullptr;
    }

    // Pass 1: decode each unique pc and lay the cracks out contiguously
    // in ascending pc order — the synthetic program's static geometry.
    std::map<std::uint64_t, RvInst> prog;
    for (const LogLine &l : lines) {
        auto it = prog.find(l.pc);
        if (it != prog.end()) {
            if (it->second.raw != l.insn) {
                return fail(l.lineno, csprintf(
                    "pc %#llx changed encoding (%#x vs %#x on line %d): "
                    "self-modifying code is unsupported",
                    (unsigned long long)l.pc, l.insn, it->second.raw,
                    it->second.lineno));
            }
            continue;
        }
        RvInst d;
        std::string derr;
        if (!decode(l.pc, l.insn, &d, &derr))
            return fail(l.lineno, derr);
        d.lineno = l.lineno;
        prog.emplace(l.pc, d);
    }
    std::uint32_t next_sidx = 0;
    std::map<std::uint32_t, std::uint64_t> pcOfBase;
    for (auto &[pc, d] : prog) {
        d.sidx = next_sidx;
        pcOfBase.emplace(next_sidx, pc);
        next_sidx += static_cast<std::uint32_t>(d.nUops);
    }

    // Pass 2: re-execute the committed stream, emitting oracle µ-ops
    // and cross-checking computed control flow against the log.
    for (int i = 0; i < 32; ++i)
        m.x[i] = seedInt[i];
    m.out.reserve(lines.size() * 3);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const RvInst &d = prog.at(lines[i].pc);
        const std::size_t before = m.out.size();
        std::uint64_t next_pc = 0;
        std::string ierr;
        if (!emitInst(m, d, pcOfBase, &next_pc, &ierr))
            return fail(lines[i].lineno, ierr);
        panic_if(m.out.size() - before != static_cast<std::size_t>(d.nUops),
                 "rv64 ingest: crack emitted %zu µ-ops, decode promised %d",
                 m.out.size() - before, d.nUops);

        // Patch the final µ-op's nextPc to the successor's base and
        // verify the log agrees with our synthetic execution.
        auto nit = prog.find(next_pc);
        if (i + 1 < lines.size()) {
            if (next_pc != lines[i + 1].pc) {
                return fail(lines[i].lineno, csprintf(
                    "control flow diverges after pc %#llx: computed "
                    "next %#llx but the log commits %#llx (line %d) — "
                    "bad seed state or unsupported semantics",
                    (unsigned long long)d.pc,
                    (unsigned long long)next_pc,
                    (unsigned long long)lines[i + 1].pc,
                    lines[i + 1].lineno));
            }
            m.out.back().nextPc = Program::pcOf(nit->second.sidx);
        } else {
            m.out.back().nextPc = nit != prog.end()
                ? Program::pcOf(nit->second.sidx)
                : Program::pcOf(next_sidx);
        }
    }

    auto trace = std::make_shared<FrozenTrace>();
    trace->staticStorage = std::move(m.statics);
    trace->storage = std::move(m.out);
    trace->complete = true;
    trace->name = name;
    trace->isFp = false;
    for (int i = 0; i < 32; ++i)
        trace->initIntRegs[i] = seedInt[i];
    trace->seal();
    return trace;
}

std::shared_ptr<const FrozenTrace>
ingestRv64LogFile(const std::string &path, const std::string &name,
                  std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open " + path;
        return nullptr;
    }
    return ingestRv64Log(in, name, err);
}

} // namespace eole
