#!/usr/bin/env python3
"""Generate the checked-in RV64I sample logs in tests/data/rv64/.

A tiny RV64I assembler + functional emulator: each sample program is a
list of (mnemonic, operands...) tuples with symbolic labels. The script
assembles them to machine words, emulates the committed stream, and
writes one `pc insn` hex line per committed instruction — exactly the
log shape `eole trace ingest` consumes (DESIGN.md §13). The samples
deliberately stay inside the ingester's supported subset: no RVC, no
CSR/ECALL, no unsigned or word division, JALR only with imm=0 and
rd != rs1.

Regenerate (byte-stable) with:  python3 scripts/gen_rv64_samples.py
"""

import os
import sys

MASK64 = (1 << 64) - 1


def sext(v, bits):
    v &= (1 << bits) - 1
    return v - (1 << bits) if v & (1 << (bits - 1)) else v


# --- encoders ----------------------------------------------------------

def enc_r(f7, rs2, rs1, f3, rd, op):
    return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
        | (rd << 7) | op


def enc_i(imm, rs1, f3, rd, op):
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) \
        | (rd << 7) | op


def enc_s(imm, rs2, rs1, f3, op):
    return (((imm >> 5) & 0x7F) << 25) | (rs2 << 20) | (rs1 << 15) \
        | (f3 << 12) | ((imm & 0x1F) << 7) | op


def enc_b(imm, rs2, rs1, f3):
    return (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25) \
        | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
        | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | 0x63


def enc_u(imm, rd, op):
    return (imm & 0xFFFFF000) | (rd << 7) | op


def enc_j(imm, rd):
    return (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21) \
        | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12) \
        | (rd << 7) | 0x6F


R_OPS = {  # mnemonic: (funct7, funct3, opcode)
    'add': (0x00, 0, 0x33), 'sub': (0x20, 0, 0x33),
    'sll': (0x00, 1, 0x33), 'slt': (0x00, 2, 0x33),
    'sltu': (0x00, 3, 0x33), 'xor': (0x00, 4, 0x33),
    'srl': (0x00, 5, 0x33), 'sra': (0x20, 5, 0x33),
    'or': (0x00, 6, 0x33), 'and': (0x00, 7, 0x33),
    'mul': (0x01, 0, 0x33),
    'addw': (0x00, 0, 0x3B), 'subw': (0x20, 0, 0x3B),
    'sllw': (0x00, 1, 0x3B), 'srlw': (0x00, 5, 0x3B),
    'sraw': (0x20, 5, 0x3B), 'mulw': (0x01, 0, 0x3B),
}
I_OPS = {
    'addi': (0, 0x13), 'slti': (2, 0x13), 'sltiu': (3, 0x13),
    'xori': (4, 0x13), 'ori': (6, 0x13), 'andi': (7, 0x13),
    'addiw': (0, 0x1B),
}
LOADS = {'lb': 0, 'lh': 1, 'lw': 2, 'ld': 3, 'lbu': 4, 'lhu': 5,
         'lwu': 6}
STORES = {'sb': 0, 'sh': 1, 'sw': 2, 'sd': 3}
BRANCHES = {'beq': 0, 'bne': 1, 'blt': 4, 'bge': 5, 'bltu': 6,
            'bgeu': 7}


def assemble(prog, base):
    """Resolve labels and return {pc: (word, decoded)} in layout order."""
    # Pass 1: addresses.
    addr = {}
    pc = base
    for ent in prog:
        if isinstance(ent, str):
            addr[ent] = pc
        else:
            pc += 4
    # Pass 2: encode.
    out = []
    pc = base
    for ent in prog:
        if isinstance(ent, str):
            continue
        m, a = ent[0], list(ent[1:])
        if m in R_OPS:
            f7, f3, op = R_OPS[m]
            word = enc_r(f7, a[1], a[2], f3, a[0], op)
        elif m in I_OPS:
            f3, op = I_OPS[m]
            word = enc_i(a[2], a[1], f3, a[0], op)
        elif m == 'slli':
            word = enc_i(a[2], a[1], 1, a[0], 0x13)
        elif m == 'srli':
            word = enc_i(a[2], a[1], 5, a[0], 0x13)
        elif m == 'srai':
            word = enc_i(0x400 | a[2], a[1], 5, a[0], 0x13)
        elif m == 'slliw':
            word = enc_i(a[2], a[1], 1, a[0], 0x1B)
        elif m == 'srliw':
            word = enc_i(a[2], a[1], 5, a[0], 0x1B)
        elif m == 'sraiw':
            word = enc_i(0x400 | a[2], a[1], 5, a[0], 0x1B)
        elif m in LOADS:
            word = enc_i(a[2], a[1], LOADS[m], a[0], 0x03)
        elif m in STORES:
            word = enc_s(a[2], a[0], a[1], STORES[m], 0x23)
        elif m in BRANCHES:
            word = enc_b(addr[a[2]] - pc, a[1], a[0], BRANCHES[m])
        elif m == 'lui':
            word = enc_u(a[1], a[0], 0x37)
        elif m == 'auipc':
            word = enc_u(a[1], a[0], 0x17)
        elif m == 'jal':
            word = enc_j(addr[a[1]] - pc, a[0])
        elif m == 'jalr':
            word = enc_i(0, a[1], 0, a[0], 0x67)
        else:
            raise ValueError('unknown mnemonic ' + m)
        out.append((pc, word & 0xFFFFFFFF, (m, a, pc)))
        pc += 4
    return out


def emulate(insts, base, max_lines=100000):
    """Run the assembled program, returning committed (pc, word) pairs.
    Execution stops when the pc falls off the end of the program."""
    by_pc = {pc: (word, dec) for pc, word, dec in insts}
    end = base + 4 * len(insts)
    x = [0] * 32
    mem = {}
    log = []
    pc = base

    def load(a, n, signed):
        v = 0
        for i in range(n):
            v |= mem.get(a + i, 0) << (8 * i)
        return sext(v, 8 * n) & MASK64 if signed else v

    def store(a, n, v):
        for i in range(n):
            mem[a + i] = (v >> (8 * i)) & 0xFF

    while pc != end:
        word, (m, a, _) = by_pc[pc]
        log.append((pc, word))
        if len(log) > max_lines:
            raise RuntimeError('runaway program')
        nxt = pc + 4

        def wr(r, v):
            if r != 0:
                x[r] = v & MASK64

        s = lambda r: sext(x[r], 64)
        if m in ('addi', 'addiw'):
            v = s(a[1]) + a[2]
            wr(a[0], sext(v, 32) if m == 'addiw' else v)
        elif m == 'slti':
            wr(a[0], 1 if s(a[1]) < a[2] else 0)
        elif m == 'sltiu':
            wr(a[0], 1 if x[a[1]] < (a[2] & MASK64) else 0)
        elif m == 'xori':
            wr(a[0], x[a[1]] ^ (a[2] & MASK64))
        elif m == 'ori':
            wr(a[0], x[a[1]] | (a[2] & MASK64))
        elif m == 'andi':
            wr(a[0], x[a[1]] & (a[2] & MASK64))
        elif m == 'slli':
            wr(a[0], x[a[1]] << a[2])
        elif m == 'srli':
            wr(a[0], x[a[1]] >> a[2])
        elif m == 'srai':
            wr(a[0], s(a[1]) >> a[2])
        elif m == 'slliw':
            wr(a[0], sext(x[a[1]] << a[2], 32))
        elif m == 'srliw':
            wr(a[0], sext((x[a[1]] & 0xFFFFFFFF) >> a[2], 32))
        elif m == 'sraiw':
            wr(a[0], sext(x[a[1]], 32) >> a[2])
        elif m in ('add', 'sub', 'sll', 'srl', 'sra', 'slt', 'sltu',
                   'xor', 'or', 'and', 'mul'):
            b, c = a[1], a[2]
            v = {'add': lambda: x[b] + x[c],
                 'sub': lambda: x[b] - x[c],
                 'sll': lambda: x[b] << (x[c] & 63),
                 'srl': lambda: x[b] >> (x[c] & 63),
                 'sra': lambda: s(b) >> (x[c] & 63),
                 'slt': lambda: 1 if s(b) < s(c) else 0,
                 'sltu': lambda: 1 if x[b] < x[c] else 0,
                 'xor': lambda: x[b] ^ x[c],
                 'or': lambda: x[b] | x[c],
                 'and': lambda: x[b] & x[c],
                 'mul': lambda: x[b] * x[c]}[m]()
            wr(a[0], v)
        elif m in ('addw', 'subw', 'mulw', 'sllw', 'srlw', 'sraw'):
            b, c = a[1], a[2]
            sh = x[c] & 31
            v = {'addw': lambda: x[b] + x[c],
                 'subw': lambda: x[b] - x[c],
                 'mulw': lambda: x[b] * x[c],
                 'sllw': lambda: x[b] << sh,
                 'srlw': lambda: (x[b] & 0xFFFFFFFF) >> sh,
                 'sraw': lambda: sext(x[b], 32) >> sh}[m]()
            wr(a[0], sext(v, 32))
        elif m == 'lui':
            wr(a[0], sext(a[1] & 0xFFFFF000, 32))
        elif m == 'auipc':
            wr(a[0], pc + sext(a[1] & 0xFFFFF000, 32))
        elif m in LOADS:
            n = 1 << (LOADS[m] & 3)
            wr(a[0], load((x[a[1]] + a[2]) & MASK64, n, LOADS[m] < 4))
        elif m in STORES:
            n = 1 << STORES[m]
            store((x[a[1]] + a[2]) & MASK64, n, x[a[0]])
        elif m in BRANCHES:
            b, c = a[0], a[1]
            take = {'beq': x[b] == x[c], 'bne': x[b] != x[c],
                    'blt': s(b) < s(c), 'bge': s(b) >= s(c),
                    'bltu': x[b] < x[c],
                    'bgeu': x[b] >= x[c]}[m]
            if take:
                nxt = pc + (enc_b_target(word, pc))
        elif m == 'jal':
            wr(a[0], pc + 4)
            nxt = pc + enc_j_target(word)
        elif m == 'jalr':
            t = x[a[1]] & ~1 & MASK64
            wr(a[0], pc + 4)
            nxt = t
        else:
            raise ValueError(m)
        pc = nxt
    return log


def enc_b_target(word, pc):
    imm = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) \
        | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
    return sext(imm, 13)


def enc_j_target(word):
    imm = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12) \
        | (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
    return sext(imm, 21)


# --- sample programs ---------------------------------------------------

BASE = 0x80000000

# fib: 40 iterations of the Fibonacci recurrence mod 2^64, repeated
# over 8 outer rounds mixing the result back in — pure ALU + branches.
FIB = [
    ('addi', 10, 0, 0),      # x10 = acc
    ('addi', 20, 0, 8),      # outer counter
    'outer',
    ('addi', 5, 0, 0),       # f0
    ('addi', 6, 0, 1),       # f1
    ('addi', 7, 0, 40),      # inner counter
    'fib',
    ('add', 8, 5, 6),
    ('add', 5, 0, 6),        # f0 = f1  (add x5, x0, x6)
    ('add', 6, 0, 8),        # f1 = f
    ('addi', 7, 7, -1),
    ('bne', 7, 0, 'fib'),
    ('xor', 10, 10, 6),      # mix
    ('addi', 20, 20, -1),
    ('bne', 20, 0, 'outer'),
]

# memsum: fill a 64-entry array with addi/sd, then a sum(base, n)
# function called 6 times via jal/jalr — loads, stores, call/ret.
MEMSUM = [
    ('lui', 2, 0x10000),     # x2 = array base 0x10000000
    ('addi', 5, 0, 0),       # i
    ('addi', 6, 0, 64),
    ('add', 7, 0, 2),        # cursor
    'fill',
    ('mul', 8, 5, 5),        # i*i
    ('sd', 8, 7, 0),
    ('addi', 7, 7, 8),
    ('addi', 5, 5, 1),
    ('blt', 5, 6, 'fill'),
    ('addi', 20, 0, 6),      # call counter
    ('addi', 10, 0, 0),      # acc
    'again',
    ('add', 11, 0, 2),       # arg0: base
    ('addi', 12, 0, 64),     # arg1: n
    ('jal', 1, 'sum'),
    ('add', 10, 10, 13),
    ('addi', 20, 20, -1),
    ('bne', 20, 0, 'again'),
    ('jal', 0, 'done'),
    'sum',                   # x13 = sum of x12 doublewords at x11
    ('addi', 13, 0, 0),
    ('add', 14, 0, 11),
    ('add', 15, 0, 12),
    'sumloop',
    ('ld', 16, 14, 0),
    ('add', 13, 13, 16),
    ('addi', 14, 14, 8),
    ('addi', 15, 15, -1),
    ('bne', 15, 0, 'sumloop'),
    ('jalr', 0, 1),          # ret
    'done',
]

# bitops: W-arithmetic, LUI/AUIPC data addressing, variable shifts,
# sltiu, and sub-word loads/stores over a scratch buffer.
BITOPS = [
    ('auipc', 2, 0x100),     # scratch buffer, pc-relative
    ('lui', 5, 0xDEAD1),
    ('addi', 5, 5, 0x7BE),
    ('addi', 20, 0, 48),     # rounds
    ('addi', 21, 0, 0),      # acc
    'round',
    ('andi', 6, 20, 31),     # variable shift amount
    ('sllw', 7, 5, 6),
    ('srlw', 8, 5, 6),
    ('sraw', 9, 5, 6),
    ('xor', 7, 7, 8),
    ('add', 7, 7, 9),
    ('addiw', 7, 7, 0x35),
    ('subw', 7, 7, 20),
    ('mulw', 7, 7, 5),
    ('slliw', 8, 7, 3),
    ('sraiw', 8, 8, 2),
    ('sltiu', 9, 8, 0x400),  # unsigned immediate compare
    ('add', 21, 21, 9),
    ('sw', 7, 2, 0),         # word store / signed halfword load back
    ('lh', 9, 2, 0),
    ('add', 21, 21, 9),
    ('sb', 7, 2, 4),
    ('lbu', 9, 2, 4),
    ('xor', 21, 21, 9),
    ('srai', 5, 5, 1),
    ('add', 5, 5, 21),
    ('addi', 20, 20, -1),
    ('bne', 20, 0, 'round'),
]

# wrap: eight loads from one pc whose address steps by a cache line
# from just below 2^63 to past it, so stride arithmetic on these
# addresses must wrap modulo 2^64.
WRAP = [
    ('addi', 6, 0, -1),      # x6 = 2^64 - 1
    ('srli', 6, 6, 1),       # 2^63 - 1
    ('andi', 6, 6, -128),    # 0x7fffffffffffff80
    ('addi', 7, 0, 8),       # load count
    'load',
    ('ld', 5, 6, 0),
    ('addi', 6, 6, 64),
    ('addi', 7, 7, -1),
    ('bne', 7, 0, 'load'),
]

SAMPLES = [
    ('fib.rvlog', FIB, [],
     'Iterative Fibonacci, 8 rounds of 40: pure ALU + branch traffic.'),
    ('memsum.rvlog', MEMSUM, [],
     'Fill a 64-entry array, then sum it 6 times through a jal/jalr '
     'function: loads, stores and call/return flow.'),
    ('bitops.rvlog', BITOPS, [],
     'W-arithmetic, variable shifts, sltiu and sub-word memory over a '
     'scratch buffer.'),
    ('wrap.rvlog', WRAP, [],
     'Eight loads from one pc stepping by 64 bytes across 2^63.'),
]


def main():
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, 'tests', 'data', 'rv64')
    os.makedirs(out_dir, exist_ok=True)
    for name, prog, seeds, desc in SAMPLES:
        insts = assemble(prog, BASE)
        log = emulate(insts, BASE)
        path = os.path.join(out_dir, name)
        with open(path, 'w') as f:
            f.write('# %s\n' % desc)
            f.write('# generated by scripts/gen_rv64_samples.py; '
                    'regenerate rather than editing\n')
            for directive in seeds:
                f.write(directive + '\n')
            for pc, word in log:
                f.write('%x %08x\n' % (pc, word))
        print('%s: %d static insts, %d committed lines'
              % (os.path.relpath(path), len(insts), len(log)))


if __name__ == '__main__':
    sys.exit(main())
