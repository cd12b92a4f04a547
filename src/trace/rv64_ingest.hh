/**
 * @file
 * RV64I → µ-op ingestion: turn a committed-instruction log from a real
 * RISC-V functional simulator (spike / QEMU style) into a FrozenTrace
 * in the internal µ-op vocabulary, ready to be written out as
 * eole-trace-v2 and replayed by the timing model.
 *
 * Input: a text log, one committed instruction per line, in program
 * (commit) order. Accepted line shapes:
 *
 *   # comment                               (ignored, as are blanks)
 *   reg x5 0x1000                           (register seed; pre-code only)
 *   mem 0x2000 0xdeadbeef                   (8-byte LE memory seed)
 *   core   0: 0x0000000080000000 (0x00500293) li t0, 5     (spike)
 *   80000000 00500293                       (bare pc/insn hex pair)
 *
 * The ingester cracks each RV64I instruction into 1..3 internal µ-ops
 * (see DESIGN.md §13 for the full table), re-executes the stream in a
 * self-consistent synthetic machine (architectural x-registers plus a
 * sparse byte memory seeded by the directives), and cross-checks its
 * computed control flow against the log's committed PC sequence line
 * by line — any divergence (bad seed, unsupported aliasing, wrong
 * decode) is a line-numbered error, not a silently wrong trace.
 *
 * Coordinate systems: data values and effective addresses stay in the
 * original program's address space; control-flow values (link
 * registers, indirect targets) live in the synthetic µ-op PC space,
 * because the timing core recomputes a call's link value as
 * `µ-op pc + uopBytes` and resolves indirect jumps by µ-op index.
 * Logs whose code treats code addresses as data (computed jump
 * tables over AUIPC bases) are rejected when the resulting indirect
 * target is not a µ-op boundary.
 *
 * Unsupported (line-numbered errors): compressed instructions (RVC),
 * ECALL/EBREAK/CSR, MULH*, unsigned/word division (DIVU/REMU/DIVW/
 * REMW/...), signed division by zero (RISC-V yields -1, this ISA 0),
 * JALR with a non-zero offset and no destination, JALR with rd == rs1,
 * and register/memory seeds after the first instruction.
 */

#ifndef EOLE_TRACE_RV64_INGEST_HH
#define EOLE_TRACE_RV64_INGEST_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "isa/frozen_trace.hh"

namespace eole {

/**
 * Ingest an RV64I commit log from @p in.
 *
 * @param name workload name embedded in the trace (<= 63 bytes)
 * @param err line-numbered diagnostic on failure
 * @return the trace (complete=true), or null with @p err set.
 */
std::shared_ptr<const FrozenTrace>
ingestRv64Log(std::istream &in, const std::string &name, std::string *err);

/** File wrapper around ingestRv64Log. */
std::shared_ptr<const FrozenTrace>
ingestRv64LogFile(const std::string &path, const std::string &name,
                  std::string *err);

} // namespace eole

#endif // EOLE_TRACE_RV64_INGEST_HH
