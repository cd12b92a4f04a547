/**
 * @file
 * TraceSource: the sequence-numbered replay of a recorded µ-op stream,
 * with rewind support.
 *
 * The timing simulator is trace-driven: it fetches the architecturally
 * correct path from this source. On a squash (branch/value misprediction
 * or memory-order violation) the front end rewinds to the first squashed
 * µ-op and re-fetches the same correct-path stream.
 *
 * The stream is always a shared immutable FrozenTrace — recorded to the
 * heap or a mapped spill file by the trace cache (sim/trace_cache.hh),
 * loaded from an eole-trace-v2 file, or recorded by the caller with
 * Workload::freeze — replayed by any number of concurrently running
 * cores. The source keeps no window of its own: fetch, rewind and
 * retire are index arithmetic over the shared array.
 */

#ifndef EOLE_ISA_TRACE_SOURCE_HH
#define EOLE_ISA_TRACE_SOURCE_HH

#include <memory>

#include "common/logging.hh"
#include "isa/checkpoint.hh"
#include "isa/frozen_trace.hh"
#include "isa/trace.hh"

namespace eole {

/**
 * Sequence-numbered replay of a FrozenTrace. Sequence numbers start at
 * 1 and are dense: µ-op i of the recording has sequence number i + 1.
 */
class TraceSource
{
  public:
    /** Replay @p trace from its first µ-op. */
    explicit TraceSource(std::shared_ptr<const FrozenTrace> trace)
        : frozen(std::move(trace))
    {
        panic_if(!frozen, "null frozen trace");
        uops = frozen->uops;
        for (int r = 0; r < numArchIntRegs; ++r)
            startIntRegs[r] = frozen->initIntRegs[r];
        for (int r = 0; r < numArchFpRegs; ++r)
            startFpRegs[r] = frozen->initFpRegs[r];
    }

    /**
     * Replay resuming mid-stream at @p ckpt: the first fetch returns
     * µ-op ckpt.uopIndex (sequence number uopIndex + 1), and the
     * initial-register accessors return the checkpoint's architectural
     * state instead of the trace's start state. The skipped prefix
     * counts as retired (it can never be rewound into).
     */
    TraceSource(std::shared_ptr<const FrozenTrace> trace,
                const Checkpoint &ckpt)
        : frozen(std::move(trace))
    {
        panic_if(!frozen, "null frozen trace");
        panic_if(ckpt.uopIndex > frozen->uops.size(),
                 "checkpoint at µ-op %llu outside the %zu-µ-op trace",
                 (unsigned long long)ckpt.uopIndex, frozen->uops.size());
        uops = frozen->uops;
        cursor = static_cast<std::size_t>(ckpt.uopIndex);
        highWater = cursor;
        retiredSeq = ckpt.uopIndex;
        for (int r = 0; r < numArchIntRegs; ++r)
            startIntRegs[r] = ckpt.intRegs[r];
        for (int r = 0; r < numArchFpRegs; ++r)
            startFpRegs[r] = ckpt.fpRegs[r];
    }

    /** Is a µ-op available at the cursor? Reading past the end of an
     *  incomplete recording is a hard error, never a silent stop. */
    bool
    hasNext() const
    {
        if (cursor < uops.size())
            return true;
        panic_if(!frozen->complete,
                 "frozen trace exhausted after %zu µ-ops but the "
                 "program has not halted; record a longer prefix",
                 uops.size());
        return false;
    }

    /** Sequence number the next fetch() will return. */
    SeqNum nextSeq() const { return cursor + 1; }

    /** Peek the µ-op at the cursor without consuming it. */
    TraceUop
    peek() const
    {
        panic_if(!hasNext(), "peek past end of trace");
        return uops[cursor];
    }

    /** Consume and return the µ-op at the cursor. */
    TraceUop
    fetch()
    {
        panic_if(!hasNext(), "fetch past end of trace");
        const TraceUop u = uops[cursor];
        ++cursor;
        if (cursor > highWater)
            highWater = cursor;
        return u;
    }

    /**
     * Rewind so that the next fetch returns sequence number @p seq:
     * a µ-op already fetched and not yet retired, or the next new one.
     */
    void
    rewindTo(SeqNum seq)
    {
        panic_if(seq <= retiredSeq || seq > highWater + 1,
                 "rewind to %llu outside window (%llu, %llu]",
                 (unsigned long long)seq, (unsigned long long)retiredSeq,
                 (unsigned long long)(highWater + 1));
        cursor = static_cast<std::size_t>(seq - 1);
    }

    /** Retire every µ-op with sequence number <= @p seq: no rewind may
     *  reach them again. */
    void
    retireUpTo(SeqNum seq)
    {
        panic_if(seq > cursor, "retiring unfetched µ-op %llu",
                 (unsigned long long)seq);
        if (seq > retiredSeq)
            retiredSeq = seq;
    }

    /** Architectural state at the stream's start point: the trace's
     *  post-init state, or the checkpoint's for a resumed replay. */
    RegVal initialIntReg(RegIndex r) const { return startIntRegs[r]; }
    RegVal initialFpReg(RegIndex r) const { return startFpRegs[r]; }

  private:
    std::shared_ptr<const FrozenTrace> frozen;  //!< keeps `uops` alive
    FrozenTrace::UopView uops;  //!< the recording's view, by value
    std::size_t cursor = 0;     //!< 0-based index of the next fetch
    std::size_t highWater = 0;  //!< max cursor ever reached
    SeqNum retiredSeq = 0;      //!< all seq <= this retired

    RegVal startIntRegs[numArchIntRegs] = {};
    RegVal startFpRegs[numArchFpRegs] = {};
};

} // namespace eole

#endif // EOLE_ISA_TRACE_SOURCE_HH
