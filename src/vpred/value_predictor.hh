/**
 * @file
 * Value-predictor interface and factory.
 *
 * Lifecycle per dynamic VP-eligible µ-op:
 *   1. predict(pc) at fetch -- returns the prediction record; the
 *      predictor may note a speculative in-flight instance (stride
 *      predictors project the last value forward by the in-flight
 *      count, as in the paper's reference [25]).
 *   2. Exactly one of:
 *        commit(pc, actual, lookup) -- retirement-order training, or
 *        squash(pc, lookup)         -- the instance was squashed.
 *
 * The prediction is architecturally *used* by the pipeline only when
 * lookup.confident is set (saturated FPC counter).
 */

#ifndef EOLE_VPRED_VALUE_PREDICTOR_HH
#define EOLE_VPRED_VALUE_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "bpred/history.hh"
#include "isa/trace.hh"
#include "isa/warmable.hh"

namespace eole {

/**
 * Per-lookup record carried by the µ-op until commit/squash. One flat,
 * trivially copyable value: a DynInst holds it inline, and neither a
 * prediction nor a recycled µ-op touches the heap. It has three parts:
 *  - the arbitrated prediction, the only part the pipeline reads;
 *  - VTAGE's part;
 *  - the part of the table component (stride, LVP or FCM).
 * Each component fills and trains from its own part only; a
 * single-component predictor leaves the other part at its defaults.
 */
struct VpLookup
{
    /** VTAGE's base table plus at most maxComps - 1 tagged tables. */
    static constexpr int maxComps = 8;

    /** VTAGE's part. The base index is the pc's alone, so training
     *  recomputes it; the tagged indices and tags hash the speculative
     *  history at fetch and are kept. */
    struct VtagePart
    {
        RegVal value = 0;              //!< VTAGE's own prediction
        RegVal altValue = 0;           //!< the alternate's value
        std::uint32_t idx[maxComps - 1] = {};  //!< per tagged table
        std::uint16_t tag[maxComps - 1] = {};
        std::int8_t provider = -1;     //!< longest tagged hit; -1 = base
        std::int8_t altProvider = -1;  //!< next tagged hit; -1 = base
        bool made = false;
        bool confident = false;
    };

    /** The stride, LVP or FCM component's part. */
    struct TablePart
    {
        RegVal value = 0;              //!< the component's own prediction
        std::uint32_t idx[2] = {};     //!< the pc's entry; FCM: + value entry
        bool made = false;
        bool confident = false;
        bool inflightNoted = false;    //!< stride: counted in flight
    };

    // The arbitrated prediction.
    RegVal value = 0;          //!< predicted value
    bool predictionMade = false;
    bool confident = false;    //!< FPC saturated: pipeline uses it
    std::int8_t provider = -1; //!< 0: the VTAGE part, 1: the table part

    VtagePart vtage;
    TablePart table;

    /** Arbitrate for VTAGE's own prediction. */
    void
    choose(const VtagePart &part)
    {
        value = part.value;
        predictionMade = part.made;
        confident = part.confident;
        provider = 0;
    }

    /** Arbitrate for the table component's own prediction. */
    void
    choose(const TablePart &part)
    {
        value = part.value;
        predictionMade = part.made;
        confident = part.confident;
        provider = 1;
    }
};

static_assert(std::is_trivially_copyable_v<VpLookup>,
              "VpLookup rides inline in every DynInst");
static_assert(sizeof(VpLookup) <= 104,
              "VpLookup must not grow DynInst");

/** Supported predictor kinds. */
enum class VpKind
{
    None,
    LastValue,
    Stride,
    TwoDeltaStride,
    Vtage,
    Fcm,
    HybridVtage2DStride,  //!< the paper's configuration (Table 2)
};

const char *vpKindName(VpKind kind);

/** Pipetrace annotation for a fetch-time lookup: "vp=conf" when the
 *  pipeline will use the prediction, "vp=unconf" for a lookup below the
 *  confidence bar (common/pipetrace.hh event taxonomy). */
const char *vpLookupAnnot(const VpLookup &lookup);

/** Abstract value predictor. */
class ValuePredictor : public WarmableComponent
{
  public:
    virtual ~ValuePredictor() = default;

    /** History folds required (VTAGE); registered with GlobalHistory. */
    virtual std::vector<std::pair<int, int>> foldSpecs() const
    {
        return {};
    }

    /** Late-bind the shared speculative history. */
    virtual void bindHistory(const GlobalHistory &hist,
                             std::size_t fold_base)
    {
        (void)hist;
        (void)fold_base;
    }

    /** Fetch-time prediction for the VP-eligible µ-op at @p pc. */
    virtual VpLookup predict(Addr pc) = 0;

    /** Retirement-order training with the architectural result. */
    virtual void commit(Addr pc, RegVal actual, const VpLookup &lookup) = 0;

    /** The fetched instance was squashed before retiring. */
    virtual void squash(Addr pc, const VpLookup &lookup)
    {
        (void)pc;
        (void)lookup;
    }

    /**
     * Functional warming (isa/warmable.hh): run the predict -> commit
     * lifecycle back-to-back for every predictable µ-op, mirroring the
     * fetch-stage eligibility rules (writes to the int zero register
     * are architecturally dropped and not predicted). Confidence and
     * tables evolve as in a detailed run of the same stream with one
     * in-flight instance per static µ-op (see DESIGN.md §8).
     */
    void
    warmUpdate(const TraceUop &uop) override
    {
        if (!uop.vpPredictable())
            return;
        const VpLookup lookup = predict(uop.pc);
        commit(uop.pc, uop.result, lookup);
    }

    virtual const char *name() const = 0;
};

/** Geometry knobs (Table 2 defaults). The kind defaults to None so
 *  that a default SimConfig is the paper's VP-less baseline; named
 *  configurations opt in to the hybrid.
 *  String-addressable via the parameter registry (sim/params.hh):
 *  "vp.kind", "vp.fpcVector", and the flat vtageX/fcmX/strideX fields
 *  under the "vp.vtage.", "vp.fcm." and "vp.stride." prefixes; new
 *  fields must be registered there. */
struct VpConfig
{
    VpKind kind = VpKind::None;
    std::vector<double> fpcVector; //!< empty = paper vector

    // Stride family.
    int strideLog2Entries = 13;    //!< 8192 entries, full tags

    // VTAGE.
    int vtageBaseLog2Entries = 13; //!< 8192-entry tagless base
    int vtageNumTagged = 6;
    int vtageTaggedLog2Entries = 10;
    int vtageTagBits = 12;         //!< + rank (component position)
    int vtageMinHist = 2;
    int vtageMaxHist = 64;

    // FCM.
    int fcmHistLog2Entries = 12;
    int fcmValueLog2Entries = 16;
    int fcmOrder = 3;
};

/** Build a predictor; returns nullptr for VpKind::None. */
std::unique_ptr<ValuePredictor> createValuePredictor(
    const VpConfig &config, std::uint64_t seed = 0x5eed);

} // namespace eole

#endif // EOLE_VPRED_VALUE_PREDICTOR_HH
