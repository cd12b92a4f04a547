/**
 * @file
 * Rename stage with the EOLE Early Execution block (§3.2).
 *
 * Renames up to renameWidth µ-ops per cycle out of the front-end pipe
 * (bank-aware round-robin destination allocation), runs Early
 * Execution in parallel with rename on the rank of ALUs beside it,
 * publishes EE results and used predictions on the local bypass, and
 * makes the Late Execution routing decisions (§3.3). The EE block is
 * owned by this stage; its bypass state is dropped on every squash or
 * fetch redirect.
 */

#ifndef EOLE_PIPELINE_STAGES_RENAME_HH
#define EOLE_PIPELINE_STAGES_RENAME_HH

#include <vector>

#include "pipeline/dyn_inst.hh"
#include "pipeline/stages/early_exec.hh"
#include "sim/config.hh"

namespace eole {

struct PipelineState;

class RenameStage
{
  public:
    explicit RenameStage(const SimConfig &cfg);

    void tick(PipelineState &st);
    /** Walk back the renamed µ-ops younger than @p keep_seq and drop
     *  the EE bypass. */
    void squash(PipelineState &st, SeqNum keep_seq);
    /** Fetch was redirected by a resolved branch without a squash:
     *  drop the EE bypass. */
    void onFetchRedirect() { ee.reset(); }

  private:
    /** Try to execute @p di on the EE block (operands from immediates,
     *  predictions and the local bypass only -- never the PRF). */
    bool tryEarlyExecute(DynInst &di);

    int renameWidth;
    int dispatchWidth;
    int prfBanks;
    bool earlyExec;
    bool lateExec;
    bool lateExecBranches;

    EarlyExecBlock ee;
    std::vector<DynInst *> renameGroup;   //!< scratch: this cycle's group
                                          //!< (borrowed; renameOut owns)
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_RENAME_HH
