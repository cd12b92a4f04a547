/**
 * @file
 * Named experiment plans: every figure and table of the paper's
 * evaluation (plus the ablations that grew around it) as a declarative
 * ExperimentPlan the sweep engine can execute. The `eole` CLI can
 * list, run, filter and diff any entry (`eole run fig12`).
 */

#ifndef EOLE_SIM_PLANS_HH
#define EOLE_SIM_PLANS_HH

#include <string>
#include <vector>

#include "sim/plan.hh"

namespace eole {
namespace plans {

/** All registered plan names, in presentation order. */
const std::vector<std::string> &allNames();

/** Is @p name a registered plan? */
bool exists(const std::string &name);

/** Build a plan by name (fatal on unknown name). */
ExperimentPlan get(const std::string &name);

} // namespace plans
} // namespace eole

#endif // EOLE_SIM_PLANS_HH
