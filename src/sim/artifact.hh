/**
 * @file
 * Sweep artifacts: structured JSON/CSV output for PlanResults, a
 * reader for the JSON form, and a diff.
 *
 * The JSON writer is canonical and fully deterministic — fixed key
 * order, cells in config-major slot order, doubles printed with %.17g
 * (round-trip exact) — so byte-comparing two artifacts is a valid
 * equality check and is exactly how the engine's `--jobs` invariance
 * is pinned (tests/test_experiment.cc). No timestamps or host
 * information are recorded for the same reason.
 *
 * Schema v2 embeds each cell's complete canonical configuration map
 * ("params": registry keys -> canonical value text, sim/params.hh), so
 * an artifact records what a config *was*, not just its name, and
 * diffArtifacts reports config drift alongside stat drift. v1
 * artifacts (no params) still read; their cells carry empty maps.
 */

#ifndef EOLE_SIM_ARTIFACT_HH
#define EOLE_SIM_ARTIFACT_HH

#include <iosfwd>
#include <string>

#include "sim/sweep.hh"

namespace eole {

/** Canonical JSON artifact (schema "eole-sweep-v2"). */
void writeJsonArtifact(std::ostream &os, const PlanResult &result);

/** The same artifact as a string (byte-comparison in tests). */
std::string jsonArtifactString(const PlanResult &result);

/** Long-form CSV: header + one row per (cell, stat). */
void writeCsvArtifact(std::ostream &os, const PlanResult &result);

/** Parse an artifact produced by writeJsonArtifact (fatal on a
 *  malformed document or wrong schema). */
PlanResult readJsonArtifact(std::istream &is);

/** Convenience: read an artifact file (fatal if unreadable). */
PlanResult readJsonArtifactFile(const std::string &path);

struct DiffOptions
{
    double relTol = 0.0;   //!< per-stat relative tolerance
    double absTol = 0.0;   //!< per-stat absolute tolerance

    /**
     * CI-overlap mode for sampled artifacts: a stat X that carries a
     * companion "X_ci95" stat on both sides compares equal when the
     * two confidence intervals overlap (|a-b| <= ci_a + ci_b). The
     * companion "_ci95"/"_stddev" stats and the "sample_*"
     * bookkeeping stats are then treated as measurement metadata and
     * skipped (they differ across seeds by construction). Stats
     * without a CI companion still use relTol/absTol.
     */
    bool ciOverlap = false;

    int maxPrint = 25;     //!< differences to print before eliding
};

/**
 * Compare two artifacts cell-by-cell and stat-by-stat, reporting to
 * @p os. Returns the number of differences; 0 means the artifacts
 * agree within tolerance. A cell or stat key present on only one side
 * is always a reported difference, on both sides and under any
 * tolerance (a silently-absent stat is a schema drift, not agreement).
 */
std::size_t diffArtifacts(const PlanResult &a, const PlanResult &b,
                          const DiffOptions &options, std::ostream &os);

/** File-system-safe spelling of a cell identity component, as the
 *  shard partial and checkpoint file names use it. */
std::string sanitizeForPath(const std::string &s);

} // namespace eole

#endif // EOLE_SIM_ARTIFACT_HH
