/**
 * @file
 * Environment-variable parsing helpers shared by the run-length knobs
 * (EOLE_WARMUP / EOLE_INSTS / EOLE_THREADS), the trace-cache budget
 * and the torture harness.
 *
 * Run-length precedence (single source of truth — the experiment,
 * sweep and sampling layers all resolve through resolveRunLength):
 *
 *   explicit value (CLI flag / SweepOptions field)
 *     > plan field (ExperimentPlan::warmup / ::measure)
 *       > environment (EOLE_WARMUP / EOLE_INSTS)
 *         > built-in default (defaultWarmupUops / defaultMeasureUops)
 *
 * Zero means "unset" at every level above the built-in default, which
 * is why the defaults live here as named constants instead of being
 * re-spelled at each call site.
 */

#ifndef EOLE_COMMON_ENV_HH
#define EOLE_COMMON_ENV_HH

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace eole {

/**
 * Strict unsigned-integer parse (base auto-detected, so 0x... works):
 * rejects empty strings, signs (strtoull silently wraps "-1" to
 * 2^64-1) and trailing garbage. The one spelling of this check shared
 * by the parameter registry, plan files and the `eole` CLI.
 */
inline bool
parseU64Strict(const std::string &s, std::uint64_t *out)
{
    if (s.empty() || s.find_first_of("+-") != std::string::npos)
        return false;
    char *end = nullptr;
    *out = std::strtoull(s.c_str(), &end, 0);
    return end == s.c_str() + s.size();
}

/** DESIGN.md §5 run lengths: warm all structures for 1M µ-ops, then
 *  measure 5M µ-ops. */
constexpr std::uint64_t defaultWarmupUops = 1000000;
constexpr std::uint64_t defaultMeasureUops = 5000000;

/** The longest run length accepted from outside the program — a
 *  warmup, a measured length, a sample interval W or its detailed
 *  warmup D. 2^40 µ-ops is days of one worker, and far from wrapping
 *  the sums (warmup + measure + look-ahead) and cycle caps (x 60) the
 *  engine derives from run lengths. Every entry point checks it: the
 *  CLI flags, the environment, plan files and sample specs. */
constexpr std::uint64_t maxRunLengthUops = std::uint64_t{1} << 40;

/**
 * Environment variable @p name as a u64: @p fallback when unset or
 * empty, else parsed strictly (parseU64Strict) into @p out. Returns ""
 * or a diagnostic naming the variable when the value is malformed or
 * above @p max.
 */
inline std::string
tryEnvU64(const char *name, std::uint64_t fallback, std::uint64_t max,
          std::uint64_t *out)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0') {
        *out = fallback;
        return "";
    }
    if (!parseU64Strict(v, out))
        return std::string("bad ") + name + " \"" + v + "\"";
    if (*out > max) {
        return std::string(name) + "=" + v + " is above "
            + std::to_string(max);
    }
    return "";
}

/** tryEnvU64, fatal on a diagnostic. */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback,
       std::uint64_t max = ~std::uint64_t{0})
{
    std::uint64_t v = 0;
    const std::string err = tryEnvU64(name, fallback, max, &v);
    fatal_if(!err.empty(), "%s", err.c_str());
    return v;
}

/** Resolve a run-length knob with the precedence documented in the
 *  file header: explicit option > plan field > environment > default.
 *  The environment is bounded by maxRunLengthUops. */
inline std::uint64_t
resolveRunLength(std::uint64_t option_value, std::uint64_t plan_value,
                 const char *env_name, std::uint64_t fallback)
{
    if (option_value)
        return option_value;
    if (plan_value)
        return plan_value;
    return envU64(env_name, fallback, maxRunLengthUops);
}

} // namespace eole

#endif // EOLE_COMMON_ENV_HH
