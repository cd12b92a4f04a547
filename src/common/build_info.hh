/**
 * @file
 * Build provenance, embedded once at compile time.
 *
 * CMake passes git-describe output and compiler identity as compile
 * definitions on build_info.cc only, so touching the git state never
 * rebuilds more than one translation unit. The stamp is captured at
 * configure time; a stale describe after local commits without a
 * reconfigure is an accepted limitation (the dirty flag still marks
 * uncommitted edits from the configured state).
 *
 * The string is stamped into sweep artifacts, bench JSON, and
 * telemetry manifests so every result file records which binary made
 * it. Readers treat the field as opaque and informational: artifact
 * diffing and shard-merge provenance checks ignore it, keeping
 * byte-identity contracts same-binary properties.
 */

#ifndef EOLE_COMMON_BUILD_INFO_HH
#define EOLE_COMMON_BUILD_INFO_HH

#include <string>

namespace eole {

/** One-line human/artifact form: "g1a2b3c4 GNU-13.2.0 RelWithDebInfo". */
const std::string &buildInfoString();

} // namespace eole

#endif // EOLE_COMMON_BUILD_INFO_HH
