#include "common/build_info.hh"

// CMake defines these on this source file only; the fallbacks keep
// non-CMake compiles (e.g. tooling that parses the TU) working.
#ifndef EOLE_GIT_DESCRIBE
#define EOLE_GIT_DESCRIBE "unknown"
#endif
#ifndef EOLE_COMPILER_ID
#define EOLE_COMPILER_ID "unknown"
#endif
#ifndef EOLE_COMPILER_VERSION
#define EOLE_COMPILER_VERSION "0"
#endif
#ifndef EOLE_BUILD_TYPE
#define EOLE_BUILD_TYPE "unknown"
#endif

namespace eole {

const std::string &
buildInfoString()
{
    static const std::string s = std::string(EOLE_GIT_DESCRIBE) + " " +
                                 EOLE_COMPILER_ID "-" EOLE_COMPILER_VERSION
                                 " " EOLE_BUILD_TYPE;
    return s;
}

} // namespace eole
