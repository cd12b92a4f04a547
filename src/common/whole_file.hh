/**
 * @file
 * Write a file whole or not at all.
 *
 * Trace files (trace/trace_file.hh), store objects and the store index
 * (sim/store.hh), and `ckpt save` checkpoint files are written through
 * writeWholeFile: later runs read them back, so a writer that fails or
 * is killed part-way must leave the old file, or no file, never a
 * truncated one.
 */

#ifndef EOLE_COMMON_WHOLE_FILE_HH
#define EOLE_COMMON_WHOLE_FILE_HH

#include <cstdio>
#include <functional>
#include <string>

namespace eole {

/**
 * Write @p path with @p write, which returns false on a failed write.
 *
 * When @p path is a regular file or does not exist, the bytes go to a
 * temporary file in its directory that is renamed over @p path once
 * @p write succeeded and the file closed cleanly. When @p path exists
 * and is not a regular file (a device, a FIFO), it is written in place
 * and never removed or renamed. There is no fsync: the rename orders
 * the replacement against other processes, not against a power cut.
 *
 * @return false, with the reason in @p err, when opening, writing,
 *         closing or renaming fails; only the temporary file is
 *         removed.
 */
bool writeWholeFile(const std::string &path,
                    const std::function<bool(std::FILE *)> &write,
                    std::string *err);

} // namespace eole

#endif // EOLE_COMMON_WHOLE_FILE_HH
