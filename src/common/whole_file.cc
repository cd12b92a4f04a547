#include "common/whole_file.hh"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace eole {

bool
writeWholeFile(const std::string &path,
               const std::function<bool(std::FILE *)> &write,
               std::string *err)
{
    std::string tmp;
    int fd = -1;
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
        fd = ::open(path.c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC);
    } else {
        static std::atomic<unsigned> serial{0};
        const std::filesystem::path p(path);
        const std::filesystem::path dir =
            p.has_parent_path() ? p.parent_path() : ".";
        do {
            tmp = (dir / ("." + p.filename().string() + ".tmp"
                          + std::to_string(::getpid()) + "."
                          + std::to_string(serial.fetch_add(1)))).string();
            fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
        } while (fd < 0 && errno == EEXIST);
    }
    if (fd < 0) {
        *err = std::strerror(errno);
        return false;
    }

    const auto fail = [&](const std::string &msg) {
        if (!tmp.empty())
            ::unlink(tmp.c_str());
        *err = msg;
        return false;
    };
    std::FILE *f = ::fdopen(fd, "wb");
    if (!f) {
        const int e = errno;
        ::close(fd);
        return fail(std::strerror(e));
    }
    // Close before judging success: buffered bytes reach the file only
    // here, and a full disk at close must not count as written.
    const bool ok = write(f);
    if (std::fclose(f) != 0 || !ok)
        return fail("write failure");
    if (!tmp.empty() && ::rename(tmp.c_str(), path.c_str()) != 0)
        return fail(std::string("rename: ") + std::strerror(errno));
    return true;
}

} // namespace eole
