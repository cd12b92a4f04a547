#include "isa/frozen_trace.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "common/logging.hh"
#include "isa/kernel_vm.hh"
#include "isa/static_inst.hh"

namespace eole {

namespace {

/** Records a spill writes per write(2) call. */
constexpr std::size_t spillChunkUops = 4096;

/** The spill sink: an unlinked mkstemp file that takes the records a
 *  chunk at a time and is then mapped read-only. Its inode lives
 *  exactly as long as the mapping. */
class SpillFile
{
  public:
    explicit SpillFile(const std::string &dir_) : dir(dir_)
    {
        std::string path = dir + "/eole-trace-spill-XXXXXX";
        fd = ::mkstemp(path.data());
        if (fd < 0)
            die("mkstemp");
        ::unlink(path.c_str());
    }

    ~SpillFile() { ::close(fd); }
    SpillFile(const SpillFile &) = delete;
    SpillFile &operator=(const SpillFile &) = delete;

    /** Write @p chunk's records and empty it. */
    void
    append(std::vector<UopRecord> &chunk)
    {
        const char *p = reinterpret_cast<const char *>(chunk.data());
        std::size_t left = chunk.size() * sizeof(UopRecord);
        while (left > 0) {
            const ssize_t n = ::write(fd, p, left);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                die("write");
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        chunk.clear();
    }

    /** Point @p trace at its heap static table and a read-only
     *  mapping of the @p count records written (an empty recording
     *  maps nothing). */
    void
    map(FrozenTrace &trace, std::size_t count)
    {
        trace.mmapBacked = true;
        trace.seal();
        if (count == 0)
            return;
        const std::size_t len = count * sizeof(UopRecord);
        void *base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
        if (base == MAP_FAILED)
            die("mmap");
        trace.uops.records = static_cast<const UopRecord *>(base);
        trace.uops.count = count;
        trace.mapping = std::shared_ptr<const void>(
            base, [len](const void *p) {
                ::munmap(const_cast<void *>(p), len);
            });
    }

  private:
    [[noreturn]] void
    die(const char *what) const
    {
        fatal("trace spill under %s: %s: %s", dir.c_str(), what,
              std::strerror(errno));
    }

    std::string dir;
    int fd = -1;
};

} // namespace

std::shared_ptr<const FrozenTrace>
recordTrace(const Program &program, std::size_t mem_bytes,
            const std::function<void(KernelVM &)> &init,
            std::uint64_t max_uops, const std::string &name, bool is_fp,
            const std::string &spill_dir)
{
    KernelVM vm(program, mem_bytes);
    if (init)
        init(vm);

    auto trace = std::make_shared<FrozenTrace>();
    trace->name = name;
    trace->isFp = is_fp;
    trace->staticStorage = vm.staticTable();
    for (int r = 0; r < numArchIntRegs; ++r)
        trace->initIntRegs[r] = vm.readIntReg(static_cast<RegIndex>(r));
    for (int r = 0; r < numArchFpRegs; ++r)
        trace->initFpRegs[r] = vm.readFpReg(static_cast<RegIndex>(r));

    // One recording loop, two sinks: the heap vector keeps every
    // record, a spill file takes them a chunk at a time. The VM writes
    // each record in place at the end of the sink.
    std::optional<SpillFile> spill;
    std::vector<UopRecord> chunk;
    if (!spill_dir.empty())
        spill.emplace(spill_dir);
    std::vector<UopRecord> &sink = spill ? chunk : trace->storage;
    sink.reserve(spill ? spillChunkUops
                       : static_cast<std::size_t>(std::min<std::uint64_t>(
                             max_uops, 1u << 22)));
    std::uint64_t recorded = 0;
    while (recorded < max_uops) {
        if (!vm.step(sink.emplace_back())) {
            sink.pop_back();
            break;
        }
        ++recorded;
        if (spill && sink.size() == spillChunkUops)
            spill->append(sink);
    }
    trace->complete = vm.halted();
    if (spill) {
        spill->append(sink);
        spill->map(*trace, static_cast<std::size_t>(recorded));
    } else {
        trace->seal();
    }
    return trace;
}

std::shared_ptr<const FrozenTrace>
clampTrace(std::shared_ptr<const FrozenTrace> trace, std::uint64_t max_uops)
{
    if (!trace || trace->uops.size() <= max_uops)
        return trace;

    auto view = std::make_shared<FrozenTrace>();
    view->uops = trace->uops;
    view->uops.count = static_cast<std::size_t>(max_uops);
    // µ-ops were cut off, so the clamped stream does not reach the
    // program's halt — never complete.
    view->complete = false;
    for (int r = 0; r < numArchIntRegs; ++r)
        view->initIntRegs[r] = trace->initIntRegs[r];
    for (int r = 0; r < numArchFpRegs; ++r)
        view->initFpRegs[r] = trace->initFpRegs[r];
    view->name = trace->name;
    view->isFp = trace->isFp;
    view->mmapBacked = trace->mmapBacked;
    view->mapping = std::move(trace);  // parent owns the bytes
    return view;
}

} // namespace eole
