#include "common/profiler.hh"

#include <atomic>

namespace eole {
namespace prof {

namespace {

struct Slot {
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> count{0};
};

Slot g_slots[NumSections];

std::atomic<bool> g_enabled{false};

} // namespace

const char *
sectionName(Section s)
{
    switch (s) {
      case StageFetch: return "stage.fetch";
      case StageRename: return "stage.rename";
      case StageDispatch: return "stage.dispatch";
      case StageIssue: return "stage.issue";
      case StageCompletion: return "stage.completion";
      case StageCommit: return "stage.commit";
      case ModelVpred: return "model.vpred";
      case ModelBpred: return "model.bpred";
      case ModelMem: return "model.mem";
      case WarmFunctional: return "warm.functional";
      case WarmRestore: return "warm.restore";
      default: return "unknown";
    }
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    for (auto &slot : g_slots) {
        slot.nanos.store(0, std::memory_order_relaxed);
        slot.count.store(0, std::memory_order_relaxed);
    }
}

std::uint64_t
sectionNanos(Section s)
{
    return g_slots[s].nanos.load(std::memory_order_relaxed);
}

std::uint64_t
sectionCount(Section s)
{
    return g_slots[s].count.load(std::memory_order_relaxed);
}

void
add(Section s, std::uint64_t nanos)
{
    g_slots[s].nanos.fetch_add(nanos, std::memory_order_relaxed);
    g_slots[s].count.fetch_add(1, std::memory_order_relaxed);
}

} // namespace prof
} // namespace eole
