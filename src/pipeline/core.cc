#include "pipeline/core.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/profiler.hh"
#include "isa/checkpoint.hh"

namespace eole {

Core::Core(const SimConfig &config, const Workload &workload)
    : state(std::make_unique<PipelineState>(config, workload)),
      stages(config)
{
    state->stages = &stages;
}

Core::~Core() = default;

void
Core::tick()
{
    state->beginCycle();
    if (!prof::enabled()) {
        stages.forEach([&](auto &stage, prof::Section) {
            stage.tick(*state);
        });
    } else {
        // Chained timestamps, not one ScopedTimer per stage: each
        // clock read both ends stage i and starts stage i+1, so the
        // whole tick body — including the reads themselves — lands in
        // some stage section and the per-cycle overhead is halved.
        // Gapped per-stage timers leave the read cost unattributed,
        // which at sub-µs stage ticks is a double-digit share of the
        // profiled run.
        auto t = std::chrono::steady_clock::now();
        stages.forEach([&](auto &stage, prof::Section section) {
            stage.tick(*state);
            const auto t2 = std::chrono::steady_clock::now();
            prof::add(section, static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t2 - t).count()));
            t = t2;
        });
    }
    state->endCycle();
}

std::uint64_t
Core::run(std::uint64_t target_commits, std::uint64_t max_cycles)
{
    const std::uint64_t start_commits = state->committedUops;
    const Cycle start_cycle = state->now;
    while (state->committedUops - start_commits < target_commits
           && state->now - start_cycle < max_cycles) {
        if (state->rob.empty() && state->renameOut.empty()
            && state->frontPipe.empty() && !state->ts.hasNext()) {
            break;  // trace drained
        }
        tick();
    }
    return state->committedUops - start_commits;
}

void
Core::resetStats()
{
    static_cast<CoreStats &>(*state) = CoreStats{};
}

void
Core::resetTiming()
{
    resetStats();
    state->mem->resetStats();
}

void
Core::functionalWarm(const FrozenTrace &trace, std::uint64_t begin,
                     std::uint64_t end)
{
    fatal_if(begin > end || end > trace.uops.size(),
             "functionalWarm [%llu, %llu) outside the %zu-µ-op trace",
             (unsigned long long)begin, (unsigned long long)end,
             trace.uops.size());

    prof::ScopedTimer timer(prof::WarmFunctional);
    state->mem->syncWarmClock(state->now);
    for (std::uint64_t i = begin; i < end; ++i) {
        const TraceUop &u = trace.uops[i];
        state->bu->warmUpdate(u);
        if (state->vp)
            state->vp->warmUpdate(u);
        state->mem->warmUpdate(u);
    }
    // Detailed simulation resumes after the warming pseudo-cycles so
    // every warmed fill/busy time is already in the past.
    state->now = std::max(state->now, state->mem->warmClockNow());
}

std::vector<std::pair<const char *, WarmableComponent *>>
Core::warmables() const
{
    std::vector<std::pair<const char *, WarmableComponent *>> out;
    out.emplace_back("branch", state->bu.get());
    if (state->vp)
        out.emplace_back("vpred", state->vp.get());
    out.emplace_back("mem", state->mem.get());
    return out;
}

void
Core::captureWarmState(Checkpoint &ckpt) const
{
    ckpt.config = state->cfg.name;
    ckpt.uarch.clear();
    for (const auto &[name, c] : warmables())
        ckpt.uarch.emplace_back(name, c->clone());
}

void
Core::appendWarmCheckpoint(std::string &out, const Checkpoint &arch) const
{
    // Sections that borrow this core's live components (shared_ptrs
    // that own nothing) render like by-value ones; the borrowing
    // checkpoint never leaves this call.
    Checkpoint ckpt = arch;
    ckpt.config = state->cfg.name;
    ckpt.uarch.clear();
    for (const auto &[name, c] : warmables()) {
        ckpt.uarch.emplace_back(
            name, std::shared_ptr<const WarmableComponent>(
                      std::shared_ptr<const void>(), c));
    }
    appendCheckpoint(out, ckpt);
}

void
Core::restoreWarmState(const Checkpoint &ckpt)
{
    if (!ckpt.hasWarmState())
        return;

    prof::ScopedTimer timer(prof::WarmRestore);

    // The section set must match this core's component set exactly,
    // checked before anything is restored: a checkpoint from a
    // different configuration (e.g. with value prediction when this
    // core has none) is an operator error, not something to silently
    // half-restore.
    const auto components = warmables();
    std::vector<WarmableComponent *> targets;
    for (const CheckpointSection &section : ckpt.uarch) {
        fatal_if(section.name == "vpred" && state->vp == nullptr,
                 "checkpoint carries a \"vpred\" section but this "
                 "configuration has no value predictor");
        WarmableComponent *target = nullptr;
        for (const auto &[name, c] : components) {
            if (section.name == name)
                target = c;
        }
        fatal_if(target == nullptr,
                 "checkpoint section \"%s\" matches no warmable "
                 "component", section.name.c_str());
        targets.push_back(target);
    }
    fatal_if(targets.size() != components.size(),
             "checkpoint restores %zu of %zu warmable components "
             "(value prediction %s in this configuration)",
             targets.size(), components.size(),
             state->vp ? "on" : "off");
    for (std::size_t i = 0; i < targets.size(); ++i)
        ckpt.uarch[i].restoreInto(*targets[i]);

    // Detailed simulation resumes after the restored warming
    // pseudo-cycles, exactly as after a live functionalWarm pass.
    state->now = std::max(state->now, state->mem->warmClockNow());
}

StatRecord
Core::record() const
{
    StatRecord r = stats().record();
    r.addAll("mem.", state->mem->record());
    return r;
}

} // namespace eole
