#include "crashlab/trace.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snf::crashlab
{

sim::ProbeFn
CrashTrace::collector()
{
    return [this](sim::ProbeEvent kind, Tick tick, std::uint64_t arg) {
        stream.push_back(Event{kind, tick, arg});
    };
}

void
CrashTrace::finalize()
{
    SNF_ASSERT(!finalized, "CrashTrace finalized twice");
    finalized = true;
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Event &a, const Event &b) {
                         return a.tick < b.tick;
                     });
    for (const Event &e : stream) {
        switch (e.kind) {
          case sim::ProbeEvent::TxBegin:
            beginTicks.push_back(e.tick);
            break;
          case sim::ProbeEvent::TxCommit:
            commitTicks.push_back(e.tick);
            break;
          case sim::ProbeEvent::CommitDurable:
            durableTicks.push_back(e.tick);
            break;
          case sim::ProbeEvent::TxAbort:
            abortTicks.push_back(e.tick);
            break;
          default:
            break;
        }
    }
}

std::vector<CrashPoint>
CrashTrace::harvest(Tick endTick) const
{
    SNF_ASSERT(finalized, "harvest() before finalize()");
    std::vector<CrashPoint> points;
    points.reserve(stream.size() * 2);
    for (const Event &e : stream) {
        if (e.tick > endTick)
            continue;
        // WcbDrop announces state the crash model already discarded
        // (the drop *is* the crash); it never changes the durable
        // image, so it yields no crash point of its own.
        if (e.kind == sim::ProbeEvent::WcbDrop)
            continue;
        if (e.tick > 0)
            points.push_back(CrashPoint{e.tick - 1, e.kind, true});
        points.push_back(CrashPoint{e.tick, e.kind, false});
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const CrashPoint &a, const CrashPoint &b) {
                         return a.tick < b.tick;
                     });
    points.erase(std::unique(points.begin(), points.end(),
                             [](const CrashPoint &a,
                                const CrashPoint &b) {
                                 return a.tick == b.tick;
                             }),
                 points.end());
    return points;
}

namespace
{

std::uint64_t
countLE(const std::vector<Tick> &sorted, Tick t)
{
    return static_cast<std::uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), t) -
        sorted.begin());
}

} // namespace

CrashFacts
CrashTrace::factsAt(Tick t, std::uint32_t threads,
                    std::uint64_t logWraps, PersistMode mode) const
{
    SNF_ASSERT(finalized, "factsAt() before finalize()");
    CrashFacts f;
    f.tick = t;
    f.txBegun = countLE(beginTicks, t);
    // Under undo-capable modes an abort's rollback closes with a
    // commit record, so initiated aborts join the commit-record upper
    // bound.
    f.txCommitted = countLE(commitTicks, t) + countLE(abortTicks, t);
    f.txDurableCommits = countLE(durableTicks, t);
    f.threads = threads;
    f.logWraps = logWraps;
    f.mode = mode;
    return f;
}

} // namespace snf::crashlab
