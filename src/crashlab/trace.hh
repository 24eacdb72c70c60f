/**
 * @file
 * CrashTrace — records the probe-event stream of one instrumented
 * reference run and turns it into (a) the harvested list of
 * interesting crash points and (b) per-tick transaction facts the
 * invariant checkers compare recovery results against.
 *
 * The harvest replaces blind tick sweeps: the NVRAM image only
 * changes when a journaled write completes, so the instants worth
 * crashing at are the completions of log-buffer drains, data
 * write-backs and WCB flushes, FWB pass boundaries, and the
 * volatile-state edges at tx-begin/tx-commit. For each event tick t
 * the harvest emits both t-1 (just before the effect lands) and t
 * (just after), which brackets every torn/partial state the event
 * could expose.
 */

#ifndef SNF_CRASHLAB_TRACE_HH
#define SNF_CRASHLAB_TRACE_HH

#include <cstdint>
#include <vector>

#include "crashlab/invariants.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace snf::crashlab
{

/** One candidate crash instant and the event that nominated it. */
struct CrashPoint
{
    Tick tick = 0;
    sim::ProbeEvent kind = sim::ProbeEvent::LogDrain;
    /** True for the t-1 "just before the event lands" sibling. */
    bool before = false;
};

/** See file comment. */
class CrashTrace
{
  public:
    struct Event
    {
        sim::ProbeEvent kind;
        Tick tick;
        std::uint64_t arg;
    };

    /**
     * The collector to install with System::setProbe(). Captures
     * `this`; the trace must outlive the probe.
     */
    sim::ProbeFn collector();

    /**
     * Sort the recorded stream and build the count indices. Call
     * once, after the reference run and before any query below.
     */
    void finalize();

    const std::vector<Event> &events() const { return stream; }

    /**
     * Harvested crash points with tick <= @p endTick, deduplicated
     * and sorted by tick. Requires finalize().
     */
    std::vector<CrashPoint> harvest(Tick endTick) const;

    /**
     * The checkers' facts at crash tick @p t of a run of @p threads
     * threads under @p mode that wrapped its log @p logWraps times:
     * transactions begun, commits (and aborts) initiated, and commit
     * records durable by @p t. Requires finalize().
     */
    CrashFacts factsAt(Tick t, std::uint32_t threads,
                       std::uint64_t logWraps, PersistMode mode) const;

  private:
    std::vector<Event> stream;
    std::vector<Tick> beginTicks;   // sorted
    std::vector<Tick> commitTicks;  // sorted
    std::vector<Tick> durableTicks; // sorted
    std::vector<Tick> abortTicks;   // sorted
    bool finalized = false;
};

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_TRACE_HH
