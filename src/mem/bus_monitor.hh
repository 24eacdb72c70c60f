/**
 * @file
 * NVRAM-bus ordering monitor checking the paper's inherent ordering
 * guarantee (Section III-B): a store's log record must arrive at
 * NVRAM no later than any write-back of the line it modified
 * (invariant I3 in DESIGN.md), and no live log entry may be
 * overwritten while its working data is still volatile (I4).
 */

#ifndef SNF_MEM_BUS_MONITOR_HH
#define SNF_MEM_BUS_MONITOR_HH

#include <vector>

#include "sim/flat_map.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{

/**
 * Passive checker fed by the log buffer (append/drain events) and the
 * memory system (data-line write-back events). Violations increment
 * counters that tests assert to be zero for persistence-guaranteeing
 * modes.
 */
class BusMonitor
{
  public:
    BusMonitor();

    /** A log record covering @p dataLine was appended at @p tick. */
    void onLogAppend(Addr dataLine, Tick tick);

    /** That record's NVRAM write completes at @p drainTick. */
    void onLogDrain(Addr dataLine, Tick appendTick, Tick drainTick);

    /** A dirty data line was written back to NVRAM. */
    void onDataWriteback(Addr dataLine, Tick startTick, Tick doneTick);

    /** A live (unpersisted-data) log entry was overwritten. */
    void onLogOverwriteHazard();

    /**
     * Completion tick of the most recent NVRAM write-back of
     * @p dataLine; 0 if it was never written back.
     */
    Tick lastWritebackOf(Addr dataLine) const;

    void reset();

    /**
     * Crash-tooling probe: emits DataWriteback at every NVRAM
     * write-back completion this monitor observes.
     */
    void setProbe(sim::ProbeFn p) { probe = std::move(p); }

    sim::StatGroup &stats() { return statGroup; }

    std::uint64_t orderViolations() const { return orderViol.value(); }

    std::uint64_t overwriteHazards() const { return overwrite.value(); }

  private:
    struct PendingLog
    {
        Tick append;
        Tick drain;
    };

    sim::StatGroup statGroup;
    sim::Counter &orderViol;
    sim::Counter &overwrite;
    sim::Counter &checkedWritebacks;
    /** Per data line, its records not yet retired, append order. */
    sim::FlatMap<std::vector<PendingLog>> pending;
    sim::FlatMap<Tick> lastWb;
    sim::ProbeFn probe;
};

} // namespace snf::mem

#endif // SNF_MEM_BUS_MONITOR_HH
