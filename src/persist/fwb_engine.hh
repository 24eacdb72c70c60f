/**
 * @file
 * The cache Force Write-Back (FWB) engine (paper Sections III-C and
 * IV-D): a periodic tag scan over every cache level driving the
 * IDLE -> FLAG -> FWB state machine per line, at a frequency derived
 * from the log size and NVRAM write bandwidth so that no live log
 * entry is ever overwritten while its working data is still volatile.
 */

#ifndef SNF_PERSIST_FWB_ENGINE_HH
#define SNF_PERSIST_FWB_ENGINE_HH

#include "core/system_config.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"

namespace snf::persist
{

/** See file comment. */
class FwbEngine
{
  public:
    /**
     * @param logPartitions per-core log partitions System split the
     *        log area into (1 = centralized); paces the derived period.
     */
    FwbEngine(mem::MemorySystem &memory, sim::EventQueue &events,
              const PersistConfig &config, std::uint32_t logPartitions);

    /** Begin periodic scanning (first scan after one period). */
    void start(Tick now);

    /** Stop scheduling further scans. */
    void stop() { running = false; }

    Tick period() const { return scanPeriod; }

    /**
     * Derive the scan period from log size and NVRAM write
     * bandwidth (Section IV-D): the log can wrap no faster than
     *     T_wrap = slots * t_entry_write,
     * and a dirty line needs at most two scans per level across two
     * levels (4 periods) to reach NVRAM, so with a 2x safety margin
     *     period = T_wrap / 8.
     * With @p partitions per-core partitions (distributed logs) a
     * single hot thread can wrap its own partition, so T_wrap is that
     * of one partition. Address-interleaved shards spread every
     * thread's records over all shards and keep the whole-log period.
     */
    static Tick derivePeriod(const SystemConfig &config,
                             std::uint32_t partitions);

    /**
     * Crash-tooling probe: emits FwbScan at each pass boundary (the
     * forced write-backs themselves surface via the bus monitor).
     */
    void setProbe(sim::ProbeFn p) { probe = std::move(p); }

    /**
     * Piggyback hook run at the end of every scan pass — the log
     * scrubber (lifelab) rides the FWB cadence so its background
     * traffic stays proportional to the existing scan overhead.
     */
    void
    setScanHook(std::function<void(Tick)> hook)
    {
        scanHook = std::move(hook);
    }

    sim::StatGroup &stats() { return statGroup; }

  private:
    void scheduleNext(Tick now);
    void scan(Tick now);

    mem::MemorySystem &mem;
    sim::EventQueue &events;
    PersistConfig cfg;
    Tick scanPeriod;
    bool running = false;
    sim::ProbeFn probe;
    std::function<void(Tick)> scanHook;
    sim::StatGroup statGroup;

  public:
    sim::Counter &scans;
    sim::Counter &flagged;
    sim::Counter &forcedWritebacks;
};

} // namespace snf::persist

#endif // SNF_PERSIST_FWB_ENGINE_HH
