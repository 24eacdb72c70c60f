#include "persist/fwb_engine.hh"

#include "persist/log_record.hh"
#include "sim/logging.hh"

namespace snf::persist
{

FwbEngine::FwbEngine(mem::MemorySystem &memory, sim::EventQueue &evq,
                     const PersistConfig &config,
                     std::uint32_t logPartitions)
    : mem(memory),
      events(evq),
      cfg(config),
      scanPeriod(config.fwbPeriod != 0
                     ? config.fwbPeriod
                     : derivePeriod(memory.config(), logPartitions)),
      statGroup("fwb"),
      scans(statGroup.counter("scans")),
      flagged(statGroup.counter("flagged")),
      forcedWritebacks(statGroup.counter("forced_writebacks"))
{
}

Tick
FwbEngine::derivePeriod(const SystemConfig &config,
                        std::uint32_t partitions)
{
    std::uint64_t slots = (config.persist.logBytes / partitions - 64) /
                          LogRecord::kSlotBytes;
    // Sequential log-entry write service time at full NVRAM write
    // bandwidth; two slots coalesce per 64-byte line.
    mem::MemDevice probe("probe", config.nvram, config.map.nvramBase);
    Tick per_line =
        probe.sequentialWriteCycles(2 * LogRecord::kSlotBytes);
    Tick t_wrap = slots / 2 * per_line;
    Tick period = t_wrap / 8;
    return period == 0 ? 1 : period;
}

void
FwbEngine::start(Tick now)
{
    running = true;
    scheduleNext(now);
}

void
FwbEngine::scheduleNext(Tick now)
{
    events.schedule(now + scanPeriod, [this](Tick when) {
        if (!running)
            return;
        scan(when);
        scheduleNext(when);
    });
}

void
FwbEngine::scan(Tick now)
{
    auto result = mem.fwbScanAll(now, cfg.fwbScanCostPerLine);
    scans.inc();
    flagged.inc(result.linesFlagged);
    forcedWritebacks.inc(result.linesWrittenBack);
    if (probe)
        probe(sim::ProbeEvent::FwbScan,
              std::max(now, result.lastWritebackDone), scans.value());
    if (scanHook)
        scanHook(now);
}

} // namespace snf::persist
