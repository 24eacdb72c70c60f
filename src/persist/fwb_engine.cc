#include "persist/fwb_engine.hh"

#include "mem/mem_device.hh"
#include "persist/log_region.hh"
#include "sim/logging.hh"

namespace snf::persist
{

namespace
{

/** Cycles of cache-port busy time charged per scanned line. */
constexpr double kScanCostPerLine = 0.05;

} // namespace

FwbEngine::FwbEngine(mem::MemorySystem &memory, sim::EventQueue &evq,
                     const PersistConfig &config,
                     std::uint32_t logPartitions)
    : mem(memory),
      events(evq),
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
    std::uint64_t slots = LogRegion::slotsIn(
        LogRegion::span(config.map, 0, partitions).bytes);
    // Sequential log-entry write service time at full NVRAM write
    // bandwidth; two slots coalesce per 64-byte line.
    Tick per_line = mem::MemDevice::sequentialWriteCycles(
        config.nvram, 2 * LogRecord::kSlotBytes);
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
    auto result = mem.fwbScanAll(now, kScanCostPerLine);
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
