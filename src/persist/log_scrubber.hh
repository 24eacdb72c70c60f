/**
 * @file
 * Online log scrubber (lifelab): a background walker that piggybacks
 * on the FWB scan cadence (or an equivalent self-scheduled period
 * under non-FWB modes) and CRC-checks a bounded chunk of the log's
 * slot array per step, plus the remap table's bank redundancy.
 *
 * Per damaged slot the scrubber:
 *  - repairs in place when the damage is a single flipped bit (brute
 *    force over the 256 slot bits, accepting the unique flip that
 *    makes the CRC check out — the rewritten bytes are exactly the
 *    originally-logged ones, so repairing a *live* slot is safe);
 *  - zeroes the slot when it is uncorrectable but dead (reclaimed or
 *    truncated), so post-crash recovery sees a clean hole instead of
 *    noise it must bridge;
 *  - leaves live uncorrectable slots for recovery's quarantine logic.
 *
 * Every observation of damage increments the 64-byte line's error
 * streak; a line reaching the promote threshold is pushed into the
 * MemDevice's persistent bad-line remap table and its traffic moves
 * to a spare line — repeated transient errors are treated as the
 * early signature of a failing cell.
 *
 * All scrubber traffic goes through timed device accesses, so its
 * overhead shows up in the NVRAM read/write counters and the run's
 * timing — and is additionally totalled in the scrubber's own stat
 * group so EXPERIMENTS.md can quote the bounded overhead directly.
 */

#ifndef SNF_PERSIST_LOG_SCRUBBER_HH
#define SNF_PERSIST_LOG_SCRUBBER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/system_config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{
class MemDevice;
} // namespace snf::mem

namespace snf::persist
{

class LogRegion;

/** See file comment. */
class LogScrubber
{
  public:
    LogScrubber(mem::MemDevice &nvram, const PersistConfig &config);

    /** Register a log region (one per partition) to be walked. */
    void addRegion(LogRegion *region);

    /**
     * Scrub the next chunk (scrubChunkSlots slots, default 1/256th
     * of the total) and check remap-bank redundancy. Called from the
     * FWB scan hook or the self-scheduled event.
     */
    void step(Tick now);

    /** Walk every slot once (tests and final sweeps). */
    void scrubAll(Tick now);

    /**
     * Self-scheduling for non-FWB modes: run one step every
     * @p period ticks until stop().
     */
    void start(sim::EventQueue &events, Tick period, Tick now);

    /** Self-scheduled step period; 0 when riding the FWB cadence. */
    Tick period() const { return stepPeriod; }

    void stop() { running = false; }

    /** Current error streak of a 64-byte line (tests). */
    std::uint32_t errorStreak(Addr line) const;

    sim::StatGroup &stats() { return statGroup; }

  private:
    struct SlotRef
    {
        LogRegion *region;
        std::uint64_t slot;
        Addr addr;
    };

    void scheduleNext(sim::EventQueue &events, Tick now);
    void scrubSlot(const SlotRef &ref, Tick now);
    void checkRemapRedundancy(Tick now);
    std::uint64_t totalSlots() const;
    SlotRef slotRef(std::uint64_t globalIndex) const;

    mem::MemDevice &nvram;
    PersistConfig cfg;
    std::vector<LogRegion *> regions;
    std::uint64_t cursor = 0;
    std::unordered_map<Addr, std::uint32_t> streaks;
    bool running = false;
    Tick stepPeriod = 0;
    sim::StatGroup statGroup; // must precede the counter references

  public:
    sim::Counter &steps;
    sim::Counter &slotsScanned;
    sim::Counter &readBytes;
    sim::Counter &writeBytes;
    /** Slots whose single-bit damage was rewritten in place. */
    sim::Counter &repairs;
    /** Dead uncorrectable slots zeroed. */
    sim::Counter &zeroed;
    /** Live uncorrectable slots left for recovery to judge. */
    sim::Counter &uncorrectable;
    /** Lines promoted into the bad-line remap table. */
    sim::Counter &promotions;
    /** Remap-table bank redundancy restorations. */
    sim::Counter &bankRepairs;
};

} // namespace snf::persist

#endif // SNF_PERSIST_LOG_SCRUBBER_HH
