/**
 * @file
 * Post-crash recovery (paper Section IV-F), extended into a salvaging
 * scanner (faultlab): classify every log slot (valid / torn /
 * CRC-fail / stale-pass), locate the live window via the torn-bit
 * boundary scan while bridging damaged slots, replay redo values of
 * committed transactions in log order, roll back uncommitted
 * transactions with undo values in reverse order, quarantine only the
 * committed transactions whose records are damaged or missing, and
 * truncate the log. One pass serves every split of the log area — a
 * centralized log, per-core partitions (Section III-F) and
 * address-interleaved shards are all N circular regions scanned the
 * same way, with commit decisions joined across regions. All recovery
 * writes bypass the (volatile, reset) caches and go directly to the
 * NVRAM image.
 */

#ifndef SNF_PERSIST_RECOVERY_HH
#define SNF_PERSIST_RECOVERY_HH

#include <cstdint>
#include <vector>

#include "core/system_config.hh"
#include "mem/backing_store.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace snf::persist
{

/** Knobs of one recovery pass. */
struct RecoveryOptions
{
    /**
     * Clear the log window after replay (paper Step 4); disable to
     * test idempotence of the replay itself.
     */
    bool truncateLog = true;
    /**
     * Fault injection for crashlab self-tests (tools/snfcrash
     * --inject-*): deliberately skip the undo / redo replay phase so
     * the sweep's invariant checkers have a real bug to catch and
     * minimize. Never set outside tests.
     */
    bool faultSkipUndo = false;
    bool faultSkipRedo = false;
    /**
     * Fault injection: trust every written slot without verifying its
     * CRC, reverting to the pre-faultlab scanner. Gives the faulted
     * sweeps a real detection bug to catch. Never set outside tests.
     */
    bool faultIgnoreCrc = false;

    // --- lifelab: crash-during-recovery and self-healing ---
    /**
     * Interrupt recovery after this many 64-byte-line NVRAM writes:
     * further writes are suppressed (the image is exactly what a
     * crash at that point leaves) while bookkeeping continues, so
     * writesIssued still reports the full pass. Recovery control
     * flow only reads state captured before its first write, which
     * is what makes the suppressed tail equivalent to a kill.
     */
    std::uint64_t crashAfterWrites = ~0ULL;
    /** Record every 64-byte line recovery writes (report.touchedLines),
     *  for the lifecycle's cross-generation invariant I9. */
    bool collectWrites = false;
    /**
     * Promote the lines of damaged (torn / CRC-fail) log slots into
     * the image's persistent remap table before truncation, so the
     * next generation's log traffic avoids them. Needs a remap region
     * in the address map; a no-op without one.
     */
    bool promoteBadLines = false;
    /** Emits one RecoveryWrite event per line write when set. */
    sim::ProbeFn probe;
};

/**
 * Per-region outcome of a recovery pass over more than one log region
 * (shards or per-core partitions). A region whose header is
 * unreadable is dead: its records are lost and recovery degrades —
 * surviving regions are salvaged while every transaction whose
 * participation mask intersects the dead region is rolled back on the
 * regions that still hold its records.
 */
struct ShardSummary
{
    std::uint32_t shard = 0;
    bool headerValid = false;
    /** Header unreadable: the shard's slice is lost (degraded mode). */
    bool dead = false;
    /** The shard's circular log wrapped (reclamation ran). */
    bool wrapped = false;
    std::uint64_t slotsScanned = 0;
    std::uint64_t validRecords = 0;
    /** Committed transaction slices salvaged / quarantined here. */
    std::uint64_t salvagedTxns = 0;
    std::uint64_t quarantinedTxns = 0;
    /** Transaction slices rolled back (or lost) here because the
     *  transaction's participation mask intersects a dead shard. */
    std::uint64_t abortedDeadShard = 0;
};

/** Outcome summary of one recovery pass. */
struct RecoveryReport
{
    bool headerValid = false;
    std::uint64_t slotsScanned = 0;
    std::uint64_t validRecords = 0;
    /** Committed generations found (salvaged + quarantined). */
    std::uint64_t committedTxns = 0;
    std::uint64_t uncommittedTxns = 0;
    std::uint64_t redoApplied = 0;
    std::uint64_t undoApplied = 0;

    // --- salvaging scanner (faultlab) ---
    /** Committed transactions replayed normally. */
    std::uint64_t salvagedTxns = 0;
    /** Committed transactions left untouched because records were
     *  damaged or missing without a benign explanation. */
    std::uint64_t quarantinedTxns = 0;
    /** Per-error-class slot histogram over the whole region. */
    std::uint64_t emptySlots = 0;
    std::uint64_t tornSlots = 0;
    std::uint64_t crcFailSlots = 0;
    /** Valid slots carrying a stale pass parity inside the live
     *  window (old records exposed by a dropped overwrite). */
    std::uint64_t stalePassSlots = 0;
    /** Address of the first torn or CRC-damaged slot; 0 = none. */
    Addr firstBadSlotAddr = 0;
    /** 16-bit transaction IDs of the quarantined generations. */
    std::vector<std::uint16_t> quarantinedTxIds;

    // --- lifelab ---
    /** 64-byte-line writes the full pass wants (deterministic for a
     *  given image, budget or not). */
    std::uint64_t writesIssued = 0;
    /** Line writes actually applied (< writesIssued when the pass was
     *  cut short by crashAfterWrites). */
    std::uint64_t writesApplied = 0;
    /** True when crashAfterWrites suppressed at least one write. */
    bool interrupted = false;
    /** Damaged-slot lines newly promoted into the remap table. */
    std::uint64_t promotedLines = 0;
    /** Both remap-table banks failed CRC on a nonzero region: the
     *  mapping is lost and the image must not be trusted. */
    bool remapCorrupt = false;
    /** Lines written by this pass (only with opts.collectWrites). */
    std::vector<Addr> touchedLines;

    // --- shardlab (more than one log region) ---
    /** Per-region salvage summary; empty unless the log area has more
     *  than one region. */
    std::vector<ShardSummary> shards;
    /** Transactions aborted because of a dead region: committed ones
     *  whose participation mask intersects it (rolled back on the
     *  surviving shards), plus prepared ones whose commit record may
     *  have been lost with it. */
    std::uint64_t deadShardAborted = 0;
    std::vector<std::uint16_t> deadShardAbortTxIds;

    std::uint64_t
    damagedSlots() const
    {
        return tornSlots + crcFailSlots;
    }
};

/**
 * Installs a thread-local nanosecond accumulator that every
 * Recovery::run(image, map, ...) on this thread adds its wall-clock
 * to while the scope is alive. The crash sweep uses this to split
 * its per-point evaluation time into recover vs. check without
 * threading timers through every checker. Scopes nest (the previous
 * sink is restored on destruction); a null previous sink means
 * timing is off, which is the default.
 */
class RecoveryTimerScope
{
  public:
    explicit RecoveryTimerScope(std::uint64_t *sinkNs);
    ~RecoveryTimerScope();

    RecoveryTimerScope(const RecoveryTimerScope &) = delete;
    RecoveryTimerScope &operator=(const RecoveryTimerScope &) = delete;

  private:
    std::uint64_t *prev;
};

/**
 * The accumulator the innermost RecoveryTimerScope of this thread
 * installed, or null. Lets code that fans recovery work out to a
 * thread pool credit the workers' recovery time back to the caller's
 * timer (the thread-local scope does not span other threads).
 */
std::uint64_t *activeRecoveryTimerSink();

/** See file comment. */
class Recovery
{
  public:
    /**
     * Recover the NVRAM image in place.
     * @param image   the (crash-snapshot) NVRAM backing store
     * @param map     the system's address map (log location and
     *                region count)
     * @param truncateLog clear the log window after replay (default),
     *        matching the paper's Step 4; disable to test idempotence
     *        of the replay itself.
     */
    static RecoveryReport run(mem::BackingStore &image,
                              const AddressMap &map,
                              bool truncateLog = true);

    /**
     * As above with full options (fault injection for crashlab).
     *
     * A pass first analyzes the log (scan, live window, decisions),
     * reading only the metadata area [map.logBase(), map.heapBase()),
     * then replays and truncates. Each thread keeps its last analysis
     * and reuses it while the next image holds byte-identical
     * metadata under the same geometry and opts.faultIgnoreCrc; the
     * report, the image and the write sequence are the same either
     * way. Must not be re-entered from opts.probe.
     */
    static RecoveryReport run(mem::BackingStore &image,
                              const AddressMap &map,
                              const RecoveryOptions &opts);

    /** Passes on the calling thread so far that reused the previous
     *  pass's analysis. */
    static std::uint64_t analysesReused();
};

} // namespace snf::persist

#endif // SNF_PERSIST_RECOVERY_HH
