/**
 * @file
 * System configuration structures and the paper's Table II presets.
 *
 * All timing is expressed in core clock cycles at 2.5 GHz (0.4 ns per
 * cycle), matching the paper's processor configuration.
 */

#ifndef SNF_CORE_SYSTEM_CONFIG_HH
#define SNF_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace snf
{

/** The persistence scheme a run executes under (paper Section VI). */
enum class PersistMode
{
    NonPers,    ///< no persistence, no logging (ideal bound)
    UnsafeRedo, ///< software redo logging, no clwb (no guarantee)
    UnsafeUndo, ///< software undo logging, no clwb (no guarantee)
    RedoClwb,   ///< software redo logging + clwb + fences
    UndoClwb,   ///< software undo logging + clwb at commit
    HwRlog,     ///< hardware redo-only logging, no persistence guarantee
    HwUlog,     ///< hardware undo-only logging, no persistence guarantee
    Hwl,        ///< hardware undo+redo logging + software clwb at commit
    Fwb,        ///< full design: HWL + hardware force write-back
};

/** Human-readable short name, matching the paper's legend. */
const char *persistModeName(PersistMode mode);

/** All modes in paper presentation order. */
inline constexpr PersistMode kAllModes[] = {
    PersistMode::NonPers,   PersistMode::UnsafeRedo,
    PersistMode::UnsafeUndo, PersistMode::RedoClwb,
    PersistMode::UndoClwb,  PersistMode::HwRlog,
    PersistMode::HwUlog,    PersistMode::Hwl,
    PersistMode::Fwb,
};

/** True for modes whose logging runs in hardware (HWL paths). */
bool isHardwareLogging(PersistMode mode);

/** True for modes that inject software logging instructions. */
bool isSoftwareLogging(PersistMode mode);

/** True for modes that issue clwb over the transaction write-set. */
bool usesCommitClwb(PersistMode mode);

/**
 * True for modes whose log carries undo values, i.e. the only modes
 * where tx_abort() can roll stolen data back (Section II-B: redo-only
 * logging cannot tolerate steal). Workloads with aborting
 * transactions must skip them under the other modes.
 */
bool supportsAbort(PersistMode mode);

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    std::uint32_t latency = 4; ///< access latency in cycles

    std::uint32_t numLines() const { return sizeBytes / lineBytes; }

    std::uint32_t numSets() const { return numLines() / ways; }
};

/**
 * Deterministic NVRAM media-fault model (faultlab). All decisions are
 * pure hashes of (seed, line address, tick), so a run is bit-exact
 * reproducible per seed. Faults apply to the accepted-write path of a
 * device: the timing/energy model still charges the access, but the
 * bytes that land in the backing store may be damaged. Probabilities
 * are per 64-byte line written.
 */
struct FaultModelConfig
{
    std::uint64_t seed = 0;
    double bitFlipProb = 0.0;   ///< flip one bit in a written line
    double multiBitProb = 0.0;  ///< flip two distinct bits in a line
    double stuckRowProb = 0.0;  ///< row sticks: one word wedged per row
    double dropWriteProb = 0.0; ///< accepted write silently dropped
    double tornLineProb = 0.0;  ///< only the first 32 B of a line land
    /** Restrict injection to [regionBase, regionBase+regionSize). */
    Addr regionBase = 0;
    std::uint64_t regionSize = 0; ///< 0 = whole device
    /** Restrict injection to ticks in [windowStart, windowEnd). */
    Tick windowStart = 0;
    Tick windowEnd = 0; ///< 0 = no upper bound

    bool
    enabled() const
    {
        return bitFlipProb > 0.0 || multiBitProb > 0.0 ||
               stuckRowProb > 0.0 || dropWriteProb > 0.0 ||
               tornLineProb > 0.0;
    }

    /** No injected faults (the default). */
    static FaultModelConfig none() { return FaultModelConfig{}; }

    /** Rare single-bit upsets, the common PCM field-failure mode. */
    static FaultModelConfig
    light(std::uint64_t seed)
    {
        FaultModelConfig f;
        f.seed = seed;
        f.bitFlipProb = 1e-4;
        return f;
    }

    /** Aggressive mixed-mode damage for stress testing recovery. */
    static FaultModelConfig
    heavy(std::uint64_t seed)
    {
        FaultModelConfig f;
        f.seed = seed;
        f.bitFlipProb = 1e-3;
        f.multiBitProb = 2e-4;
        f.dropWriteProb = 2e-4;
        f.tornLineProb = 2e-4;
        return f;
    }
};

/** Timing/energy model of a memory device (DRAM or NVRAM DIMM). */
struct MemDeviceConfig
{
    std::uint64_t sizeBytes = 8ULL << 30;
    std::uint32_t banks = 8;
    std::uint32_t rowBytes = 2048;
    std::uint32_t rowHitLat = 90;        ///< 36 ns row-buffer hit
    std::uint32_t readConflictLat = 250; ///< 100 ns read conflict
    std::uint32_t writeConflictLat = 750;///< 300 ns write conflict
    std::uint32_t burstCycles = 8;       ///< channel occupancy / 64B

    // Energy coefficients, pJ per bit (paper Table II, PCM [44]).
    double rowReadPjBit = 0.93;
    double rowWritePjBit = 1.02;
    double arrayReadPjBit = 2.47;
    double arrayWritePjBit = 16.82;

    /** Media-fault injection (faultlab); disabled by default. */
    FaultModelConfig faults;

    /**
     * Bad-line remapping (lifelab): geometry of the persistent remap
     * table and its spare-line area on this device. Zero sizes (the
     * default) disable remapping entirely. Populated by the System
     * from AddressMap::remapBase()/spareBase() for the NVRAM device.
     */
    Addr remapBase = 0;
    std::uint64_t remapSize = 0;
    Addr spareBase = 0;
    std::uint64_t spareSize = 0;
};

/** Simulated core (timing model) parameters. */
struct CoreConfig
{
    std::uint32_t issueWidth = 4;      ///< non-mem ops retired per cycle
    std::uint32_t storeBufferEntries = 32;
    std::uint32_t l1HitLat = 4;        ///< 1.6 ns at 2.5 GHz
};

/** Memory-controller queue model. */
struct McConfig
{
    std::uint32_t readQueue = 64;
    std::uint32_t writeQueue = 64;
};

/**
 * What a hardware log region does when an append finds no safely
 * reclaimable slot (every candidate still belongs to an active
 * transaction or covers data not yet written back).
 */
enum class LogFullPolicy
{
    /**
     * Legacy behavior: reclaim the slot anyway and count a hazard.
     * Keeps the paper's measured-overhead surface intact.
     */
    Reclaim,
    /**
     * Force the blocking data line back to NVRAM and retry with
     * bounded exponential backoff in simulated ticks; falls back to
     * Reclaim only once retries are exhausted.
     */
    Stall,
    /**
     * Like Stall, but when the blocker is an active transaction,
     * request its abort; the victim rolls back via its in-log undo
     * entries and retries.
     */
    AbortRetry,
};

/** Printable name of a LogFullPolicy. */
const char *logFullPolicyName(LogFullPolicy policy);

/**
 * Concurrency control over shared transactional data (the tx_load64 /
 * tx_store64 thread API). The paper's evaluation keeps transaction
 * footprints thread-disjoint, so the seed workloads ran without any
 * CC; workloads that contend on cache lines must pick a scheme, since
 * in-place updates with steal mean two writers to one line would
 * corrupt each other's undo values.
 */
enum class CcMode
{
    /**
     * No concurrency control: tx_store64/tx_load64 degenerate to the
     * plain ops. Only sound for thread-disjoint footprints.
     */
    None,
    /**
     * Strict two-phase locking at cache-line granularity: reads and
     * writes take the line's exclusive lock at encounter time and
     * hold it to commit/abort. A lock wait that would close a cycle
     * in the waits-for graph aborts the requester (deadlock
     * avoidance with guaranteed progress).
     */
    TwoPhase,
    /**
     * TL2-style optimistic reads: writes still take encounter-time
     * exclusive line locks (steal makes that mandatory), but reads
     * only record the line's commit version and revalidate at
     * commit, diverting to tx_abort() on conflict.
     */
    Tl2,
};

/** Printable name of a CcMode. */
const char *ccModeName(CcMode mode);

/** Persistence machinery parameters (Sections III and IV). */
struct PersistConfig
{
    std::uint64_t logBytes = 4ULL << 20;  ///< circular log size (4 MB)
    std::uint32_t logBufferEntries = 15;  ///< volatile FIFO in the MC
    std::uint32_t wcbEntries = 6;         ///< write-combining buffer
    /**
     * FWB scan period in cycles; 0 selects the automatic derivation
     * from log size and NVRAM write bandwidth (Section IV-D).
     */
    Tick fwbPeriod = 0;
    /** Cycles of cache-port busy time charged per scanned line. */
    double fwbScanCostPerLine = 0.05;
    /** Record write journal in NVRAM for crash snapshots. */
    bool crashJournal = false;
    /**
     * Journal-checkpoint interval of the snapshot engine: the store
     * materializes a copy-on-write image every K journal entries so
     * snapshotAt(t) replays only the delta past the nearest
     * checkpoint. 0 disables checkpoints (full replay per snapshot —
     * the naive reference mode bench/sweep_perf compares against).
     * Only meaningful with crashJournal.
     */
    std::size_t snapshotCheckpointK = 1024;
    /**
     * Distributed per-thread logs (paper Section III-F): the log
     * area is partitioned into one circular region per core, each
     * with its own log buffer. Only meaningful for hardware-logging
     * modes; software baselines stay centralized.
     *
     * Constraint: recovery decides each partition's transactions
     * within that partition, so persistent data written by
     * transactions must be thread-private (the paper's
     * one-transaction-stream-per-thread model, Figure 4); committed
     * writes to shared addresses from different partitions have no
     * recovery-time order without a global LSN.
     */
    bool distributedLogs = false;
    /**
     * Ablation only: drop the memory controller's FIFO ordering of
     * log writes ahead of data write-backs. Violates the inherent
     * log-before-data guarantee (bench/ablation_ordering).
     */
    bool disableWbBarrier = false;
    /**
     * Crash-tooling self-test only: keep the write-back barrier's
     * timing (the run is cycle-identical) but journal each NVRAM data
     * write-back as issued *before* the barrier wait — modeling a
     * controller that posts the write-back into the ADR domain
     * without waiting for log-drain acceptance. Completion order
     * still happens to be log-first, so the linear-prefix crash sweep
     * sees nothing; only the persist-ordering adversary (reorderlab),
     * which explores legal completion orders of concurrently pending
     * writes, can catch the skipped ordering edge.
     */
    bool injectSkipWbBarrier = false;
    /**
     * Multi-controller log sharding (shardlab): the log area is split
     * into logShards equal circular regions, each modeling one memory
     * controller's slice of the line-address space. Every update
     * record for a data line lands in the shard owning that line
     * (shard = (line >> 6) mod logShards), so per-address record
     * order is preserved within one shard. A transaction touching
     * more than one shard commits through a two-phase protocol:
     * prepare records in every participant shard, then one commit
     * record in the owner shard carrying the participation mask.
     * 1 (the default) keeps the single centralized log byte-identical
     * to the pre-shard layout. Mutually exclusive with
     * distributedLogs (which partitions per core, not per address).
     */
    std::uint32_t logShards = 1;
    /**
     * Crash-tooling self-test only: the owner-shard commit record of
     * a cross-shard transaction is written with a participation mask
     * naming only the owner shard (cycle timing unchanged). Recovery
     * then redoes the owner shard's updates but treats every other
     * participant's prepared generation as unresolved and undoes it —
     * a mixed half-committed image the sharded crash sweep and the
     * conformlab differential must catch.
     */
    bool injectSkipShardMask = false;
    /** Behavior when a log append finds no reclaimable slot. */
    LogFullPolicy logFullPolicy = LogFullPolicy::Reclaim;
    /** Stall/AbortRetry: attempts before falling back to Reclaim. */
    std::uint32_t logFullRetries = 8;
    /** Stall/AbortRetry: base backoff in ticks (doubles per try). */
    Tick logFullBackoffBase = 64;
    /**
     * AbortRetry livelock guard: once the same thread has been made
     * the abort victim this many consecutive times without managing
     * to commit, further abort requests against it are denied and the
     * append escalates to the Stall policy for that slot (counted in
     * TxnTracker's escalations stat). 0 disables the cap.
     */
    std::uint32_t abortRetryCap = 8;

    /** Concurrency control for the tx_load64/tx_store64 API. */
    CcMode ccMode = CcMode::None;
    /** CC acquire-retry backoff in instructions (doubles per try). */
    std::uint32_t ccBackoffBase = 8;
    /** Cap on the CC acquire-retry backoff. */
    std::uint32_t ccBackoffCap = 1024;

    /**
     * Online log scrubber (lifelab): piggybacks on the FWB cadence
     * (or an equivalent self-scheduled period under non-FWB modes) to
     * CRC-walk a chunk of the log window in the background, rewriting
     * correctable slots, retiring uncorrectable dead ones, and
     * promoting repeat-offender lines into the bad-line remap table.
     */
    bool scrub = false;
    /** Slots checked per scrub step; 0 = slots/256 (one full walk of
     *  the log every 256 scan periods, bounding scrub reads to a
     *  sub-percent slice of device bandwidth). */
    std::uint64_t scrubChunkSlots = 0;
    /** Error observations on one line before it is promoted into the
     *  remap table. */
    std::uint32_t scrubPromoteThreshold = 3;
};

/** Physical address map of the simulated machine. */
struct AddressMap
{
    Addr dramBase = 0;
    std::uint64_t dramSize = 1ULL << 30;
    Addr nvramBase = 0x100000000ULL; ///< 4 GB boundary
    std::uint64_t nvramSize = 8ULL << 30;
    /** Log region lives at the bottom of NVRAM. */
    std::uint64_t logSize = 4ULL << 20;
    /**
     * Number of equal circular log regions the log area is split
     * into; 1 = centralized. System sets it from the persist config:
     * one per core for distributed per-thread logs (Section III-F),
     * one per address-interleaved shard (shardlab). Recovery treats
     * both splits alike.
     */
    std::uint32_t logRegions = 1;
    /**
     * Bad-line remap table region (lifelab), directly above the log:
     * two CRC-protected banks of mapping entries. 0 (the default)
     * disables remapping and keeps the pre-lifelab address map.
     */
    std::uint64_t remapSize = 0;
    /** Spare-line area the remap table hands lines out of. */
    std::uint64_t spareSize = 0;

    bool
    isNvram(Addr a) const
    {
        return a >= nvramBase && a < nvramBase + nvramSize;
    }

    bool
    isDram(Addr a) const
    {
        return a >= dramBase && a < dramBase + dramSize;
    }

    Addr logBase() const { return nvramBase; }

    /**
     * Number of circular log regions in the log area (minimum 1).
     * Recovery, the invariant checkers, and faultlab iterate regions
     * through this.
     */
    std::uint32_t
    logRegionCount() const
    {
        return logRegions > 0 ? logRegions : 1;
    }

    /** Remap-table region: NVRAM after the log. */
    Addr remapBase() const { return nvramBase + logSize; }

    /** Spare-line area: after the remap table. */
    Addr spareBase() const { return remapBase() + remapSize; }

    /** First heap address: NVRAM after log + remap + spares. */
    Addr heapBase() const { return spareBase() + spareSize; }
};

/** Complete configuration of one simulated system. */
struct SystemConfig
{
    std::string name = "paper";
    std::uint32_t numCores = 4;
    double clockGhz = 2.5;

    CoreConfig core;
    CacheConfig l1;
    CacheConfig l2;
    McConfig mc;
    MemDeviceConfig nvram;
    MemDeviceConfig dram;
    PersistConfig persist;
    AddressMap map;

    /** Paper Table II configuration (4 cores, 32 KB L1, 8 MB L2). */
    static SystemConfig paper(std::uint32_t cores = 4);

    /**
     * Proportionally scaled-down configuration for fast tests and
     * sweeps: smaller caches and log, same ratios and latencies.
     */
    static SystemConfig scaled(std::uint32_t cores = 4);

    /** Validate internal consistency; fatal() on bad values. */
    void validate() const;
};

} // namespace snf

#endif // SNF_CORE_SYSTEM_CONFIG_HH
