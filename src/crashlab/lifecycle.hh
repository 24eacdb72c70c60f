/**
 * @file
 * Lifecycle — the multi-generation crash → salvaging-recover → resume
 * driver (lifelab). Each generation runs a resumable workload on the
 * image the previous generation's recovery produced, crashes it at a
 * deterministically chosen instant, optionally damages the snapshot
 * (faultlab image faults, which persist across generations via the
 * bad-line remap table), recovers with promotion + write collection,
 * and re-checks the crashlab invariant library plus the lifecycle's
 * own checks:
 *
 *  - I1–I8            the per-crash-point checkers of invariants.hh /
 *                     faultlab.hh, evaluated every generation
 *  - recovery-reentrant (I8 extension) recovery interrupted after any
 *                     number of NVRAM line writes and then re-run
 *                     converges byte-for-byte with an uninterrupted
 *                     pass — including the remap region
 *  - recovered-durable (I9) a byte recovered in generation k is never
 *                     lost in a later generation: the post-recovery
 *                     image may differ from the image the generation
 *                     adopted only at lines the generation's journaled
 *                     writes (done <= crash tick) or the recovery pass
 *                     itself touched
 *  - remap-table-valid the persistent remap table loads from at least
 *                     one CRC-valid bank every generation
 *  - superblock-continuity the generation number stamped in the
 *                     superblock advances by exactly one per resume
 */

#ifndef SNF_CRASHLAB_LIFECYCLE_HH
#define SNF_CRASHLAB_LIFECYCLE_HH

#include <cstdint>
#include <vector>

#include "crashlab/faultlab.hh"
#include "crashlab/invariants.hh"
#include "crashlab/sweep.hh"
#include "workloads/driver.hh"

namespace snf::crashlab
{

/** One soak: N generations of one workload cell. */
struct LifecycleConfig
{
    static constexpr std::uint32_t kNoSabotage = ~0u;

    /**
     * The workload cell each generation executes. crashAt is ignored
     * (the driver picks its own crash instant per generation) and
     * crashJournal is forced on. The workload must be resumable().
     * A zero map.remapSize is replaced by the lifelab default
     * geometry (16 KB table, 32 KB spares).
     */
    workloads::RunSpec run;
    /** Generations to execute (run + crash + recover each). */
    std::uint32_t generations = 5;
    /** Seed of the per-generation crash-instant choice. */
    std::uint64_t seed = 1;
    /** Snapshot damage applied before every recovery (faultlab). */
    ImageFaultConfig imageFaults;
    /**
     * Detection self-test hook: corrupt both remap-table banks of the
     * crash image at this generation; the soak must report a
     * remap-table-valid violation and stop. kNoSabotage disables.
     */
    std::uint32_t sabotageGeneration = kNoSabotage;
    /** Run the interrupted-recovery re-entrancy check per generation. */
    bool checkReentrancy = true;
    /** Interior write budgets probed by the re-entrancy check. */
    std::uint64_t reentrancyBudgets = 4;
    /**
     * Worker threads for the re-entrancy budget probes (each probe
     * recovers an independent COW copy); 0 = one per hardware thread
     * (resolveJobs).
     */
    std::size_t jobs = 0;
};

/** What one generation did and found. */
struct GenerationResult
{
    std::uint32_t generation = 0;
    Tick endTick = 0;
    Tick crashTick = 0;
    std::uint64_t committedTx = 0;
    std::uint64_t logWraps = 0;
    /** Log slots the image-fault pass damaged this generation. */
    std::uint64_t slotsFaulted = 0;
    /** Remap-table entries after this generation's recovery. */
    std::uint64_t remapEntries = 0;
    std::uint64_t scrubRepairs = 0;
    std::uint64_t scrubPromotions = 0;
    persist::RecoveryReport recovery;
    std::vector<Violation> violations;
};

/** Everything one soak produced. */
struct LifecycleResult
{
    std::vector<GenerationResult> generations;
    /** True when the soak stopped early (untrusted remap table). */
    bool aborted = false;
    /**
     * Phase timing + snapshot-engine counters summed over every
     * generation (refRunSec = simulation, snapshotSec = crash-image
     * reconstruction, recoverSec = recovery passes, checkSec =
     * checker work minus recovery; journal/replay/clone counters from
     * each generation's store). Shares the sweep's struct so snfsoak
     * --bench-json emits the same schema as snfcrash.
     */
    SweepPerf perf;

    std::uint64_t
    totalViolations() const
    {
        std::uint64_t n = 0;
        for (const GenerationResult &g : generations)
            n += g.violations.size();
        return n;
    }

    bool passed() const { return totalViolations() == 0 && !aborted; }
};

/** Run one soak. fatal() on misconfiguration. */
LifecycleResult runLifecycle(const LifecycleConfig &cfg);

/**
 * I8 extension: prove recovery of @p image is re-entrant. Runs one
 * uninterrupted reference pass on a copy, then for every interior
 * write budget that is a multiple of @p stride (stride 1 = every
 * interior point) runs an interrupted pass followed by a completing
 * pass and requires the result to be byte-identical to the reference
 * over the whole NVRAM range — remap region included. Also checks
 * that writesIssued is identical across passes (recovery's write plan
 * depends only on pre-write reads). @p opts should be the canonical
 * recovery options (promotion + truncation). @p image is not
 * modified. @p jobs > 1 probes the (independent) budgets on that many
 * threads; the reported violations are those of the lowest failing
 * budget either way.
 */
std::vector<Violation>
checkRecoveryReentrancy(const mem::BackingStore &image,
                        const AddressMap &map,
                        const persist::RecoveryOptions &opts,
                        std::uint64_t stride, std::size_t jobs = 1);

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_LIFECYCLE_HH
