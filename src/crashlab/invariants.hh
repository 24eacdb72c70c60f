/**
 * @file
 * Failure-atomicity invariant checkers evaluated against one crash
 * snapshot. Each checker recovers private copies of the image and
 * compares the outcome with facts extracted from the reference run's
 * probe trace:
 *
 *  - header-valid        the log header survives every crash instant
 *  - replay-idempotent   replaying the log twice (no truncation)
 *                        yields a byte-identical image (I6)
 *  - truncate-idempotent recovering the already-recovered image finds
 *                        an empty log and changes nothing (I6)
 *  - verify              the workload's own structural check passes
 *                        on the recovered image (committed effects
 *                        durable, uncommitted rolled back) — only
 *                        enforced for modes that guarantee failure
 *                        atomicity
 *  - committed-upper     recovery never resurrects a transaction
 *                        whose commit had not executed by the crash
 *  - committed-durable   every commit record durable by the crash is
 *                        recovered as committed (needs an unwrapped
 *                        log: reclamation may erase old records)
 *  - uncommitted-bound   uncommitted generations are bounded by the
 *                        open-transaction count plus commits still in
 *                        flight (unwrapped log only)
 */

#ifndef SNF_CRASHLAB_INVARIANTS_HH
#define SNF_CRASHLAB_INVARIANTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "mem/backing_store.hh"
#include "persist/log_record.hh"
#include "persist/recovery.hh"
#include "workloads/workload.hh"

namespace snf::crashlab
{

/** One failed invariant at one crash point. */
struct Violation
{
    std::string invariant; ///< short checker name (see file comment)
    std::string detail;    ///< human-readable diagnosis
};

/** Append a violation of @p invariant to @p out. */
inline void
fail(std::vector<Violation> &out, const char *invariant,
     std::string detail)
{
    out.push_back(Violation{invariant, std::move(detail)});
}

/** Reference-run facts as of the crash tick. */
struct CrashFacts
{
    Tick tick = 0;
    std::uint64_t txBegun = 0;          ///< begins executed by tick
    std::uint64_t txCommitted = 0;      ///< commits initiated by tick
    std::uint64_t txDurableCommits = 0; ///< commit records durable
    std::uint32_t threads = 0;
    std::uint64_t logWraps = 0; ///< wraps over the whole run
    PersistMode mode = PersistMode::NonPers;
};

/** True when @p mode promises full failure atomicity on recovery. */
bool guaranteesFailureAtomicity(PersistMode mode);

/**
 * Run every applicable checker against the crash snapshot @p image.
 * @param image      NVRAM image at the crash instant (not modified;
 *                   checkers recover private copies)
 * @param map        the run's address map
 * @param wl         the workload, for its verify() check
 * @param facts      trace facts at the crash tick
 * @param recOpts    recovery knobs (fault injection passes through
 *                   so snfcrash --inject-* exercises the checkers)
 * @param reportOut  if non-null, receives the recovery report of the
 *                   canonical (truncating) pass
 * @return all violations found; empty means the crash point passed.
 */
std::vector<Violation>
checkCrashPoint(const mem::BackingStore &image, const AddressMap &map,
                const workloads::Workload &wl, const CrashFacts &facts,
                const persist::RecoveryOptions &recOpts,
                persist::RecoveryReport *reportOut = nullptr);

/** One log region header of a crash image (see walkLogImage). */
struct ImageRegion
{
    std::uint32_t index;
    Addr base;  ///< logical header address
    Addr media; ///< where the header's bytes are in the image
    std::uint64_t magic;
    std::uint64_t slots; ///< as the header claims
    /** The magic matches and the slot count fits the region. */
    bool intact;
};

/** One slot of an intact log region of a crash image. */
struct ImageSlot
{
    std::uint32_t region;
    std::uint64_t index;
    /** Logical slot address; fault decisions key on it because it
     *  stays put when the slot's line is promoted. */
    Addr addr;
    Addr media; ///< where the slot's live bytes are in the image
    std::uint8_t bytes[persist::LogRecord::kSlotBytes];
};

/**
 * Walk the log area of @p image: @p onRegion (may be empty) sees every
 * region header, then @p onSlot every slot of that region if it is
 * intact. Every read goes through the image's remap table (lifelab):
 * a promoted slot's live bytes are at its spare line. Headers and
 * slots never cross a 64-byte line, so one translation per read
 * suffices. @p onRegion may write to the header's media address.
 */
void walkLogImage(const mem::BackingStore &image, const AddressMap &map,
                  const std::function<void(const ImageRegion &)> &onRegion,
                  const std::function<void(const ImageSlot &)> &onSlot);

/**
 * Debug dump of the log window in @p image: header fields plus the
 * per-slot written/torn/commit summary of every non-empty slot.
 * Attached to minimized failure reports.
 */
std::string describeLogWindow(const mem::BackingStore &image,
                              const AddressMap &map);

} // namespace snf::crashlab

#endif // SNF_CRASHLAB_INVARIANTS_HH
