#include "persist/txn_tracker.hh"

#include "sim/logging.hh"

namespace snf::persist
{

TxnTracker::TxnTracker()
    : statGroup("txn"),
      begun(statGroup.counter("begun")),
      committed(statGroup.counter("committed")),
      aborted(statGroup.counter("aborted")),
      abortRequests(statGroup.counter("abort_requests")),
      abortEscalations(statGroup.counter("abort_escalations")),
      lockAcquires(statGroup.counter("cc_lock_acquires")),
      lockWaits(statGroup.counter("cc_lock_waits")),
      deadlockAborts(statGroup.counter("cc_deadlock_aborts")),
      validationFailures(statGroup.counter("cc_validation_failures"))
{
}

std::uint64_t
TxnTracker::begin(CoreId thread)
{
    std::uint64_t seq = nextSeq++;
    Txn t;
    t.thread = thread;
    active.emplace(seq, std::move(t));
    begun.inc();
    return seq;
}

void
TxnTracker::commit(std::uint64_t seq)
{
    auto it = active.find(seq);
    SNF_ASSERT(it != active.end(), "commit of unknown txn %llu",
               static_cast<unsigned long long>(seq));
    // A successful commit proves the thread is making progress:
    // reset its victim streak.
    victimStreaks.erase(it->second.thread);
    releaseCc(it->second, seq, true);
    active.erase(it);
    committed.inc();
}

void
TxnTracker::abort(std::uint64_t seq)
{
    auto it = active.find(seq);
    if (it == active.end())
        return;
    if (it->second.abortRequested)
        ++victimStreaks[it->second.thread];
    releaseCc(it->second, seq, false);
    active.erase(it);
    aborted.inc();
}

void
TxnTracker::noteLogRecord(std::uint64_t seq, std::uint32_t region,
                          std::uint64_t slot)
{
    auto it = active.find(seq);
    if (it == active.end())
        return;
    ++it->second.logRecords;
    it->second.logSlots.push_back(LogSlotRef{region, slot});
}

const std::vector<TxnTracker::LogSlotRef> &
TxnTracker::logSlots(std::uint64_t seq) const
{
    auto it = active.find(seq);
    return it == active.end() ? noSlots : it->second.logSlots;
}

std::uint32_t
TxnTracker::logRecordCount(std::uint64_t seq) const
{
    auto it = active.find(seq);
    return it == active.end() ? 0 : it->second.logRecords;
}

void
TxnTracker::noteShardRecord(std::uint64_t seq, std::uint32_t shard)
{
    auto it = active.find(seq);
    if (it == active.end())
        return;
    it->second.shardMask |= 1ULL << shard;
    if (it->second.shardRecords.size() <= shard)
        it->second.shardRecords.resize(shard + 1, 0);
    ++it->second.shardRecords[shard];
}

std::uint64_t
TxnTracker::shardMaskOf(std::uint64_t seq) const
{
    auto it = active.find(seq);
    return it == active.end() ? 0 : it->second.shardMask;
}

std::uint32_t
TxnTracker::shardRecordCount(std::uint64_t seq,
                             std::uint32_t shard) const
{
    auto it = active.find(seq);
    if (it == active.end() || it->second.shardRecords.size() <= shard)
        return 0;
    return it->second.shardRecords[shard];
}

bool
TxnTracker::requestAbort(std::uint64_t seq)
{
    auto it = active.find(seq);
    if (it == active.end())
        return true; // already gone; nothing blocks the caller
    if (it->second.abortRequested)
        return true; // duplicate request, already granted
    auto vs = victimStreaks.find(it->second.thread);
    if (abortRetryCap != 0 && vs != victimStreaks.end() &&
        vs->second >= abortRetryCap) {
        abortEscalations.inc();
        return false;
    }
    it->second.abortRequested = true;
    abortRequests.inc();
    return true;
}

std::uint32_t
TxnTracker::victimStreak(CoreId thread) const
{
    auto it = victimStreaks.find(thread);
    return it == victimStreaks.end() ? 0 : it->second;
}

bool
TxnTracker::abortRequested(std::uint64_t seq) const
{
    auto it = active.find(seq);
    return it != active.end() && it->second.abortRequested;
}

bool
TxnTracker::isActive(std::uint64_t seq) const
{
    return active.count(seq) != 0;
}

void
TxnTracker::recordWrite(std::uint64_t seq, Addr lineAddr)
{
    auto it = active.find(seq);
    SNF_ASSERT(it != active.end(), "write in unknown txn %llu",
               static_cast<unsigned long long>(seq));
    if (it->second.seen.insert(lineAddr).second)
        it->second.writeLines.push_back(lineAddr);
}

const std::vector<Addr> &
TxnTracker::writeSet(std::uint64_t seq) const
{
    auto it = active.find(seq);
    return it == active.end() ? emptySet : it->second.writeLines;
}

CcDecision
TxnTracker::acquireLine(std::uint64_t seq, Addr line, bool forWrite)
{
    SNF_ASSERT(ccModeV != CcMode::None,
               "CC acquire with concurrency control disabled");
    auto it = active.find(seq);
    SNF_ASSERT(it != active.end(), "CC acquire in unknown txn %llu",
               static_cast<unsigned long long>(seq));
    Txn &txn = it->second;
    if (txn.abortRequested)
        return CcDecision::Abort; // doomed already; don't queue up

    const std::uint64_t *own = lockOwner.find(line);
    if (own && *own != seq) {
        // Held by someone else. Park on the waits-for edge unless
        // that would close a cycle.
        waitsFor[seq] = *own;
        if (wouldDeadlock(seq)) {
            waitsFor.erase(seq);
            deadlockAborts.inc();
            return CcDecision::Abort;
        }
        lockWaits.inc();
        return CcDecision::Wait;
    }
    waitsFor.erase(seq);

    if (forWrite || ccModeV == CcMode::TwoPhase) {
        if (!own) {
            lockOwner.insert(line, seq);
            txn.locksHeld.push_back(line);
            lockAcquires.inc();
        }
    } else {
        // TL2 read of an unlocked (or self-locked) line: record the
        // version seen at first read for commit-time validation.
        if (txn.readSeen.insert(line).second)
            txn.readSet.emplace_back(line, lineVersion(line));
    }
    return CcDecision::Granted;
}

bool
TxnTracker::wouldDeadlock(std::uint64_t seq) const
{
    // Each transaction has at most one outgoing waits-for edge, so
    // the reachable set is a chain; a cycle through the new edge must
    // lead back to the requester.
    const std::uint64_t *holder = waitsFor.find(seq);
    std::size_t hops = 0;
    while (holder && hops++ <= active.size()) {
        if (*holder == seq)
            return true;
        holder = waitsFor.find(*holder);
    }
    return false;
}

bool
TxnTracker::validateReads(std::uint64_t seq)
{
    auto it = active.find(seq);
    if (it == active.end())
        return true;
    for (const auto &[line, version] : it->second.readSet) {
        const std::uint64_t *own = lockOwner.find(line);
        if (own && *own != seq) {
            validationFailures.inc();
            return false;
        }
        if (lineVersion(line) != version) {
            validationFailures.inc();
            return false;
        }
    }
    return true;
}

std::size_t
TxnTracker::readSetSize(std::uint64_t seq) const
{
    auto it = active.find(seq);
    return it == active.end() ? 0 : it->second.readSet.size();
}

std::uint64_t
TxnTracker::lineVersion(Addr line) const
{
    const std::uint64_t *version = lineVersions.find(line);
    return version ? *version : 0;
}

std::uint64_t
TxnTracker::lockOwnerOf(Addr line) const
{
    const std::uint64_t *owner = lockOwner.find(line);
    return owner ? *owner : 0;
}

void
TxnTracker::releaseCc(const Txn &txn, std::uint64_t seq,
                      bool committing)
{
    if (committing && ccModeV != CcMode::None) {
        // Bump the written lines' versions so TL2 readers with older
        // versions fail validation.
        for (Addr line : txn.writeLines)
            lineVersions[line] = ++versionClock;
    }
    for (Addr line : txn.locksHeld) {
        const std::uint64_t *owner = lockOwner.find(line);
        if (owner && *owner == seq)
            lockOwner.erase(line);
    }
    waitsFor.erase(seq);
}

} // namespace snf::persist
