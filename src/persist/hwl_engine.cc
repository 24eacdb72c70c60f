#include "persist/hwl_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snf::persist
{

HwlEngine::HwlEngine(PersistMode m, std::vector<LogBuffer *> bufs,
                     std::vector<LogRegion *> regs,
                     TxnTracker &tracker, std::uint32_t logShards,
                     bool injectSkipShardMask)
    : mode(m),
      buffers(std::move(bufs)),
      regions(std::move(regs)),
      txns(tracker),
      shards(logShards > 0 ? logShards : 1),
      skipShardMask(injectSkipShardMask),
      statGroup("hwl"),
      updateRecords(statGroup.counter("update_records")),
      commitRecords(statGroup.counter("commit_records")),
      crossShardCommits(statGroup.counter("cross_shard_commits")),
      prepareRecords(statGroup.counter("prepare_records"))
{
    SNF_ASSERT(isHardwareLogging(m), "HWL engine with mode %s",
               persistModeName(m));
    SNF_ASSERT(!buffers.empty() && buffers.size() == regions.size(),
               "HWL engine needs matched buffer/region partitions");
    SNF_ASSERT(shards == 1 || buffers.size() == shards,
               "HWL engine: %zu regions for %u shards",
               buffers.size(), shards);
}

std::uint32_t
HwlEngine::indexFor(CoreId core, Addr addr) const
{
    if (shards > 1)
        return shardOf(addr);
    return static_cast<std::uint32_t>(core % buffers.size());
}

Tick
HwlEngine::onPersistentStore(CoreId core, std::uint64_t txSeq, Addr addr,
                             std::uint32_t size, std::uint64_t oldVal,
                             std::uint64_t newVal, Tick now)
{
    bool want_undo =
        mode == PersistMode::HwUlog || mode == PersistMode::Hwl ||
        mode == PersistMode::Fwb;
    bool want_redo =
        mode == PersistMode::HwRlog || mode == PersistMode::Hwl ||
        mode == PersistMode::Fwb;

    LogRecord rec = LogRecord::update(
        static_cast<std::uint8_t>(core), TxnTracker::txIdOf(txSeq),
        addr, static_cast<std::uint8_t>(size),
        want_undo ? std::optional<std::uint64_t>(oldVal) : std::nullopt,
        want_redo ? std::optional<std::uint64_t>(newVal)
                  : std::nullopt);
    std::uint32_t idx = indexFor(core, addr);
    LogBuffer &buf = *buffers[idx];
    Tick proceed = buf.append(rec, now);
    regions[idx]->bindSlotTx(buf.lastSlot(), txSeq);
    txns.noteLogRecord(txSeq, idx, buf.lastSlot());
    if (shards > 1)
        txns.noteShardRecord(txSeq, idx);
    updateRecords.inc();
    return proceed;
}

Tick
HwlEngine::onCommit(CoreId core, std::uint64_t txSeq, Tick now)
{
    std::uint64_t mask = shards > 1 ? txns.shardMaskOf(txSeq) : 0;
    bool multi = mask != 0 && (mask & (mask - 1)) != 0;

    if (!multi) {
        // Single-region transaction (or unsharded): the legacy plain
        // commit record, appended behind the tx's updates in the same
        // FIFO — drain order alone makes it atomic.
        std::uint32_t idx;
        if (mask != 0) {
            idx = 0;
            while (!(mask & (1ULL << idx)))
                ++idx;
        } else {
            idx = static_cast<std::uint32_t>(core % buffers.size());
        }
        LogRecord rec = LogRecord::commit(
            static_cast<std::uint8_t>(core), TxnTracker::txIdOf(txSeq),
            txns.logRecordCount(txSeq));
        LogBuffer &buf = *buffers[idx];
        Tick proceed = buf.append(rec, now);
        regions[idx]->bindSlotTx(buf.lastSlot(), txSeq);
        commitRecords.inc();
        if (shards > 1) {
            // Commit-ordering interlock (see commitFence): drain the
            // commit no earlier than the previous commit's durable
            // tick, so commits in different shard FIFOs can never be
            // concurrently in flight. The core does not wait.
            commitFence =
                buf.drainAll(std::max(now, commitFence));
        }
        return proceed;
    }

    // Cross-shard two-phase commit. Owner = lowest participant shard.
    // Phase 1: a prepare record closes every other participant's
    // slice, and each participant FIFO is drained so the prepares
    // (and the updates queued ahead of them) are durable. Phase 2:
    // the masked commit record is appended to the owner shard no
    // earlier than the last prepare's completion — the commit is
    // never concurrently pending with a prepare, so any crash (under
    // any legal persist order) lands strictly before or strictly
    // after the atomic commit point.
    std::uint32_t owner = 0;
    while (!(mask & (1ULL << owner)))
        ++owner;
    TxId txid = TxnTracker::txIdOf(txSeq);
    Tick ready = now;
    for (std::uint32_t s = 0; s < shards; ++s) {
        if (s == owner || !(mask & (1ULL << s)))
            continue;
        LogRecord prep = LogRecord::prepare(
            static_cast<std::uint8_t>(core), txid,
            txns.shardRecordCount(txSeq, s), txSeq);
        LogBuffer &buf = *buffers[s];
        Tick t = buf.append(prep, now);
        regions[s]->bindSlotTx(buf.lastSlot(), txSeq);
        prepareRecords.inc();
        ready = std::max(ready, std::max(t, buf.drainAll(now)));
    }
    std::uint64_t commitMask = skipShardMask ? (1ULL << owner) : mask;
    LogRecord rec = LogRecord::commitMasked(
        static_cast<std::uint8_t>(core), txid,
        txns.shardRecordCount(txSeq, owner), txSeq, commitMask);
    // The masked commit additionally waits out the commit-ordering
    // fence (see commitFence), then drains eagerly so the next
    // commit can chain on its durable tick.
    Tick at = std::max(ready, commitFence);
    LogBuffer &buf = *buffers[owner];
    Tick proceed = buf.append(rec, at);
    regions[owner]->bindSlotTx(buf.lastSlot(), txSeq);
    commitFence = buf.drainAll(at);
    commitRecords.inc();
    crossShardCommits.inc();
    return std::max(proceed, ready);
}

} // namespace snf::persist
