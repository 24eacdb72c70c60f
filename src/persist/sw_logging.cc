#include "persist/sw_logging.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snf::persist
{

SwLogging::SwLogging(PersistMode m, mem::MemorySystem &memory,
                     std::vector<LogRegion *> logRegions,
                     TxnTracker &tracker, std::uint32_t logShards,
                     bool injectSkipShardMask)
    : mode(m),
      mem(memory),
      regions(std::move(logRegions)),
      txns(tracker),
      shards(logShards > 0 ? logShards : 1),
      skipShardMask(injectSkipShardMask),
      statGroup("sw_log"),
      updateRecords(statGroup.counter("update_records")),
      commitRecords(statGroup.counter("commit_records")),
      injectedInstructions(statGroup.counter("injected_instructions")),
      crossShardCommits(statGroup.counter("cross_shard_commits")),
      prepareRecords(statGroup.counter("prepare_records"))
{
    SNF_ASSERT(isSoftwareLogging(m), "SW logging with mode %s",
               persistModeName(m));
    SNF_ASSERT(!regions.empty() &&
                   (shards == 1 || regions.size() == shards),
               "SW logging: %zu regions for %u shards",
               regions.size(), shards);
}

std::uint64_t
SwLogging::writeRecordViaWcb(LogRegion &region, const LogRecord &rec,
                             std::uint64_t txSeq, Result &res, Tick now)
{
    auto reservation = region.reserve(rec, now);
    region.bindSlotTx(reservation.slot, txSeq);

    std::uint8_t img[LogRecord::kSlotBytes];
    rec.serialize(img, reservation.torn);

    // One uncacheable store per 8-byte word of the record payload.
    std::uint32_t bytes = rec.payloadBytes();
    Tick t = std::max({res.done, now, reservation.readyAt});
    for (std::uint32_t off = 0; off < bytes; off += 8) {
        std::uint32_t n = std::min<std::uint32_t>(8, bytes - off);
        t = std::max(t, mem.uncacheableWrite(reservation.addr + off, n,
                                             img + off, t));
        res.instructions += 1;
        res.logStores += 1;
    }
    res.done = t;
    return reservation.slot;
}

namespace
{
// Software logging is a library call per store: log-pointer
// arithmetic, bounds/overflow checks, record formatting (paper
// Figure 2(a) micro-ops). These instructions retire alongside the
// log loads/stores counted separately.
constexpr std::uint32_t kLogMgmtInstrPerStore = 8;
constexpr std::uint32_t kLogMgmtInstrPerCommit = 4;
} // namespace

SwLogging::Result
SwLogging::logStore(CoreId core, std::uint64_t txSeq, Addr addr,
                    std::uint32_t size, std::uint64_t newVal, Tick now)
{
    Result res;
    res.done = now + kLogMgmtInstrPerStore / 4;
    res.instructions += kLogMgmtInstrPerStore;

    std::uint64_t old_val = 0;
    if (wantsUndo()) {
        // The undo value must be read from the cache hierarchy
        // explicitly (extra load instruction and memory traffic).
        auto lr = mem.load(core, addr, size, &old_val, res.done);
        res.done = lr.done;
        res.instructions += 1;
        res.logLoads += 1;
    }

    LogRecord rec = LogRecord::update(
        static_cast<std::uint8_t>(core), TxnTracker::txIdOf(txSeq),
        addr, static_cast<std::uint8_t>(size),
        wantsUndo() ? std::optional<std::uint64_t>(old_val)
                    : std::nullopt,
        wantsRedo() ? std::optional<std::uint64_t>(newVal)
                    : std::nullopt);
    std::uint32_t idx = shardOf(addr);
    std::uint64_t slot =
        writeRecordViaWcb(*regions[idx], rec, txSeq, res, now);
    txns.noteLogRecord(txSeq, idx, slot);
    if (shards > 1)
        txns.noteShardRecord(txSeq, idx);
    updateRecords.inc();

    if (needsPreStoreBarrier()) {
        // Redo logging: the log entry must be durable before the
        // in-place data write may proceed (Figure 1(b) dashed line).
        res.done = std::max(res.done, mem.drainWcb(res.done));
        res.instructions += 1;
        res.fences += 1;
    }

    injectedInstructions.inc(res.instructions);
    return res;
}

SwLogging::Result
SwLogging::logCommit(CoreId core, std::uint64_t txSeq, Tick now)
{
    Result res;
    res.done = now + kLogMgmtInstrPerCommit / 4;
    res.instructions += kLogMgmtInstrPerCommit;

    std::uint64_t mask = shards > 1 ? txns.shardMaskOf(txSeq) : 0;
    bool multi = mask != 0 && (mask & (mask - 1)) != 0;
    if (!multi) {
        std::uint32_t idx = 0;
        if (mask != 0)
            while (!(mask & (1ULL << idx)))
                ++idx;
        LogRecord rec = LogRecord::commit(
            static_cast<std::uint8_t>(core), TxnTracker::txIdOf(txSeq),
            txns.logRecordCount(txSeq));
        writeRecordViaWcb(*regions[idx], rec, txSeq, res, now);
        commitRecords.inc();
        if (shards > 1) {
            // Commit-ordering interlock (see commitFence). The
            // fence drain folds into res.done: the caller's commit
            // fence assumes the record is durable by then, exactly
            // like the unsharded fence-at-commit sequence.
            commitFence =
                mem.drainWcb(std::max(res.done, commitFence));
            res.done = std::max(res.done, commitFence);
            res.instructions += 1;
            res.fences += 1;
        }
        injectedInstructions.inc(res.instructions);
        return res;
    }

    // Cross-shard two-phase commit, same wire protocol as the HWL
    // engine: prepares close every non-owner participant shard, a
    // WCB drain makes them durable, and only then does the masked
    // commit record reach the owner shard — the atomic commit point
    // is never concurrently pending with a prepare.
    std::uint32_t owner = 0;
    while (!(mask & (1ULL << owner)))
        ++owner;
    TxId txid = TxnTracker::txIdOf(txSeq);
    for (std::uint32_t s = 0; s < shards; ++s) {
        if (s == owner || !(mask & (1ULL << s)))
            continue;
        LogRecord prep = LogRecord::prepare(
            static_cast<std::uint8_t>(core), txid,
            txns.shardRecordCount(txSeq, s), txSeq);
        writeRecordViaWcb(*regions[s], prep, txSeq, res, now);
        prepareRecords.inc();
    }
    res.done = std::max(res.done, mem.drainWcb(res.done));
    res.instructions += 1;
    res.fences += 1;

    std::uint64_t commitMask = skipShardMask ? (1ULL << owner) : mask;
    LogRecord rec = LogRecord::commitMasked(
        static_cast<std::uint8_t>(core), txid,
        txns.shardRecordCount(txSeq, owner), txSeq, commitMask);
    writeRecordViaWcb(*regions[owner], rec, txSeq, res, now);
    commitRecords.inc();
    crossShardCommits.inc();
    // Commit-ordering interlock (see commitFence): the masked commit
    // drains eagerly, issued after every earlier commit's durable
    // tick, and res.done covers the drain so the caller's commit
    // fence semantics (durable by res.done) still hold.
    commitFence = mem.drainWcb(std::max(res.done, commitFence));
    res.done = std::max(res.done, commitFence);
    res.instructions += 1;
    res.fences += 1;
    injectedInstructions.inc(res.instructions);
    return res;
}

} // namespace snf::persist
