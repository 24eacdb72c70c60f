/**
 * @file
 * The simulator's side tables against plain references:
 *
 *  - sim::FlatMap against std::unordered_map on seeded insert, find
 *    and erase traces: clusters that wrap past the end of the slot
 *    array, erase-heavy phases, growth, copy and move;
 *  - the per-transaction undo lookup of tx_abort (the slots a
 *    transaction noted in TxnTracker, re-checked by
 *    LogRegion::collectUndo) against a full scan of a shadow copy of
 *    every log slot, after the log wrapped over the aborting
 *    transaction's records and rebound them to others.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/mem_device.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/txn_tracker.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"

using namespace snf;
using sim::FlatMap;

namespace
{

// ---------------------------- FlatMap -----------------------------

/** Keys whose home slot is the last of a 16-slot table (the table's
 *  Fibonacci hash), so a run of them wraps to slot 0. */
std::vector<std::uint64_t>
keysHomedAtEnd(std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k)
        if (((k * 0x9e3779b97f4a7c15ULL) >> 60) == 15)
            keys.push_back(k);
    return keys;
}

template <typename V>
void
expectSame(const FlatMap<V> &map,
           const std::unordered_map<std::uint64_t, V> &ref,
           const std::string &where)
{
    ASSERT_EQ(map.size(), ref.size()) << where;
    for (const auto &[k, v] : ref) {
        const V *got = map.find(k);
        ASSERT_NE(got, nullptr) << where << ": key " << k << " lost";
        ASSERT_EQ(*got, v) << where << ": key " << k;
    }
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t k, const V &v) {
        ++visited;
        auto it = ref.find(k);
        ASSERT_TRUE(it != ref.end() && it->second == v)
            << where << ": stray key " << k;
    });
    ASSERT_EQ(visited, ref.size()) << where;
}

TEST(FlatMap, WrappingClusterSurvivesErase)
{
    // Five keys homed at slot 15 of the initial 16 slots occupy
    // 15, 0, 1, 2, 3. Erasing each in turn must shift the rest back
    // across the end of the array and keep them reachable.
    const std::vector<std::uint64_t> keys = keysHomedAtEnd(5);
    for (std::size_t victim = 0; victim < keys.size(); ++victim) {
        FlatMap<std::uint64_t> map;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        for (std::uint64_t k : keys) {
            map[k] = k * 3;
            ref[k] = k * 3;
        }
        ASSERT_TRUE(map.erase(keys[victim]));
        ref.erase(keys[victim]);
        EXPECT_FALSE(map.erase(keys[victim])) << "erased twice";
        EXPECT_EQ(map.find(keys[victim]), nullptr);
        expectSame(map, ref, "victim " + std::to_string(victim));
    }
}

TEST(FlatMap, MatchesUnorderedMapOnSeededTraces)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        sim::Rng rng(seed);
        FlatMap<std::string> map;
        std::unordered_map<std::uint64_t, std::string> ref;
        // A small key space keeps probe runs long; a third of the
        // keys share one home slot at the initial capacity.
        std::vector<std::uint64_t> space = keysHomedAtEnd(40);
        for (std::uint64_t i = 0; i < 80; ++i)
            space.push_back(rng.next() >> 1);
        for (int phase = 0; phase < 6; ++phase) {
            // Even phases mostly insert (growth), odd ones mostly
            // erase (backward shifts in long runs).
            const std::uint64_t insertPct = phase % 2 == 0 ? 70 : 20;
            for (int op = 0; op < 600; ++op) {
                const std::uint64_t k = space[rng.below(space.size())];
                const std::uint64_t r = rng.below(100);
                if (r < insertPct) {
                    std::string v = std::to_string(rng.next());
                    map[k] = v;
                    ref[k] = v;
                } else if (r < insertPct + 25) {
                    ASSERT_EQ(map.erase(k), ref.erase(k) == 1)
                        << "seed " << seed << " key " << k;
                } else {
                    const std::string *got = map.find(k);
                    auto it = ref.find(k);
                    ASSERT_EQ(got != nullptr, it != ref.end());
                    if (got) {
                        ASSERT_EQ(*got, it->second);
                    }
                }
            }
            const std::string where = "seed " + std::to_string(seed) +
                                      " phase " + std::to_string(phase);
            expectSame(map, ref, where);

            // A copy is independent of its source; a move leaves
            // the source empty and reusable.
            FlatMap<std::string> copy = map;
            copy[space[0]] = "copy only";
            expectSame(map, ref, where + " after copy");
            FlatMap<std::string> moved = std::move(copy);
            EXPECT_EQ(copy.size(), 0u);
            EXPECT_EQ(copy.find(space[0]), nullptr);
            copy[7] = "reused";
            EXPECT_EQ(*copy.find(7), "reused");
            EXPECT_EQ(*moved.find(space[0]), "copy only");
            map = std::move(moved);
            ref[space[0]] = "copy only";
            expectSame(map, ref, where + " after move");
        }
        map.clear();
        ref.clear();
        expectSame(map, ref, "cleared");
    }
}

TEST(FlatMap, GrowsPastManyDoublings)
{
    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const std::uint64_t k = i * 64; // line addresses
        map.insert(k, i);
        ref[k] = i;
    }
    expectSame(map, ref, "grown");
    for (std::uint64_t i = 0; i < 5000; i += 2) {
        map.erase(i * 64);
        ref.erase(i * 64);
    }
    expectSame(map, ref, "half erased");
}

// ------------------------- undo lookup ----------------------------

using persist::LogRecord;
using persist::LogRegion;
using persist::TxnTracker;

/** What the log region knows about one slot, kept by the test. */
struct ShadowSlot
{
    bool valid = false;
    bool isCommit = false;
    std::uint64_t txSeq = 0;
    std::uint64_t seqNo = 0;
    LogRecord rec;
};

/**
 * A log region plus a shadow of every slot: the reference undo lookup
 * scans all shadow slots for the transaction's update records, as
 * tx_abort did before transactions kept their own slot lists.
 */
class UndoLog
{
  public:
    explicit UndoLog(std::uint64_t slots)
        : nv("nv", {}, 0, 1 << 20),
          region(0, LogRegion::kHeaderBytes +
                        slots * LogRecord::kSlotBytes,
                 nv),
          shadow(slots)
    {
        region.create();
    }

    void
    append(std::uint64_t seq, const LogRecord &rec, bool update)
    {
        auto res = region.reserve(rec, now++);
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, res.torn);
        nv.functionalWrite(res.addr, sizeof(img), img);
        region.bindSlotTx(res.slot, seq);
        if (update)
            txns.noteLogRecord(seq, 0, res.slot);
        shadow[res.slot] = ShadowSlot{true, !update, seq, ++seqNo, rec};
    }

    void
    update(std::uint64_t seq, Addr addr,
           std::optional<std::uint64_t> undo)
    {
        append(seq,
               LogRecord::update(0, TxnTracker::txIdOf(seq), addr, 8,
                                 undo, addr ^ 0xff),
               true);
    }

    void
    commit(std::uint64_t seq)
    {
        append(seq,
               LogRecord::commit(0, TxnTracker::txIdOf(seq),
                                 txns.logRecordCount(seq)),
               false);
        txns.commit(seq);
    }

    /** The per-transaction lookup, as System::collectUndo runs it. */
    std::vector<LogRegion::UndoEntry>
    lookup(std::uint64_t seq) const
    {
        std::vector<std::uint64_t> slots;
        for (const auto &ref : txns.logSlots(seq))
            slots.push_back(ref.slot);
        return region.collectUndo(seq, slots);
    }

    std::vector<LogRegion::UndoEntry>
    fullScan(std::uint64_t seq) const
    {
        std::vector<LogRegion::UndoEntry> out;
        for (const ShadowSlot &s : shadow) {
            if (!s.valid || s.isCommit || s.txSeq != seq ||
                !s.rec.hasUndo)
                continue;
            out.push_back(LogRegion::UndoEntry{s.seqNo, s.rec.addr,
                                               s.rec.size, s.rec.undo});
        }
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.seqNo > b.seqNo;
                  });
        return out;
    }

    mem::MemDevice nv;
    LogRegion region;
    TxnTracker txns;

  private:
    std::vector<ShadowSlot> shadow;
    std::uint64_t seqNo = 0;
    Tick now = 1;
};

void
expectSameUndo(const std::vector<LogRegion::UndoEntry> &got,
               const std::vector<LogRegion::UndoEntry> &want,
               const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].seqNo == want[i].seqNo &&
                    got[i].addr == want[i].addr &&
                    got[i].size == want[i].size &&
                    got[i].undo == want[i].undo)
            << where << ": entry " << i;
    }
}

TEST(UndoLookup, AbortAfterWrapSkipsReclaimedAndReboundSlot)
{
    UndoLog log(8);
    const std::uint64_t victim = log.txns.begin(0);
    for (Addr a = 0; a < 3; ++a)
        log.update(victim, 0x1000 + 8 * a, 100 + a); // slots 0..2
    // Another transaction fills the rest of the log and wraps onto
    // slot 0, reclaiming the victim's oldest record and binding the
    // slot to itself.
    const std::uint64_t other = log.txns.begin(1);
    for (Addr a = 0; a < 6; ++a)
        log.update(other, 0x2000 + 8 * a, 200 + a); // slots 3..7, 0
    ASSERT_EQ(log.region.wraps.value(), 1u);
    ASSERT_EQ(log.txns.logSlots(victim).size(), 3u);

    const auto got = log.lookup(victim);
    expectSameUndo(got, log.fullScan(victim), "victim");
    ASSERT_EQ(got.size(), 2u) << "the reclaimed slot must drop out";
    EXPECT_EQ(got[0].undo, 102u) << "newest first";
    EXPECT_EQ(got[1].undo, 101u);
    expectSameUndo(log.lookup(other), log.fullScan(other), "other");

    log.txns.abort(victim);
    EXPECT_TRUE(log.txns.logSlots(victim).empty()) << "list freed";
}

TEST(UndoLookup, TransactionWrappingOverItselfReadsEachSlotOnce)
{
    UndoLog log(8);
    const std::uint64_t seq = log.txns.begin(0);
    for (Addr a = 0; a < 11; ++a)
        log.update(seq, 0x1000 + 8 * a, a); // slots 0..7, 0..2
    ASSERT_EQ(log.txns.logSlots(seq).size(), 11u);
    const auto got = log.lookup(seq);
    expectSameUndo(got, log.fullScan(seq), "self-wrapped");
    EXPECT_EQ(got.size(), 8u);
}

TEST(UndoLookup, MatchesFullScanOnSeededInterleavings)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Rng rng(seed);
        UndoLog log(24);
        std::vector<std::uint64_t> open;
        for (int op = 0; op < 800; ++op) {
            const std::string where = "seed " + std::to_string(seed) +
                                      " op " + std::to_string(op);
            if (open.size() < 4 && rng.below(4) == 0) {
                open.push_back(
                    log.txns.begin(static_cast<CoreId>(open.size())));
                continue;
            }
            if (open.empty())
                continue;
            const std::size_t pick = rng.below(open.size());
            const std::uint64_t seq = open[pick];
            const std::uint64_t r = rng.below(16);
            if (r < 12) {
                // Some records carry no undo value (redo-only).
                std::optional<std::uint64_t> undo;
                if (rng.below(5) != 0)
                    undo = rng.next();
                log.update(seq, 0x1000 + 8 * rng.below(64), undo);
                continue;
            }
            expectSameUndo(log.lookup(seq), log.fullScan(seq), where);
            if (r < 14) {
                log.txns.abort(seq);
            } else {
                log.commit(seq);
            }
            EXPECT_TRUE(log.txns.logSlots(seq).empty()) << where;
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        EXPECT_GT(log.region.wraps.value(), 10u) << "seed " << seed;
    }
}

} // namespace
