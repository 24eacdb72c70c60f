/**
 * @file
 * Tests for reorderlab — the persist-ordering adversary: the
 * hardware-enforced ordering edges between concurrently pending
 * persists, the journal-backed PendingCursor, order-ideal enumeration
 * (exhaustive and sampled), torn-line variants, image application,
 * and the end-to-end interaction with the salvaging recovery scanner
 * (a log record torn mid-line by the adversary must quarantine its
 * transaction, invariants I7/I8).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "crashlab/reorder.hh"
#include "mem/backing_store.hh"
#include "mem/mem_device.hh"
#include "mem/write_combine_buffer.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/recovery.hh"

using namespace snf;
using namespace snf::crashlab;
using namespace snf::persist;

namespace
{

PendingPersist
pend(std::uint32_t seq, Tick issue, Tick done, Addr addr,
     std::uint32_t size, PersistOrigin origin)
{
    PendingPersist p;
    p.seq = seq;
    p.issue = issue;
    p.done = done;
    p.addr = addr;
    p.size = size;
    p.origin = origin;
    p.data.assign(size, static_cast<std::uint8_t>(0xa0 + seq));
    return p;
}

/** Every plan member's enforced predecessors must also be members. */
void
expectDownwardClosed(const std::vector<PendingPersist> &pending,
                     const std::vector<ReorderImage> &plans)
{
    for (const ReorderImage &plan : plans) {
        std::set<std::uint32_t> members(plan.applied.begin(),
                                        plan.applied.end());
        std::vector<std::uint32_t> all(plan.applied);
        if (plan.tornIndex >= 0)
            all.push_back(static_cast<std::uint32_t>(plan.tornIndex));
        for (std::uint32_t j : all) {
            for (std::uint32_t i = 0; i < j; ++i) {
                if (!reorderEdge(pending[i], pending[j]))
                    continue;
                EXPECT_TRUE(members.count(i))
                    << "ideal drops enforced predecessor #" << i
                    << " of #" << j;
            }
        }
    }
}

} // namespace

// ------------------------- ordering edges ------------------------

TEST(ReorderEdge, NonDataWritesShareTheSerializedChannel)
{
    auto a = pend(0, 0, 10, 0x1000, 8, PersistOrigin::LogDrain);
    auto b = pend(1, 2, 12, 0x9000, 8, PersistOrigin::WcbFlush);
    auto c = pend(2, 4, 14, 0x5000, 32, PersistOrigin::Meta);
    // Pairwise ordered regardless of address distance.
    EXPECT_TRUE(reorderEdge(a, b));
    EXPECT_TRUE(reorderEdge(b, c));
    EXPECT_TRUE(reorderEdge(a, c));
}

TEST(ReorderEdge, OverlappingRangesAreOrdered)
{
    auto log = pend(0, 0, 10, 0x1000, 32, PersistOrigin::LogDrain);
    auto data = pend(1, 2, 12, 0x1010, 64, PersistOrigin::Data);
    EXPECT_TRUE(reorderEdge(log, data));
    // Adjacent but disjoint: no overlap, no edge.
    auto after = pend(2, 2, 14, 0x1020, 64, PersistOrigin::Data);
    EXPECT_FALSE(reorderEdge(log, after));
}

TEST(ReorderEdge, DisjointDataIsUnordered)
{
    auto log = pend(0, 0, 10, 0x1000, 8, PersistOrigin::LogDrain);
    auto data = pend(1, 2, 12, 0x20000, 64, PersistOrigin::Data);
    auto data2 = pend(2, 3, 13, 0x30000, 64, PersistOrigin::Data);
    EXPECT_FALSE(reorderEdge(log, data));
    EXPECT_FALSE(reorderEdge(data, data2));
}

// ------------------------- pending cursor ------------------------

TEST(PendingCursor, JournalWindowsDefineThePendingSet)
{
    mem::BackingStore store(0, 1 << 16);
    store.enableJournal();
    std::uint64_t v = 1;
    // Pending over [2, 10): a log drain.
    store.write(0x100, 8, &v, 10, 2, PersistOrigin::LogDrain);
    // Pending over [5, 20): a data write-back.
    store.write(0x200, 8, &v, 20, 5, PersistOrigin::Data);
    // issue == done: accepted instantly, never pending.
    store.write(0x300, 8, &v, 7, 7, PersistOrigin::Data);
    // Functional write (no ticks): never pending.
    store.write(0x400, 8, &v);

    PendingCursor cursor(store);
    EXPECT_TRUE(cursor.pendingAt(1).empty());
    auto at2 = cursor.pendingAt(2);
    ASSERT_EQ(at2.size(), 1u);
    EXPECT_EQ(at2[0].addr, 0x100u);
    EXPECT_EQ(at2[0].origin, PersistOrigin::LogDrain);

    auto at5 = cursor.pendingAt(5);
    ASSERT_EQ(at5.size(), 2u);
    // Canonical order: completion tick, then journal order.
    EXPECT_EQ(at5[0].addr, 0x100u);
    EXPECT_EQ(at5[1].addr, 0x200u);

    auto at10 = cursor.pendingAt(10);
    ASSERT_EQ(at10.size(), 1u);
    EXPECT_EQ(at10[0].addr, 0x200u);

    EXPECT_EQ(cursor.pendingAt(19).size(), 1u);
    EXPECT_TRUE(cursor.pendingAt(20).empty());
}

TEST(PendingCursor, OneShotHelperMatchesCursor)
{
    mem::BackingStore store(0, 1 << 16);
    store.enableJournal();
    std::uint64_t v = 7;
    store.write(0x100, 8, &v, 30, 4, PersistOrigin::WcbFlush);
    auto pending = pendingPersistsAt(store, 10);
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].origin, PersistOrigin::WcbFlush);
    EXPECT_EQ(pending[0].data.size(), 8u);
    EXPECT_EQ(std::memcmp(pending[0].data.data(), &v, 8), 0);
}

// ---------------------- order-ideal planning ---------------------

TEST(PlanReorder, ExhaustiveIndependentSetEnumeratesAllSubsets)
{
    // Three unordered entries: every non-empty subset is an ideal.
    std::vector<PendingPersist> pending{
        pend(0, 0, 10, 0x10000, 64, PersistOrigin::Data),
        pend(1, 1, 11, 0x20000, 64, PersistOrigin::Data),
        pend(2, 2, 12, 0x30000, 64, PersistOrigin::Data),
    };
    ReorderConfig cfg;
    cfg.enabled = true;
    cfg.tornLines = false;
    auto plans = planReorderImages(pending, cfg, 100);
    EXPECT_EQ(plans.size(), 7u);
    expectDownwardClosed(pending, plans);
    std::set<std::vector<std::uint32_t>> unique;
    for (const auto &p : plans)
        EXPECT_TRUE(unique.insert(p.applied).second)
            << "duplicate ideal emitted";
}

TEST(PlanReorder, SerializedChainYieldsOnlyPrefixes)
{
    // Three log-channel writes: totally ordered, so the only ideals
    // are the three canonical prefixes.
    std::vector<PendingPersist> pending{
        pend(0, 0, 10, 0x1000, 32, PersistOrigin::LogDrain),
        pend(1, 1, 11, 0x1020, 32, PersistOrigin::LogDrain),
        pend(2, 2, 12, 0x1040, 32, PersistOrigin::LogDrain),
    };
    ReorderConfig cfg;
    cfg.enabled = true;
    cfg.tornLines = false;
    auto plans = planReorderImages(pending, cfg, 100);
    ASSERT_EQ(plans.size(), 3u);
    for (const auto &p : plans) {
        for (std::size_t i = 0; i < p.applied.size(); ++i)
            EXPECT_EQ(p.applied[i], i) << "non-prefix ideal of a "
                                          "totally ordered chain";
    }
}

TEST(PlanReorder, SampledModeStaysDownwardClosedAndDeduped)
{
    // 10 entries exceed the exhaustive bound: seeded sampling. Mix a
    // serialized log chain with free data lines.
    std::vector<PendingPersist> pending;
    for (std::uint32_t i = 0; i < 4; ++i)
        pending.push_back(pend(i, i, 20 + i, 0x1000 + i * 32, 32,
                               PersistOrigin::LogDrain));
    for (std::uint32_t i = 4; i < 10; ++i)
        pending.push_back(pend(i, i, 20 + i, 0x10000 + i * 0x1000,
                               64, PersistOrigin::Data));
    ReorderConfig cfg;
    cfg.enabled = true;
    cfg.exhaustiveBound = 6;
    cfg.samples = 40;
    cfg.tornLines = false;
    auto plans = planReorderImages(pending, cfg, 555);
    ASSERT_FALSE(plans.empty());
    EXPECT_LE(plans.size(), cfg.samples);
    expectDownwardClosed(pending, plans);
    std::set<std::vector<std::uint32_t>> unique;
    for (const auto &p : plans)
        EXPECT_TRUE(unique.insert(p.applied).second);
    // Same seed and tick: deterministic plans.
    auto again = planReorderImages(pending, cfg, 555);
    ASSERT_EQ(plans.size(), again.size());
    for (std::size_t i = 0; i < plans.size(); ++i)
        EXPECT_EQ(plans[i].applied, again[i].applied);
}

TEST(PlanReorder, TornVariantsTearTheMaximalElement)
{
    std::vector<PendingPersist> pending{
        pend(0, 0, 10, 0x10000, 64, PersistOrigin::Data),
    };
    ReorderConfig cfg;
    cfg.enabled = true;
    auto plans = planReorderImages(pending, cfg, 9);
    // One full ideal plus 64/8 - 1 = 7 torn variants.
    ASSERT_EQ(plans.size(), 8u);
    std::size_t torn = 0;
    for (const auto &p : plans) {
        if (p.tornIndex < 0)
            continue;
        ++torn;
        EXPECT_EQ(p.tornIndex, 0);
        EXPECT_TRUE(p.applied.empty());
        EXPECT_EQ(p.tornBytes % 8, 0u);
        EXPECT_GT(p.tornBytes, 0u);
        EXPECT_LT(p.tornBytes, 64u);
    }
    EXPECT_EQ(torn, 7u);
    expectDownwardClosed(pending, plans);
}

TEST(PlanReorder, ImageCapIsRespected)
{
    std::vector<PendingPersist> pending;
    for (std::uint32_t i = 0; i < 6; ++i)
        pending.push_back(pend(i, i, 20 + i, 0x10000 + i * 0x1000,
                               64, PersistOrigin::Data));
    ReorderConfig cfg;
    cfg.enabled = true;
    cfg.maxImagesPerPoint = 10;
    auto plans = planReorderImages(pending, cfg, 1);
    EXPECT_LE(plans.size(), 10u);
}

TEST(ApplyReorder, WritesAppliedEntriesAndTornPrefix)
{
    mem::BackingStore image(0, 1 << 16);
    std::vector<PendingPersist> pending{
        pend(0, 0, 10, 0x100, 8, PersistOrigin::Data),
        pend(1, 1, 11, 0x200, 16, PersistOrigin::Data),
    };
    ReorderImage plan;
    plan.applied = {0};
    plan.tornIndex = 1;
    plan.tornBytes = 8;
    applyReorderImage(image, pending, plan);
    std::uint8_t buf[16];
    image.read(0x100, 8, buf);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(buf[i], 0xa0);
    image.read(0x200, 16, buf);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(buf[i], 0xa1) << "torn prefix byte " << i;
    for (int i = 8; i < 16; ++i)
        EXPECT_EQ(buf[i], 0x00) << "byte past the tear leaked";
}

// ------------------ WCB drop probes (crash model) ----------------

TEST(WcbDrop, DropAllEmitsOneProbePerEntry)
{
    mem::MemDevice dev("nvram-test", {}, 0, 1 << 20);
    mem::WriteCombineBuffer wcb(dev, 4, 64);

    std::vector<Addr> dropped;
    wcb.setProbe([&](sim::ProbeEvent e, Tick, std::uint64_t arg) {
        if (e == sim::ProbeEvent::WcbDrop)
            dropped.push_back(arg);
    });
    std::uint64_t v = 5;
    wcb.append(0x1000, 8, &v, 0);
    wcb.append(0x1008, 8, &v, 0); // coalesces into the same line
    wcb.append(0x2000, 8, &v, 0);
    ASSERT_EQ(wcb.occupancy(), 2u);
    wcb.dropAll();
    EXPECT_EQ(wcb.occupancy(), 0u);
    ASSERT_EQ(dropped.size(), 2u);
    EXPECT_EQ(dropped[0], 0x1000u);
    EXPECT_EQ(dropped[1], 0x2000u);
}

// ------------- torn log records meet salvaging recovery ----------

namespace
{

/** Minimal in-image log for fabricating crash states (same layout
 *  the salvaging scanner reads; mirrors faultlab's fixture). */
struct LogFixture
{
    AddressMap map;
    mem::BackingStore image;
    std::uint64_t tail = 0;

    LogFixture() : map(makeMap()), image(map.nvramBase, 1 << 22)
    {
        std::uint64_t magic = LogRegion::kMagic;
        std::uint64_t slots = LogRegion::slotsIn(map.logSize);
        image.write(map.logBase(), 8, &magic);
        image.write(map.logBase() + 8, 8, &slots);
    }

    static AddressMap
    makeMap()
    {
        AddressMap m;
        m.nvramSize = 1 << 22;
        m.logSize = 4096;
        return m;
    }

    Addr
    append(const LogRecord &rec)
    {
        std::uint8_t img[LogRecord::kSlotBytes];
        rec.serialize(img, true);
        Addr a = map.logBase() + LogRegion::kHeaderBytes +
                 tail * LogRecord::kSlotBytes;
        image.write(a, sizeof(img), img);
        ++tail;
        return a;
    }

    Addr data(std::uint64_t i) const { return map.heapBase() + i * 8; }
};

} // namespace

TEST(TornRecordRecovery, AdversaryTornUpdateRecordIsQuarantined)
{
    // The adversary tears a v2 CRC-protected update record mid-line:
    // its log-drain write is the pending persist, and the torn-line
    // variant lands only a prefix of the 32-byte slot. Salvaging
    // recovery must classify the slot as damaged and quarantine the
    // committed transaction (I7: no garbage replay), for every legal
    // tear offset.
    for (std::uint32_t tornBytes : {8u, 16u, 24u}) {
        LogFixture f;
        std::uint64_t init = 1;
        f.image.write(f.data(0), 8, &init);
        f.image.write(f.data(1), 8, &init);

        // tx 10's first update record is the torn victim: reserve its
        // slot but keep it empty (the drain never fully landed).
        LogRecord victim =
            LogRecord::update(0, 10, f.data(0), 8, 1, 50);
        Addr victimAddr = f.append(LogRecord::update(0, 0, 0, 8, 0, 0));
        std::uint8_t empty[LogRecord::kSlotBytes] = {};
        f.image.write(victimAddr, sizeof(empty), empty);
        f.append(LogRecord::update(0, 10, f.data(1), 8, 1, 60));
        f.append(LogRecord::commit(0, 10, 2));

        // The pending persist: the victim slot's log-drain write,
        // torn by the adversary at tornBytes.
        PendingPersist p =
            pend(0, 0, 10, victimAddr, LogRecord::kSlotBytes,
                 PersistOrigin::LogDrain);
        victim.serialize(p.data.data(), true);

        ReorderConfig cfg;
        cfg.enabled = true;
        auto plans = planReorderImages({p}, cfg, 1);
        auto it = std::find_if(
            plans.begin(), plans.end(), [&](const ReorderImage &pl) {
                return pl.tornIndex == 0 && pl.tornBytes == tornBytes;
            });
        ASSERT_NE(it, plans.end());
        applyReorderImage(f.image, {p}, *it);

        auto report = Recovery::run(f.image, f.map);
        EXPECT_EQ(report.committedTxns, 1u) << "torn at " << tornBytes;
        EXPECT_EQ(report.quarantinedTxns, 1u)
            << "torn at " << tornBytes;
        ASSERT_EQ(report.quarantinedTxIds.size(), 1u);
        EXPECT_EQ(report.quarantinedTxIds[0], 10);
        // I7: neither redo value of the quarantined txn replays.
        EXPECT_EQ(f.image.read64(f.data(0)), 1u);
        EXPECT_EQ(f.image.read64(f.data(1)), 1u);
    }
}

TEST(TornRecordRecovery, SalvageOfTornImageIsIdempotent)
{
    // I8: the salvaging pass over the adversary's torn image is
    // idempotent — recovering the recovered image changes nothing.
    LogFixture f;
    std::uint64_t init = 3;
    f.image.write(f.data(0), 8, &init);
    LogRecord victim = LogRecord::update(0, 4, f.data(0), 8, 3, 90);
    Addr victimAddr = f.append(LogRecord::update(0, 0, 0, 8, 0, 0));
    std::uint8_t empty[LogRecord::kSlotBytes] = {};
    f.image.write(victimAddr, sizeof(empty), empty);
    f.append(LogRecord::commit(0, 4, 1));

    PendingPersist p = pend(0, 0, 10, victimAddr,
                            LogRecord::kSlotBytes,
                            PersistOrigin::LogDrain);
    victim.serialize(p.data.data(), true);
    ReorderImage torn;
    torn.tornIndex = 0;
    torn.tornBytes = 16;
    applyReorderImage(f.image, {p}, torn);

    RecoveryOptions noTrunc;
    noTrunc.truncateLog = false;
    mem::BackingStore once = f.image;
    Recovery::run(once, f.map, noTrunc);
    mem::BackingStore twice = once;
    Recovery::run(twice, f.map, noTrunc);
    EXPECT_FALSE(
        once.firstDifference(twice, f.map.nvramBase, 1 << 22))
        << "salvage of a torn image is not idempotent";
}
