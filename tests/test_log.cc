/**
 * @file
 * Unit tests for the logging substrate: record serialization, the
 * circular log region (wrap, torn-bit passes, truncation, growth,
 * reclamation hazards), the log buffer (coalescing, capacity
 * back-pressure), and the write-combining buffer.
 */

#include <gtest/gtest.h>

#include "mem/bus_monitor.hh"
#include "mem/mem_device.hh"
#include "mem/write_combine_buffer.hh"
#include "persist/log_buffer.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/rng.hh"

using namespace snf;
using namespace snf::persist;

namespace
{

AddressMap
smallMap()
{
    AddressMap map;
    map.logSize = 4096; // 126 slots
    return map;
}

MemDeviceConfig
nvCfg()
{
    MemDeviceConfig cfg;
    cfg.sizeBytes = 1 << 24;
    return cfg;
}

LogRecord
rec(std::uint16_t tx, Addr addr, std::uint64_t undo,
    std::uint64_t redo)
{
    return LogRecord::update(0, tx, addr, 8, undo, redo);
}

} // namespace

// ----------------------------- records --------------------------

TEST(LogRecord, RoundTripFullRecord)
{
    LogRecord r = LogRecord::update(3, 0xbeef, 0x123456789abcULL, 8,
                                    111, 222);
    std::uint8_t img[LogRecord::kSlotBytes];
    r.serialize(img, true);
    bool torn = false;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(torn);
    EXPECT_EQ(parsed->thread, 3);
    EXPECT_EQ(parsed->tx, 0xbeef);
    EXPECT_EQ(parsed->addr, 0x123456789abcULL);
    EXPECT_EQ(parsed->size, 8);
    EXPECT_TRUE(parsed->hasUndo);
    EXPECT_TRUE(parsed->hasRedo);
    EXPECT_EQ(parsed->undo, 111u);
    EXPECT_EQ(parsed->redo, 222u);
}

TEST(LogRecord, UndoOnlyAndRedoOnly)
{
    LogRecord u = LogRecord::update(0, 1, 64, 4, 7, std::nullopt);
    LogRecord r = LogRecord::update(0, 1, 64, 4, std::nullopt, 9);
    std::uint8_t img[LogRecord::kSlotBytes];
    bool torn = false;

    u.serialize(img, false);
    auto pu = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(pu);
    EXPECT_TRUE(pu->hasUndo);
    EXPECT_FALSE(pu->hasRedo);
    EXPECT_EQ(pu->undo, 7u);

    r.serialize(img, false);
    auto pr = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(pr);
    EXPECT_FALSE(pr->hasUndo);
    EXPECT_TRUE(pr->hasRedo);
    EXPECT_EQ(pr->redo, 9u);
}

TEST(LogRecord, CommitRecord)
{
    LogRecord c = LogRecord::commit(2, 42);
    std::uint8_t img[LogRecord::kSlotBytes];
    c.serialize(img, true);
    bool torn = false;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed);
    EXPECT_TRUE(parsed->isCommit);
    EXPECT_EQ(parsed->tx, 42);
}

TEST(LogRecord, UnwrittenSlotRejected)
{
    std::uint8_t img[LogRecord::kSlotBytes] = {};
    bool torn = false;
    EXPECT_FALSE(LogRecord::deserialize(img, torn).has_value());
}

TEST(LogRecord, PayloadBytes)
{
    EXPECT_EQ(rec(1, 0, 1, 2).payloadBytes(), 32u);
    EXPECT_EQ(LogRecord::update(0, 1, 0, 8, 1, std::nullopt)
                  .payloadBytes(),
              24u);
    EXPECT_EQ(LogRecord::commit(0, 1).payloadBytes(), 16u);
}

class LogRecordSizes : public ::testing::TestWithParam<std::uint8_t>
{
};

TEST_P(LogRecordSizes, SizeFieldRoundTrips)
{
    LogRecord r =
        LogRecord::update(1, 2, 0x1000, GetParam(), 5, 6);
    std::uint8_t img[LogRecord::kSlotBytes];
    r.serialize(img, false);
    bool torn = true;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->size, GetParam());
    EXPECT_FALSE(torn);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, LogRecordSizes,
                         ::testing::Values(1, 2, 4, 8));

namespace
{

/** The CRC32 definition, one bit at a time (reflected 0xEDB88320). */
std::uint32_t
bitwiseCrc32(const std::uint8_t *data, std::uint32_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::uint32_t i = 0; i < n; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc & 1) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
    return ~crc;
}

} // namespace

TEST(LogRecord, Crc32MatchesBitwiseDefinition)
{
    const char check[] = "123456789";
    EXPECT_EQ(LogRecord::crc32(
                  reinterpret_cast<const std::uint8_t *>(check), 9),
              0xCBF43926u);

    // Every length a slot payload can take (and more), from every
    // start alignment, over seeded random bytes.
    sim::Rng rng(0xc3c32);
    std::uint8_t buf[32 + 8];
    for (int round = 0; round < 16; ++round) {
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        for (std::uint32_t off = 0; off < 8; ++off)
            for (std::uint32_t n = 0; n <= 32; ++n)
                ASSERT_EQ(LogRecord::crc32(buf + off, n),
                          bitwiseCrc32(buf + off, n))
                    << "round " << round << " offset " << off
                    << " length " << n;
    }
}

// ----------------------------- region ---------------------------

TEST(LogRegion, SequentialSlots)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    auto r1 = region.reserve(rec(1, 0, 1, 2), 0);
    auto r2 = region.reserve(rec(1, 8, 1, 2), 10);
    EXPECT_EQ(r1.slot + 1, r2.slot);
    EXPECT_EQ(r2.addr, r1.addr + LogRecord::kSlotBytes);
    EXPECT_EQ(r1.torn, r2.torn);
}

TEST(LogRegion, TornFlipsOnWrap)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    bool first_torn =
        region.reserve(rec(1, 0, 1, 2), 0).torn;
    for (std::uint64_t i = 1; i < region.slotCount(); ++i)
        region.reserve(rec(1, 0, 1, 2), i);
    // Next append starts pass 2.
    bool second_pass_torn =
        region.reserve(rec(1, 0, 1, 2), 1000).torn;
    EXPECT_NE(first_torn, second_pass_torn);
    EXPECT_EQ(region.wraps.value(), 1u);
}

TEST(LogRegion, ReclaimHazardOnActiveTx)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t seq) { return seq == 7; });
    int hazards = 0;
    region.setHazardSink([&]() { ++hazards; });

    auto r = region.reserve(rec(1, 0, 1, 2), 0);
    region.bindSlotTx(r.slot, 7); // still active when reclaimed
    for (std::uint64_t i = 0; i < region.slotCount(); ++i)
        region.reserve(rec(1, 0, 1, 2), i + 1);
    EXPECT_EQ(hazards, 1);
    EXPECT_EQ(region.hazards.value(), 1u);
}

TEST(LogRegion, ReclaimHazardOnUnpersistedData)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t) { return false; });
    region.setPersistedSince(
        [](Addr, Tick, Tick) { return false; }); // nothing persisted
    region.reserve(rec(1, 0x2000, 1, 2), 0);
    for (std::uint64_t i = 0; i < region.slotCount(); ++i)
        region.reserve(rec(1, 0x2000, 1, 2), i + 1);
    EXPECT_GT(region.hazards.value(), 0u);
}

TEST(LogRegion, NoHazardWhenDataPersisted)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t) { return false; });
    region.setPersistedSince([](Addr, Tick, Tick) { return true; });
    for (std::uint64_t i = 0; i < 3 * region.slotCount(); ++i)
        region.reserve(rec(1, 0x2000, 1, 2), i);
    EXPECT_EQ(region.hazards.value(), 0u);
}

TEST(LogRegion, CommitRecordsReclaimFreely)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    region.setTxActive([](std::uint64_t) { return true; });
    region.setPersistedSince([](Addr, Tick, Tick) { return false; });
    for (std::uint64_t i = 0; i < 2 * region.slotCount(); ++i)
        region.reserve(LogRecord::commit(0, 1), i);
    EXPECT_EQ(region.hazards.value(), 0u);
}

TEST(LogRegion, TruncateResetsAndClearsMarkers)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    auto r = region.reserve(rec(1, 0, 1, 2), 0);
    std::uint8_t img[LogRecord::kSlotBytes];
    rec(1, 0, 1, 2).serialize(img, r.torn);
    nv.functionalWrite(r.addr, sizeof(img), img);

    region.truncate(100);
    EXPECT_EQ(region.tailSlot(), 0u);
    // Slot markers cleared in NVRAM.
    std::uint8_t out[LogRecord::kSlotBytes];
    nv.functionalRead(r.addr, sizeof(out), out);
    bool torn = false;
    EXPECT_FALSE(LogRecord::deserialize(out, torn).has_value());
}

TEST(LogRegion, GrowChangesSlotCount)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    std::uint64_t before = region.slotCount();
    region.grow(8192, 0);
    EXPECT_GT(region.slotCount(), before);
    EXPECT_EQ(region.tailSlot(), 0u);
}

// --------------------------- log buffer -------------------------

TEST(LogBuffer, CoalescesAdjacentSlots)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 16, 64);
    for (int i = 0; i < 4; ++i)
        buf.append(rec(1, 0x1000 + i * 8, i, i), i);
    buf.drainAll(100);
    // 4 x 32B slots = 2 x 64B lines => 2 groups.
    EXPECT_EQ(buf.stats().counterValue("groups"), 2u);
    EXPECT_EQ(buf.stats().counterValue("bytes"), 128u);
}

TEST(LogBuffer, DrainMakesRecordsDurable)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 16, 64);
    buf.append(rec(9, 0x4000, 5, 6), 0);
    std::uint64_t slot = buf.lastSlot();
    buf.drainAll(10);
    std::uint8_t img[LogRecord::kSlotBytes];
    nv.functionalRead(region.slotAddr(slot), sizeof(img), img);
    bool torn = false;
    auto parsed = LogRecord::deserialize(img, torn);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->tx, 9);
    EXPECT_EQ(parsed->undo, 5u);
}

TEST(LogBuffer, ZeroCapacityStallsOnBus)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 0, 64);
    Tick t = 0;
    for (int i = 0; i < 20; ++i)
        t = std::max(t, buf.append(rec(1, 0x1000, 1, 2), t));
    // Serial bus acceptance forces the producer to slow down.
    EXPECT_GT(buf.stats().counterValue("stalls"), 0u);
}

TEST(LogBuffer, LargeCapacityAbsorbsBursts)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 64, 64);
    for (int i = 0; i < 30; ++i) {
        Tick proceed = buf.append(rec(1, 0x1000, 1, 2), i);
        EXPECT_EQ(proceed, static_cast<Tick>(i));
    }
    EXPECT_EQ(buf.stats().counterValue("stalls"), 0u);
}

TEST(LogBuffer, DropAllModelsCrash)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    LogBuffer buf(region, nv, nullptr, 16, 64);
    buf.append(rec(3, 0x8000, 1, 2), 0);
    std::uint64_t slot = buf.lastSlot();
    buf.dropAll(); // never drained
    std::uint8_t img[LogRecord::kSlotBytes];
    nv.functionalRead(region.slotAddr(slot), sizeof(img), img);
    bool torn = false;
    EXPECT_FALSE(LogRecord::deserialize(img, torn).has_value());
}

TEST(LogBuffer, ReportsOrderingToMonitor)
{
    mem::MemDevice nv("nv", nvCfg(), smallMap().nvramBase);
    LogRegion region(smallMap(), nv);
    region.create();
    mem::BusMonitor monitor;
    LogBuffer buf(region, nv, &monitor, 16, 64);
    Addr data_line = 0x140000000ULL;
    buf.append(rec(1, data_line + 8, 1, 2), 0);
    Tick drained = buf.drainAll(5);
    // Data write-back after the drain: no violation.
    monitor.onDataWriteback(data_line, drained + 10, drained + 20);
    EXPECT_EQ(monitor.orderViolations(), 0u);
}

TEST(BusMonitor, FlagsDataBeforeLog)
{
    mem::BusMonitor monitor;
    Addr line = 0x1000;
    monitor.onLogAppend(line, 100);
    // Data line reaches NVRAM before the record drains.
    monitor.onDataWriteback(line, 150, 160);
    EXPECT_EQ(monitor.orderViolations(), 1u);
}

TEST(BusMonitor, TracksLastWriteback)
{
    mem::BusMonitor monitor;
    EXPECT_EQ(monitor.lastWritebackOf(0x40), 0u);
    monitor.onDataWriteback(0x40, 10, 25);
    EXPECT_EQ(monitor.lastWritebackOf(0x40), 25u);
}

// ------------------------------ WCB -----------------------------

TEST(Wcb, CoalescesSameLine)
{
    mem::MemDevice nv("nv", nvCfg(), 0);
    mem::WriteCombineBuffer wcb(nv, 4, 64);
    std::uint64_t v = 1;
    wcb.append(0x100, 8, &v, 0);
    v = 2;
    wcb.append(0x108, 8, &v, 1);
    EXPECT_EQ(wcb.occupancy(), 1u);
    EXPECT_EQ(wcb.coalescedStores.value(), 1u);
    wcb.drainAll(10);
    EXPECT_EQ(nv.store().read64(0x100), 1u);
    EXPECT_EQ(nv.store().read64(0x108), 2u);
}

TEST(Wcb, EvictsOldestWhenFull)
{
    mem::MemDevice nv("nv", nvCfg(), 0);
    mem::WriteCombineBuffer wcb(nv, 2, 64);
    std::uint64_t v = 7;
    wcb.append(0x000, 8, &v, 0);
    wcb.append(0x100, 8, &v, 1);
    wcb.append(0x200, 8, &v, 2); // evicts line 0x000
    EXPECT_EQ(wcb.occupancy(), 2u);
    EXPECT_EQ(nv.store().read64(0x000), 7u); // flushed to device
}

TEST(Wcb, DropAllLosesUnflushed)
{
    mem::MemDevice nv("nv", nvCfg(), 0);
    mem::WriteCombineBuffer wcb(nv, 4, 64);
    std::uint64_t v = 9;
    wcb.append(0x300, 8, &v, 0);
    wcb.dropAll();
    EXPECT_EQ(nv.store().read64(0x300), 0u);
}
