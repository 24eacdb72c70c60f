/**
 * @file
 * Unit tests for configuration presets, persistence-mode predicates,
 * the FWB period derivation, and the energy model.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "core/system_config.hh"
#include "energy/energy_model.hh"
#include "mem/memory_system.hh"
#include "persist/fwb_engine.hh"

using namespace snf;

TEST(PersistMode, NamesAreUnique)
{
    std::set<std::string> names;
    for (PersistMode m : kAllModes)
        EXPECT_TRUE(names.insert(persistModeName(m)).second);
    EXPECT_EQ(names.size(), 9u);
}

TEST(PersistMode, HardwareVsSoftwarePartition)
{
    for (PersistMode m : kAllModes) {
        // No mode is both hardware- and software-logging.
        EXPECT_FALSE(isHardwareLogging(m) && isSoftwareLogging(m))
            << persistModeName(m);
    }
    EXPECT_TRUE(isHardwareLogging(PersistMode::Fwb));
    EXPECT_TRUE(isSoftwareLogging(PersistMode::UndoClwb));
    EXPECT_FALSE(isHardwareLogging(PersistMode::NonPers));
    EXPECT_FALSE(isSoftwareLogging(PersistMode::NonPers));
}

TEST(PersistMode, ClwbUsers)
{
    EXPECT_TRUE(usesCommitClwb(PersistMode::RedoClwb));
    EXPECT_TRUE(usesCommitClwb(PersistMode::UndoClwb));
    EXPECT_TRUE(usesCommitClwb(PersistMode::Hwl));
    EXPECT_FALSE(usesCommitClwb(PersistMode::Fwb));
    EXPECT_FALSE(usesCommitClwb(PersistMode::UnsafeRedo));
}

TEST(SystemConfig, PaperPresetMatchesTableII)
{
    SystemConfig c = SystemConfig::paper();
    EXPECT_EQ(c.numCores, 4u);
    EXPECT_DOUBLE_EQ(c.clockGhz, 2.5);
    EXPECT_EQ(c.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(c.l1.ways, 8u);
    EXPECT_EQ(c.l1.latency, 4u); // 1.6 ns
    EXPECT_EQ(c.l2.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(c.l2.ways, 16u);
    EXPECT_EQ(c.l2.latency, 11u); // 4.4 ns
    EXPECT_EQ(c.nvram.banks, 8u);
    EXPECT_EQ(c.nvram.rowBytes, 2048u);
    EXPECT_EQ(c.nvram.rowHitLat, 90u);        // 36 ns
    EXPECT_EQ(c.nvram.readConflictLat, 250u); // 100 ns
    EXPECT_EQ(c.nvram.writeConflictLat, 750u); // 300 ns
    EXPECT_DOUBLE_EQ(c.nvram.arrayWritePjBit, 16.82);
    EXPECT_EQ(c.persist.logBytes, 4ULL << 20);
    EXPECT_EQ(c.persist.logBufferEntries, 15u);
}

TEST(SystemConfig, ScaledShrinksCapacityKeepsTiming)
{
    SystemConfig p = SystemConfig::paper();
    SystemConfig s = SystemConfig::scaled();
    EXPECT_LT(s.l1.sizeBytes, p.l1.sizeBytes);
    EXPECT_EQ(p.l2.sizeBytes / s.l2.sizeBytes, 16u);
    EXPECT_EQ(p.persist.logBytes / s.persist.logBytes, 16u);
    // Latencies and bandwidths are untouched: only capacity scales.
    EXPECT_EQ(p.l1.latency, s.l1.latency);
    EXPECT_EQ(p.l2.latency, s.l2.latency);
    EXPECT_EQ(p.nvram.writeConflictLat, s.nvram.writeConflictLat);
    EXPECT_EQ(p.nvram.banks, s.nvram.banks);
}

TEST(SystemConfig, GeometryHelpers)
{
    CacheConfig c;
    c.sizeBytes = 32 * 1024;
    c.ways = 8;
    c.lineBytes = 64;
    EXPECT_EQ(c.numLines(), 512u);
    EXPECT_EQ(c.numSets(), 64u);
}

TEST(AddressMap, RangesDisjoint)
{
    AddressMap map;
    EXPECT_TRUE(map.isDram(map.dramBase));
    EXPECT_FALSE(map.isNvram(map.dramBase));
    EXPECT_TRUE(map.isNvram(map.nvramBase));
    EXPECT_FALSE(map.isDram(map.nvramBase));
    EXPECT_EQ(map.logBase(), map.nvramBase);
    EXPECT_EQ(map.heapBase(), map.nvramBase + map.logSize);
}

TEST(FwbEngine, PeriodScalesLinearlyWithLogSize)
{
    SystemConfig c = SystemConfig::scaled();
    c.persist.logBytes = 256 * 1024;
    c.map.logSize = c.persist.logBytes;
    Tick p1 = persist::FwbEngine::derivePeriod(c, 1);
    c.persist.logBytes = 1024 * 1024;
    c.map.logSize = c.persist.logBytes;
    Tick p4 = persist::FwbEngine::derivePeriod(c, 1);
    EXPECT_NEAR(static_cast<double>(p4) / static_cast<double>(p1),
                4.0, 0.1);
}

TEST(FwbEngine, PeriodPacesPerCorePartitionsNotShards)
{
    // A hot thread can wrap its own per-core partition at full
    // bandwidth; address-interleaved shards spread every thread over
    // all shards, so they keep the whole-log period.
    SystemConfig c = SystemConfig::scaled(4);
    System central(c, PersistMode::Fwb);
    c.persist.logShards = 4;
    System sharded(c, PersistMode::Fwb);
    c.persist.logShards = 1;
    c.persist.distributedLogs = true;
    System partitioned(c, PersistMode::Fwb);
    EXPECT_EQ(central.fwb()->period(),
              persist::FwbEngine::derivePeriod(c, 1));
    EXPECT_EQ(sharded.fwb()->period(), central.fwb()->period());
    EXPECT_EQ(partitioned.fwb()->period(),
              persist::FwbEngine::derivePeriod(c, 4));
    EXPECT_LT(partitioned.fwb()->period(), central.fwb()->period());
}

TEST(FwbEngine, ScrubPeriodFollowsTheLogsSystemCreated)
{
    // Software logging keeps one centralized log even with
    // distributedLogs set, so the self-scheduled scrubber must be
    // paced for that one log, not for numCores partitions that do
    // not exist.
    SystemConfig c = SystemConfig::scaled(4);
    c.persist.scrub = true;
    System central(c, PersistMode::UndoClwb);
    c.persist.distributedLogs = true;
    System distributed(c, PersistMode::UndoClwb);
    ASSERT_NE(central.scrub(), nullptr);
    ASSERT_NE(distributed.scrub(), nullptr);
    EXPECT_EQ(distributed.logPartitionCount(), 1u);
    EXPECT_EQ(central.scrub()->period(),
              persist::FwbEngine::derivePeriod(c, 1));
    EXPECT_EQ(distributed.scrub()->period(), central.scrub()->period());
}

TEST(EnergyModel, SumsDeviceAndCoreEnergy)
{
    mem::MemorySystem ms(SystemConfig::scaled(1));
    Addr nv = ms.config().map.nvramBase + (4 << 20);
    std::uint64_t v = 1;
    ms.store(0, nv, 8, &v, 0);
    ms.flushAllDirty(1000);
    auto e = energy::EnergyModel::compute(ms, 1000);
    EXPECT_GT(e.nvramWritePj, 0.0);
    EXPECT_GT(e.corePj, 0.0);
    EXPECT_GT(e.l1Pj, 0.0);
    EXPECT_DOUBLE_EQ(e.memoryDynamicPj(),
                     e.nvramReadPj + e.nvramWritePj + e.dramPj);
    EXPECT_DOUBLE_EQ(e.totalPj(),
                     e.memoryDynamicPj() + e.processorDynamicPj());
}

TEST(EnergyModel, CoefficientsApply)
{
    mem::MemorySystem ms(SystemConfig::scaled(1));
    energy::EnergyCoefficients coeff;
    coeff.perInstructionPj = 1000.0;
    auto e = energy::EnergyModel::compute(ms, 10, coeff);
    EXPECT_DOUBLE_EQ(e.corePj, 10000.0);
}
