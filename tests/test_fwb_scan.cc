/**
 * @file
 * The FWB scan (paper Section IV-D), in two parts.
 *
 * Goldens: fwb runs of TPC-C and hash, over one log region and four
 * shards, each pinned by the FWB engine's scans, flagged lines and
 * forced write-backs and by the run's cycle count. Any change to
 * which lines a scan visits, in what order it writes them back, or
 * what it charges shows up here as a named case. A mismatch prints
 * the recomputed table row.
 *
 * Differential: a tiny memory system (small L1s and L2, so evictions
 * and cache-to-cache transfers are frequent) runs seeded load, store
 * and clwb traces twice in lockstep. One copy scans with
 * MemorySystem::fwbScanAll, which visits only the dirty-line bitmap;
 * the other with a reference scan kept here that walks every valid
 * line in slot order. After every op the bitmap must equal the set of
 * valid dirty lines and fwb must imply dirty; after every scan the
 * two copies must agree on the scan result, every line's state and
 * the NVRAM write sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/system.hh"
#include "mem/memory_system.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

using namespace snf;

namespace
{

/** One fwb run and its pinned FWB counters. */
struct FwbGolden
{
    const char *workload;
    std::uint32_t shards;
    std::uint64_t scans;
    std::uint64_t flagged;
    std::uint64_t forcedWritebacks;
    Tick cycles;
};

FwbGolden
runFwb(const char *workload, std::uint32_t shards)
{
    const bool tpcc = std::strcmp(workload, "oltp-tpcc") == 0;
    SystemConfig cfg = SystemConfig::scaled(4);
    cfg.persist.logShards = shards;
    // Small logs wrap, so truncation waits force write-backs too.
    cfg.map.logSize = (tpcc ? 64 : 16) * 1024;
    if (tpcc)
        cfg.persist.ccMode = CcMode::TwoPhase;
    System sys(cfg, PersistMode::Fwb);
    auto wl = workloads::makeWorkload(workload);
    workloads::WorkloadParams params;
    params.threads = 4;
    params.txPerThread = tpcc ? 200 : 1000;
    params.footprint = tpcc ? 64 : 1024;
    params.warehouses = tpcc ? 2 : 0;
    wl->setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return wl->thread(sys, t, params);
        });
    }
    Tick end = sys.run();
    persist::FwbEngine &fwb = *sys.fwb();
    return FwbGolden{workload,
                     shards,
                     fwb.scans.value(),
                     fwb.flagged.value(),
                     fwb.forcedWritebacks.value(),
                     end};
}

const FwbGolden kGoldens[] = {
    {"oltp-tpcc", 1, 494, 12275, 12117, 2212226},
    {"oltp-tpcc", 4, 499, 12321, 12175, 2237011},
    {"hash", 1, 843, 11282, 10875, 940508},
    {"hash", 4, 896, 11542, 11102, 1000066},
};

void
PrintTo(const FwbGolden &g, std::ostream *os)
{
    *os << g.workload << " shards=" << g.shards;
}

class FwbScanGolden : public ::testing::TestWithParam<FwbGolden>
{
};

TEST_P(FwbScanGolden, CountersAndCyclesPinned)
{
    const FwbGolden &want = GetParam();
    const FwbGolden got = runFwb(want.workload, want.shards);
    EXPECT_GT(got.forcedWritebacks, 0u) << "no forced write-back";
    EXPECT_TRUE(got.scans == want.scans && got.flagged == want.flagged &&
                got.forcedWritebacks == want.forcedWritebacks &&
                got.cycles == want.cycles)
        << "recomputed row: {\"" << got.workload << "\", "
        << got.shards << ", " << got.scans << ", " << got.flagged
        << ", " << got.forcedWritebacks << ", " << got.cycles << "},";
}

INSTANTIATE_TEST_SUITE_P(
    Runs, FwbScanGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<FwbGolden> &info) {
        std::string name = info.param.workload;
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name + "_shards" + std::to_string(info.param.shards);
    });

// ------------------------- differential ---------------------------

using mem::Cache;
using mem::CacheLine;
using mem::FwbScanResult;
using mem::MemorySystem;

constexpr double kCostPerLine = 0.25;

/** Two to four cores, 16-line L1s and a 128-line L2 (two bitmap
 *  words), NVRAM writes journaled. */
SystemConfig
tinyConfig(std::uint32_t cores)
{
    SystemConfig cfg = SystemConfig::scaled(cores);
    cfg.l1.sizeBytes = 16 * 64;
    cfg.l1.ways = 2;
    cfg.l2.sizeBytes = 128 * 64;
    cfg.l2.ways = 4;
    cfg.persist.crashJournal = true;
    return cfg;
}

/** Every line a trace touches: more NVRAM lines than the L2 holds,
 *  plus a few DRAM lines, which the scan must leave alone. */
std::vector<Addr>
linePool(const SystemConfig &cfg)
{
    std::vector<Addr> pool;
    for (Addr i = 0; i < 176; ++i)
        pool.push_back(cfg.map.nvramBase + (1 << 20) + i * 64);
    for (Addr i = 0; i < 24; ++i)
        pool.push_back(cfg.map.dramBase + i * 64);
    return pool;
}

/** The valid lines of @p cache, in slot order. Every valid line holds
 *  a pool address, so this is a walk over every occupied slot. */
std::vector<CacheLine *>
validLines(Cache &cache, const std::vector<Addr> &pool)
{
    std::vector<CacheLine *> out;
    for (Addr a : pool)
        if (CacheLine *l = cache.find(a))
            out.push_back(l);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Cache *>
caches(MemorySystem &ms)
{
    std::vector<Cache *> out;
    for (CoreId c = 0; c < ms.config().numCores; ++c)
        out.push_back(&ms.l1(c));
    out.push_back(&ms.l2Cache());
    return out;
}

/**
 * The FWB scan as a full tag walk: every valid line in slot order,
 * clean and non-NVRAM lines IDLE, the FLAG and write-back states of
 * paper Figure 5, and the full-array busy time. No data write-back
 * barrier is wired in these tests, so a write-back starts at its
 * trickle tick.
 */
FwbScanResult
referenceScan(MemorySystem &ms, const std::vector<Addr> &pool, Tick now)
{
    const SystemConfig &cfg = ms.config();
    const Tick spacing =
        (cfg.nvram.writeConflictLat + cfg.nvram.burstCycles) /
            cfg.nvram.banks +
        1;
    Tick issue = now;
    FwbScanResult out;
    Cache &l2 = ms.l2Cache();
    for (Cache *cache : caches(ms)) {
        const bool isL1 = cache != &l2;
        for (CacheLine *line : validLines(*cache, pool)) {
            if (!cfg.map.isNvram(line->lineAddr) || !line->dirty())
                continue;
            if (!line->fwb()) {
                cache->flagFwb(line);
                ++out.linesFlagged;
                continue;
            }
            if (isL1) {
                CacheLine *below = l2.find(line->lineAddr);
                below->data = line->data;
                l2.markDirty(below);
                l2.touch(below);
            } else {
                issue += spacing;
                auto res = ms.nvram().access(
                    true, line->lineAddr, l2.lineBytes(),
                    line->data.data(), nullptr, issue, false,
                    PersistOrigin::Data);
                ms.monitor().onDataWriteback(line->lineAddr, issue,
                                             res.done);
                out.lastWritebackDone =
                    std::max(out.lastWritebackDone, res.done);
            }
            cache->writebacks.inc();
            cache->markClean(line);
            ++out.linesWrittenBack;
        }
        cache->busyUntil =
            std::max(cache->busyUntil, now) +
            static_cast<Tick>(cache->numLines() * kCostPerLine);
    }
    return out;
}

/** The bitmap equals the valid dirty lines, and fwb => dirty. */
void
checkBitmap(MemorySystem &ms, const std::vector<Addr> &pool,
            const std::string &where)
{
    for (Cache *cache : caches(ms)) {
        std::set<CacheLine *> walked;
        cache->forEachDirtyLine(
            [&](CacheLine &l) { walked.insert(&l); });
        std::set<CacheLine *> dirty;
        for (CacheLine *l : validLines(*cache, pool)) {
            if (l->dirty())
                dirty.insert(l);
            ASSERT_TRUE(!l->fwb() || l->dirty())
                << where << ": " << cache->name()
                << " holds a clean line flagged fwb";
        }
        ASSERT_EQ(walked, dirty)
            << where << ": " << cache->name()
            << " dirty bitmap differs from its valid dirty lines";
    }
}

/** Both systems agree on every line, port and NVRAM write. */
void
checkSame(MemorySystem &a, MemorySystem &b,
          const std::vector<Addr> &pool, const std::string &where)
{
    std::vector<Cache *> ca = caches(a);
    std::vector<Cache *> cb = caches(b);
    for (std::size_t i = 0; i < ca.size(); ++i) {
        ASSERT_EQ(ca[i]->busyUntil, cb[i]->busyUntil)
            << where << ": " << ca[i]->name();
        ASSERT_EQ(ca[i]->writebacks.value(), cb[i]->writebacks.value())
            << where << ": " << ca[i]->name();
        for (Addr addr : pool) {
            const CacheLine *la = ca[i]->find(addr);
            const CacheLine *lb = cb[i]->find(addr);
            ASSERT_EQ(la == nullptr, lb == nullptr)
                << where << ": " << ca[i]->name() << " line " << addr;
            if (!la)
                continue;
            ASSERT_TRUE(la->dirty() == lb->dirty() &&
                        la->fwb() == lb->fwb() &&
                        la->lastUse == lb->lastUse &&
                        la->data == lb->data)
                << where << ": " << ca[i]->name() << " line " << addr;
        }
    }
    for (Addr addr : pool)
        ASSERT_EQ(a.monitor().lastWritebackOf(addr),
                  b.monitor().lastWritebackOf(addr))
            << where << ": line " << addr;

    using Rec = mem::BackingStore::JournalRecord;
    std::vector<std::vector<std::uint64_t>> wa;
    std::vector<std::vector<std::uint64_t>> wb;
    auto collect = [](auto &out) {
        return [&out](const Rec &r) {
            std::vector<std::uint64_t> row{
                r.issue, r.done, r.addr, r.size,
                static_cast<std::uint64_t>(r.origin)};
            row.insert(row.end(), r.data, r.data + r.size);
            out.push_back(std::move(row));
        };
    };
    a.nvram().store().forEachJournalRecord(collect(wa));
    b.nvram().store().forEachJournalRecord(collect(wb));
    ASSERT_EQ(wa, wb) << where << ": NVRAM write sequences differ";
}

TEST(FwbScanDifferential, BitmapScanMatchesFullWalk)
{
    std::uint64_t scans = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t transfers = 0;
    std::uint64_t evictions = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const SystemConfig cfg = tinyConfig(2 + seed % 3);
        MemorySystem fast(cfg);
        MemorySystem ref(cfg);
        const std::vector<Addr> pool = linePool(cfg);
        sim::Rng rng(seed);
        Tick now = 0;
        for (int op = 0; op < 1500; ++op) {
            const std::string where = "seed " + std::to_string(seed) +
                                      " op " + std::to_string(op);
            now += rng.below(24);
            const CoreId core =
                static_cast<CoreId>(rng.below(cfg.numCores));
            // Skew towards a hot third of the pool so lines stay
            // dirty across scans and migrate between cores.
            const std::size_t hot = pool.size() / 3;
            const Addr line = pool[rng.below(4) != 0
                                       ? rng.below(hot)
                                       : rng.below(pool.size())];
            const Addr addr = line + 8 * rng.below(8);
            const std::uint64_t kind = rng.below(20);
            if (kind < 8) {
                const std::uint64_t v = rng.next();
                auto ra = fast.store(core, addr, 8, &v, now);
                auto rb = ref.store(core, addr, 8, &v, now);
                ASSERT_EQ(ra.done, rb.done) << where;
            } else if (kind < 14) {
                std::uint64_t va = 0;
                std::uint64_t vb = 0;
                auto ra = fast.load(core, addr, 8, &va, now);
                auto rb = ref.load(core, addr, 8, &vb, now);
                ASSERT_TRUE(ra.done == rb.done && va == vb) << where;
            } else if (kind < 16) {
                ASSERT_EQ(fast.clwb(core, addr, now),
                          ref.clwb(core, addr, now))
                    << where;
            } else {
                FwbScanResult got = fast.fwbScanAll(now, kCostPerLine);
                FwbScanResult want = referenceScan(ref, pool, now);
                ASSERT_EQ(got.linesFlagged, want.linesFlagged) << where;
                ASSERT_EQ(got.linesWrittenBack, want.linesWrittenBack)
                    << where;
                ASSERT_EQ(got.lastWritebackDone, want.lastWritebackDone)
                    << where;
                ++scans;
                writebacks += got.linesWrittenBack;
                checkSame(fast, ref, pool, where);
            }
            checkBitmap(fast, pool, where);
            checkBitmap(ref, pool, where);
        }
        checkSame(fast, ref, pool, "seed " + std::to_string(seed));
        transfers += fast.stats().counterValue("cache_to_cache");
        evictions += fast.l2Cache().evictions.value();
    }
    // The traces reach every path the bitmap must follow.
    EXPECT_GT(scans, 1000u);
    EXPECT_GT(writebacks, 0u);
    EXPECT_GT(transfers, 0u);
    EXPECT_GT(evictions, 0u);
}

} // namespace
