/**
 * @file
 * Unit tests for the passive cache array: lookup, install, LRU
 * victim selection, invalidation, and the fwb tag bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache.hh"

using namespace snf;
using namespace snf::mem;

namespace
{

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024; // 16 lines
    cfg.ways = 4;         // 4 sets
    cfg.lineBytes = 64;
    cfg.latency = 4;
    return cfg;
}

void
installLine(Cache &c, Addr lineAddr)
{
    CacheLine *slot = c.victimFor(lineAddr);
    if (slot->valid)
        c.invalidate(slot);
    c.install(slot, lineAddr);
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c("t", smallConfig());
    EXPECT_EQ(c.find(0x1000), nullptr);
    installLine(c, 0x1000);
    ASSERT_NE(c.find(0x1000), nullptr);
    EXPECT_EQ(c.find(0x1000)->lineAddr, 0x1000u);
}

TEST(Cache, LineOfMasksOffset)
{
    Cache c("t", smallConfig());
    EXPECT_EQ(c.lineOf(0x1234), 0x1200u);
    EXPECT_EQ(c.lineOf(0x1240), 0x1240u);
}

TEST(Cache, InstallStartsCleanAndValid)
{
    Cache c("t", smallConfig());
    installLine(c, 0x40);
    CacheLine *l = c.find(0x40);
    EXPECT_TRUE(l->valid);
    EXPECT_FALSE(l->dirty());
    EXPECT_FALSE(l->fwb());
}

TEST(Cache, LruVictimIsLeastRecentlyTouched)
{
    Cache c("t", smallConfig());
    // Fill one set: set index = (addr/64) % 4; use set 0.
    Addr lines[4] = {0 * 256, 1 * 256, 2 * 256, 3 * 256};
    for (Addr a : lines)
        installLine(c, a);
    // Touch all but lines[2].
    c.touch(c.find(lines[0]));
    c.touch(c.find(lines[1]));
    c.touch(c.find(lines[3]));
    CacheLine *victim = c.victimFor(4 * 256);
    EXPECT_EQ(victim->lineAddr, lines[2]);
}

TEST(Cache, VictimPrefersInvalidWay)
{
    Cache c("t", smallConfig());
    installLine(c, 0);
    installLine(c, 256);
    CacheLine *victim = c.victimFor(512);
    EXPECT_FALSE(victim->valid);
}

TEST(Cache, InvalidateClearsAllState)
{
    Cache c("t", smallConfig());
    installLine(c, 0x80);
    CacheLine *l = c.find(0x80);
    c.markDirty(l);
    c.flagFwb(l);
    c.invalidate(l);
    EXPECT_FALSE(l->valid);
    EXPECT_FALSE(l->dirty());
    EXPECT_FALSE(l->fwb());
    EXPECT_EQ(c.find(0x80), nullptr);
    std::size_t n = 0;
    c.forEachDirtyLine([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 0u) << "an invalid line left in the dirty bitmap";
}

TEST(Cache, InvalidateAll)
{
    Cache c("t", smallConfig());
    for (Addr a = 0; a < 16 * 64; a += 64)
        installLine(c, a);
    c.invalidateAll();
    for (Addr a = 0; a < 16 * 64; a += 64)
        EXPECT_EQ(c.find(a), nullptr);
}

TEST(Cache, ForEachDirtyLineVisitsDirtyLinesInSlotOrder)
{
    Cache c("t", smallConfig());
    for (Addr a = 0; a < 16 * 64; a += 64)
        installLine(c, a);
    // Dirty every other line, then clean one of them again.
    for (Addr a = 0; a < 16 * 64; a += 128)
        c.markDirty(c.find(a));
    c.markClean(c.find(4 * 64));
    std::vector<CacheLine *> seen;
    c.forEachDirtyLine([&](CacheLine &l) { seen.push_back(&l); });
    ASSERT_EQ(seen.size(), 7u);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LT(seen[i - 1], seen[i]) << "not in slot order";
    for (const CacheLine *l : seen)
        EXPECT_TRUE(l->valid && l->dirty());

    // A line cleaned by the visitor further on is skipped; one
    // dirtied further on is visited, as in a full slot-order walk.
    CacheLine *first = seen[0];
    CacheLine *second = seen[1];
    CacheLine *clean = c.find(15 * 64);
    std::vector<CacheLine *> visited;
    c.forEachDirtyLine([&](CacheLine &l) {
        visited.push_back(&l);
        if (&l == first) {
            c.markClean(second);
            c.markDirty(clean);
        }
    });
    ASSERT_EQ(visited.size(), 7u);
    EXPECT_EQ(std::count(visited.begin(), visited.end(), second), 0);
    EXPECT_EQ(visited.back(), clean);
}

TEST(Cache, SetsDoNotAlias)
{
    Cache c("t", smallConfig());
    installLine(c, 0);   // set 0
    installLine(c, 64);  // set 1
    installLine(c, 128); // set 2
    installLine(c, 192); // set 3
    EXPECT_NE(c.find(0), nullptr);
    EXPECT_NE(c.find(64), nullptr);
    EXPECT_NE(c.find(128), nullptr);
    EXPECT_NE(c.find(192), nullptr);
}

TEST(Cache, DataSizedToLine)
{
    Cache c("t", smallConfig());
    installLine(c, 0);
    EXPECT_EQ(c.find(0)->data.size(), 64u);
}
