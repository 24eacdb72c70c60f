/**
 * @file
 * Unit tests for the sparse backing store and its crash journal.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "mem/backing_store.hh"

using namespace snf;
using namespace snf::mem;

TEST(BackingStore, ZeroFilledByDefault)
{
    BackingStore bs(0x1000, 1 << 20);
    std::uint8_t buf[16] = {0xff};
    bs.read(0x2000, sizeof(buf), buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
}

TEST(BackingStore, ReadBackWrites)
{
    BackingStore bs(0, 1 << 20);
    const char msg[] = "hello, nvram";
    bs.write(123, sizeof(msg), msg);
    char out[sizeof(msg)] = {};
    bs.read(123, sizeof(msg), out);
    EXPECT_STREQ(out, msg);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore bs(0, 1 << 20);
    std::vector<std::uint8_t> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    bs.write(4000, data.size(), data.data()); // spans 3+ pages
    std::vector<std::uint8_t> out(data.size());
    bs.read(4000, out.size(), out.data());
    EXPECT_EQ(out, data);
}

TEST(BackingStore, Read64Write64)
{
    BackingStore bs(0x100000000ULL, 1 << 20);
    bs.write64(0x100000040ULL, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(bs.read64(0x100000040ULL), 0xdeadbeefcafef00dULL);
}

TEST(BackingStore, ContainsChecksBounds)
{
    BackingStore bs(0x1000, 0x1000);
    EXPECT_TRUE(bs.contains(0x1000, 1));
    EXPECT_TRUE(bs.contains(0x1fff, 1));
    EXPECT_FALSE(bs.contains(0x1fff, 2));
    EXPECT_FALSE(bs.contains(0xfff, 1));
}

TEST(BackingStoreJournal, SnapshotExcludesLaterWrites)
{
    BackingStore bs(0, 1 << 20);
    bs.write64(0, 1, 0);
    bs.enableJournal();
    bs.write64(8, 2, 100);
    bs.write64(16, 3, 200);
    bs.write64(8, 4, 300); // overwrites the tick-100 value

    BackingStore snap = bs.snapshotAt(250);
    EXPECT_EQ(snap.read64(0), 1u);  // pre-journal base
    EXPECT_EQ(snap.read64(8), 2u);  // tick-100 write visible
    EXPECT_EQ(snap.read64(16), 3u); // tick-200 write visible
    EXPECT_EQ(bs.read64(8), 4u);    // live store has the newest
}

TEST(BackingStoreJournal, SnapshotAtZeroIsBaseImage)
{
    BackingStore bs(0, 1 << 20);
    bs.write64(0, 42, 0);
    bs.enableJournal();
    bs.write64(0, 43, 10);
    BackingStore snap = bs.snapshotAt(5);
    EXPECT_EQ(snap.read64(0), 42u);
}

TEST(BackingStoreJournal, OrderedReplayOfSameAddress)
{
    BackingStore bs(0, 1 << 20);
    bs.enableJournal();
    for (std::uint64_t t = 1; t <= 10; ++t)
        bs.write64(64, t, t * 10);
    for (std::uint64_t t = 1; t <= 10; ++t)
        EXPECT_EQ(bs.snapshotAt(t * 10).read64(64), t);
}

TEST(BackingStoreJournal, JournalSizeCounts)
{
    BackingStore bs(0, 1 << 20);
    bs.enableJournal();
    EXPECT_EQ(bs.journalSize(), 0u);
    bs.write64(0, 1, 1);
    bs.write64(8, 2, 2);
    EXPECT_EQ(bs.journalSize(), 2u);
}

TEST(BackingStoreJournal, OutOfOrderCompletionReplaysByDoneTick)
{
    // Writes can complete out of issue order (bank conflicts, read
    // priority). The device ends up holding the value of the
    // *latest-completing* write, so a snapshot must replay by
    // completion tick, not journal insertion order.
    BackingStore bs(0, 1 << 20);
    bs.enableJournal();
    bs.write64(128, 0xAA, 50); // issued first, completes last
    bs.write64(128, 0xBB, 20); // issued second, completes first
    EXPECT_EQ(bs.snapshotAt(10).read64(128), 0u);
    EXPECT_EQ(bs.snapshotAt(20).read64(128), 0xBBu);
    EXPECT_EQ(bs.snapshotAt(50).read64(128), 0xAAu);
    EXPECT_EQ(bs.snapshotAt(1000).read64(128), 0xAAu);
}

TEST(BackingStore, FirstDifferenceFindsLowestMismatch)
{
    BackingStore a(0, 1 << 20);
    BackingStore b(0, 1 << 20);
    EXPECT_FALSE(a.firstDifference(b, 0, 1 << 20).has_value());

    // A page present in one store but all-zero matches an absent one.
    a.write64(4096, 0, 0);
    EXPECT_FALSE(a.firstDifference(b, 0, 1 << 20).has_value());

    b.write64(8192 + 16, 7, 0);
    a.write64(65536, 9, 0);
    auto diff = a.firstDifference(b, 0, 1 << 20);
    ASSERT_TRUE(diff.has_value());
    EXPECT_EQ(*diff, 8192u + 16u);

    // Range can exclude the mismatch.
    EXPECT_FALSE(a.firstDifference(b, 0, 8192).has_value());
    auto d2 = a.firstDifference(b, 16384, (1 << 20) - 16384);
    ASSERT_TRUE(d2.has_value());
    EXPECT_EQ(*d2, 65536u);
}

TEST(BackingStore, IdenticalWriteKeepsCowPageShared)
{
    const Addr base = 0x1000;
    BackingStore a(base, 1 << 20);
    std::uint8_t line[64];
    for (std::size_t i = 0; i < sizeof(line); ++i)
        line[i] = static_cast<std::uint8_t>(i + 1);
    a.write(base + 128, sizeof(line), line);

    BackingStore b = a; // siblings share every page
    std::uint64_t availA = 0, availB = 0;
    const std::uint8_t *pa = a.pageAt(base + 128, &availA);
    ASSERT_NE(pa, nullptr);
    ASSERT_EQ(b.pageAt(base + 128, &availB), pa);

    // Rewriting the bytes already there clones nothing and keeps the
    // page shared with the sibling.
    const std::uint64_t cloned = b.pagesCloned();
    b.write(base + 128, sizeof(line), line);
    b.write(base + 128 + 8, 8, line + 8);
    EXPECT_EQ(b.pagesCloned(), cloned);
    EXPECT_EQ(b.pageAt(base + 128, &availB), pa);
    EXPECT_FALSE(a.firstDifference(b, base, 1 << 20).has_value());

    // A write that changes one byte clones the page, once.
    std::uint8_t x = 0xee;
    b.write(base + 130, 1, &x);
    EXPECT_EQ(b.pagesCloned(), cloned + 1);
    EXPECT_NE(b.pageAt(base + 128, &availB), pa);
    std::uint8_t got = 0;
    a.read(base + 130, 1, &got);
    EXPECT_EQ(got, 3); // the sibling keeps its bytes
    b.read(base + 130, 1, &got);
    EXPECT_EQ(got, 0xee);
    b.write(base + 131, 1, &x);
    EXPECT_EQ(b.pagesCloned(), cloned + 1); // unique now: in place
}

TEST(BackingStore, FirstDifferenceReportsExactByteInSharedSiblings)
{
    const Addr base = 0x1000;
    const std::uint64_t page = 4096;
    BackingStore a(base, 1 << 20);
    for (std::uint64_t p = 0; p < 4; ++p)
        a.write64(base + p * page + 64, 0x1111 * (p + 1));
    BackingStore b = a;

    // Last byte of page 2.
    std::uint8_t x = 0x5a;
    b.write(base + 2 * page + 4095, 1, &x);
    auto d = a.firstDifference(b, base, 1 << 20);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, base + 2 * page + 4095);
    EXPECT_EQ(b.firstDifference(a, base, 1 << 20), d);

    // A partial range [from, from + size) inside page 1: a byte just
    // inside either end is found, one just outside is not.
    BackingStore c = a;
    const Addr from = base + page + 1000;
    const std::uint64_t size = 500;
    c.write(from + size, 1, &x);
    EXPECT_FALSE(a.firstDifference(c, from, size).has_value());
    c.write(from + size - 1, 1, &x);
    EXPECT_EQ(a.firstDifference(c, from, size), from + size - 1);
    c.write(from, 1, &x);
    EXPECT_EQ(a.firstDifference(c, from, size), from);
    EXPECT_FALSE(a.firstDifference(c, from + 1, size - 2).has_value());
}

TEST(BackingStore, ResidentZeroPageEqualsAbsentPage)
{
    BackingStore a(0, 1 << 20);
    BackingStore b(0, 1 << 20);
    // Zeros into an absent page allocate nothing.
    a.write64(3 * 4096 + 8, 0);
    std::uint64_t avail = 0;
    EXPECT_EQ(a.pageAt(3 * 4096, &avail), nullptr);
    // A page written and then zeroed stays resident, all zero.
    a.write64(3 * 4096 + 8, 42);
    a.write64(3 * 4096 + 8, 0);
    ASSERT_NE(a.pageAt(3 * 4096, &avail), nullptr);
    EXPECT_FALSE(a.firstDifference(b, 0, 1 << 20).has_value());
    EXPECT_FALSE(b.firstDifference(a, 0, 1 << 20).has_value());
}

// --- the flat page table ----------------------------------------------

namespace
{

constexpr std::uint64_t kPage = 4096;

/** One byte at @p addr, marked so that distinct pages hold distinct
 *  values. */
std::uint8_t
markOf(Addr addr)
{
    return static_cast<std::uint8_t>(1 + (addr / kPage) % 251);
}

} // namespace

TEST(BackingStorePageTable, PowerOfTwoStridesStayDistinct)
{
    // Page indices a power of two apart share their low bits, the
    // classic collision pattern for a masked hash.
    for (unsigned k : {0u, 4u, 10u, 16u, 20u}) {
        SCOPED_TRACE(k);
        const std::uint64_t stride = (1ULL << k) * kPage;
        BackingStore bs(0, 300 * stride);
        for (std::uint64_t i = 0; i < 300; ++i) {
            std::uint8_t v = markOf(i * stride);
            bs.write(i * stride + 7, 1, &v);
        }
        for (std::uint64_t i = 0; i < 300; ++i) {
            std::uint8_t got = 0;
            bs.read(i * stride + 7, 1, &got);
            EXPECT_EQ(got, markOf(i * stride)) << "page " << i;
        }
        if (k > 0) {
            // Absent pages in between still read as zero.
            std::uint64_t avail = 0;
            EXPECT_EQ(bs.pageAt(stride / 2, &avail), nullptr);
            EXPECT_EQ(bs.read64(299 * stride + stride / 2), 0u);
        }
    }
}

TEST(BackingStorePageTable, GrowthMatchesReferenceMap)
{
    BackingStore bs(0, 1ULL << 40);
    std::map<Addr, std::uint8_t> ref;
    std::mt19937_64 rng(5);
    // 6000 random bytes, nearly all on distinct pages, grow the table
    // through every power of two from 16 to 16384 slots; every byte
    // must survive each rehash.
    while (ref.size() < 6000) {
        Addr a = rng() % (1ULL << 40);
        std::uint8_t v = markOf(a);
        bs.write(a, 1, &v);
        ref[a] = v;
        if (ref.size() % 1000 == 0) {
            BackingStore copy = bs;
            for (const auto &[addr, val] : ref) {
                std::uint8_t got = 0;
                copy.read(addr, 1, &got);
                ASSERT_EQ(got, val) << "at " << addr;
            }
        }
    }
    for (const auto &[addr, val] : ref) {
        std::uint8_t got = 0;
        bs.read(addr, 1, &got);
        ASSERT_EQ(got, val) << "at " << addr;
    }
    // Bytes next to the written ones, and pages never written, read
    // as zero.
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng() % (1ULL << 40);
        std::uint8_t got = 0xff;
        bs.read(a, 1, &got);
        auto it = ref.find(a);
        EXPECT_EQ(got, it == ref.end() ? 0 : it->second) << "at " << a;
    }
}

TEST(BackingStorePageTable, CopyClonesOnlyTheWrittenPage)
{
    BackingStore a(0, 1ULL << 30);
    for (std::uint64_t p = 0; p < 500; ++p) {
        std::uint8_t v = markOf(p * 3 * kPage);
        a.write(p * 3 * kPage, 1, &v);
    }
    BackingStore b = a;
    const std::uint64_t cloned = b.pagesCloned();
    const Addr target = 250 * 3 * kPage;
    std::uint8_t x = 0;
    b.write(target + 9, 1, &x); // 0 over 0: identical, stays shared
    x = 0xab;
    b.write(target + 9, 1, &x);
    EXPECT_EQ(b.pagesCloned(), cloned + 1);
    for (std::uint64_t p = 0; p < 500; ++p) {
        std::uint64_t availA = 0, availB = 0;
        const std::uint8_t *pa = a.pageAt(p * 3 * kPage, &availA);
        const std::uint8_t *pb = b.pageAt(p * 3 * kPage, &availB);
        ASSERT_NE(pa, nullptr);
        if (p * 3 * kPage == target)
            EXPECT_NE(pa, pb);
        else
            EXPECT_EQ(pa, pb) << "page " << p * 3 << " was cloned";
    }
    std::uint8_t got = 0;
    a.read(target + 9, 1, &got);
    EXPECT_EQ(got, 0);
    EXPECT_EQ(a.firstDifference(b, 0, 1ULL << 30), target + 9);
}

TEST(BackingStorePageTable, SubRangeDiffIgnoresResidentPagesOutside)
{
    BackingStore a(0, 1ULL << 30);
    // 2000 resident pages above the range, far more than it spans.
    for (std::uint64_t p = 0; p < 2000; ++p) {
        std::uint8_t v = markOf((100 + p) * kPage);
        a.write((100 + p) * kPage, 1, &v);
    }
    std::uint8_t one = 1;
    a.write(2 * kPage, 1, &one);
    BackingStore b = a;
    const Addr from = kPage + 100;
    const std::uint64_t size = 4 * kPage;

    // Differences outside the range do not count.
    std::uint8_t x = 0x77;
    b.write(500 * kPage, 1, &x);
    b.write(from - 1, 1, &x);
    b.write(from + size, 1, &x);
    EXPECT_FALSE(a.firstDifference(b, from, size).has_value());
    EXPECT_EQ(a.firstDifference(b, 0, 1ULL << 30), from - 1);

    // Inside: the range's last byte, on a page of its own.
    BackingStore c = a;
    c.write(from + size - 1, 1, &x);
    EXPECT_EQ(a.firstDifference(c, from, size), from + size - 1);

    // A page absent in one store, then one both hold.
    b.write(4 * kPage + 5, 1, &x);
    EXPECT_EQ(a.firstDifference(b, from, size), 4 * kPage + 5);
    EXPECT_EQ(b.firstDifference(a, from, size), 4 * kPage + 5);
    b.write(2 * kPage + 3, 1, &x);
    EXPECT_EQ(a.firstDifference(b, from, size), 2 * kPage + 3);
}
