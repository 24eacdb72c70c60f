/**
 * @file
 * Recovery goldens: a fixed set of crash images — every guaranteed
 * logging family (fwb, undo-clwb, redo-clwb), below and after a log
 * wrap, over one log region, four address-interleaved shards and four
 * per-core partitions, plus a faultlab-damaged image and a lifelab
 * remap/promotion image — each pinned by three fingerprints of its
 * recovery pass:
 *
 *  - the RecoveryReport (every aggregate field; the per-region
 *    summaries too for sharded images),
 *  - an FNV-1a hash of the recovered NVRAM image,
 *  - an FNV-1a hash of the (ordinal, line) RecoveryWrite sequence the
 *    crash-during-recovery sweeps key off.
 *
 * Any change to what recovery decides, writes, or the order it writes
 * in shows up here as a named case. A mismatch prints the recomputed
 * table row.
 *
 * The same fingerprints hold whether recovery analyzes an image's log
 * afresh or reuses its thread's previous analysis, and the reuse key
 * is tested for each input the analysis reads: log bytes, the remap
 * table, spare lines and the ignore-CRC fault flag.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hh"
#include "crashlab/faultlab.hh"
#include "mem/remap_table.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "persist/recovery.hh"
#include "workloads/workload.hh"

using namespace snf;

namespace
{

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Hash of every nonzero page (address + bytes): absent and all-zero
 *  pages read alike, so residency does not leak into the hash. */
std::uint64_t
imageHash(const mem::BackingStore &img)
{
    static const std::uint8_t kZero[4096] = {};
    std::uint64_t h = kFnvBasis;
    Addr a = img.base();
    const Addr end = img.base() + img.size();
    while (a < end) {
        std::uint64_t avail = 0;
        const std::uint8_t *p = img.pageAt(a, &avail);
        if (p && std::memcmp(p, kZero, avail) != 0) {
            h = fnv(h, &a, sizeof(a));
            h = fnv(h, p, avail);
        }
        a += avail;
    }
    return h;
}

std::string
reportKey(const persist::RecoveryReport &r, bool withRegions)
{
    std::ostringstream o;
    o << "hv=" << r.headerValid << " scanned=" << r.slotsScanned
      << " valid=" << r.validRecords << " committed=" << r.committedTxns
      << " uncommitted=" << r.uncommittedTxns
      << " redo=" << r.redoApplied << " undo=" << r.undoApplied
      << " salvaged=" << r.salvagedTxns
      << " quarantined=" << r.quarantinedTxns
      << " empty=" << r.emptySlots << " torn=" << r.tornSlots
      << " crc=" << r.crcFailSlots << " stale=" << r.stalePassSlots
      << " firstBad=" << std::hex << r.firstBadSlotAddr << std::dec
      << " qids=";
    for (std::uint16_t t : r.quarantinedTxIds)
        o << t << ',';
    o << " issued=" << r.writesIssued << " applied=" << r.writesApplied
      << " interrupted=" << r.interrupted
      << " promoted=" << r.promotedLines
      << " remapCorrupt=" << r.remapCorrupt
      << " deadAborted=" << r.deadShardAborted << " dids=";
    for (std::uint16_t t : r.deadShardAbortTxIds)
        o << t << ',';
    if (withRegions) {
        for (const persist::ShardSummary &s : r.shards)
            o << " [" << s.shard << ' ' << s.headerValid << s.dead
              << s.wrapped << ' ' << s.slotsScanned << ' '
              << s.validRecords << ' ' << s.salvagedTxns << ' '
              << s.quarantinedTxns << ' ' << s.abortedDeadShard << ']';
    }
    return o.str();
}

/** How one golden crash image is built. */
struct ImageSpec
{
    const char *name;
    PersistMode mode;
    /** Address-interleaved shards (persist.logShards). */
    std::uint32_t shards = 1;
    /** Per-core partitions (persist.distributedLogs, 4 cores). */
    bool partitions = false;
    /** Shrink the log so it wraps well before the crash. */
    bool wrap = false;
    Tick crashAt = 0;
    /** faultlab: heavy image damage; killShard >= 0 wipes a shard. */
    bool damage = false;
    std::int32_t killShard = -1;
    /** lifelab: remap region in the map, promote damaged lines. */
    bool remap = false;
};

/** Expected fingerprints of one image's recovery pass. */
struct Golden
{
    const char *name;
    std::uint64_t report;
    std::uint64_t image;
    std::uint64_t writes;
};

struct Fingerprint
{
    std::string report;
    std::uint64_t reportHash = 0;
    std::uint64_t image = 0;
    std::uint64_t writes = 0;
    /** Per-region summaries the report carries. */
    std::size_t regionSummaries = 0;
};

/** One golden crash image and what its run left behind. */
struct GoldenImage
{
    const ImageSpec *spec = nullptr;
    mem::BackingStore image{0, 0};
    AddressMap map;
    /** Log regions of the image that hold at least one record. */
    std::uint32_t regionsWithRecords = 0;
    std::uint64_t logWraps = 0;
};

GoldenImage
buildImage(const ImageSpec &spec)
{
    SystemConfig cfg = SystemConfig::scaled(4);
    cfg.persist.crashJournal = true;
    cfg.persist.logShards = spec.shards;
    cfg.persist.distributedLogs = spec.partitions;
    if (spec.wrap) {
        // Per-core partitions get four times the area: a 4 KB
        // partition leaves too few slots for the hash workload's
        // transactions to make progress.
        cfg.persist.logBytes = (spec.partitions ? 64 : 16) * 1024;
        cfg.map.logSize = cfg.persist.logBytes;
    }
    if (spec.remap) {
        cfg.map.remapSize = 2048;
        cfg.map.spareSize = 4096;
    }
    System sys(cfg, spec.mode);
    // hash keeps every thread's persistent data private, which per-core
    // partitions require (paper Section III-F).
    auto workload = workloads::makeWorkload("hash");
    workloads::WorkloadParams params;
    params.threads = 4;
    params.txPerThread = 400;
    params.footprint = 1024;
    workload->setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c) {
        sys.spawn(c, [&](Thread &t) {
            return workload->thread(sys, t, params);
        });
    }
    Tick end = sys.run(spec.crashAt);
    EXPECT_GE(end, spec.crashAt) << spec.name << ": ran out before crash";

    GoldenImage g;
    g.spec = &spec;
    for (std::size_t i = 0; i < sys.logPartitionCount(); ++i)
        g.logWraps += sys.logPartition(i).wraps.value();

    g.image = sys.crashSnapshot(spec.crashAt);
    g.map = sys.config().map;
    std::uint64_t regionBytes = g.map.logSize / g.map.logRegionCount();
    for (std::uint32_t r = 0; r < g.map.logRegionCount(); ++r) {
        std::uint8_t slot[persist::LogRecord::kSlotBytes];
        g.image.read(g.map.logBase() + r * regionBytes +
                         persist::LogRegion::kHeaderBytes,
                     sizeof(slot), slot);
        if (persist::classifySlot(slot).cls == persist::SlotClass::Valid)
            ++g.regionsWithRecords;
    }

    if (spec.damage) {
        crashlab::ImageFaultConfig faults =
            crashlab::ImageFaultConfig::heavy(7);
        faults.killShard = spec.killShard;
        crashlab::applyImageFaults(g.image, g.map, faults, spec.crashAt);
    }
    return g;
}

/** Recover a copy of @p image; the pass's fingerprints. */
Fingerprint
recoverImage(const mem::BackingStore &image, const AddressMap &map,
             const ImageSpec &spec, bool ignoreCrc = false)
{
    mem::BackingStore img = image;
    persist::RecoveryOptions opts;
    opts.promoteBadLines = spec.remap;
    opts.faultIgnoreCrc = ignoreCrc;
    std::uint64_t writes = kFnvBasis;
    opts.probe = [&writes](sim::ProbeEvent e, Tick ordinal,
                           std::uint64_t line) {
        if (e != sim::ProbeEvent::RecoveryWrite)
            return;
        writes = fnv(writes, &ordinal, sizeof(ordinal));
        writes = fnv(writes, &line, sizeof(line));
    };
    persist::RecoveryReport rep = persist::Recovery::run(img, map, opts);
    Fingerprint fp;
    fp.report = reportKey(rep, spec.shards > 1);
    fp.regionSummaries = rep.shards.size();
    fp.reportHash = fnv(kFnvBasis, fp.report.data(), fp.report.size());
    fp.image = imageHash(img);
    fp.writes = writes;
    return fp;
}

Fingerprint
recoverImage(const GoldenImage &g)
{
    return recoverImage(g.image, g.map, *g.spec);
}

/** Recover a throwaway copy, leaving only the thread's analysis. */
void
analyzeOnly(const mem::BackingStore &image, const AddressMap &map)
{
    mem::BackingStore img = image;
    persist::Recovery::run(img, map);
}

/** Recover on a new thread, whose recovery has analyzed nothing yet. */
Fingerprint
recoverCold(const mem::BackingStore &image, const AddressMap &map,
            const ImageSpec &spec)
{
    Fingerprint fp;
    std::thread([&] {
        fp = recoverImage(image, map, spec);
        EXPECT_EQ(persist::Recovery::analysesReused(), 0u);
    }).join();
    return fp;
}

/** Address of the first Valid slot of the image's first log region. */
Addr
firstValidSlot(const GoldenImage &g)
{
    const Addr slot0 = g.map.logBase() + persist::LogRegion::kHeaderBytes;
    for (Addr a = slot0;; a += persist::LogRecord::kSlotBytes) {
        std::uint8_t slot[persist::LogRecord::kSlotBytes];
        g.image.read(a, sizeof(slot), slot);
        if (persist::classifySlot(slot).cls == persist::SlotClass::Valid)
            return a;
    }
}

// clang-format off
const ImageSpec kImages[] = {
    {"fwb-1r",           PersistMode::Fwb,      1, false, false, 150000},
    {"fwb-1r-wrap",      PersistMode::Fwb,      1, false, true,  150000},
    {"undo-1r",          PersistMode::UndoClwb, 1, false, false, 150000},
    {"undo-1r-wrap",     PersistMode::UndoClwb, 1, false, true,  150000},
    {"redo-1r",          PersistMode::RedoClwb, 1, false, false, 150000},
    {"redo-1r-wrap",     PersistMode::RedoClwb, 1, false, true,  150000},
    {"fwb-4s",           PersistMode::Fwb,      4, false, false, 150000},
    {"fwb-4s-wrap",      PersistMode::Fwb,      4, false, true,  150000},
    {"undo-4s",          PersistMode::UndoClwb, 4, false, false, 150000},
    {"undo-4s-wrap",     PersistMode::UndoClwb, 4, false, true,  150000},
    {"redo-4s",          PersistMode::RedoClwb, 4, false, false, 150000},
    {"redo-4s-wrap",     PersistMode::RedoClwb, 4, false, true,  150000},
    {"fwb-4p",           PersistMode::Fwb,      1, true,  false, 150000},
    {"fwb-4p-wrap",      PersistMode::Fwb,      1, true,  true,  150000},
    {"fwb-1r-faulted",   PersistMode::Fwb,      1, false, false, 150000, true},
    {"fwb-4s-dead",      PersistMode::Fwb,      4, false, false, 150000, true, 2},
    {"fwb-1r-remap",     PersistMode::Fwb,      1, false, false, 150000, true, -1, true},
    {"fwb-4s-remap",     PersistMode::Fwb,      4, false, false, 150000, true, -1, true},
    {"fwb-4p-remap",     PersistMode::Fwb,      1, true,  false, 150000, true, -1, true},
};

// Every write-sequence hash pins recovery's write order: every region's
// replay, then every region's truncation flag, then every region zeroed.
const Golden kGoldens[] = {
    {"fwb-1r", 0x5b454d7da47ea081ULL, 0xc6a870e1086f42d2ULL, 0x40f4212e6f700c6fULL},
    {"fwb-1r-wrap", 0x6e02985e8999aa60ULL, 0x5b3ad32d7b87ea54ULL, 0xe51057d79ea285a1ULL},
    {"undo-1r", 0x11f5cd0a6cc7dcd1ULL, 0x4ac92a20768e00bdULL, 0x34df99736af36bb6ULL},
    {"undo-1r-wrap", 0xd83f7880d353d9e0ULL, 0xd13eb6ae1610a719ULL, 0xac9de47f459df766ULL},
    {"redo-1r", 0xbe3b2750f3cddadbULL, 0x32b8f98bd26dc683ULL, 0x7f95c0a634a9978aULL},
    {"redo-1r-wrap", 0x025bbb67e0881251ULL, 0xb4f79bda81c2804dULL, 0x5b3b302de470d2eaULL},
    {"fwb-4s", 0xd4c0f9fde5b1ca45ULL, 0xadc79c740be977e5ULL, 0xcd3823be9b0921faULL},
    {"fwb-4s-wrap", 0x387681a53d0c9da9ULL, 0xa09d2d85dffa316dULL, 0xb903cf75aaa7d493ULL},
    {"undo-4s", 0xc7760f3c850af127ULL, 0x534dc04033abc02dULL, 0x5c63e3e3773f5eb2ULL},
    {"undo-4s-wrap", 0x56d2d16b00ea624aULL, 0xa5c3b38735f106dcULL, 0x46bdfc8f5109bf4eULL},
    {"redo-4s", 0xb3a9e33b2dd25c48ULL, 0x92d9666c087cae41ULL, 0x809039035869a886ULL},
    {"redo-4s-wrap", 0x45826bc240ed6819ULL, 0xa4bba9968509a948ULL, 0xb84ed0d8d8fbb1f1ULL},
    {"fwb-4p", 0xb6255da22afc5349ULL, 0xaf2dbf4b75a02878ULL, 0x531b184aad8ce33cULL},
    {"fwb-4p-wrap", 0xcd1ba4724823a356ULL, 0xa5065e9bd756caddULL, 0x9107bbef57faee74ULL},
    {"fwb-1r-faulted", 0x630c8207d6472c99ULL, 0x9c63cb830922d096ULL, 0x21ed28ebae504128ULL},
    {"fwb-4s-dead", 0x54233864d3e81ab2ULL, 0x2abb17b9c9954a9fULL, 0x980ebb3bff33165dULL},
    {"fwb-1r-remap", 0xacb722e45c737dd5ULL, 0xb23a5dabe5fc7fcbULL, 0x249e679b85ad5f90ULL},
    {"fwb-4s-remap", 0x12d7eb00b6ec80d2ULL, 0x738861631f468ec9ULL, 0xaf49001e87ba1a8dULL},
    {"fwb-4p-remap", 0xed078f1e7a9a1c53ULL, 0x4914fdf664edd2f6ULL, 0xe035c4ecc0c9ef89ULL},
};
// clang-format on

const Golden *
goldenFor(const char *name)
{
    for (const Golden &g : kGoldens)
        if (std::string(g.name) == name)
            return &g;
    return nullptr;
}

std::string
tableRow(const char *name, const Fingerprint &fp)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL},",
                  name, fp.reportHash, fp.image, fp.writes);
    return buf;
}

/** Every kImages entry, built once per process. */
const std::vector<GoldenImage> &
goldenImages()
{
    static const std::vector<GoldenImage> all = [] {
        std::vector<GoldenImage> v;
        for (const ImageSpec &spec : kImages)
            v.push_back(buildImage(spec));
        return v;
    }();
    return all;
}

const GoldenImage &
goldenImage(const char *name)
{
    for (const GoldenImage &g : goldenImages())
        if (std::string(g.spec->name) == name)
            return g;
    ADD_FAILURE() << "no golden image " << name;
    return goldenImages().front();
}

/** Fail unless @p fp matches the pinned row of @p name. */
void
expectPinned(const char *name, const Fingerprint &fp)
{
    const Golden *g = goldenFor(name);
    if (!g || g->report != fp.reportHash || g->image != fp.image ||
        g->writes != fp.writes) {
        ADD_FAILURE() << "fingerprint drift\n  report: " << fp.report
                      << "\n  row:\n" << tableRow(name, fp);
    }
}

} // namespace

TEST(RecoveryGolden, ImagesRecoverToPinnedFingerprints)
{
    for (const GoldenImage &g : goldenImages()) {
        const ImageSpec &spec = *g.spec;
        SCOPED_TRACE(spec.name);
        Fingerprint fp = recoverImage(g);

        // The images must exercise what their names promise.
        if (spec.wrap) {
            EXPECT_GT(g.logWraps, 0u);
        } else {
            EXPECT_EQ(g.logWraps, 0u);
        }
        bool split = spec.partitions || spec.shards > 1;
        if (split) {
            EXPECT_EQ(g.regionsWithRecords, 4u);
        }
        EXPECT_EQ(fp.regionSummaries, split ? 4u : 0u);
        expectPinned(spec.name, fp);
    }
}

// Recovery reuses a thread's last log analysis while the metadata
// bytes match. Whether the analysis is fresh on a new thread, reused,
// or recomputed after another image's, every fingerprint stays pinned.
TEST(RecoveryGolden, AnalysisReuseKeepsFingerprints)
{
    const std::vector<GoldenImage> &all = goldenImages();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const GoldenImage &g = all[i];
        SCOPED_TRACE(g.spec->name);
        expectPinned(g.spec->name, recoverCold(g.image, g.map, *g.spec));

        analyzeOnly(g.image, g.map);
        std::uint64_t reused = persist::Recovery::analysesReused();
        expectPinned(g.spec->name, recoverImage(g));
        EXPECT_EQ(persist::Recovery::analysesReused(), reused + 1)
            << "the second pass over the same bytes analyzed again";

        const GoldenImage &next = all[(i + 1) % all.size()];
        analyzeOnly(next.image, next.map);
        reused = persist::Recovery::analysesReused();
        expectPinned(g.spec->name, recoverImage(g));
        EXPECT_EQ(persist::Recovery::analysesReused(), reused);
    }
}

TEST(RecoveryGolden, AnalysisSeesOneFlippedSlotByte)
{
    const GoldenImage &g = goldenImage("fwb-1r");
    mem::BackingStore img = g.image;
    const persist::RecoveryReport before = persist::Recovery::run(img, g.map);
    // Flip a byte of the stored CRC of a valid slot.
    mem::BackingStore flipped = g.image;
    const Addr crc = firstValidSlot(g) + 12;
    std::uint8_t b = 0;
    flipped.read(crc, 1, &b);
    b ^= 0xff;
    flipped.write(crc, 1, &b);
    persist::RecoveryReport after = persist::Recovery::run(flipped, g.map);
    EXPECT_EQ(after.crcFailSlots, before.crcFailSlots + 1);
    EXPECT_EQ(after.firstBadSlotAddr, crc - 12);
}

// The remap table and the spare lines are part of what the scan reads
// (a remapped log line's bytes live at its spare), so a change to
// either between two passes must reach the second pass's analysis.
TEST(RecoveryGolden, AnalysisSeesRemapTableAndSpareChanges)
{
    const GoldenImage &g = goldenImage("fwb-1r-remap");
    const ImageSpec &spec = *g.spec;
    const Addr slot = firstValidSlot(g);
    const Addr line = slot & ~Addr{mem::RemapTable::kLineBytes - 1};
    auto remapLine = [&](mem::BackingStore &img, bool copyLine) {
        mem::RemapTable table(g.map.remapBase(), g.map.remapSize,
                              g.map.spareBase(), g.map.spareSize);
        table.load(img);
        std::optional<Addr> spare = table.add(line);
        EXPECT_TRUE(spare.has_value());
        if (copyLine) {
            std::uint8_t buf[mem::RemapTable::kLineBytes];
            img.read(line, sizeof(buf), buf);
            img.write(*spare, sizeof(buf), buf);
        }
        table.persist([&img](Addr a, std::uint64_t n, const void *d) {
            img.write(a, n, d);
        });
        return *spare;
    };

    // A new mapping onto a zero spare line: the log line reads as
    // empty slots now.
    Fingerprint base = recoverImage(g);
    mem::BackingStore mapped = g.image;
    remapLine(mapped, false);
    Fingerprint seen = recoverImage(mapped, g.map, spec);
    EXPECT_NE(seen.report, base.report);
    EXPECT_EQ(seen.report, recoverCold(mapped, g.map, spec).report);

    // A mapping onto a copy of the line, then one flipped CRC byte in
    // the spare copy only: the log area and the table stay as they
    // were, and the second pass still counts the damaged slot.
    mem::BackingStore copied = g.image;
    const Addr spare = remapLine(copied, true);
    mem::BackingStore img = copied;
    const persist::RecoveryReport clean = persist::Recovery::run(img, g.map);
    const Addr crc = spare + (slot - line) + 12;
    std::uint8_t b = 0;
    copied.read(crc, 1, &b);
    b ^= 0xff;
    copied.write(crc, 1, &b);
    persist::RecoveryReport damaged = persist::Recovery::run(copied, g.map);
    EXPECT_EQ(damaged.crcFailSlots, clean.crcFailSlots + 1);
}

TEST(RecoveryGolden, AnalysisFollowsIgnoreCrcFlag)
{
    const GoldenImage &g = goldenImage("fwb-1r-faulted");
    const Fingerprint checked = recoverImage(g);
    const Fingerprint trusting = recoverImage(g.image, g.map, *g.spec, true);
    EXPECT_NE(trusting.report, checked.report);
    expectPinned(g.spec->name, recoverImage(g));
}
