#include "persist/recovery.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "mem/remap_table.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/logging.hh"

namespace snf::persist
{

namespace
{

constexpr std::uint64_t kLineBytes = mem::RemapTable::kLineBytes;

/**
 * Recovery's window onto the crash image: every read and write is
 * translated through the image's remap table (a promoted log slot's
 * live bytes are at its spare), every write is counted in 64-byte-line
 * units and suppressed once the crashAfterWrites budget is spent, so
 * one code path serves normal recovery, I9 write collection, and the
 * crash-during-recovery sweeps.
 */
struct ImageIO
{
    explicit ImageIO(mem::BackingStore &image) : img(image) {}

    mem::BackingStore &img;
    const mem::RemapTable *remap = nullptr;
    std::uint64_t budget = ~0ULL;
    bool collect = false;
    const sim::ProbeFn *probe = nullptr;

    std::uint64_t issued = 0;
    std::uint64_t applied = 0;
    std::vector<Addr> touched;

    Addr
    translate(Addr a) const
    {
        if (!remap)
            return a;
        Addr line = a & ~static_cast<Addr>(kLineBytes - 1);
        if (auto spare = remap->find(line))
            return *spare + (a - line);
        return a;
    }

    void
    read(Addr a, std::uint64_t n, void *out) const
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (n > 0) {
            Addr line_end = (a | (kLineBytes - 1)) + 1;
            std::uint64_t seg = std::min<std::uint64_t>(n,
                                                        line_end - a);
            img.read(translate(a), seg, dst);
            dst += seg;
            a += seg;
            n -= seg;
        }
    }

    std::uint64_t
    read64(Addr a) const
    {
        std::uint64_t v = 0;
        read(a, sizeof(v), &v);
        return v;
    }

    void
    write(Addr a, std::uint64_t n, const void *in)
    {
        const auto *src = static_cast<const std::uint8_t *>(in);
        // Bulk fast path (log truncation writes whole KBs): when no
        // per-line observer is active, no line is remapped, and every
        // covered line fits the write budget, one store write counts
        // exactly like the per-line loop would.
        if (n > 0 && !collect && !(probe && *probe) &&
            (!remap || remap->size() == 0)) {
            std::uint64_t lines =
                ((a + n - 1) / kLineBytes) - (a / kLineBytes) + 1;
            if (applied + lines <= budget) {
                img.write(a, n, src);
                issued += lines;
                applied += lines;
                return;
            }
        }
        while (n > 0) {
            Addr line_end = (a | (kLineBytes - 1)) + 1;
            std::uint64_t seg = std::min<std::uint64_t>(n,
                                                        line_end - a);
            Addr line = a & ~static_cast<Addr>(kLineBytes - 1);
            ++issued;
            if (probe && *probe)
                (*probe)(sim::ProbeEvent::RecoveryWrite, issued, line);
            if (applied < budget) {
                img.write(translate(a), seg, src);
                ++applied;
                // The touched set feeds I9's physical-image diff, so
                // record the line actually written (the spare when
                // the logical line is remapped).
                if (collect)
                    touched.push_back(translate(line));
            }
            src += seg;
            a += seg;
            n -= seg;
        }
    }

    bool contains(Addr a, std::uint64_t n) const
    {
        return img.contains(a, n);
    }

    /**
     * Sparse scan support: with no line remapped, reads are untranslated
     * and the slot scan may walk the image's resident pages in place,
     * treating absent pages (nullptr) as all-zero without copying them.
     * With remapping active no bytes are directly readable (*avail =
     * 0), so the scan goes through the translating read().
     */
    const std::uint8_t *
    pageAt(Addr a, std::uint64_t *avail) const
    {
        if (remap && remap->size() != 0) {
            *avail = 0;
            return nullptr;
        }
        return img.pageAt(a, avail);
    }

    bool interrupted() const { return issued > applied; }
};

/** Active per-thread sink of RecoveryTimerScope (null = off). */
thread_local std::uint64_t *recoveryTimerSink = nullptr;

/** One transaction generation inside one region's live window. */
struct RegionGen
{
    /** Update records of the generation found in the window. */
    std::uint64_t found = 0;
    std::uint16_t tx = 0;
    enum class Close { Open, Legacy, Prepare, Masked };
    Close close = Close::Open;
    std::uint32_t nUpdates = 0;  ///< promised by the closing record
    std::uint64_t commitSeq = 0; ///< Prepare / Masked only
    std::uint64_t shardMask = 0; ///< Masked only
    /** Prepare generation joined to its masked commit record. */
    bool consumed = false;
    /** Open generation held by a quarantined transaction: its prepare
     *  record is missing, so neither redo nor undo may touch it. */
    bool pinned = false;
    enum class Action { Leave, Redo, Undo };
    Action action = Action::Leave;
};

/** Scan state of one circular log region. */
struct RegionScan
{
    Addr base = 0;
    Addr slot0 = 0;
    std::uint64_t slots = 0;
    /** Index of the region's first slot in the pass's SlotMeta array. */
    std::uint64_t metaBase = 0;
    bool dead = true;
    bool wrapped = false;
    /** Live window in log order, as indices into the parsed records. */
    std::vector<std::uint32_t> window;
    std::vector<std::size_t> genOf; ///< window idx -> gen idx
    std::vector<RegionGen> gens;
    /** Generations never closed by any record, by txid. */
    std::map<std::uint16_t, std::size_t> openGen;
};

/** Per-slot scan result; parsed records are stored once, densely,
 *  only for Valid slots. */
struct SlotMeta
{
    SlotClass cls;
    bool torn;
    std::uint32_t rec; ///< index into the parsed records, or kNoRec
};
constexpr std::uint32_t kNoRec = ~std::uint32_t{0};

/**
 * What steps 1-5 of a recovery pass derive from the image: the
 * report's scan and decision fields, and the per-region state that
 * replay, promotion and truncation act on. A pure function of the
 * metadata area [logBase, heapBase) (log, remap table and spare
 * lines), the map geometry and opts.faultIgnoreCrc, which is what
 * lets Recovery::run reuse it across passes over identical bytes.
 */
struct Analysis
{
    RecoveryReport report;
    std::vector<RegionScan> sc;
    /** Per-slot classification over every live region's slots. */
    std::vector<SlotMeta> meta;
    /** Records of the Valid slots, densely. */
    std::vector<SlotInfo> parsed;
    /** Some live region's truncation flag is up: finish zeroing. */
    bool resumeTruncation = false;
};

/**
 * Analyze a log area split into AddressMap::logRegionCount() circular
 * regions: one centralized log, per-core partitions (paper Section
 * III-F) or address-interleaved shards (shardlab). Every region scans
 * the same way (slot classification, torn-parity window, re-entrant
 * truncation flag), but commit decisions are made per *transaction*,
 * joining records across regions:
 *
 *  - A plain commit record decides its generation within its own
 *    region (salvage or quarantine). A centralized log and per-core
 *    partitions only ever write these, and so does a sharded
 *    transaction whose updates all landed in one shard.
 *  - A masked commit record names its participant shards and its
 *    64-bit transaction sequence number; prepare records in the
 *    participant shards join it exactly by that sequence number.
 *    The commit record is the single atomic commit point: present ->
 *    redo every shard's slice, absent -> undo every slice.
 *  - A region whose header is unreadable is dead (degraded mode):
 *    surviving regions are salvaged, and any transaction whose
 *    participation mask intersects the dead region is rolled back on
 *    the regions that still hold its records (its dead-region slice
 *    is unrecoverable either way), reported in deadShardAbortTxIds.
 *
 * Reads only; apply() does every write. @p an's buffers are reused
 * across calls: a sweep recovers once per crash point × pass, and the
 * per-call allocation plus value-initialization of a full per-slot
 * array dominated recovery's own profile.
 */
void
analyze(const ImageIO &io, const AddressMap &map, bool faultIgnoreCrc,
        Analysis &an)
{
    RecoveryReport &report = an.report;
    report = RecoveryReport{};
    const std::uint32_t nRegions = map.logRegionCount();
    const std::uint64_t region_bytes = map.logSize / nRegions;

    std::vector<RegionScan> &sc = an.sc;
    sc.assign(nRegions, RegionScan{});
    report.shards.resize(nRegions);
    std::uint64_t deadMask = 0;
    std::uint64_t total_slots = 0;
    an.resumeTruncation = false;

    // Step 1: read every region's header (geometry) and truncation
    // flag before any write — the resume decision needs the global
    // flag view.
    for (std::uint32_t s = 0; s < nRegions; ++s) {
        RegionScan &sh = sc[s];
        sh.base = map.logBase() + s * region_bytes;
        sh.slot0 = sh.base + LogRegion::kHeaderBytes;
        ShardSummary &summ = report.shards[s];
        summ.shard = s;
        std::uint64_t magic = io.read64(sh.base);
        std::uint64_t slots = io.read64(sh.base + 8);
        if (magic != LogRegion::kMagic || slots == 0 ||
            slots > (region_bytes - LogRegion::kHeaderBytes) /
                        LogRecord::kSlotBytes) {
            summ.dead = true;
            deadMask |= 1ULL << s;
            continue;
        }
        sh.dead = false;
        sh.slots = slots;
        sh.metaBase = total_slots;
        total_slots += slots;
        summ.headerValid = true;
        report.headerValid = true;
        an.resumeTruncation |=
            io.read64(sh.base + LogRegion::kTruncFlagOffset) != 0;
    }

    // An interrupted truncation leaves nothing to analyze: apply()
    // only finishes the zeroing.
    if (an.resumeTruncation)
        return;

    // Step 2: classify every slot. classifySlot separates damage
    // (torn partial writes, CRC failures) from parseable records;
    // damaged slots never contribute replay values. The scan is by
    // far the hottest loop of a crash sweep (4+ passes per evaluated
    // point), so with no remapping active it walks the image's
    // resident pages in place: a page never written reads as zero, so
    // every slot inside it is Empty without the bytes ever being
    // copied or compared — on a typical sweep only the written log
    // prefix of the multi-MB area costs anything. Remapped images
    // (lifelab) read slot by slot through the translation. Per-slot
    // state is an 8-byte SlotMeta over the slots of every live
    // region; parsed records are stored once, densely, only for Valid
    // slots.
    std::vector<SlotMeta> &meta = an.meta;
    std::vector<SlotInfo> &parsed = an.parsed;
    meta.assign(total_slots, SlotMeta{SlotClass::Empty, false, kNoRec});
    parsed.clear();
    static const std::uint8_t kZeroSlot[LogRecord::kSlotBytes] = {};
    auto scanOne = [&](const RegionScan &sh, std::uint64_t i,
                       const std::uint8_t *img) {
        if (std::memcmp(img, kZeroSlot, LogRecord::kSlotBytes) == 0) {
            // All-zero slot: the default meta already says Empty, and
            // most of the area is empty in a typical sweep.
            ++report.emptySlots;
            return;
        }
        SlotInfo si = classifySlot(img);
        if (faultIgnoreCrc && si.cls == SlotClass::CrcFail) {
            // Injected bug: the pre-faultlab scanner trusted any slot
            // with a written marker.
            bool torn = false;
            auto rec = LogRecord::deserialize(img, torn);
            if (rec && rec->payloadBytes() <= LogRecord::kSlotBytes) {
                si.cls = SlotClass::Valid;
                si.torn = torn;
                si.rec = *rec;
            }
        }
        SlotMeta &m = meta[sh.metaBase + i];
        m.cls = si.cls;
        m.torn = si.torn;
        switch (si.cls) {
          case SlotClass::Empty:
            ++report.emptySlots;
            break;
          case SlotClass::Torn:
            ++report.tornSlots;
            break;
          case SlotClass::CrcFail:
            ++report.crcFailSlots;
            break;
          case SlotClass::Valid:
            m.rec = static_cast<std::uint32_t>(parsed.size());
            parsed.push_back(si);
            break;
        }
        if ((si.cls == SlotClass::Torn ||
             si.cls == SlotClass::CrcFail) &&
            report.firstBadSlotAddr == 0) {
            report.firstBadSlotAddr =
                sh.slot0 + i * LogRecord::kSlotBytes;
        }
    };
    for (std::uint32_t s = 0; s < nRegions; ++s) {
        const RegionScan &sh = sc[s];
        if (sh.dead)
            continue;
        std::uint64_t i = 0;
        while (i < sh.slots) {
            Addr a = sh.slot0 + i * LogRecord::kSlotBytes;
            std::uint64_t avail = 0;
            const std::uint8_t *p = io.pageAt(a, &avail);
            std::uint64_t whole = std::min<std::uint64_t>(
                sh.slots - i, avail / LogRecord::kSlotBytes);
            if (whole == 0) {
                // Slot straddles a page boundary, or its line may be
                // remapped: assemble it through the translating read.
                std::uint8_t buf[LogRecord::kSlotBytes];
                io.read(a, LogRecord::kSlotBytes, buf);
                scanOne(sh, i, buf);
                ++i;
                continue;
            }
            if (p == nullptr) {
                // Absent page: `whole` slots of zeros.
                report.emptySlots += whole;
            } else {
                for (std::uint64_t k = 0; k < whole; ++k)
                    scanOne(sh, i + k, p + k * LogRecord::kSlotBytes);
            }
            i += whole;
        }
        report.slotsScanned += sh.slots;
        report.shards[s].slotsScanned = sh.slots;
    }

    for (std::uint32_t s = 0; s < nRegions; ++s) {
        RegionScan &sh = sc[s];
        if (sh.dead)
            continue;
        const SlotMeta *m = meta.data() + sh.metaBase;

        // Step 3: locate the live window. The torn (pass-parity) bit
        // of the first valid slot fixes the current pass; the window
        // runs to the LAST slot of that parity, bridging damaged or
        // dropped slots instead of stopping at the first anomaly (a
        // single damaged slot must not hide every record behind it).
        // Valid slots of the other parity past the window end are the
        // previous pass (older, replayed first); inside the window
        // they are stale records exposed by a dropped overwrite and
        // must not be replayed.
        std::int64_t first_valid = -1;
        for (std::uint64_t i = 0; i < sh.slots; ++i) {
            if (m[i].cls == SlotClass::Valid) {
                first_valid = static_cast<std::int64_t>(i);
                break;
            }
        }
        if (first_valid >= 0) {
            bool t0 = m[first_valid].torn;
            std::uint64_t boundary = 0; // one past the last current slot
            for (std::uint64_t i = 0; i < sh.slots; ++i)
                if (m[i].cls == SlotClass::Valid && m[i].torn == t0)
                    boundary = i + 1;
            for (std::uint64_t i = boundary; i < sh.slots; ++i)
                if (m[i].cls == SlotClass::Valid)
                    sh.window.push_back(m[i].rec);
            sh.wrapped = !sh.window.empty() || boundary == sh.slots;
            for (std::uint64_t i = 0; i < boundary; ++i) {
                // Holes and damage inside the live window are bridged,
                // already counted in the histogram above.
                if (m[i].cls != SlotClass::Valid)
                    continue;
                if (m[i].torn == t0)
                    sh.window.push_back(m[i].rec);
                else
                    ++report.stalePassSlots;
            }
        }
        report.shards[s].validRecords = sh.window.size();
        report.shards[s].wrapped = sh.wrapped;
        report.validRecords += sh.window.size();

        // Step 4: group records by transaction generation. A closing
        // record (commit, masked commit or prepare) closes the
        // current generation of its 16-bit txid; a later record with
        // the same txid starts a new generation.
        sh.genOf.assign(sh.window.size(), SIZE_MAX);
        for (std::size_t i = 0; i < sh.window.size(); ++i) {
            const LogRecord &rec = parsed[sh.window[i]].rec;
            auto it = sh.openGen.find(rec.tx);
            if (it == sh.openGen.end()) {
                sh.gens.push_back({});
                sh.gens.back().tx = rec.tx;
                it = sh.openGen.emplace(rec.tx, sh.gens.size() - 1)
                         .first;
            }
            RegionGen &gen = sh.gens[it->second];
            if (rec.isPrepare) {
                gen.close = RegionGen::Close::Prepare;
                gen.nUpdates = rec.nUpdates;
                gen.commitSeq = rec.commitSeq;
                sh.openGen.erase(it);
            } else if (rec.isCommit && rec.hasShardMask) {
                gen.close = RegionGen::Close::Masked;
                gen.nUpdates = rec.nUpdates;
                gen.commitSeq = rec.commitSeq;
                gen.shardMask = rec.shardMask;
                sh.openGen.erase(it);
            } else if (rec.isCommit) {
                gen.close = RegionGen::Close::Legacy;
                gen.nUpdates = rec.nUpdates;
                sh.openGen.erase(it);
            } else {
                ++gen.found;
                sh.genOf[i] = it->second;
            }
        }
    }

    // Step 5: decide every transaction. Index the cross-shard
    // protocol records first — prepares join their masked commit
    // exactly by the 64-bit transaction sequence number both carry.
    struct GenRef
    {
        std::uint32_t shard;
        std::size_t idx;
    };
    std::map<std::uint64_t, GenRef> maskedBySeq;
    std::map<std::uint64_t, std::vector<GenRef>> preparesBySeq;
    for (std::uint32_t s = 0; s < nRegions; ++s) {
        for (std::size_t g = 0; g < sc[s].gens.size(); ++g) {
            RegionGen &gen = sc[s].gens[g];
            if (gen.close == RegionGen::Close::Masked)
                maskedBySeq[gen.commitSeq] = {s, g};
            else if (gen.close == RegionGen::Close::Prepare)
                preparesBySeq[gen.commitSeq].push_back({s, g});
        }
    }

    // Plain commits: salvage or quarantine within the region. A
    // generation whose commit record promises nUpdates records is
    // salvaged when they were all found. A shortfall is benign only
    // if the region wrapped: reclamation legitimately overwrites old
    // records (and only ones whose data already persisted, so the
    // partial replay is still correct). Without a wrap, log drains
    // are FIFO — a durable commit record implies every update record
    // landed first — so a shortfall can only mean media damage:
    // quarantine, leave the data exactly as the crash left it.
    // nUpdates == 0 records predate the accounting and keep the
    // legacy always-replay behavior.
    for (std::uint32_t s = 0; s < nRegions; ++s) {
        for (auto &gen : sc[s].gens) {
            if (gen.close != RegionGen::Close::Legacy)
                continue;
            ++report.committedTxns;
            if (gen.nUpdates == 0 || gen.found == gen.nUpdates ||
                sc[s].wrapped) {
                gen.action = RegionGen::Action::Redo;
                ++report.salvagedTxns;
                ++report.shards[s].salvagedTxns;
            } else {
                ++report.quarantinedTxns;
                ++report.shards[s].quarantinedTxns;
                report.quarantinedTxIds.push_back(gen.tx);
            }
        }
    }

    // Masked commits: one committed transaction per record, its
    // slices joined across shards.
    for (auto &[seq, mref] : maskedBySeq) {
        RegionScan &osh = sc[mref.shard];
        RegionGen &own = osh.gens[mref.idx];
        ++report.committedTxns;
        std::uint64_t mask = own.shardMask;

        std::vector<GenRef> slices{mref};
        auto pit = preparesBySeq.find(seq);
        if (pit != preparesBySeq.end()) {
            for (GenRef r : pit->second) {
                if (mask & (1ULL << r.shard)) {
                    sc[r.shard].gens[r.idx].consumed = true;
                    slices.push_back(r);
                }
            }
        }

        if (mask & deadMask) {
            // Degraded mode: the dead shard's slice (updates and its
            // undo values) is gone, so the transaction cannot be
            // replayed whole. Roll back every surviving slice and
            // report the abort — the dead-shard data lines stay as
            // the crash left them.
            ++report.deadShardAborted;
            report.deadShardAbortTxIds.push_back(own.tx);
            for (GenRef r : slices) {
                sc[r.shard].gens[r.idx].action =
                    RegionGen::Action::Undo;
                ++report.shards[r.shard].abortedDeadShard;
            }
            for (std::uint32_t s = 0; s < nRegions; ++s)
                if (mask & deadMask & (1ULL << s))
                    ++report.shards[s].abortedDeadShard;
            continue;
        }

        // Completeness across the participation mask: every named
        // shard must account for its slice. A missing or short slice
        // is benign only when that shard wrapped (reclamation only
        // overwrites records whose data already persisted).
        bool ok = own.found == own.nUpdates || osh.wrapped;
        std::vector<GenRef> attachedOpen;
        for (std::uint32_t s = 0; s < nRegions; ++s) {
            if (s == mref.shard || !(mask & (1ULL << s)))
                continue;
            bool have = false;
            for (GenRef r : slices) {
                if (r.shard != s)
                    continue;
                have = true;
                RegionGen &p = sc[s].gens[r.idx];
                if (!(p.found == p.nUpdates || sc[s].wrapped))
                    ok = false;
            }
            if (have)
                continue;
            // No prepare from shard s. An open generation of the
            // same txid there is the slice with its prepare record
            // lost: quarantine the whole transaction and pin the
            // generation so rollback does not touch it either.
            auto oit = sc[s].openGen.find(own.tx);
            if (oit != sc[s].openGen.end()) {
                ok = false;
                attachedOpen.push_back({s, oit->second});
            } else if (!sc[s].wrapped) {
                ok = false;
            }
        }
        if (ok) {
            ++report.salvagedTxns;
            for (GenRef r : slices) {
                sc[r.shard].gens[r.idx].action =
                    RegionGen::Action::Redo;
                ++report.shards[r.shard].salvagedTxns;
            }
        } else {
            ++report.quarantinedTxns;
            report.quarantinedTxIds.push_back(own.tx);
            for (GenRef r : slices)
                ++report.shards[r.shard].quarantinedTxns;
            for (GenRef r : attachedOpen) {
                sc[r.shard].gens[r.idx].pinned = true;
                ++report.shards[r.shard].quarantinedTxns;
            }
        }
    }

    // Uncommitted work: prepares with no commit record (the crash hit
    // between the prepare drain and the commit persist — or the
    // commit record died with a dead owner shard) and generations
    // still open, rolled back and counted once per transaction. A
    // prepare whose commit exists but whose shard the commit's mask
    // disowns is rolled back too without recounting the transaction
    // (only mask corruption or the skip-shard-mask self-test can
    // produce it, and the mask is authoritative).
    std::set<std::uint16_t> abortTx;
    std::set<std::uint16_t> deadAmbiguous;
    for (std::uint32_t s = 0; s < nRegions; ++s) {
        for (auto &gen : sc[s].gens) {
            if (gen.close == RegionGen::Close::Prepare &&
                !gen.consumed) {
                gen.action = RegionGen::Action::Undo;
                if (maskedBySeq.count(gen.commitSeq))
                    continue;
                abortTx.insert(gen.tx);
                if (deadMask)
                    deadAmbiguous.insert(gen.tx);
            } else if (gen.close == RegionGen::Close::Open &&
                       !gen.pinned) {
                gen.action = RegionGen::Action::Undo;
                abortTx.insert(gen.tx);
            }
        }
    }
    report.uncommittedTxns = abortTx.size();
    for (std::uint16_t tx : deadAmbiguous) {
        ++report.deadShardAborted;
        report.deadShardAbortTxIds.push_back(tx);
    }
}

/**
 * Steps 6, 6b and 7 of a pass over @p an: replay, promotion of damaged
 * lines, truncation — or, after an interrupted truncation, just its
 * completion. Every write goes through @p io, so the write budget,
 * the touched-line set and the probe see the same sequence whether
 * @p an was just computed or reused.
 *
 * Truncation raises every live region's flag before zeroing any slot
 * array, so a resumed pass finding any flag set knows replay fully
 * applied (the flag writes are ordered after every replay write
 * through the counted ImageIO) and only has to finish the zeroing.
 */
RecoveryReport
apply(ImageIO &io, const Analysis &an, const RecoveryOptions &opts,
      mem::RemapTable *promoteInto)
{
    RecoveryReport report = an.report;
    const std::vector<RegionScan> &sc = an.sc;
    for (const ShardSummary &summ : report.shards) {
        if (!summ.dead)
            continue;
        if (sc.size() == 1)
            warn("recovery: invalid log header, nothing to recover");
        else
            warn("recovery: log region %u header invalid, degraded "
                 "mode",
                 summ.shard);
    }

    auto zeroRegion = [&](const RegionScan &sh) {
        // Chunked into whole lines so the write budget sees the same
        // units as every other recovery write.
        constexpr std::uint64_t kChunk = 1024;
        std::uint8_t zeros[kChunk] = {};
        std::uint64_t area = sh.slots * LogRecord::kSlotBytes;
        for (std::uint64_t off = 0; off < area; off += kChunk)
            io.write(sh.slot0 + off,
                     std::min<std::uint64_t>(kChunk, area - off),
                     zeros);
        std::uint64_t cleared = 0;
        io.write(sh.base + LogRegion::kTruncFlagOffset,
                 sizeof(cleared), &cleared);
    };

    // An interrupted truncation must not let a resumed recovery
    // reinterpret a partially zeroed slot array (a zeroed prefix can
    // detach a commit record from its updates or resurrect stale-pass
    // records under a different window parity). Any live region's
    // flag proves the previous pass finished replay and promotion
    // everywhere (all flags are raised before any slot is zeroed, and
    // only after replay), so the resumed pass just finishes zeroing
    // every live region.
    if (an.resumeTruncation) {
        for (const RegionScan &sh : sc)
            if (!sh.dead)
                zeroRegion(sh);
        return report;
    }

    // Step 6: replay. Redo salvaged transactions' updates in log
    // order; undo uncommitted ones in reverse log order. Quarantined
    // transactions are left exactly as the crash left them. Writes
    // are functional (the caches are volatile and reset after the
    // crash). Updates to one address always live in one region (a
    // shard is a function of the address; a partition's data is
    // private to its core), so per-region log order is the only order
    // that matters: redo region by region, then undo region by region.
    auto replay = [&](const RegionScan &sh, std::size_t i,
                      RegionGen::Action want) {
        std::size_t gi = sh.genOf[i];
        if (gi == SIZE_MAX || sh.gens[gi].action != want)
            return;
        const LogRecord &rec = an.parsed[sh.window[i]].rec;
        bool undo = want == RegionGen::Action::Undo;
        if ((undo ? rec.hasUndo : rec.hasRedo) && rec.size >= 1 &&
            rec.size <= 8 && io.contains(rec.addr, rec.size)) {
            io.write(rec.addr, rec.size, undo ? &rec.undo : &rec.redo);
            ++(undo ? report.undoApplied : report.redoApplied);
        }
    };
    if (!opts.faultSkipRedo) {
        for (const RegionScan &sh : sc)
            for (std::size_t i = 0; i < sh.window.size(); ++i)
                replay(sh, i, RegionGen::Action::Redo);
    }
    if (!opts.faultSkipUndo) {
        for (const RegionScan &sh : sc)
            for (std::size_t i = sh.window.size(); i-- > 0;)
                replay(sh, i, RegionGen::Action::Undo);
    }

    // Step 6b (lifelab): promote the lines of damaged slots into the
    // persistent remap table so the next generation's log traffic
    // avoids the suspect media. This runs BEFORE truncation — the
    // damage evidence must survive an interrupted pass so a resumed
    // recovery finds the same promotion set — and processes each
    // region's lines in ascending address order, skipping ones
    // already promoted, so the spare assignment is deterministic
    // across interrupt/resume.
    if (promoteInto) {
        for (const RegionScan &sh : sc) {
            if (sh.dead)
                continue;
            const SlotMeta *m = an.meta.data() + sh.metaBase;
            std::vector<Addr> bad_lines;
            for (std::uint64_t i = 0; i < sh.slots; ++i) {
                if (m[i].cls != SlotClass::Torn &&
                    m[i].cls != SlotClass::CrcFail)
                    continue;
                Addr line = (sh.slot0 + i * LogRecord::kSlotBytes) &
                            ~static_cast<Addr>(kLineBytes - 1);
                if (bad_lines.empty() || bad_lines.back() != line)
                    bad_lines.push_back(line);
            }
            bool grew = false;
            for (Addr line : bad_lines) {
                if (promoteInto->find(line) || promoteInto->full())
                    continue;
                // Copy the line's current bytes to the spare *before*
                // the mapping exists (afterwards reads of the line
                // would follow the mapping), then record it.
                std::uint8_t buf[kLineBytes];
                io.read(line, kLineBytes, buf);
                std::optional<Addr> spare = promoteInto->add(line);
                SNF_ASSERT(spare, "remap add failed on unmapped line");
                io.write(*spare, kLineBytes, buf);
                grew = true;
                ++report.promotedLines;
            }
            if (grew) {
                // One durable table update per region; goes through
                // the counted writer so the sweep can interrupt it at
                // any chunk (the half-written bank stays CRC-invalid).
                promoteInto->persist(
                    [&io](Addr a, std::uint64_t n, const void *d) {
                        io.write(a, n, d);
                    });
            }
        }
    }

    // Step 7: truncate the log: raise every live region's flag, then
    // zero every live region's slot array, damaged slots too (each
    // zeroRegion clears its own flag last). Raising all flags first
    // is what makes the resume rule above sound at every
    // interleaving point.
    if (opts.truncateLog) {
        std::uint64_t raised = 1;
        for (const RegionScan &sh : sc)
            if (!sh.dead)
                io.write(sh.base + LogRegion::kTruncFlagOffset,
                         sizeof(raised), &raised);
        for (const RegionScan &sh : sc)
            if (!sh.dead)
                zeroRegion(sh);
    }
    return report;
}

/** Everything analyze() reads besides the metadata bytes. */
struct MemoKey
{
    Addr imageBase = 0;
    std::uint64_t imageSize = 0;
    Addr logBase = 0;
    std::uint64_t logSize = 0;
    std::uint32_t regions = 0;
    std::uint64_t remapSize = 0;
    std::uint64_t spareSize = 0;
    bool faultIgnoreCrc = false;

    bool operator==(const MemoKey &) const = default;
};

/**
 * One thread's last analysis and what it was computed from. One entry
 * serves checkCrashPoint, whose first three passes read the same log
 * bytes back to back.
 */
struct AnalysisMemo
{
    MemoKey key;
    /** Slice of the analyzed image's metadata area; its pages stay
     *  pinned (writers clone them), so the bytes cannot change. */
    std::optional<mem::BackingStore> metadata;
    Analysis analysis;
};

thread_local AnalysisMemo analysisMemo;
thread_local std::uint64_t analysesReusedCount = 0;

} // namespace

RecoveryTimerScope::RecoveryTimerScope(std::uint64_t *sinkNs)
    : prev(recoveryTimerSink)
{
    recoveryTimerSink = sinkNs;
}

RecoveryTimerScope::~RecoveryTimerScope()
{
    recoveryTimerSink = prev;
}

std::uint64_t *
activeRecoveryTimerSink()
{
    return recoveryTimerSink;
}

std::uint64_t
Recovery::analysesReused()
{
    return analysesReusedCount;
}

RecoveryReport
Recovery::run(mem::BackingStore &image, const AddressMap &map,
              bool truncateLog)
{
    RecoveryOptions opts;
    opts.truncateLog = truncateLog;
    return run(image, map, opts);
}

RecoveryReport
Recovery::run(mem::BackingStore &image, const AddressMap &map,
              const RecoveryOptions &opts)
{
    struct TimeGuard
    {
        std::chrono::steady_clock::time_point start =
            std::chrono::steady_clock::now();
        ~TimeGuard()
        {
            if (recoveryTimerSink) {
                *recoveryTimerSink += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
            }
        }
    } timeGuard;

    // The write budget, the remap table, and the touched-line set
    // span the whole pass over every log region.
    mem::RemapTable remap(map.remapBase(), map.remapSize ? map.remapSize
                                                         : 128,
                          map.spareBase(), map.spareSize);
    bool have_remap = map.remapSize != 0;
    bool remap_corrupt = have_remap && remap.load(image).corrupted;
    ImageIO io(image);
    io.remap = have_remap ? &remap : nullptr;
    io.budget = opts.crashAfterWrites;
    io.collect = opts.collectWrites;
    io.probe = &opts.probe;

    // Reuse this thread's last analysis when the image holds the same
    // metadata bytes under the same geometry and scan flag. Pinned
    // pages compare by pointer, so a COW sibling of the last image
    // (the next pass of a crash point's checks) hits for the cost of
    // one page-table walk over the metadata area.
    AnalysisMemo &memo = analysisMemo;
    const Addr metaBase = map.logBase();
    const std::uint64_t metaBytes = map.heapBase() - metaBase;
    const MemoKey key{image.base(),         image.size(),
                      metaBase,             map.logSize,
                      map.logRegionCount(), map.remapSize,
                      map.spareSize,        opts.faultIgnoreCrc};
    if (memo.metadata && memo.key == key &&
        !memo.metadata->firstDifference(image, metaBase, metaBytes)) {
        ++analysesReusedCount;
    } else {
        analyze(io, map, opts.faultIgnoreCrc, memo.analysis);
        memo.key = key;
        memo.metadata = image.slice(metaBase, metaBytes);
    }
    RecoveryReport r =
        apply(io, memo.analysis, opts,
              have_remap && opts.promoteBadLines ? &remap : nullptr);
    r.remapCorrupt = remap_corrupt;
    r.writesIssued = io.issued;
    r.writesApplied = io.applied;
    r.interrupted = io.interrupted();
    r.touchedLines = std::move(io.touched);
    // Per-region summaries only say something once there are regions
    // to tell apart.
    if (map.logRegionCount() == 1)
        r.shards.clear();
    return r;
}

} // namespace snf::persist
