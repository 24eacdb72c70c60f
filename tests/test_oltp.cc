/**
 * @file
 * OLTP engine tests (DESIGN §8, ctest label `oltp`): the TPC-C
 * consistency oracle after clean runs AND after crash-point recovery
 * under every guaranteed mode × CC scheme, the oracles' own teeth (a
 * corrupted TPC-C or YCSB image must be rejected, the YCSB one naming
 * the lowest torn key), YCSB torn-update detection at a
 * large Zipf-skewed keyspace, counter determinism across repeats and
 * across host --jobs, the no-steal empty-write-set abort being legal
 * under redo-only logging, the contended multi-shard crash sweep
 * (I1–I8), and the latency histogram's quantile contract.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "crashlab/sweep.hh"
#include "mem/backing_store.hh"
#include "oltp/bench.hh"
#include "oltp/latency.hh"
#include "oltp/tpcc.hh"
#include "oltp/ycsb.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::oltp;
using namespace snf::workloads;

namespace
{

/** A contended OLTP cell: more threads than warehouses. */
RunSpec
oltpSpec(const std::string &wl, PersistMode mode, CcMode cc)
{
    RunSpec spec;
    spec.workload = wl;
    spec.mode = mode;
    spec.params.threads = 4;
    spec.params.txPerThread = 120;
    spec.params.footprint = 64;
    spec.params.warehouses = 2;
    spec.params.seed = 5;
    spec.sys = SystemConfig::scaled(spec.params.threads);
    spec.sys.persist.ccMode = cc;
    return spec;
}

std::string
oltpCellName(const ::testing::TestParamInfo<
             std::tuple<PersistMode, CcMode>> &info)
{
    std::string n =
        std::string(persistModeName(std::get<0>(info.param))) + "_" +
        ccModeName(std::get<1>(info.param));
    for (auto &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

// ------------------------------------------------------------------
// TPC-C oracle: clean run and crash-point recovery, every guaranteed
// mode × both CC schemes (the ISSUE acceptance matrix).
// ------------------------------------------------------------------

class TpccOracle
    : public ::testing::TestWithParam<std::tuple<PersistMode, CcMode>>
{
};

TEST_P(TpccOracle, CleanRunSatisfiesInvariants)
{
    auto [mode, cc] = GetParam();
    auto outcome = runWorkload(oltpSpec("oltp-tpcc", mode, cc));
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_GT(outcome.stats.committedTx, 0u);
}

TEST_P(TpccOracle, CrashPointRecoverySatisfiesInvariants)
{
    auto [mode, cc] = GetParam();
    for (Tick at : {Tick(60000), Tick(390000)}) {
        RunSpec spec = oltpSpec("oltp-tpcc", mode, cc);
        spec.params.txPerThread = 200;
        spec.sys.persist.crashJournal = true;
        spec.crashAt = at;
        auto outcome = runWorkload(spec);
        EXPECT_TRUE(outcome.verified)
            << persistModeName(mode) << "/" << ccModeName(cc) << " @"
            << at << ": " << outcome.verifyMessage;
    }
}

TEST_P(TpccOracle, YcsbCleanAndCrashRecovery)
{
    auto [mode, cc] = GetParam();
    RunSpec spec = oltpSpec("oltp-ycsb", mode, cc);
    spec.params.footprint = 4096;
    spec.params.zipfTheta = 0.9;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;

    spec.sys.persist.crashJournal = true;
    spec.crashAt = 90000;
    outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << persistModeName(mode) << "/" << ccModeName(cc) << ": "
        << outcome.verifyMessage;
}

INSTANTIATE_TEST_SUITE_P(
    All, TpccOracle,
    ::testing::Combine(::testing::Values(PersistMode::Fwb,
                                         PersistMode::UndoClwb,
                                         PersistMode::RedoClwb),
                       ::testing::Values(CcMode::TwoPhase,
                                         CcMode::Tl2)),
    oltpCellName);

// ------------------------------------------------------------------
// The oracle has teeth: corrupting one word of a verified image must
// produce a failure with a diagnostic.
// ------------------------------------------------------------------

namespace
{

/** A clean, verified TPC-C image (fwb, 2PL, two warehouses). */
struct TpccImage
{
    mem::BackingStore store;
    TpccLayout lay;
};

TpccImage
verifiedTpccImage()
{
    WorkloadParams params;
    params.threads = 2;
    params.txPerThread = 60;
    params.footprint = 48;
    params.warehouses = 2;
    params.seed = 9;

    SystemConfig cfg = SystemConfig::scaled(params.threads);
    cfg.persist.ccMode = CcMode::TwoPhase;
    System sys(cfg, PersistMode::Fwb);
    TpccEngine eng;
    eng.setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c)
        sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
            return eng.thread(sys, t, params);
        });
    Tick end = sys.run(kTickNever);
    sys.flushAll(end);

    std::string why;
    EXPECT_TRUE(eng.verify(sys.mem().nvram().store(), &why)) << why;
    return TpccImage{sys.mem().nvram().store(), eng.layout()};
}

/** First address of the page after the one holding @p addr. */
Addr
pageEnd(const mem::BackingStore &store, Addr addr)
{
    std::uint64_t avail = 0;
    store.pageAt(addr, &avail);
    return addr + avail;
}

/** @p store without the page holding @p addr (it reads as zero). */
mem::BackingStore
withoutPage(const mem::BackingStore &store, Addr addr)
{
    mem::BackingStore out(store.base(), store.size());
    const Addr drop = pageEnd(store, addr);
    for (Addr a = store.base(); a < store.base() + store.size();) {
        std::uint64_t avail = 0;
        const std::uint8_t *bytes = store.pageAt(a, &avail);
        if (bytes && a + avail != drop)
            out.write(a, avail, bytes);
        a += avail;
    }
    return out;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

TEST(TpccOracleTeeth, CorruptedImageIsRejected)
{
    TpccImage img = verifiedTpccImage();

    // Book one phantom dollar into warehouse 0: w_ytd no longer
    // equals the sum of its districts' d_ytd.
    Addr wytd = img.lay.warehouseAddr(0);
    img.store.write64(wytd, img.store.read64(wytd) + 1);

    std::string why;
    EXPECT_FALSE(checkTpccConsistency(img.store, img.lay, &why));
    EXPECT_NE(why.find("w_ytd"), std::string::npos) << why;
}

// The oracle reads the image page by page; corruption right at a page
// edge, on a page the reader reaches by crossing a boundary mid-order,
// and on a page that is absent altogether is judged exactly as before.

TEST(TpccOracleTeeth, PageEdgeCorruptionIsRejected)
{
    const TpccImage clean = verifiedTpccImage();
    const TpccLayout &lay = clean.lay;
    std::string why;

    // The last stock row on a page: bump its s_remote_cnt, the last
    // word of the row the oracle reads.
    {
        std::uint64_t i = 0;
        while (i < lay.items &&
               pageEnd(clean.store, lay.stockAddr(1, i)) !=
                   lay.stockAddr(1, i) + TpccLayout::kRowBytes)
            ++i;
        ASSERT_LT(i, lay.items);
        const Addr stock = lay.stockAddr(1, i);
        const std::uint64_t ytd = clean.store.read64(stock + 8);
        const std::uint64_t cnt = clean.store.read64(stock + 16);
        const std::uint64_t rem = clean.store.read64(stock + 24);
        mem::BackingStore bad = clean.store;
        bad.write64(stock + 24, rem + 1);
        EXPECT_FALSE(checkTpccConsistency(bad, lay, &why));
        EXPECT_EQ(why, "stock (1," + num(i) + "): cnt/ytd/remote " +
                           num(cnt) + "/" + num(ytd) + "/" +
                           num(rem + 1) + " != recomputed " + num(cnt) +
                           "/" + num(ytd) + "/" + num(rem));
    }

    // A committed order whose header and lines straddle a page
    // boundary: overcharge the first line on the following page.
    {
        bool found = false;
        for (std::uint64_t w = 0; w < lay.warehouses && !found; ++w)
            for (std::uint64_t d = 0; d < lay.districts && !found; ++d) {
                const std::uint64_t next =
                    clean.store.read64(lay.districtAddr(w, d));
                for (std::uint64_t o = 0; o < next && !found; ++o) {
                    const Addr order = lay.orderAddr(w, d, o);
                    const Addr edge = pageEnd(clean.store, order);
                    const std::uint64_t nlines =
                        clean.store.read64(order + 16);
                    for (std::uint64_t l = 0; l < nlines; ++l) {
                        const Addr line =
                            order + TpccLayout::kOrderHeaderBytes +
                            l * TpccLayout::kOrderLineBytes;
                        if (line < edge)
                            continue;
                        const std::uint64_t w1 =
                            clean.store.read64(line + 8);
                        mem::BackingStore bad = clean.store;
                        bad.write64(line + 8, w1 + (1ULL << 32));
                        EXPECT_FALSE(
                            checkTpccConsistency(bad, lay, &why));
                        EXPECT_EQ(why, "order (" + num(w) + "," +
                                           num(d) + "," + num(o) +
                                           ") line " + num(l) +
                                           ": amount " +
                                           num((w1 >> 32) + 1) +
                                           " != qty * price");
                        found = true;
                        break;
                    }
                }
            }
        ASSERT_TRUE(found) << "no committed order crosses a page";
    }

    // A phantom order in the slot after a district's last one is
    // caught; with that slot's page dropped from the image the slot
    // reads zero again. Pick a district whose next slot shares its
    // page with no committed order, so the drop loses nothing else.
    {
        bool found = false;
        for (std::uint64_t d = 0; d < lay.districts && !found; ++d) {
            const std::uint64_t next =
                clean.store.read64(lay.districtAddr(0, d));
            const Addr slot = lay.orderAddr(0, d, next);
            if (next > 0 && pageEnd(clean.store, slot - 1) ==
                                pageEnd(clean.store, slot))
                continue;
            mem::BackingStore bad = clean.store;
            bad.write64(slot, next + 1);
            EXPECT_FALSE(checkTpccConsistency(bad, lay, &why));
            EXPECT_EQ(why, "district (0," + num(d) +
                               "): phantom order at " + num(next));
            EXPECT_TRUE(checkTpccConsistency(withoutPage(bad, slot),
                                             lay, &why))
                << why;
            found = true;
        }
        ASSERT_TRUE(found) << "every next slot shares a page";
    }
}

// The YCSB oracle has the same teeth: a torn record is rejected with
// its key and word, wherever it sits — on a page the run wrote or on
// one it never touched — and the lowest torn key is the one reported.

namespace
{

std::string
tornMessage(std::uint64_t key, std::uint64_t word, std::uint64_t value,
            std::uint64_t version)
{
    return "key " + std::to_string(key) + ": payload word " +
           std::to_string(word) + " = " + std::to_string(value) +
           " but version " + std::to_string(version) + " (torn update)";
}

} // namespace

TEST(YcsbOracleTeeth, TornRecordsAreRejectedLowestKeyFirst)
{
    WorkloadParams params;
    params.threads = 2;
    params.txPerThread = 60;
    params.footprint = 65536;
    params.zipfTheta = 0.9;
    params.seed = 9;

    SystemConfig cfg = SystemConfig::scaled(params.threads);
    cfg.persist.ccMode = CcMode::TwoPhase;
    System sys(cfg, PersistMode::Fwb);
    YcsbEngine eng;
    eng.setup(sys, params);

    // Never touched: every record page is absent and reads as zero.
    const mem::BackingStore &store = sys.mem().nvram().store();
    const std::uint64_t last = eng.keys() - 1;
    std::uint64_t avail = 0;
    for (Addr a = eng.recordAddr(0); a < eng.recordAddr(last + 1);
         a += avail)
        ASSERT_EQ(store.pageAt(a, &avail), nullptr);
    std::string why;
    EXPECT_TRUE(eng.verify(store, &why)) << why;

    for (CoreId c = 0; c < params.threads; ++c)
        sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
            return eng.thread(sys, t, params);
        });
    Tick end = sys.run(kTickNever);
    sys.flushAll(end);
    ASSERT_TRUE(eng.verify(store, &why)) << why;

    // A key some update committed to, and a last key whose page no
    // transaction touched.
    std::uint64_t touched = 0;
    while (touched < last && store.read64(eng.recordAddr(touched)) == 0)
        ++touched;
    const std::uint64_t version = store.read64(eng.recordAddr(touched));
    ASSERT_NE(version, 0u) << "no update committed";
    ASSERT_EQ(store.pageAt(eng.recordAddr(last), &avail), nullptr);

    {
        mem::BackingStore img = store;
        img.write64(eng.recordAddr(touched) + 8 * 3, version + 5);
        EXPECT_FALSE(eng.verify(img, &why));
        EXPECT_EQ(why, tornMessage(touched, 2, version + 5, version));
    }
    {
        mem::BackingStore img = store;
        img.write64(eng.recordAddr(last) + 8 * 4, 1);
        EXPECT_FALSE(eng.verify(img, &why));
        EXPECT_EQ(why, tornMessage(last, 3, 1, 0));
    }
    {
        mem::BackingStore img = store;
        img.write64(eng.recordAddr(last) + 8 * 4, 1);
        img.write64(eng.recordAddr(touched) + 8 * 1, version + 1);
        EXPECT_FALSE(eng.verify(img, &why));
        EXPECT_EQ(why, tornMessage(touched, 0, version + 1, version));
    }
}

// ------------------------------------------------------------------
// No-steal discipline: under redo-only logging a conflict-doomed
// transaction aborts with an empty write-set — tx_abort must be legal
// there (it used to assert), and contended TL2 runs exercise it.
// ------------------------------------------------------------------

TEST(NoSteal, RedoOnlyConflictAbortsAreLegalAndRecoverable)
{
    RunSpec spec = oltpSpec("oltp-tpcc", PersistMode::RedoClwb,
                            CcMode::Tl2);
    spec.params.threads = 4;
    spec.params.warehouses = 1; // every thread on one warehouse
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    // The whole point of the cell: conflicts happened and were
    // resolved by abort-retry without undo values.
    EXPECT_GT(outcome.stats.abortedTx, 0u);
}

// ------------------------------------------------------------------
// Determinism: the deterministic counters block is a pure function of
// the cell spec — identical across repeats and across host --jobs.
// ------------------------------------------------------------------

TEST(OltpBench, CountersIdenticalAcrossRepeatsAndJobs)
{
    OltpMatrixConfig cfg;
    cfg.threads = 2;
    cfg.txPerThread = 30;
    cfg.customers = 32;
    cfg.keys = 2048;
    // Two repeats: runOltpCell itself fatals on counter drift.
    cfg.minRepeats = 2;

    std::vector<OltpCellSpec> cells = {
        {"oltp-tpcc", PersistMode::Fwb, CcMode::TwoPhase},
        {"oltp-ycsb", PersistMode::RedoClwb, CcMode::Tl2},
    };

    cfg.jobs = 1;
    auto serial = runOltpMatrix(cells, cfg);
    cfg.jobs = 4;
    auto parallel = runOltpMatrix(cells, cfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i].countersEqual(parallel[i]))
            << cells[i].engine << " counters depend on --jobs";
    EXPECT_GT(serial[0].committedTx, 0u);
    EXPECT_GT(serial[0].occSamples, 0u);
    // The host phases split the fastest repeat's wall time.
    for (const OltpCellResult &r : serial) {
        EXPECT_GT(r.runSec, 0.0);
        EXPECT_NEAR(r.setupSec + r.runSec + r.verifySec, r.wallSec,
                    1e-9);
    }
}

// ------------------------------------------------------------------
// Contended multi-shard crash sweep: every sampled crash point of a
// 4-thread, 2-warehouse TPC-C cell over a 4-sharded log must recover
// and satisfy the invariant checkers I1–I8 plus the TPC-C oracle.
// ------------------------------------------------------------------

TEST(OltpCrashSweep, ContendedShardedTpccSweepPasses)
{
    crashlab::SweepConfig cfg;
    cfg.run = oltpSpec("oltp-tpcc", PersistMode::Fwb, CcMode::TwoPhase);
    cfg.run.params.txPerThread = 60;
    cfg.run.sys.persist.logShards = 4;
    cfg.jobs = 2;
    cfg.maxPoints = 12;
    auto res = crashlab::runCrashSweep(cfg);
    EXPECT_TRUE(res.passed()) << res.minimizedDetail;
    EXPECT_GT(res.pointsTested, 0u);
    EXPECT_TRUE(res.refVerified) << res.refVerifyMessage;
}

// ------------------------------------------------------------------
// Latency histogram: exact below one octave, bounded relative error
// above, quantiles and merge as documented.
// ------------------------------------------------------------------

TEST(LatencyHistogram, EmptyReportsZeros)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p999(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    LatencyHistogram h;
    for (std::uint64_t v : {1, 2, 3})
        h.record(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 3u);
    EXPECT_EQ(h.mean(), 2u);
    EXPECT_EQ(h.p50(), 2u);
    EXPECT_EQ(h.quantile(1.0), 3u);
}

TEST(LatencyHistogram, QuantileErrorIsBounded)
{
    // Bucket upper bounds are within 1/8 (kSub) relative error of any
    // member value, and quantiles never exceed the recorded max.
    LatencyHistogram h;
    for (std::uint64_t v = 1000; v < 2000; v += 10)
        h.record(v);
    std::uint64_t p50 = h.p50();
    EXPECT_GE(p50, 1400u);
    EXPECT_LE(p50, 1690u); // 1500 * 1.125, and clamped to max
    EXPECT_LE(h.quantile(1.0), h.max());
    EXPECT_GE(h.quantile(1.0), 1990u);
}

TEST(LatencyHistogram, MergeAccumulates)
{
    LatencyHistogram a, b;
    a.record(5);
    a.record(100);
    b.record(70000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 70000u);
    EXPECT_EQ(a.sum(), 70105u);
    EXPECT_EQ(a.quantile(1.0), 70000u);
}

// ------------------------------------------------------------------
// YCSB at a production-scale keyspace: a Zipf-skewed run over 10^6
// keys sets up in O(touched pages) (no prewrites) and verifies (no
// torn updates: every payload word equals the record version).
// ------------------------------------------------------------------

TEST(YcsbScale, MillionKeyZipfRunVerifies)
{
    RunSpec spec = oltpSpec("oltp-ycsb", PersistMode::Fwb,
                            CcMode::Tl2);
    spec.params.footprint = 1000000;
    spec.params.zipfTheta = 0.99;
    spec.params.txPerThread = 150;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    // YCSB has no user aborts: every transaction eventually commits.
    EXPECT_EQ(outcome.stats.committedTx,
              4u * spec.params.txPerThread);
}
