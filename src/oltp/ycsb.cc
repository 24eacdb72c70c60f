#include "oltp/ycsb.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "mem/backing_store.hh"
#include "sim/logging.hh"

namespace snf::oltp
{

namespace
{

constexpr unsigned kMaxTxAttempts = 200;
constexpr std::uint64_t kMaxBackoff = 2048;

} // namespace

void
YcsbEngine::setup(System &sys, const WorkloadParams &params)
{
    nkeys = params.footprint ? params.footprint : 65536;
    theta = params.zipfTheta != 0.0 ? params.zipfTheta : 0.8;
    SNF_ASSERT(theta > 0.0 && theta < 1.0,
               "oltp-ycsb: zipf theta %.3f outside (0, 1)", theta);
    ccOn = sys.config().persist.ccMode != CcMode::None;
    SNF_ASSERT(ccOn || nkeys >= params.threads,
               "oltp-ycsb: %u threads need at least one key each "
               "(%" PRIu64 " keys) without a CC scheme",
               params.threads, nkeys);

    // Records start all-zero (version 0, payload 0), which already
    // satisfies the payload == version invariant — no prewrites, so
    // setup stays O(1) even for millions of keys.
    records = sys.heap().alloc(nkeys * kRecordBytes, 64);
    dramIndex = sys.dramHeap().alloc(nkeys * 8, 64);

    resetMetrics({"read", "update"});
}

sim::Co<void>
YcsbEngine::thread(System &sys, Thread &t,
                   const WorkloadParams &params)
{
    sim::Rng rng(params.seed * 5519 + t.id() * 257 + 3);
    const bool canAbort = supportsAbort(sys.mode());
    const bool noSteal = ccOn && !canAbort;

    // With CC, all threads sample the shared keyspace; without, each
    // thread owns the keys congruent to its id.
    const std::uint64_t perThread =
        ccOn ? nkeys : nkeys / params.threads;
    sim::Zipf zipf(perThread, theta);

    for (std::uint64_t n = 0; n < params.txPerThread; ++n) {
        std::uint64_t s = zipf.sample(rng);
        std::uint64_t key = ccOn ? s : s * params.threads + t.id();
        bool update = rng.below(2) == 0;
        std::size_t type = update ? kUpdate : kRead;
        Addr rec = recordAddr(key);

        Tick start = t.context().localTime;
        std::uint64_t backoff = 16;
        bool done = false;
        for (unsigned attempt = 0; attempt < kMaxTxAttempts;
             ++attempt) {
            TxExec x(sys, t, noSteal);
            co_await t.txBegin();
            // Hash-index probe in volatile DRAM.
            co_await t.load64(dramIndex + key * 8);
            co_await t.compute(70); // key hashing, request parsing

            std::uint64_t ver = 0;
            co_await x.load(rec + 0, &ver);
            if (update && !x.doomed()) {
                co_await t.compute(12); // payload formatting
                co_await x.store(rec + 0, ver + 1);
                for (std::uint64_t p = 0; p < kPayloadWords; ++p)
                    co_await x.store(rec + 8 + p * 8, ver + 1);
            } else if (!x.doomed()) {
                std::uint64_t payload = 0;
                for (std::uint64_t p = 0; p < kPayloadWords; ++p)
                    co_await x.load(rec + 8 + p * 8, &payload);
                co_await t.compute(8); // response serialization
            }

            if (!x.doomed())
                co_await x.finish();
            if (x.doomed()) {
                co_await t.txAbort();
                ++retriesCount;
                co_await t.compute(backoff + t.id());
                if (backoff < kMaxBackoff)
                    backoff *= 2;
                continue;
            }
            co_await t.txCommit();
            bool aborted = t.lastTxAborted();
            if (aborted) {
                ++retriesCount;
                co_await t.compute(backoff + t.id());
                if (backoff < kMaxBackoff)
                    backoff *= 2;
                continue;
            }
            TxTypeMetrics &m = typeMetrics(type);
            ++m.committed;
            m.latency.record(t.context().localTime - start);
            done = true;
            break;
        }
        SNF_ASSERT(done,
                   "oltp-ycsb: transaction starved after %u attempts "
                   "on core %u",
                   kMaxTxAttempts, t.id());
        (void)canAbort;
    }
}

bool
YcsbEngine::verify(const mem::BackingStore &nvram,
                   std::string *why) const
{
    // Every payload word must equal the record's version word.
    constexpr std::uint64_t kWords = 1 + kPayloadWords;
    auto torn = [&](std::uint64_t k, const std::uint64_t (&w)[kWords]) {
        for (std::uint64_t p = 0; p < kPayloadWords; ++p) {
            if (w[1 + p] == w[0])
                continue;
            if (why) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "key %" PRIu64 ": payload word "
                              "%" PRIu64 " = %" PRIu64
                              " but version %" PRIu64 " (torn update)",
                              k, p, w[1 + p], w[0]);
                *why = buf;
            }
            return true;
        }
        return false;
    };

    // Walk the records page by page. An absent page reads as zero —
    // version 0, payload 0, consistent — so only resident pages are
    // checked, straight from their bytes, in ascending key order.
    std::uint64_t k = 0;
    while (k < nkeys) {
        std::uint64_t avail = 0;
        const std::uint8_t *bytes = nvram.pageAt(recordAddr(k), &avail);
        const std::uint64_t inPage =
            std::min(nkeys - k, avail / kRecordBytes);
        if (inPage == 0) {
            // The record straddles a page boundary.
            std::uint64_t w[kWords];
            for (std::uint64_t i = 0; i < kWords; ++i)
                w[i] = nvram.read64(recordAddr(k) + i * 8);
            if (torn(k, w))
                return false;
            ++k;
            continue;
        }
        if (bytes) {
            for (std::uint64_t i = 0; i < inPage; ++i) {
                std::uint64_t w[kWords];
                std::memcpy(w, bytes + i * kRecordBytes, sizeof(w));
                if (torn(k + i, w))
                    return false;
            }
        }
        k += inPage;
    }
    return true;
}

} // namespace snf::oltp
