#include "oltp/tpcc.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "mem/backing_store.hh"
#include "sim/logging.hh"

namespace snf::oltp
{

namespace
{

/** Abort-retry ceiling per transaction before declaring starvation. */
constexpr unsigned kMaxTxAttempts = 200;

/** Retry backoff ceiling (ticks). */
constexpr std::uint64_t kMaxBackoff = 2048;

bool
fail(std::string *why, const char *fmt, ...)
{
    if (why) {
        char buf[256];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        *why = buf;
    }
    return false;
}

/**
 * Word reads over an NVRAM image for the consistency oracle. Keeps
 * the page the last read landed on — its resident bytes, or nullptr
 * for an absent page that reads as zero — and that page's extent, so
 * the oracle's mostly ascending row walks cost one page lookup per
 * page instead of one per word.
 */
class WordReader
{
  public:
    explicit WordReader(const mem::BackingStore &nvram) : store(nvram) {}

    std::uint64_t
    read64(Addr addr)
    {
        std::uint64_t v = 0;
        if (addr < lo || addr + sizeof(v) > hi) {
            std::uint64_t avail = 0;
            bytes = store.pageAt(addr, &avail);
            lo = addr;
            hi = addr + avail;
            if (avail < sizeof(v)) {
                // The word straddles a page boundary.
                lo = hi = 0;
                store.read(addr, sizeof(v), &v);
                return v;
            }
        }
        if (bytes)
            std::memcpy(&v, bytes + (addr - lo), sizeof(v));
        return v;
    }

  private:
    const mem::BackingStore &store;
    const std::uint8_t *bytes = nullptr; ///< at lo; nullptr = zeros
    Addr lo = 0;
    Addr hi = 0; ///< exclusive
};

} // namespace

void
TpccEngine::setup(System &sys, const WorkloadParams &params)
{
    lay = TpccLayout{};
    lay.warehouses =
        params.warehouses ? params.warehouses : params.threads;
    lay.customers = params.footprint ? params.footprint : 96;
    lay.items = std::clamp<std::uint64_t>(lay.customers * 33, 1024,
                                          100000);
    std::uint64_t threadsPerWh =
        (params.threads + lay.warehouses - 1) / lay.warehouses;
    lay.maxOrders = threadsPerWh * params.txPerThread + 1;

    ccOn = sys.config().persist.ccMode != CcMode::None;
    SNF_ASSERT(ccOn || lay.warehouses >= params.threads,
               "oltp-tpcc: %u threads over %" PRIu64
               " warehouses contend on shared rows and require a CC "
               "scheme (--cc 2pl|tl2)",
               params.threads, lay.warehouses);

    auto &heap = sys.heap();
    lay.warehouseBase =
        heap.alloc(lay.warehouses * TpccLayout::kRowBytes, 64);
    lay.districtBase = heap.alloc(
        lay.warehouses * lay.districts * TpccLayout::kRowBytes, 64);
    lay.customerBase =
        heap.alloc(lay.warehouses * lay.districts * lay.customers *
                       TpccLayout::kRowBytes,
                   64);
    lay.stockBase = heap.alloc(
        lay.warehouses * lay.items * TpccLayout::kRowBytes, 64);
    lay.orderBase =
        heap.alloc(lay.warehouses * lay.districts * lay.maxOrders *
                       TpccLayout::kOrderBytes,
                   64);
    // Volatile item catalog: prices are recomputed functionally
    // (TpccLayout::itemPrice); the DRAM table only models the lookup
    // traffic.
    itemTable = sys.dramHeap().alloc(lay.items * 8, 64);

    // Everything starts zero (pages are zero-filled lazily) except
    // stock quantities.
    for (std::uint64_t w = 0; w < lay.warehouses; ++w)
        for (std::uint64_t i = 0; i < lay.items; ++i)
            heap.prewrite64(lay.stockAddr(w, i) + 0,
                            TpccLayout::kInitQuantity);

    resetMetrics({"neworder", "payment", "orderstatus"});
}

sim::Co<void>
TpccEngine::newOrder(Thread &t, TxExec &x, const NewOrderArg &a)
{
    co_await t.compute(120); // input parsing, customer credit lookup

    std::uint64_t oid = 0;
    co_await x.load(lay.districtAddr(a.w, a.d) + 0, &oid);
    if (x.doomed())
        co_return;
    SNF_ASSERT(oid < lay.maxOrders,
               "oltp-tpcc: district (%" PRIu64 ",%" PRIu64
               ") order table overflow",
               a.w, a.d);

    Addr order = lay.orderAddr(a.w, a.d, oid);
    std::uint64_t total = 0;
    for (std::uint64_t l = 0; l < a.nlines; ++l) {
        const OrderLine &ln = a.lines[l];
        Addr stock = lay.stockAddr(ln.supply, ln.item);

        // Item catalog probe in volatile DRAM.
        co_await t.load64(itemTable + ln.item * 8);
        co_await t.compute(45); // pricing, tax, stock math

        std::uint64_t qty = 0, sytd = 0, scnt = 0, srem = 0;
        co_await x.load(stock + 0, &qty);
        co_await x.load(stock + 8, &sytd);
        co_await x.load(stock + 16, &scnt);
        bool remote = ln.supply != a.w;
        if (remote)
            co_await x.load(stock + 24, &srem);
        if (x.doomed())
            co_return;

        // TPC-C replenishment: drop below 10 and the warehouse
        // restocks 91 units, preserving
        // (s_quantity + s_ytd) % 91 == 100 % 91.
        std::uint64_t newQty = qty - ln.qty;
        if (qty < ln.qty + 10)
            newQty += 91;
        co_await x.store(stock + 0, newQty);
        co_await x.store(stock + 8, sytd + ln.qty);
        co_await x.store(stock + 16, scnt + 1);
        if (remote)
            co_await x.store(stock + 24, srem + 1);

        std::uint64_t price = TpccLayout::itemPrice(ln.item);
        std::uint64_t amount = ln.qty * price;
        total += amount;
        Addr line = order + TpccLayout::kOrderHeaderBytes +
                    l * TpccLayout::kOrderLineBytes;
        co_await x.store(line + 0, ln.item | (ln.supply << 32));
        co_await x.store(line + 8, ln.qty | (amount << 32));
        if (x.doomed())
            co_return;
    }

    co_await x.store(order + 8, a.c);
    co_await x.store(order + 16, a.nlines);
    co_await x.store(order + 24, total);
    co_await x.store(order + 0, oid + 1); // stamp: committed marker
    co_await x.store(lay.districtAddr(a.w, a.d) + 0, oid + 1);
}

sim::Co<void>
TpccEngine::payment(Thread &t, TxExec &x, const PaymentArg &a)
{
    co_await t.compute(60); // input parsing, customer lookup

    Addr wh = lay.warehouseAddr(a.w);
    Addr dist = lay.districtAddr(a.w, a.d);
    Addr cust = lay.customerAddr(a.cw, a.cd, a.c);

    std::uint64_t wytd = 0, dytd = 0, bal = 0, cytd = 0, ccnt = 0;
    co_await x.load(wh + 0, &wytd);
    co_await x.load(dist + 8, &dytd);
    co_await x.load(cust + 0, &bal);
    co_await x.load(cust + 8, &cytd);
    co_await x.load(cust + 16, &ccnt);
    if (x.doomed())
        co_return;

    co_await t.compute(30); // history record formatting
    co_await x.store(wh + 0, wytd + a.amount);
    co_await x.store(dist + 8, dytd + a.amount);
    co_await x.store(cust + 0, bal - a.amount);
    co_await x.store(cust + 8, cytd + a.amount);
    co_await x.store(cust + 16, ccnt + 1);
}

sim::Co<void>
TpccEngine::orderStatus(Thread &t, TxExec &x, const StatusArg &a)
{
    co_await t.compute(50); // customer lookup by name

    std::uint64_t bal = 0;
    co_await x.load(lay.customerAddr(a.w, a.d, a.c) + 0, &bal);

    std::uint64_t next = 0;
    co_await x.load(lay.districtAddr(a.w, a.d) + 0, &next);
    if (x.doomed() || next == 0)
        co_return;

    Addr order = lay.orderAddr(a.w, a.d, next - 1);
    std::uint64_t stamp = 0, cid = 0, nlines = 0, total = 0;
    co_await x.load(order + 0, &stamp);
    co_await x.load(order + 8, &cid);
    co_await x.load(order + 16, &nlines);
    co_await x.load(order + 24, &total);
    if (x.doomed())
        co_return;
    // A stale snapshot (caught at validation) can pair this header
    // with an older district counter; clamp instead of asserting.
    if (nlines < TpccLayout::kMinLines ||
        nlines > TpccLayout::kMaxLines)
        nlines = TpccLayout::kMinLines;
    for (std::uint64_t l = 0; l < nlines; ++l) {
        Addr line = order + TpccLayout::kOrderHeaderBytes +
                    l * TpccLayout::kOrderLineBytes;
        std::uint64_t w0 = 0, w1 = 0;
        co_await x.load(line + 0, &w0);
        co_await x.load(line + 8, &w1);
        if (x.doomed())
            co_return;
        co_await t.compute(5);
    }
}

sim::Co<void>
TpccEngine::thread(System &sys, Thread &t,
                   const WorkloadParams &params)
{
    sim::Rng rng(params.seed * 9176 + t.id() * 131 + 7);
    const bool canAbort = supportsAbort(sys.mode());
    const bool noSteal = ccOn && !canAbort;
    const bool contended = ccOn && lay.warehouses > 1;
    const std::uint64_t home = t.id() % lay.warehouses;

    for (std::uint64_t n = 0; n < params.txPerThread; ++n) {
        // Draw every random parameter up front so retries replay the
        // same transaction.
        std::uint64_t kind = rng.below(100);
        std::size_t type;
        NewOrderArg no;
        PaymentArg pay;
        StatusArg st;
        if (kind < 45) {
            type = kNewOrder;
            no.w = home;
            no.d = rng.below(lay.districts);
            no.c = rng.below(lay.customers);
            no.nlines = rng.range(TpccLayout::kMinLines,
                                  TpccLayout::kMaxLines);
            no.userAbort = rng.below(100) == 0;
            for (std::uint64_t l = 0; l < no.nlines; ++l) {
                // Distinct items per order (linear probe): a repeat
                // would read its own not-yet-flushed stock update
                // under the no-steal discipline.
                std::uint64_t item = rng.below(lay.items);
                for (bool dup = true; dup;) {
                    dup = false;
                    for (std::uint64_t k = 0; k < l; ++k)
                        if (no.lines[k].item == item) {
                            item = (item + 1) % lay.items;
                            dup = true;
                            break;
                        }
                }
                no.lines[l].item = item;
                no.lines[l].supply =
                    (contended && rng.below(100) == 0)
                        ? (home + 1 + rng.below(lay.warehouses - 1)) %
                              lay.warehouses
                        : home;
                no.lines[l].qty = rng.range(1, 10);
            }
        } else if (kind < 88) {
            type = kPayment;
            pay.w = home;
            pay.d = rng.below(lay.districts);
            if (contended && rng.below(100) < 15) {
                pay.cw = (home + 1 + rng.below(lay.warehouses - 1)) %
                         lay.warehouses;
                pay.cd = rng.below(lay.districts);
            } else {
                pay.cw = home;
                pay.cd = pay.d;
            }
            pay.c = rng.below(lay.customers);
            pay.amount = rng.range(1, 5000);
        } else {
            type = kOrderStatus;
            st.w = home;
            st.d = rng.below(lay.districts);
            st.c = rng.below(lay.customers);
        }

        Tick start = t.context().localTime;
        std::uint64_t backoff = 16;
        bool done = false;
        for (unsigned attempt = 0; attempt < kMaxTxAttempts;
             ++attempt) {
            TxExec x(sys, t, noSteal);
            co_await t.txBegin();
            if (type == kNewOrder)
                co_await newOrder(t, x, no);
            else if (type == kPayment)
                co_await payment(t, x, pay);
            else
                co_await orderStatus(t, x, st);
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
            if (type == kNewOrder && no.userAbort && canAbort) {
                // TPC-C's 1% invalid-item business rollback.
                co_await t.txAbort();
                ++userAbortCount;
                done = true;
                break;
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
                   "oltp-tpcc: transaction starved after %u attempts "
                   "on core %u",
                   kMaxTxAttempts, t.id());
    }
}

bool
TpccEngine::verify(const mem::BackingStore &nvram,
                   std::string *why) const
{
    return checkTpccConsistency(nvram, lay, why);
}

bool
checkTpccConsistency(const mem::BackingStore &nvram,
                     const TpccLayout &lay, std::string *why)
{
    WordReader words(nvram);
    const std::uint64_t nstock = lay.warehouses * lay.items;
    std::vector<std::uint64_t> wantCnt(nstock, 0);
    std::vector<std::uint64_t> wantQty(nstock, 0);
    std::vector<std::uint64_t> wantRemote(nstock, 0);

    std::uint64_t allDistrictYtd = 0;

    for (std::uint64_t w = 0; w < lay.warehouses; ++w) {
        std::uint64_t districtYtd = 0;
        for (std::uint64_t d = 0; d < lay.districts; ++d) {
            Addr dist = lay.districtAddr(w, d);
            std::uint64_t next = words.read64(dist + 0);
            districtYtd += words.read64(dist + 8);
            if (next > lay.maxOrders)
                return fail(why,
                            "district (%" PRIu64 ",%" PRIu64
                            "): next_o_id %" PRIu64 " beyond capacity",
                            w, d, next);

            for (std::uint64_t o = 0; o < next; ++o) {
                Addr order = lay.orderAddr(w, d, o);
                std::uint64_t stamp = words.read64(order + 0);
                if (stamp != o + 1)
                    return fail(why,
                                "order (%" PRIu64 ",%" PRIu64
                                ",%" PRIu64 "): stamp %" PRIu64
                                " != %" PRIu64 " (lost or torn order)",
                                w, d, o, stamp, o + 1);
                std::uint64_t cid = words.read64(order + 8);
                std::uint64_t nlines = words.read64(order + 16);
                std::uint64_t total = words.read64(order + 24);
                if (cid >= lay.customers)
                    return fail(why,
                                "order (%" PRIu64 ",%" PRIu64
                                ",%" PRIu64 "): customer %" PRIu64
                                " out of range",
                                w, d, o, cid);
                if (nlines < TpccLayout::kMinLines ||
                    nlines > TpccLayout::kMaxLines)
                    return fail(why,
                                "order (%" PRIu64 ",%" PRIu64
                                ",%" PRIu64 "): line count %" PRIu64,
                                w, d, o, nlines);
                std::uint64_t sum = 0;
                for (std::uint64_t l = 0; l < nlines; ++l) {
                    Addr line = order + TpccLayout::kOrderHeaderBytes +
                                l * TpccLayout::kOrderLineBytes;
                    std::uint64_t w0 = words.read64(line + 0);
                    std::uint64_t w1 = words.read64(line + 8);
                    std::uint64_t item = w0 & 0xffffffffu;
                    std::uint64_t supply = w0 >> 32;
                    std::uint64_t qty = w1 & 0xffffffffu;
                    std::uint64_t amount = w1 >> 32;
                    if (item >= lay.items || supply >= lay.warehouses)
                        return fail(why,
                                    "order (%" PRIu64 ",%" PRIu64
                                    ",%" PRIu64 ") line %" PRIu64
                                    ": item %" PRIu64
                                    " / supplier %" PRIu64
                                    " out of range",
                                    w, d, o, l, item, supply);
                    if (qty < 1 || qty > 10)
                        return fail(why,
                                    "order (%" PRIu64 ",%" PRIu64
                                    ",%" PRIu64 ") line %" PRIu64
                                    ": quantity %" PRIu64,
                                    w, d, o, l, qty);
                    if (amount !=
                        qty * TpccLayout::itemPrice(item))
                        return fail(why,
                                    "order (%" PRIu64 ",%" PRIu64
                                    ",%" PRIu64 ") line %" PRIu64
                                    ": amount %" PRIu64
                                    " != qty * price",
                                    w, d, o, l, amount);
                    sum += amount;
                    std::uint64_t s = supply * lay.items + item;
                    ++wantCnt[s];
                    wantQty[s] += qty;
                    if (supply != w)
                        ++wantRemote[s];
                }
                if (sum != total)
                    return fail(why,
                                "order (%" PRIu64 ",%" PRIu64
                                ",%" PRIu64 "): line sum %" PRIu64
                                " != total %" PRIu64,
                                w, d, o, sum, total);
            }
            // No phantom order beyond the committed counter.
            if (next < lay.maxOrders &&
                words.read64(lay.orderAddr(w, d, next)) != 0)
                return fail(why,
                            "district (%" PRIu64 ",%" PRIu64
                            "): phantom order at %" PRIu64,
                            w, d, next);
        }
        std::uint64_t wytd = words.read64(lay.warehouseAddr(w));
        if (wytd != districtYtd)
            return fail(why,
                        "warehouse %" PRIu64 ": w_ytd %" PRIu64
                        " != sum of district ytd %" PRIu64,
                        w, wytd, districtYtd);
        allDistrictYtd += districtYtd;
    }

    std::uint64_t allCustomerYtd = 0;
    for (std::uint64_t w = 0; w < lay.warehouses; ++w)
        for (std::uint64_t d = 0; d < lay.districts; ++d)
            for (std::uint64_t c = 0; c < lay.customers; ++c) {
                Addr cust = lay.customerAddr(w, d, c);
                std::uint64_t bal = words.read64(cust + 0);
                std::uint64_t ytd = words.read64(cust + 8);
                std::uint64_t cnt = words.read64(cust + 16);
                if (bal + ytd != 0)
                    return fail(why,
                                "customer (%" PRIu64 ",%" PRIu64
                                ",%" PRIu64 "): balance %" PRIu64
                                " + ytd_payment %" PRIu64 " != 0",
                                w, d, c, bal, ytd);
                if (cnt > ytd || (cnt == 0) != (ytd == 0))
                    return fail(why,
                                "customer (%" PRIu64 ",%" PRIu64
                                ",%" PRIu64 "): payment_cnt %" PRIu64
                                " inconsistent with ytd %" PRIu64,
                                w, d, c, cnt, ytd);
                allCustomerYtd += ytd;
            }
    if (allDistrictYtd != allCustomerYtd)
        return fail(why,
                    "global: sum d_ytd %" PRIu64
                    " != sum c_ytd_payment %" PRIu64,
                    allDistrictYtd, allCustomerYtd);

    for (std::uint64_t w = 0; w < lay.warehouses; ++w)
        for (std::uint64_t i = 0; i < lay.items; ++i) {
            Addr stock = lay.stockAddr(w, i);
            std::uint64_t qty = words.read64(stock + 0);
            std::uint64_t ytd = words.read64(stock + 8);
            std::uint64_t cnt = words.read64(stock + 16);
            std::uint64_t rem = words.read64(stock + 24);
            std::uint64_t s = w * lay.items + i;
            if (cnt != wantCnt[s] || ytd != wantQty[s] ||
                rem != wantRemote[s])
                return fail(why,
                            "stock (%" PRIu64 ",%" PRIu64
                            "): cnt/ytd/remote %" PRIu64 "/%" PRIu64
                            "/%" PRIu64 " != recomputed %" PRIu64
                            "/%" PRIu64 "/%" PRIu64,
                            w, i, cnt, ytd, rem, wantCnt[s],
                            wantQty[s], wantRemote[s]);
            if (cnt == 0) {
                if (qty != TpccLayout::kInitQuantity || ytd != 0)
                    return fail(why,
                                "stock (%" PRIu64 ",%" PRIu64
                                "): untouched row mutated",
                                w, i);
                continue;
            }
            if (qty < 10 || qty > 100)
                return fail(why,
                            "stock (%" PRIu64 ",%" PRIu64
                            "): quantity %" PRIu64 " out of range",
                            w, i, qty);
            if ((qty + ytd) % 91 != TpccLayout::kInitQuantity % 91)
                return fail(why,
                            "stock (%" PRIu64 ",%" PRIu64
                            "): quantity %" PRIu64
                            " violates replenishment rule (ytd "
                            "%" PRIu64 ")",
                            w, i, qty, ytd);
        }

    return true;
}

} // namespace snf::oltp
