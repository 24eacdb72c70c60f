/**
 * @file
 * Unit tests for the simulation kernel: event queue, PRNG, stats,
 * and the coroutine task type.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/small_callback.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace snf;
using namespace snf::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    EXPECT_EQ(q.nextEventTick(), 10u);
    EXPECT_EQ(q.runUntil(25), 2u);
    EXPECT_EQ(q.runUntil(100), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&, i](Tick) { order.push_back(i); });
    q.runUntil(5);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMayReschedule)
{
    EventQueue q;
    int fired = 0;
    std::function<void(Tick)> tick = [&](Tick when) {
        if (++fired < 5)
            q.schedule(when + 10, tick);
    };
    q.schedule(0, tick);
    q.runUntil(1000);
    EXPECT_EQ(fired, 5);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearDropsEverything)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&](Tick) { ++fired; });
    q.clear();
    q.runUntil(100);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.nextEventTick(), kTickNever);
}

TEST(EventQueue, EventsReceiveTheirScheduledTick)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&](Tick when) { seen = when; });
    q.runUntil(100);
    EXPECT_EQ(seen, 42u);
}

namespace
{

/**
 * Reference model of the pre-calendar event queue: one binary heap
 * ordered by (tick, insertion seq). The calendar queue must replay
 * any schedule trace in exactly this order.
 */
class ReferenceHeapQueue
{
  public:
    void
    schedule(Tick when, std::function<void(Tick)> cb)
    {
        entries.push_back(Entry{when, nextSeq++, std::move(cb)});
        std::push_heap(entries.begin(), entries.end(), later);
    }

    std::uint64_t
    runUntil(Tick now)
    {
        std::uint64_t executed = 0;
        while (!entries.empty() && entries.front().when <= now) {
            std::pop_heap(entries.begin(), entries.end(), later);
            Entry e = std::move(entries.back());
            entries.pop_back();
            e.cb(e.when);
            ++executed;
        }
        return executed;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::function<void(Tick)> cb;
    };

    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    std::vector<Entry> entries;
    std::uint64_t nextSeq = 0;
};

} // namespace

/**
 * Differential test: drive the calendar queue and the reference heap
 * with an identical randomized schedule trace — near-ring ticks,
 * far-future heap spills, same-tick bursts, past-tick schedules, and
 * events that schedule more events from inside their callbacks — and
 * require the execution orders to match element for element.
 */
TEST(EventQueue, MatchesReferenceHeapOrderOnRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        EventQueue q;
        ReferenceHeapQueue ref;
        std::vector<std::pair<int, Tick>> gotQ;
        std::vector<std::pair<int, Tick>> gotRef;

        // Two identically seeded RNG streams keep the traces equal
        // while each queue's callbacks draw independently.
        Rng rngQ(seed);
        Rng rngRef(seed);
        int idQ = 0;
        int idRef = 0;

        auto spawn = [](auto &queue, auto &rng, auto &got, int &id,
                        Tick base, auto &&self) -> void {
            int me = id++;
            // Mix of ring-span offsets, same-tick, far-future heap
            // spills, and occasional already-past ticks.
            std::uint64_t kind = rng.below(8);
            Tick when = base;
            if (kind < 4)
                when = base + rng.below(64);
            else if (kind < 6)
                when = base + 900 + rng.below(4000);
            else if (kind == 6)
                when = base; // same tick as the caller
            else
                when = base > 50 ? base - rng.below(50) : base;
            bool respawn = rng.below(4) == 0;
            queue.schedule(
                when, [me, respawn, base, &queue, &rng, &got, &id,
                       self](Tick t) {
                    got.emplace_back(me, t);
                    if (respawn && id < 400)
                        self(queue, rng, got, id, t + 1 + (me % 7),
                             self);
                });
        };

        Tick now = 0;
        for (int round = 0; round < 12; ++round) {
            for (int n = 0; n < 16; ++n) {
                spawn(q, rngQ, gotQ, idQ, now, spawn);
                spawn(ref, rngRef, gotRef, idRef, now, spawn);
            }
            now += 128;
            q.runUntil(now);
            ref.runUntil(now);
        }
        q.runUntil(now + 100000);
        ref.runUntil(now + 100000);

        ASSERT_EQ(idQ, idRef) << "seed " << seed;
        EXPECT_EQ(gotQ, gotRef) << "seed " << seed;
        EXPECT_TRUE(q.empty());
    }
}

TEST(EventQueue, ClearRetainsAQueueReusableBetweenRuns)
{
    // The harness pattern: one queue, many simulations. clear() must
    // drop pending events, reset the tick origin and stat counters,
    // and leave the queue fully usable for a new run starting at 0.
    EventQueue q;
    std::vector<Tick> fired;
    for (int run = 0; run < 3; ++run) {
        for (Tick t : {5u, 2000u, 7u})
            q.schedule(t, [&](Tick when) { fired.push_back(when); });
        q.schedule(100000, [&](Tick) { fired.push_back(999999); });
        EXPECT_EQ(q.size(), 4u);
        q.runUntil(2000);
        EXPECT_EQ(fired, (std::vector<Tick>{5, 7, 2000}));
        fired.clear();

        q.clear();
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.nextEventTick(), kTickNever);
        EXPECT_EQ(q.statScheduled(), 0u);
        EXPECT_EQ(q.statExecuted(), 0u);
        EXPECT_EQ(q.statHeapSpills(), 0u);
        EXPECT_EQ(q.statCallbackHeapAllocs(), 0u);
    }
}

TEST(EventQueue, CountsSchedulingActivity)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&](Tick) { ++fired; });       // ring
    q.schedule(5000, [&](Tick) { ++fired; });    // heap spill
    q.runUntil(10000);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.statScheduled(), 2u);
    EXPECT_EQ(q.statExecuted(), 2u);
    EXPECT_EQ(q.statHeapSpills(), 1u);
    // Both captures fit the small-buffer callback inline.
    EXPECT_EQ(q.statCallbackHeapAllocs(), 0u);
}

TEST(SmallCallback, InlineCaptureStaysOffTheHeap)
{
    std::uint64_t acc = 0;
    SmallCallback cb([&acc](Tick t) { acc += t; });
    EXPECT_FALSE(cb.onHeap());
    cb(7);
    cb(8);
    EXPECT_EQ(acc, 15u);
}

TEST(SmallCallback, OversizedCaptureSpillsToHeapAndStillRuns)
{
    struct Big
    {
        std::uint64_t pad[16];
    };
    Big big{};
    big.pad[0] = 5;
    std::uint64_t acc = 0;
    SmallCallback cb([&acc, big](Tick t) { acc += t + big.pad[0]; });
    EXPECT_TRUE(cb.onHeap());
    cb(10);
    EXPECT_EQ(acc, 15u);
}

TEST(SmallCallback, MovePreservesTheCallable)
{
    std::uint64_t acc = 0;
    SmallCallback a([&acc](Tick t) { acc += t; });
    SmallCallback b = std::move(a);
    EXPECT_FALSE(a); // moved-from is empty
    EXPECT_TRUE(b);
    b(3);
    SmallCallback c;
    c = std::move(b);
    c(4);
    EXPECT_EQ(acc, 7u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true;
    bool any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        all_equal &= (va == b.next());
        any_diff_seed |= (va != c.next());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, StrLengthAndCharset)
{
    Rng rng(13);
    std::string s = rng.str(64);
    EXPECT_EQ(s.size(), 64u);
    for (char c : s)
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
}

TEST(Rng, SplitIsIndependentOfDrawOrder)
{
    // The regression the split() API exists for: drawing from the
    // parent (or a sibling) before splitting must not change what a
    // child stream produces.
    Rng fresh(42);
    Rng drained(42);
    for (int i = 0; i < 57; ++i)
        drained.next();
    Rng sibling = drained.split(9);
    (void)sibling.next();

    Rng a = fresh.split(3);
    Rng b = drained.split(3);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsAreDistinct)
{
    Rng root(42);
    Rng a = root.split(0);
    Rng b = root.split(1);
    bool differsFromSibling = false;
    bool differsFromParent = false;
    Rng parent(42);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        differsFromSibling |= va != b.next();
        differsFromParent |= va != parent.next();
    }
    EXPECT_TRUE(differsFromSibling);
    EXPECT_TRUE(differsFromParent);
}

TEST(Rng, SplitNestsDeterministically)
{
    Rng a = Rng(7).split(1).split(2);
    Rng b = Rng(7).split(1).split(2);
    Rng other = Rng(7).split(2).split(1);
    bool pathMatters = false;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        ASSERT_EQ(va, b.next());
        pathMatters |= va != other.next();
    }
    EXPECT_TRUE(pathMatters);
}

TEST(Zipf, SkewsTowardsSmallKeys)
{
    Rng rng(17);
    Zipf zipf(1000, 0.9);
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t k = zipf.sample(rng);
        ASSERT_LT(k, 1000u);
        if (k < 10)
            ++low;
    }
    // The 1% hottest keys should draw far more than 1% of samples.
    EXPECT_GT(low, total / 10);
}

namespace
{

/** FNV-1a over the first 1000 samples of @p zipf from Rng(@p seed). */
std::uint64_t
zipfStreamHash(const Zipf &zipf, std::uint64_t seed,
               std::vector<std::uint64_t> *head = nullptr)
{
    Rng rng(seed);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = zipf.sample(rng);
        if (head && head->size() < 12)
            head->push_back(v);
        h = (h ^ v) * 0x100000001b3ULL;
    }
    return h;
}

/** The zeta sum exactly as Zipf has always computed it. */
double
sequentialZeta(std::uint64_t n, double theta)
{
    double z = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        z += 1.0 / std::pow(static_cast<double>(i), theta);
    return z;
}

} // namespace

// Golden streams recorded from the implementation that summed zeta
// afresh in every constructor: the memoized table must reproduce them
// bit for bit, on the constructing miss and on every later hit.
TEST(Zipf, MemoizedStreamsMatchGoldenColdAndWarm)
{
    struct Golden
    {
        std::uint64_t n;
        double theta;
        std::uint64_t seed;
        std::vector<std::uint64_t> head;
        std::uint64_t hash;
    };
    const Golden golden[] = {
        {1000000, 0.9, 42,
         {4, 1502, 59178, 550399, 938676, 142161, 87637, 293248, 131420,
          20924, 60650, 372},
         0xa1ac0ceba449a4c5ULL},
        {1000, 0.8, 7,
         {258, 14, 506, 927, 964, 587, 0, 2, 40, 3, 104, 303},
         0x48318989105fd0aeULL},
    };
    for (const Golden &g : golden) {
        const std::uint64_t before = Zipf::zetaBuilds();
        Zipf cold(g.n, g.theta);
        const std::uint64_t built = Zipf::zetaBuilds();
        EXPECT_LE(built - before, 1u);
        Zipf warm(g.n, g.theta);
        EXPECT_EQ(Zipf::zetaBuilds(), built) << "a hit must not rebuild";
        for (const Zipf *z : {&cold, &warm}) {
            std::vector<std::uint64_t> head;
            EXPECT_EQ(zipfStreamHash(*z, g.seed, &head), g.hash)
                << "Zipf(" << g.n << ", " << g.theta << ")";
            EXPECT_EQ(head, g.head);
            EXPECT_EQ(z->zeta(), sequentialZeta(g.n, g.theta));
        }
    }
}

// Eight threads construct one cold (n, theta) at once, plus one
// distinct (n, theta) each: every table is built exactly once, and
// every stream and zeta is the single-threaded one.
TEST(Zipf, ConcurrentConstructionIsBitIdentical)
{
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kSharedN = 200000;
    constexpr double kSharedTheta = 0.95;
    constexpr std::uint64_t kGolden = 0xf61dcb2127d7ece7ULL;
    auto distinctN = [](unsigned t) { return 100000 + 1000 * t; };
    auto distinctTheta = [](unsigned t) { return 0.6 + 0.04 * t; };

    const std::uint64_t before = Zipf::zetaBuilds();
    std::vector<std::uint64_t> shared(kThreads), own(kThreads);
    std::vector<double> ownZeta(kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            shared[t] = zipfStreamHash(Zipf(kSharedN, kSharedTheta), 3);
            Zipf mine(distinctN(t), distinctTheta(t));
            own[t] = zipfStreamHash(mine, t);
            ownZeta[t] = mine.zeta();
        });
    for (auto &th : pool)
        th.join();

    EXPECT_LE(Zipf::zetaBuilds() - before, kThreads + 1);
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(shared[t], kGolden) << "thread " << t;
        EXPECT_EQ(ownZeta[t],
                  sequentialZeta(distinctN(t), distinctTheta(t)))
            << "thread " << t;
        EXPECT_EQ(own[t],
                  zipfStreamHash(Zipf(distinctN(t), distinctTheta(t)), t))
            << "thread " << t;
    }
}

// n <= 2 has no tail to invert (sample() answers from zeta alone), so
// eta must not be the 0/0 or x/0 of the general formula; samples stay
// inside [0, n).
TEST(Zipf, TinyKeyspacesSampleInRange)
{
    for (std::uint64_t n : {1u, 2u}) {
        for (double theta : {0.1, 0.5, 0.99}) {
            Zipf zipf(n, theta);
            Rng rng(n * 31 + 1);
            std::vector<std::uint64_t> seen(n);
            for (int i = 0; i < 2000; ++i) {
                std::uint64_t k = zipf.sample(rng);
                ASSERT_LT(k, n);
                ++seen[k];
            }
            for (std::uint64_t k = 0; k < n; ++k)
                EXPECT_GT(seen[k], 0u) << "n=" << n << " key " << k;
        }
    }
}

TEST(Stats, CountersAndScalars)
{
    StatGroup g("test");
    g.counter("events").inc();
    g.counter("events").inc(4);
    g.scalar("energy").add(2.5);
    EXPECT_EQ(g.counterValue("events"), 5u);
    EXPECT_DOUBLE_EQ(g.scalarValue("energy"), 2.5);
    EXPECT_EQ(g.counterValue("missing"), 0u);
}

TEST(Stats, DumpIncludesChildren)
{
    StatGroup parent("mem");
    StatGroup child("l1");
    parent.addChild(&child);
    child.counter("hits").inc(3);
    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("mem.l1.hits = 3"), std::string::npos);
}

TEST(Stats, ResetAllClearsRecursively)
{
    StatGroup parent("p");
    StatGroup child("c");
    parent.addChild(&child);
    parent.counter("x").inc(2);
    child.scalar("y").set(9);
    parent.resetAll();
    EXPECT_EQ(parent.counterValue("x"), 0u);
    EXPECT_DOUBLE_EQ(child.scalarValue("y"), 0.0);
}

TEST(Logging, Strfmt)
{
    EXPECT_EQ(strfmt("a%db", 7), "a7b");
    EXPECT_EQ(strfmt("%s-%s", "x", "y"), "x-y");
}

namespace
{

Co<int>
leaf(int v)
{
    co_return v * 2;
}

Co<int>
branch(int v)
{
    int a = co_await leaf(v);
    int b = co_await leaf(v + 1);
    co_return a + b;
}

struct ManualResume
{
    std::coroutine_handle<> handle;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        handle = h;
    }

    void await_resume() const noexcept {}
};

} // namespace

namespace
{

// Coroutine arguments are copied into the frame, so pointer/reference
// parameters are the safe way to observe state (capturing-lambda
// coroutines dangle once the closure dies).
Co<void>
nestedRoot(int *result)
{
    *result = co_await branch(10);
}

Co<void>
gatedRoot(ManualResume *gate, int *stage)
{
    *stage = 1;
    co_await *gate;
    *stage = 2;
}

Co<int>
thrower()
{
    throw std::runtime_error("boom");
    co_return 0;
}

Co<void>
catcher(bool *caught)
{
    try {
        co_await thrower();
    } catch (const std::runtime_error &) {
        *caught = true;
    }
}

} // namespace

TEST(Coro, NestedValueTasks)
{
    int result = 0;
    Co<void> root = nestedRoot(&result);
    root.raw().resume();
    EXPECT_TRUE(root.done());
    EXPECT_EQ(result, 20 + 22);
}

TEST(Coro, SuspendAndResumeThroughAwaiter)
{
    ManualResume gate;
    int stage = 0;
    Co<void> root = gatedRoot(&gate, &stage);
    EXPECT_EQ(stage, 0); // lazy start
    root.raw().resume();
    EXPECT_EQ(stage, 1);
    EXPECT_FALSE(root.done());
    gate.handle.resume();
    EXPECT_EQ(stage, 2);
    EXPECT_TRUE(root.done());
}

TEST(Coro, ExceptionPropagatesToAwaiter)
{
    bool caught = false;
    Co<void> root = catcher(&caught);
    root.raw().resume();
    EXPECT_TRUE(caught);
}
