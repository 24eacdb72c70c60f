/**
 * @file
 * google-benchmark microbenchmarks of the simulator tick machinery:
 * the event queue (near and far scheduling, same-tick FIFO drain,
 * reschedule-from-callback), the idle-tick skip probe, and the cache
 * tag-array lookup fast path.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace snf;

namespace
{

/// Near-future scheduling: 64 events within the next 32 ticks.
void
BM_EventQueueNear(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(now + 1 + (i * 7) % 32,
                       [&fired](Tick) { ++fired; });
        now += 32;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueNear);

/// Far-future scheduling: 64 events thousands of ticks out, the
/// FWB-scan distance.
void
BM_EventQueueFar(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(now + 2048 + (i * 131) % 512,
                       [&fired](Tick) { ++fired; });
        now += 4096;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueFar);

/// Many events on one tick: exercises the same-tick FIFO drain.
void
BM_EventQueueSameTickFifo(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            q.schedule(now + 1, [&fired](Tick) { ++fired; });
        now += 1;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueSameTickFifo);

/// A periodic self-rescheduling event (the LogScrubber/FwbEngine
/// pattern): each callback schedules its successor from inside the
/// drain loop.
void
BM_EventQueueReschedule(benchmark::State &state)
{
    sim::EventQueue q;
    Tick now = 0;
    std::uint64_t fired = 0;
    struct Periodic
    {
        sim::EventQueue &q;
        std::uint64_t &fired;
        void
        operator()(Tick t) const
        {
            ++fired;
            q.schedule(t + 3, Periodic{q, fired});
        }
    };
    q.schedule(1, Periodic{q, fired});
    for (auto _ : state) {
        now += 512;
        q.runUntil(now);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueReschedule);

/// The scheduler's idle-skip probe: nextEventTick() on a queue with a
/// single far-future event must be O(1), not a scan.
void
BM_NextEventTickProbe(benchmark::State &state)
{
    sim::EventQueue q;
    q.schedule(1u << 20, [](Tick) {});
    Tick acc = 0;
    for (auto _ : state)
        acc ^= q.nextEventTick();
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NextEventTickProbe);

/// Cache lookup fast path: the tag-array probe on a hot working set.
void
BM_CacheTagProbe(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    mem::Cache cache("bench_l1", cfg);
    sim::Rng rng(7);
    for (int i = 0; i < 256; ++i) {
        Addr line = rng.below(512) * 64;
        mem::CacheLine *slot = cache.victimFor(line);
        if (slot->valid)
            cache.invalidate(slot);
        cache.install(slot, line);
    }
    std::uint64_t hits = 0;
    sim::Rng probe(11);
    for (auto _ : state) {
        if (cache.find(probe.below(512) * 64) != nullptr)
            ++hits;
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CacheTagProbe);

} // namespace

BENCHMARK_MAIN();
