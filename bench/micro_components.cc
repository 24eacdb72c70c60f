/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * PRNG, cache lookup/install, device access, log record
 * serialization, and end-to-end simulated transactions per
 * host-second.
 */

#include <benchmark/benchmark.h>

#include "core/system.hh"
#include "mem/cache.hh"
#include "mem/mem_device.hh"
#include "persist/log_record.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/driver.hh"

using namespace snf;

namespace
{

void
BM_Rng(benchmark::State &state)
{
    sim::Rng rng(42);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= rng.below(1000000);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Rng);

void
BM_Zipf(benchmark::State &state)
{
    sim::Rng rng(42);
    sim::Zipf zipf(100000, 0.8);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= zipf.sample(rng);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Zipf);

void
BM_CacheLookup(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    mem::Cache cache("bench_l1", cfg);
    sim::Rng rng(7);
    for (int i = 0; i < 256; ++i) {
        Addr line = (rng.below(512)) * 64;
        mem::CacheLine *slot = cache.victimFor(line);
        if (slot->valid)
            cache.invalidate(slot);
        cache.install(slot, line);
    }
    std::uint64_t hits = 0;
    for (auto _ : state) {
        Addr line = (rng.below(512)) * 64;
        if (cache.find(line))
            ++hits;
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CacheLookup);

void
BM_DeviceAccess(benchmark::State &state)
{
    mem::MemDevice dev("bench_nvram", {}, 0, 1ULL << 30);
    sim::Rng rng(9);
    std::uint8_t buf[64] = {1, 2, 3};
    Tick now = 0;
    for (auto _ : state) {
        Addr a = (rng.below(1 << 20)) * 64;
        auto res = dev.access((now & 1) != 0, a, 64, buf, buf, now);
        now = res.done;
    }
    benchmark::DoNotOptimize(now);
}
BENCHMARK(BM_DeviceAccess);

void
BM_LogRecordSerialize(benchmark::State &state)
{
    persist::LogRecord rec = persist::LogRecord::update(
        1, 7, 0x100000000ULL, 8, 0x1234, 0x5678);
    std::uint8_t img[persist::LogRecord::kSlotBytes];
    for (auto _ : state) {
        rec.serialize(img, true);
        bool torn = false;
        auto parsed = persist::LogRecord::deserialize(img, torn);
        benchmark::DoNotOptimize(parsed);
    }
}
BENCHMARK(BM_LogRecordSerialize);

void
BM_EndToEndTransactions(benchmark::State &state)
{
    setQuiet(true);
    auto mode = static_cast<PersistMode>(state.range(0));
    std::uint64_t tx = 0;
    for (auto _ : state) {
        workloads::RunSpec spec;
        spec.workload = "sps";
        spec.mode = mode;
        spec.params.threads = 2;
        spec.params.txPerThread = 500;
        spec.params.footprint = 4096;
        spec.sys = SystemConfig::scaled(2);
        spec.verifyAtEnd = false;
        auto o = workloads::runWorkload(spec);
        tx += o.stats.committedTx;
    }
    state.counters["sim_tx_per_s"] = benchmark::Counter(
        static_cast<double>(tx), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndTransactions)
    ->Arg(static_cast<int>(PersistMode::NonPers))
    ->Arg(static_cast<int>(PersistMode::UndoClwb))
    ->Arg(static_cast<int>(PersistMode::Fwb))
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
