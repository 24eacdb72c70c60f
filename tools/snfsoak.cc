/**
 * @file
 * snfsoak — multi-generation crash → recover → resume soak driver
 * (lifelab). Each generation runs a resumable workload on the image
 * the previous generation's recovery left behind, crashes it at a
 * deterministically chosen instant, optionally damages the snapshot
 * (faultlab image faults), recovers with bad-line promotion, and
 * re-checks I1–I8 plus the lifecycle invariants: recovery
 * re-entrancy, recovered-durability (I9), remap-table validity and
 * superblock continuity.
 *
 * Usage:
 *   snfsoak [options]
 *     --workload W         (default sps; must be resumable)
 *     --mode M             persistence mode (default fwb)
 *     --threads N          workload threads (default 2)
 *     --tx N               transactions per thread per generation
 *                          (default 300)
 *     --footprint N        elements in the initial structure
 *     --seed N             base seed (workload + crash choice)
 *     --generations N      generations to run (default 5)
 *     --jobs N             worker threads for the re-entrancy budget
 *                          probes; 0 or omitted = one per hardware
 *                          thread (resolved count in the header)
 *     --log-shards N       slice the log NVRAM across N shards with
 *                          the cross-shard commit protocol (default
 *                          1 = classic single-region layout)
 *     --bench-json FILE    write the perf trajectory (phase timings
 *                          + snapshot-engine counters, same schema
 *                          as snfcrash) to FILE ("-" = stdout)
 *     --fault-bitflip P    faultlab image damage per generation
 *     --fault-multibit P   (per-slot probabilities; the resulting
 *     --fault-drop-slot P  bad lines persist across generations via
 *     --fault-torn-slot P  the remap table)
 *     --fault-seed N       seed of the deterministic damage
 *     --fault-preset X     light | heavy canned damage mixes (must
 *                          precede explicit --fault-* rates, which
 *                          may tune but not zero its fields)
 *     --sabotage-remap G   WILL_FAIL self-test: corrupt both remap
 *                          banks at generation G; the soak must
 *                          detect it and exit nonzero
 *     --no-reentrancy      skip the interrupted-recovery check
 *     --reentrancy-budgets N  interior write budgets probed (def. 4)
 *     --no-scrub           disable the online log scrubber
 *     --list               list workloads and modes, then exit
 *
 * Every value flag also accepts --flag=value. Exit status: 0 when
 * every generation passed every invariant, 1 otherwise (CI gates on
 * it).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/fault_flags.hh"
#include "crashlab/lifecycle.hh"
#include "crashlab/report.hh"
#include "sim/logging.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::crashlab;
using namespace snf::workloads;

namespace
{

PersistMode
parseMode(const char *name)
{
    for (PersistMode m : kAllModes)
        if (std::strcmp(persistModeName(m), name) == 0)
            return m;
    fatal("unknown mode '%s'", name);
}

void
usage()
{
    std::printf(
        "usage: snfsoak [--workload W] [--mode M] [--threads N] "
        "[--tx N]\n"
        "               [--footprint N] [--seed N] [--generations N]\n"
        "               [--jobs N] [--log-shards N] "
        "[--bench-json FILE]\n"
        "               [--fault-bitflip P] [--fault-multibit P]\n"
        "               [--fault-drop-slot P] [--fault-torn-slot P] "
        "[--fault-seed N]\n"
        "               [--fault-preset light|heavy] "
        "[--sabotage-remap G]\n"
        "               [--no-reentrancy] [--reentrancy-budgets N] "
        "[--no-scrub] [--list]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    LifecycleConfig cfg;
    cfg.run.workload = "sps";
    cfg.run.mode = PersistMode::Fwb;
    cfg.run.params.threads = 2;
    cfg.run.params.txPerThread = 300;
    std::uint32_t threads = 2;
    std::uint32_t logShards = 1;
    bool scrub = true;
    std::string benchJsonPath;

    // The image-damage flag family shares its ordering rules (and the
    // contradiction diagnostics) with snfsim/snfcrash.
    FaultFlagSet faultFlags;
    faultFlags.addRate("--fault-bitflip", &cfg.imageFaults.bitFlipProb);
    faultFlags.addRate("--fault-multibit",
                       &cfg.imageFaults.multiBitProb);
    faultFlags.addRate("--fault-drop-slot",
                       &cfg.imageFaults.dropSlotProb);
    faultFlags.addRate("--fault-torn-slot",
                       &cfg.imageFaults.tornSlotProb);
    faultFlags.addSeed("--fault-seed", &cfg.imageFaults.seed);
    faultFlags.setPresetFlag("--fault-preset");
    faultFlags.addPreset("light",
                         {{&cfg.imageFaults.bitFlipProb, 5e-3}});
    faultFlags.addPreset("heavy",
                         {{&cfg.imageFaults.bitFlipProb, 2e-2},
                          {&cfg.imageFaults.multiBitProb, 5e-3},
                          {&cfg.imageFaults.dropSlotProb, 5e-3},
                          {&cfg.imageFaults.tornSlotProb, 5e-3}});

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string err;
        switch (faultFlags.consume(args, i, &err)) {
          case FlagParse::Ok:
            continue;
          case FlagParse::Error:
            fatal("%s", err.c_str());
          case FlagParse::NotMine:
            break;
        }
        auto arg = [&](const char *flag) -> const char * {
            std::size_t n = std::strlen(flag);
            if (std::strncmp(args[i].c_str(), flag, n) == 0 &&
                args[i][n] == '=')
                return args[i].c_str() + n + 1;
            if (args[i] != flag)
                return nullptr;
            if (i + 1 >= args.size())
                fatal("%s needs a value", flag);
            return args[++i].c_str();
        };
        if (const char *v = arg("--workload")) {
            cfg.run.workload = v;
        } else if (const char *v = arg("--mode")) {
            cfg.run.mode = parseMode(v);
        } else if (const char *v = arg("--jobs")) {
            cfg.jobs =
                static_cast<std::size_t>(parseCountFlag("--jobs", v));
        } else if (const char *v = arg("--log-shards")) {
            logShards = parseLogShardsFlag("--log-shards", v);
        } else if (const char *v = arg("--bench-json")) {
            benchJsonPath = v;
        } else if (const char *v = arg("--threads")) {
            threads = static_cast<std::uint32_t>(
                parsePositiveCountFlag("--threads", v));
        } else if (const char *v = arg("--tx")) {
            cfg.run.params.txPerThread =
                parsePositiveCountFlag("--tx", v);
        } else if (const char *v = arg("--footprint")) {
            // Strict and positive (see snfsim): a typo'd value used
            // to silently become the workload's default size.
            cfg.run.params.footprint =
                parsePositiveCountFlag("--footprint", v);
        } else if (const char *v = arg("--seed")) {
            cfg.run.params.seed = parseCountFlag("--seed", v);
            cfg.seed = cfg.run.params.seed;
        } else if (const char *v = arg("--generations")) {
            cfg.generations = static_cast<std::uint32_t>(
                parsePositiveCountFlag("--generations", v));
        } else if (const char *v = arg("--sabotage-remap")) {
            cfg.sabotageGeneration = static_cast<std::uint32_t>(
                parseCountFlag("--sabotage-remap", v));
        } else if (const char *v = arg("--reentrancy-budgets")) {
            cfg.reentrancyBudgets =
                parseCountFlag("--reentrancy-budgets", v);
        } else if (args[i] == "--no-reentrancy") {
            cfg.checkReentrancy = false;
        } else if (args[i] == "--no-scrub") {
            scrub = false;
        } else if (args[i] == "--list") {
            std::printf("workloads:");
            for (const auto &w : allWorkloadNames())
                std::printf(" %s", w.c_str());
            std::printf("\nmodes:");
            for (PersistMode m : kAllModes)
                std::printf(" %s", persistModeName(m));
            std::printf("\n");
            return 0;
        } else if (args[i] == "--help") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '%s'", args[i].c_str());
        }
    }

    if (threads == 0 || threads > 64)
        fatal("bad thread count");
    if (cfg.generations == 0)
        fatal("need at least one generation");
    cfg.run.params.threads = threads;
    cfg.run.sys = SystemConfig::scaled(threads);
    cfg.run.sys.persist.scrub = scrub;
    cfg.run.sys.persist.logShards = logShards;

    std::printf("snfsoak: workload=%s mode=%s threads=%u tx/gen=%llu "
                "generations=%u jobs=%zu%s%s%s\n",
                cfg.run.workload.c_str(),
                persistModeName(cfg.run.mode), threads,
                static_cast<unsigned long long>(
                    cfg.run.params.txPerThread * threads),
                cfg.generations, resolveJobs(cfg.jobs),
                cfg.jobs == 0 ? " (auto)" : "",
                cfg.imageFaults.enabled() ? " (image faults)" : "",
                cfg.sabotageGeneration != LifecycleConfig::kNoSabotage
                    ? " (SABOTAGE self-test)"
                    : "");

    LifecycleResult res = runLifecycle(cfg);

    for (const GenerationResult &g : res.generations) {
        std::printf(
            "gen %u: crash@%llu/%llu committed=%llu wraps=%llu "
            "faulted=%llu salvaged=%llu quarantined=%llu "
            "remap=%llu scrub-repairs=%llu violations=%zu\n",
            g.generation,
            static_cast<unsigned long long>(g.crashTick),
            static_cast<unsigned long long>(g.endTick),
            static_cast<unsigned long long>(g.committedTx),
            static_cast<unsigned long long>(g.logWraps),
            static_cast<unsigned long long>(g.slotsFaulted),
            static_cast<unsigned long long>(g.recovery.salvagedTxns),
            static_cast<unsigned long long>(
                g.recovery.quarantinedTxns),
            static_cast<unsigned long long>(g.remapEntries),
            static_cast<unsigned long long>(g.scrubRepairs),
            g.violations.size());
        for (const Violation &v : g.violations)
            std::printf("  VIOLATION %s: %s\n", v.invariant.c_str(),
                        v.detail.c_str());
    }

    if (!benchJsonPath.empty()) {
        // Same BENCH_sweep.json schema as snfcrash: one cell whose
        // perf block is the soak's whole-lifecycle totals.
        CellResult cell;
        cell.workload = cfg.run.workload;
        cell.mode = cfg.run.mode;
        cell.seed = cfg.seed;
        cell.threads = threads;
        cell.txPerThread = cfg.run.params.txPerThread;
        cell.sweep.pointsTested = res.generations.size();
        cell.sweep.perf = res.perf;
        std::vector<CellResult> cells;
        cells.push_back(std::move(cell));
        writePerfSummary(std::cout, cells.front());
        if (benchJsonPath == "-") {
            writeBenchJson(std::cout, "snfsoak", cells);
        } else {
            std::ofstream f(benchJsonPath);
            if (!f)
                fatal("cannot write '%s'", benchJsonPath.c_str());
            writeBenchJson(f, "snfsoak", cells);
        }
    }

    std::printf("snfsoak: %zu generation(s), %llu violation(s)%s\n",
                res.generations.size(),
                static_cast<unsigned long long>(res.totalViolations()),
                res.aborted ? " — ABORTED (untrusted remap table)"
                            : "");
    return res.passed() ? 0 : 1;
}
