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
 * `snfsoak --help` lists the flags. Exit status: 0 when every
 * generation passed every invariant, 1 otherwise (CI gates on it).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/flag_table.hh"
#include "crashlab/faultlab.hh"
#include "crashlab/lifecycle.hh"
#include "crashlab/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::crashlab;
using namespace snf::workloads;

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

    FlagTable flags("snfsoak");
    flags
        .text("--workload", "W", &cfg.run.workload,
              "resumable workload (default sps; see --list)")
        .choice("--mode", &cfg.run.mode, kAllModes, persistModeName,
                "persistence mode (default fwb)", "unknown mode '%s'")
        .count("--jobs", &cfg.jobs,
               "re-entrancy probe workers; 0 = one per hardware thread",
               CountRange::Jobs)
        .count("--log-shards", &logShards,
               "log shards, cross-shard commit (default 1)",
               CountRange::Shards)
        .text("--bench-json", "FILE", &benchJsonPath,
              "write the perf trajectory (\"-\" = stdout)")
        .count("--threads", &threads, "workload threads (default 2)",
               CountRange::Positive)
        .count("--tx", &cfg.run.params.txPerThread,
               "transactions per thread per generation (default 300)",
               CountRange::Positive)
        // Positive: every workload reads a footprint of 0 as "use
        // the built-in default", which would hide a typo.
        .count("--footprint", &cfg.run.params.footprint,
               "elements in the initial structure", CountRange::Positive)
        .count("--seed", &cfg.run.params.seed,
               "base seed (workload + crash choice)")
        .count("--generations", &cfg.generations,
               "generations to run (default 5)", CountRange::Positive)
        .count("--sabotage-remap", &cfg.sabotageGeneration,
               "self-test: corrupt both remap banks at generation N")
        .count("--reentrancy-budgets", &cfg.reentrancyBudgets,
               "interior write budgets probed (default 4)")
        .option("--no-reentrancy", &cfg.checkReentrancy,
                "skip the interrupted-recovery check", false)
        .option("--no-scrub", &scrub, "disable the online log scrubber",
                false)
        .option("--list", "list workloads and modes, then exit", [] {
            std::printf("workloads:");
            for (const auto &w : allWorkloadNames())
                std::printf(" %s", w.c_str());
            std::printf("\nmodes:");
            for (PersistMode m : kAllModes)
                std::printf(" %s", persistModeName(m));
            std::printf("\n");
            std::exit(0);
        });
    // The image-damage flag family shares its ordering rules (and the
    // contradiction diagnostics) with snfsim/snfcrash.
    FaultFlagSet faultFlags(flags, cfg.imageFaults, kImageFaultRates);
    flags.parse(argc, argv);
    cfg.seed = cfg.run.params.seed;

    if (threads > 64)
        fatal("bad thread count");
    cfg.run.params.threads = threads;
    cfg.run.sys = SystemConfig::scaled(threads);
    cfg.run.sys.persist.scrub = scrub;
    cfg.run.sys.persist.logShards = logShards;

    std::printf("snfsoak: workload=%s mode=%s threads=%u tx/gen=%" PRIu64
                " generations=%u jobs=%zu%s%s%s\n",
                cfg.run.workload.c_str(), persistModeName(cfg.run.mode),
                threads, cfg.run.params.txPerThread * threads,
                cfg.generations, resolveJobs(cfg.jobs),
                cfg.jobs == 0 ? " (auto)" : "",
                cfg.imageFaults.enabled() ? " (image faults)" : "",
                cfg.sabotageGeneration != LifecycleConfig::kNoSabotage
                    ? " (SABOTAGE self-test)"
                    : "");

    LifecycleResult res = runLifecycle(cfg);

    for (const GenerationResult &g : res.generations) {
        std::printf("gen %u: crash@%" PRIu64 "/%" PRIu64
                    " committed=%" PRIu64 " wraps=%" PRIu64
                    " faulted=%" PRIu64 " salvaged=%" PRIu64
                    " quarantined=%" PRIu64 " remap=%" PRIu64
                    " scrub-repairs=%" PRIu64 " violations=%zu\n",
                    g.generation, g.crashTick, g.endTick, g.committedTx,
                    g.logWraps, g.slotsFaulted, g.recovery.salvagedTxns,
                    g.recovery.quarantinedTxns, g.remapEntries,
                    g.scrubRepairs, g.violations.size());
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
        writeOutput(benchJsonPath, [&](std::ostream &os) {
            writeBenchJson(os, "snfsoak", cells);
        });
    }

    std::printf("snfsoak: %zu generation(s), %" PRIu64 " violation(s)%s\n",
                res.generations.size(), res.totalViolations(),
                res.aborted ? " — ABORTED (untrusted remap table)"
                            : "");
    return res.passed() ? 0 : 1;
}
