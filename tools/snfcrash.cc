/**
 * @file
 * snfcrash — systematic crash-point sweep and failure-atomicity
 * checker. Runs each (workload, mode, seed) cell once with full
 * instrumentation, harvests every interesting crash instant
 * (log-buffer drains, cache/WCB write-backs, FWB pass boundaries,
 * transaction commits), then recovers and verifies the NVRAM image
 * at each of them in parallel. Failures are minimized to the
 * earliest failing tick.
 *
 * `snfcrash --help` lists the flags. Exit status: 0 when every cell
 * passed, 1 otherwise (CI gates on it).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/flag_table.hh"
#include "crashlab/faultlab.hh"
#include "crashlab/report.hh"
#include "crashlab/sweep.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::crashlab;
using namespace snf::workloads;

namespace
{

std::vector<std::string>
splitCsv(const char *s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workloadNames{"sps"};
    std::vector<PersistMode> modes{PersistMode::Fwb};
    std::vector<std::uint64_t> seeds{1};
    WorkloadParams params;
    params.threads = 2;
    params.txPerThread = 50;
    SweepConfig base;
    std::string jsonPath;
    std::string benchJsonPath;

    std::uint64_t tornLines = 1;
    PersistConfig &persistCfg = base.run.sys.persist;
    FlagTable flags("snfcrash");
    flags
        .value("--workload", "W[,W...]", "workloads (default sps; see --list)",
               [&](const char *v) {
                   workloadNames = splitCsv(v);
                   return std::string();
               })
        .value("--mode", "M[,M...]|all",
               "persistence modes (default fwb)",
               [&](const char *v) {
                   modes.clear();
                   for (const auto &name : splitCsv(v)) {
                       if (name == "all") {
                           std::copy_if(std::begin(kAllModes),
                                        std::end(kAllModes),
                                        std::back_inserter(modes),
                                        guaranteesFailureAtomicity);
                           continue;
                       }
                       std::string err = FlagTable::pick(
                           name.c_str(), kAllModes, persistModeName,
                           "unknown mode '%s'", &modes.emplace_back());
                       if (!err.empty())
                           return err;
                   }
                   return std::string();
               })
        .value("--seed", "N[,N...]", "workload RNG seeds (default 1)",
               [&](const char *v) {
                   seeds.clear();
                   for (const auto &item : splitCsv(v)) {
                       std::uint64_t n = 0;
                       std::string err = FlagTable::parseCount(
                           "--seed", item.c_str(), CountRange::Any,
                           ~std::uint64_t{0}, &n);
                       if (!err.empty())
                           return err;
                       seeds.push_back(n);
                   }
                   return std::string();
               })
        .count("--threads", &params.threads, "workload threads (default 2)",
               CountRange::Positive)
        .count("--tx", &params.txPerThread,
               "transactions per thread (default 50)", CountRange::Positive)
        // Positive: every workload reads a footprint of 0 as "use
        // the built-in default", which would hide a typo.
        .count("--footprint", &params.footprint,
               "elements in the initial structure", CountRange::Positive)
        .count("--warehouses", &params.warehouses,
               "oltp-tpcc warehouse count", CountRange::Positive)
        .real("--zipf-theta", "X", &params.zipfTheta, "oltp-ycsb Zipf skew",
              RealRange::OpenUnit)
        .value("--conflict-rate", "R",
               "prog workload: shared-op probability (implies 2pl)",
               [&](const char *v) {
                   std::string err = FlagTable::parseReal(
                       "--conflict-rate", v, RealRange::Unit,
                       &params.conflictRate);
                   // Contended programs need a CC scheme to serialize.
                   if (err.empty() && persistCfg.ccMode == CcMode::None)
                       persistCfg.ccMode = CcMode::TwoPhase;
                   return err;
               })
        .choice("--cc", &persistCfg.ccMode, kAllCcModes, ccModeName,
                "concurrency control for contended transactions",
                "--cc wants 2pl, tl2, or none")
        .count("--jobs", &base.jobs,
               "crash-point workers; 0 = one per hardware thread",
               CountRange::Jobs)
        .count("--max-points", &base.maxPoints,
               "sample N crash points per cell (0 = all)")
        .count("--sample-seed", &base.sampleSeed,
               "seed of the crash-point sampling")
        .text("--json", "FILE", &jsonPath,
              "write the JSON report (\"-\" = stdout)")
        .text("--bench-json", "FILE", &benchJsonPath,
              "write the perf trajectory (\"-\" = stdout)")
        .option("--no-minimize", &base.minimizeFailures,
                "skip bisection of failing points", false);
    // The image-damage flag family shares its ordering rules (and the
    // contradiction diagnostics) with snfsim/snfsoak.
    FaultFlagSet faultFlags(flags, base.imageFaults, kImageFaultRates);
    flags
        .count("--sweep-recovery", &base.recoverySweepStride,
               "also interrupt recovery at every N-th interior write")
        .option("--reorder", &base.reorder.enabled,
                "also test legal completion orders of pending persists")
        .count("--reorder-samples", &base.reorder.samples,
               "sampled orders per point above the bound (default 32)")
        .count("--reorder-bound", &base.reorder.exhaustiveBound,
               "enumerate every order up to N pending (default 6)")
        .count("--reorder-seed", &base.reorder.seed,
               "seed of the sampled orders")
        .count("--torn-lines", &tornLines,
               "also tear each reorder image's last persist (default 1)")
        .count("--log-shards", &persistCfg.logShards,
               "address-interleaved log shards (default 1)",
               CountRange::Shards)
        .count("--fault-kill-shard", &base.imageFaults.killShard,
               "wipe shard N's log header in every crash image")
        .option("--inject-skip-wb-barrier", &persistCfg.injectSkipWbBarrier,
                "fault injection: data write-backs skip the log barrier")
        .option("--inject-skip-undo", &base.recovery.faultSkipUndo,
                "fault injection: recovery skips the undo phase")
        .option("--inject-skip-redo", &base.recovery.faultSkipRedo,
                "fault injection: recovery skips the redo phase")
        .option("--inject-ignore-crc", &base.recovery.faultIgnoreCrc,
                "fault injection: recovery trusts slots without CRC")
        .option("--inject-skip-shard-mask", &persistCfg.injectSkipShardMask,
                "fault injection: commits name only the owner shard")
        .option("--list", "list workloads and modes, then exit", [] {
            std::printf("workloads:");
            for (const auto &w : allWorkloadNames())
                std::printf(" %s", w.c_str());
            std::printf("\nmodes:");
            for (PersistMode m : kAllModes)
                std::printf(" %s%s", persistModeName(m),
                            guaranteesFailureAtomicity(m) ? "*" : "");
            std::printf("\n(* = failure-atomic, covered by "
                        "--mode all)\n");
            std::exit(0);
        });
    flags.parse(argc, argv);
    base.reorder.tornLines = tornLines != 0;

    if (persistCfg.injectSkipShardMask && persistCfg.logShards < 2)
        fatal("--inject-skip-shard-mask needs --log-shards > 1");
    if (base.imageFaults.killShard >= 0 &&
        static_cast<std::uint32_t>(base.imageFaults.killShard) >=
            persistCfg.logShards)
        fatal("--fault-kill-shard %d needs --log-shards > %d",
              base.imageFaults.killShard, base.imageFaults.killShard);

    std::printf("snfcrash: jobs=%zu%s\n", resolveJobs(base.jobs),
                base.jobs == 0 ? " (auto: one per hardware thread)"
                               : "");

    std::vector<CellResult> cells;
    for (const auto &wl : workloadNames) {
        for (PersistMode mode : modes) {
            for (std::uint64_t seed : seeds) {
                SweepConfig cfg = base;
                cfg.run.workload = wl;
                cfg.run.mode = mode;
                cfg.run.params = params;
                cfg.run.params.seed = seed;

                CellResult cell;
                cell.workload = wl;
                cell.mode = mode;
                cell.seed = seed;
                cell.threads = params.threads;
                cell.txPerThread = params.txPerThread;
                cell.sweep = runCrashSweep(cfg);
                writeTextSummary(std::cout, cell);
                if (!benchJsonPath.empty())
                    writePerfSummary(std::cout, cell);
                cells.push_back(std::move(cell));
            }
        }
    }

    if (!jsonPath.empty())
        writeOutput(jsonPath, [&](std::ostream &os) {
            writeJsonReport(os, cells);
        });
    if (!benchJsonPath.empty())
        writeOutput(benchJsonPath, [&](std::ostream &os) {
            writeBenchJson(os, "snfcrash", cells);
        });

    std::size_t failed = 0;
    for (const auto &c : cells)
        if (!c.sweep.passed())
            ++failed;
    std::printf("%zu/%zu cells passed\n", cells.size() - failed,
                cells.size());
    return failed == 0 ? 0 : 1;
}
