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
 * Usage:
 *   snfcrash [options]
 *     --workload W[,W...]  (default sps; see --list)
 *     --mode M[,M...]      persistence mode(s); "all" = every
 *                          failure-atomic mode (default: fwb)
 *     --seed N[,N...]      workload RNG seed(s) (default 1)
 *     --threads N          workload threads (default 2)
 *     --tx N               transactions per thread (default 50)
 *     --footprint N        elements in the initial structure (>= 1)
 *     --warehouses N       oltp-tpcc warehouse count (>= 1)
 *     --zipf-theta X       oltp-ycsb Zipf skew, strictly in (0,1)
 *     --conflict-rate R    prog workload only: probability each op
 *                          targets the shared conflict region
 *                          (enables 2PL concurrency control unless
 *                          --cc overrides it)
 *     --cc 2pl|tl2|none    concurrency-control scheme for contended
 *                          transactions
 *     --jobs N             parallel crash-point workers; 0 or
 *                          omitted = one per hardware thread (the
 *                          resolved count is printed in the header)
 *     --max-points N       sample N crash points per cell (0 = all)
 *     --sample-seed N      seed of the crash-point sampling
 *     --json FILE          write the JSON report to FILE ("-" =
 *                          stdout)
 *     --bench-json FILE    write the perf trajectory (phase timings
 *                          + snapshot-engine counters per cell, e.g.
 *                          BENCH_sweep.json) to FILE ("-" = stdout)
 *                          and print the per-cell perf summary
 *     --no-minimize        skip bisection of failing points
 *     --fault-bitflip P    faultlab: damage each crash snapshot's log
 *     --fault-multibit P   slots with the given per-slot probability
 *     --fault-drop-slot P  (single/double bit flips, lost writes,
 *     --fault-torn-slot P  torn header words), then check salvage
 *                          idempotence, quarantine soundness and the
 *                          undamaged-set oracle instead of the clean
 *                          invariants
 *     --fault-seed N       seed of the deterministic damage (default 1)
 *     --fault-preset X     light | heavy canned image-damage mixes
 *                          (must precede explicit --fault-* rates,
 *                          which may tune but not zero its fields)
 *     --sweep-recovery N   lifelab (extends I8): at every evaluated
 *                          crash point, also interrupt recovery at
 *                          every N-th interior NVRAM write, re-run
 *                          it, and require byte-for-byte convergence
 *                          with the uninterrupted pass (1 = every
 *                          interior write)
 *     --reorder            reorderlab: at every evaluated crash
 *                          point, also test every legal completion
 *                          order of the in-flight persist set —
 *                          exhaustive order ideals when the pending
 *                          set is small, seeded random linearization
 *                          cuts otherwise — through the same checkers
 *     --reorder-samples N  sampled linearization cuts per point when
 *                          the pending set exceeds the exhaustive
 *                          bound (default 32)
 *     --reorder-bound N    exhaustive order-ideal enumeration up to N
 *                          pending persists (default 6, max 19)
 *     --reorder-seed N     seed of the sampled linearizations
 *     --torn-lines 0|1     also tear the last pending persist of each
 *                          reorder image at 8-byte write boundaries
 *                          (default 1)
 *     --inject-skip-wb-barrier
 *                          fault injection: the controller posts data
 *                          write-backs into the ADR domain without
 *                          waiting for log-drain acceptance (cycle
 *                          timing unchanged, so the completion order
 *                          and hence the plain prefix sweep see
 *                          nothing; only --reorder, which explores
 *                          legal orders of concurrently pending
 *                          writes, catches the skipped edge)
 *     --inject-skip-undo   fault injection: recovery skips the undo
 *     --inject-skip-redo   phase / the redo phase (self-test: the
 *                          sweep must catch and minimize these)
 *     --inject-ignore-crc  fault injection: recovery trusts slots
 *                          without CRC verification (the faulted
 *                          sweeps must catch the garbage replays)
 *     --log-shards N       shardlab: split the log into N
 *                          address-interleaved shards with the
 *                          cross-shard two-phase commit protocol
 *                          (default 1 = the classic single log)
 *     --fault-kill-shard N faultlab + shardlab: wipe shard N's log
 *                          header in every evaluated crash snapshot,
 *                          forcing degraded-mode recovery (needs
 *                          --log-shards > N)
 *     --inject-skip-shard-mask
 *                          fault injection: cross-shard commit
 *                          records name only the owner shard in
 *                          their participation mask, so recovery
 *                          rolls the other shards' slices back while
 *                          redoing the owner's — a mixed image the
 *                          sweep must catch (needs --log-shards > 1)
 *     --list               list workloads and modes, then exit
 *
 * Every value flag also accepts --flag=value. Exit status: 0 when
 * every cell passed, 1 otherwise (CI gates on it).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_flags.hh"
#include "crashlab/report.hh"
#include "crashlab/sweep.hh"
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

PersistMode
parseMode(const std::string &name)
{
    for (PersistMode m : kAllModes)
        if (name == persistModeName(m))
            return m;
    fatal("unknown mode '%s'", name.c_str());
}

void
usage()
{
    std::printf(
        "usage: snfcrash [--workload W[,W]] [--mode M[,M]|all] "
        "[--seed N[,N]]\n"
        "                [--threads N] [--tx N] [--footprint N] "
        "[--jobs N]\n"
        "                [--warehouses N] [--zipf-theta X]\n"
        "                [--conflict-rate R] [--cc 2pl|tl2|none]\n"
        "                [--max-points N] [--sample-seed N] "
        "[--json FILE]\n"
        "                [--bench-json FILE]\n"
        "                [--fault-bitflip P] [--fault-multibit P]\n"
        "                [--fault-drop-slot P] [--fault-torn-slot P] "
        "[--fault-seed N]\n"
        "                [--fault-preset light|heavy] "
        "[--sweep-recovery N]\n"
        "                [--reorder] [--reorder-samples N] "
        "[--reorder-bound N]\n"
        "                [--reorder-seed N] [--torn-lines 0|1]\n"
        "                [--log-shards N] [--fault-kill-shard N]\n"
        "                [--no-minimize] [--inject-skip-undo] "
        "[--inject-skip-redo]\n"
        "                [--inject-ignore-crc] "
        "[--inject-skip-wb-barrier]\n"
        "                [--inject-skip-shard-mask] [--list]\n");
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

    // The image-damage flag family shares its ordering rules (and the
    // contradiction diagnostics) with snfsim/snfsoak.
    FaultFlagSet faultFlags;
    faultFlags.addRate("--fault-bitflip",
                       &base.imageFaults.bitFlipProb);
    faultFlags.addRate("--fault-multibit",
                       &base.imageFaults.multiBitProb);
    faultFlags.addRate("--fault-drop-slot",
                       &base.imageFaults.dropSlotProb);
    faultFlags.addRate("--fault-torn-slot",
                       &base.imageFaults.tornSlotProb);
    faultFlags.addSeed("--fault-seed", &base.imageFaults.seed);
    faultFlags.setPresetFlag("--fault-preset");
    faultFlags.addPreset(
        "light", {{&base.imageFaults.bitFlipProb, 5e-3}});
    faultFlags.addPreset(
        "heavy", {{&base.imageFaults.bitFlipProb, 2e-2},
                  {&base.imageFaults.multiBitProb, 5e-3},
                  {&base.imageFaults.dropSlotProb, 5e-3},
                  {&base.imageFaults.tornSlotProb, 5e-3}});

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
            workloadNames = splitCsv(v);
        } else if (const char *v = arg("--mode")) {
            modes.clear();
            for (const auto &name : splitCsv(v)) {
                if (name == "all") {
                    for (PersistMode m : kAllModes)
                        if (guaranteesFailureAtomicity(m))
                            modes.push_back(m);
                } else {
                    modes.push_back(parseMode(name));
                }
            }
        } else if (const char *v = arg("--seed")) {
            seeds.clear();
            for (const auto &s : splitCsv(v))
                seeds.push_back(parseCountFlag("--seed", s.c_str()));
        } else if (const char *v = arg("--threads")) {
            params.threads = static_cast<std::uint32_t>(
                parsePositiveCountFlag("--threads", v));
        } else if (const char *v = arg("--tx")) {
            params.txPerThread = parsePositiveCountFlag("--tx", v);
        } else if (const char *v = arg("--footprint")) {
            // Strict and positive: the old strtoull turned a typo'd
            // value into 0, which every workload silently replaced
            // with its built-in default record count.
            params.footprint =
                parsePositiveCountFlag("--footprint", v);
        } else if (const char *v = arg("--warehouses")) {
            params.warehouses =
                parsePositiveCountFlag("--warehouses", v);
        } else if (const char *v = arg("--zipf-theta")) {
            params.zipfTheta = parseOpenUnitFlag("--zipf-theta", v);
        } else if (const char *v = arg("--conflict-rate")) {
            params.conflictRate = parseUnitFlag("--conflict-rate", v);
            // Contended programs need a CC scheme to serialize.
            if (base.run.sys.persist.ccMode == CcMode::None)
                base.run.sys.persist.ccMode = CcMode::TwoPhase;
        } else if (const char *v = arg("--cc")) {
            if (std::strcmp(v, "2pl") == 0)
                base.run.sys.persist.ccMode = CcMode::TwoPhase;
            else if (std::strcmp(v, "tl2") == 0)
                base.run.sys.persist.ccMode = CcMode::Tl2;
            else if (std::strcmp(v, "none") == 0)
                base.run.sys.persist.ccMode = CcMode::None;
            else
                fatal("--cc wants 2pl, tl2, or none");
        } else if (const char *v = arg("--log-shards")) {
            base.run.sys.persist.logShards =
                parseLogShardsFlag("--log-shards", v);
        } else if (const char *v = arg("--fault-kill-shard")) {
            base.imageFaults.killShard = static_cast<std::int32_t>(
                parseCountFlag("--fault-kill-shard", v));
        } else if (const char *v = arg("--jobs")) {
            base.jobs =
                static_cast<std::size_t>(parseCountFlag("--jobs", v));
        } else if (const char *v = arg("--max-points")) {
            base.maxPoints = static_cast<std::size_t>(
                parseCountFlag("--max-points", v));
        } else if (const char *v = arg("--sample-seed")) {
            base.sampleSeed = parseCountFlag("--sample-seed", v);
        } else if (const char *v = arg("--sweep-recovery")) {
            base.recoverySweepStride =
                parseCountFlag("--sweep-recovery", v);
        } else if (args[i] == "--reorder") {
            base.reorder.enabled = true;
        } else if (const char *v = arg("--reorder-samples")) {
            base.reorder.samples = static_cast<std::size_t>(
                parseCountFlag("--reorder-samples", v));
        } else if (const char *v = arg("--reorder-bound")) {
            base.reorder.exhaustiveBound = static_cast<std::size_t>(
                parseCountFlag("--reorder-bound", v));
        } else if (const char *v = arg("--reorder-seed")) {
            base.reorder.seed = parseCountFlag("--reorder-seed", v);
        } else if (const char *v = arg("--torn-lines")) {
            base.reorder.tornLines =
                parseCountFlag("--torn-lines", v) != 0;
        } else if (const char *v = arg("--json")) {
            jsonPath = v;
        } else if (const char *v = arg("--bench-json")) {
            benchJsonPath = v;
        } else if (args[i] == "--no-minimize") {
            base.minimizeFailures = false;
        } else if (args[i] == "--inject-skip-undo") {
            base.recovery.faultSkipUndo = true;
        } else if (args[i] == "--inject-skip-redo") {
            base.recovery.faultSkipRedo = true;
        } else if (args[i] == "--inject-ignore-crc") {
            base.recovery.faultIgnoreCrc = true;
        } else if (args[i] == "--inject-skip-wb-barrier") {
            base.run.sys.persist.injectSkipWbBarrier = true;
        } else if (args[i] == "--inject-skip-shard-mask") {
            base.run.sys.persist.injectSkipShardMask = true;
        } else if (args[i] == "--list") {
            std::printf("workloads:");
            for (const auto &w : allWorkloadNames())
                std::printf(" %s", w.c_str());
            std::printf("\nmodes:");
            for (PersistMode m : kAllModes)
                std::printf(" %s%s", persistModeName(m),
                            guaranteesFailureAtomicity(m) ? "*" : "");
            std::printf("\n(* = failure-atomic, covered by "
                        "--mode all)\n");
            return 0;
        } else if (args[i] == "--help") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '%s'", args[i].c_str());
        }
    }

    if (base.run.sys.persist.injectSkipShardMask &&
        base.run.sys.persist.logShards < 2)
        fatal("--inject-skip-shard-mask needs --log-shards > 1");
    if (base.imageFaults.killShard >= 0 &&
        static_cast<std::uint32_t>(base.imageFaults.killShard) >=
            base.run.sys.persist.logShards)
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

    if (!jsonPath.empty()) {
        if (jsonPath == "-") {
            writeJsonReport(std::cout, cells);
        } else {
            std::ofstream f(jsonPath);
            if (!f)
                fatal("cannot write '%s'", jsonPath.c_str());
            writeJsonReport(f, cells);
        }
    }

    if (!benchJsonPath.empty()) {
        if (benchJsonPath == "-") {
            writeBenchJson(std::cout, "snfcrash", cells);
        } else {
            std::ofstream f(benchJsonPath);
            if (!f)
                fatal("cannot write '%s'", benchJsonPath.c_str());
            writeBenchJson(f, "snfcrash", cells);
        }
    }

    std::size_t failed = 0;
    for (const auto &c : cells)
        if (!c.sweep.passed())
            ++failed;
    std::printf("%zu/%zu cells passed\n", cells.size() - failed,
                cells.size());
    return failed == 0 ? 0 : 1;
}
