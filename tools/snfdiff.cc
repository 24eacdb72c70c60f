/**
 * @file
 * snfdiff — conformlab front end: generate seeded random transaction
 * programs and check each one differentially across the hardware
 * HWL+FWB backend, the software-logging reference, and the pure
 * model oracle (final images plus crash-point recovery consistency).
 *
 * `snfdiff --help` lists the flags. Exit status 0 iff every program
 * agreed.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "conformlab/diffrun.hh"
#include "conformlab/proggen.hh"
#include "conformlab/shrink.hh"
#include "core/flag_table.hh"
#include "sim/logging.hh"

using namespace snf;
using namespace snf::conformlab;

namespace
{

struct Failure
{
    Program program;
    DiffResult result;
    std::string source; // "seed 42" or a file path
};

/** Shrink a failure and write the .snfprog repro. */
void
reportFailure(const Failure &f, const DiffConfig &cfg, bool shrink,
              const std::string &outPath)
{
    std::fprintf(stderr, "FAIL %s: %s\n", f.source.c_str(),
                 f.result.detail.c_str());
    Program repro = f.program;
    if (shrink) {
        ShrinkStats stats;
        repro = shrinkProgram(
            f.program,
            [&](const Program &cand) {
                return !runDiff(cand, cfg).passed;
            },
            ShrinkOptions{}, &stats);
        DiffResult minimal = runDiff(repro, cfg);
        std::fprintf(stderr,
                     "  shrunk to %zu operations after %zu "
                     "evaluations%s: %s\n",
                     repro.operationCount(), stats.evals,
                     stats.budgetExhausted ? " (budget exhausted)"
                                           : "",
                     minimal.detail.c_str());
    }
    if (!saveProgramFile(outPath, repro))
        std::fprintf(stderr, "  cannot write repro to %s\n",
                     outPath.c_str());
    else
        std::fprintf(stderr, "  repro written to %s\n",
                     outPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t programs = 50;
    std::uint64_t baseSeed = 1;
    unsigned jobs = std::thread::hardware_concurrency();
    std::optional<std::string> replayPath;
    std::optional<std::string> corpusDir;
    bool shrink = true;
    std::string outPath = "snfdiff-failure.snfprog";
    DiffConfig cfg;
    ProgGenConfig gen;

    FlagTable flags("snfdiff");
    flags.count("--programs", &programs, "seeded programs to run (default 50)")
        .count("--seed", &baseSeed, "base seed; program i uses seed base+i")
        .count("--jobs", &jobs, "worker threads (default: hardware)",
               CountRange::Jobs)
        .text("--replay", "FILE", &replayPath,
              "replay one .snfprog repro instead")
        .text("--corpus", "DIR", &corpusDir, "replay every *.snfprog in DIR")
        .count("--max-crash-points", &cfg.maxCrashPoints,
               "harvested crash points per backend (default 32)")
        .count("--reorder-samples", &cfg.reorderSamples,
               "legal completion orders per crash point (default 0)")
        .count("--log-shards", &cfg.logShards,
               "log shards on both backends (default 1)",
               CountRange::Shards)
        .option("--no-crash", &cfg.crashDifferential,
                "final-image differential only", false)
        .option("--no-shrink", &shrink, "report the first failure unshrunk",
                false)
        .text("--out", "FILE", &outPath,
              "failing-program repro (default snfdiff-failure.snfprog)")
        .real("--conflict-rate", "R", &gen.conflictRate,
              "probability an op targets the shared region", RealRange::Unit)
        .real("--load-rate", "R", &gen.loadRate,
              "per-op load probability when conflicting (default 0.25)",
              RealRange::Unit)
        .choice("--cc", &cfg.ccMode, kAllCcModes, ccModeName,
                "CC scheme for conflicting programs (default 2pl)",
                "--cc wants 2pl, tl2, or none")
        .option("--inject-skip-undo", &cfg.hwRecovery.faultSkipUndo,
                "self-test: hardware recovery skips the undo phase")
        .option("--inject-skip-redo", &cfg.hwRecovery.faultSkipRedo,
                "self-test: hardware recovery skips the redo phase")
        .option("--inject-ignore-crc", &cfg.hwRecovery.faultIgnoreCrc,
                "self-test: hardware recovery trusts bad CRCs")
        .option("--inject-lost-update", &cfg.injectLostUpdate,
                "self-test: conflicting programs run without CC");
    flags.parse(argc, argv);

    // --- Replay paths: one repro file, or a whole corpus ---------
    std::vector<std::pair<std::string, Program>> fixed;
    if (replayPath) {
        Program p;
        std::string err;
        if (!loadProgramFile(*replayPath, &p, &err))
            fatal("%s", err.c_str());
        fixed.emplace_back(*replayPath, p);
    }
    if (corpusDir) {
        std::vector<std::string> files;
        for (const auto &e :
             std::filesystem::directory_iterator(*corpusDir))
            if (e.path().extension() == ".snfprog")
                files.push_back(e.path().string());
        std::sort(files.begin(), files.end());
        if (files.empty())
            fatal("no .snfprog files in %s", corpusDir->c_str());
        for (const auto &f : files) {
            Program p;
            std::string err;
            if (!loadProgramFile(f, &p, &err))
                fatal("%s", err.c_str());
            fixed.emplace_back(f, p);
        }
    }

    // --- Work list -----------------------------------------------
    struct Job
    {
        std::string source;
        Program program;
    };
    std::vector<Job> work;
    for (auto &[src, p] : fixed)
        work.push_back({src, std::move(p)});
    if (fixed.empty()) {
        for (std::size_t i = 0; i < programs; ++i) {
            std::uint64_t seed = baseSeed + i;
            work.push_back(
                {strfmt("seed %llu",
                        static_cast<unsigned long long>(seed)),
                 generateProgram(seed, gen)});
        }
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> crashPoints{0};
    std::atomic<std::size_t> committed{0};
    std::mutex failLock;
    std::optional<Failure> firstFailure;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= work.size())
                return;
            {
                std::lock_guard<std::mutex> g(failLock);
                if (firstFailure)
                    return; // stop the fleet on first divergence
            }
            DiffResult r = runDiff(work[i].program, cfg);
            crashPoints += r.crashPointsChecked;
            committed += r.committedTx;
            if (!r.passed) {
                std::lock_guard<std::mutex> g(failLock);
                if (!firstFailure)
                    firstFailure =
                        Failure{work[i].program, r, work[i].source};
                return;
            }
        }
    };
    std::vector<std::thread> pool;
    // 0 keeps meaning one worker; the caller's thread is one of them.
    for (std::size_t t = 1; t < poolSize(jobs, work.size()); ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();

    if (firstFailure) {
        reportFailure(*firstFailure, cfg, shrink, outPath);
        return 1;
    }
    std::printf("snfdiff: %zu programs agreed (%zu committed tx, "
                "%zu crash points recovered)\n",
                work.size(), committed.load(), crashPoints.load());
    return 0;
}
