/**
 * @file
 * snfdiff — conformlab front end: generate seeded random transaction
 * programs and check each one differentially across the hardware
 * HWL+FWB backend, the software-logging reference, and the pure
 * model oracle (final images plus crash-point recovery consistency).
 *
 * Usage:
 *   snfdiff [options]
 *     --programs N        seeded programs to run (default 50)
 *     --seed N            base seed; program i uses seed base+i
 *     --jobs N            worker threads (default: hardware)
 *     --replay FILE       replay one .snfprog repro instead
 *     --corpus DIR        replay every *.snfprog in DIR (sorted)
 *     --max-crash-points N  harvested crash points per backend
 *     --reorder-samples N reorderlab: at every crash point, also
 *                         recover up to N legal completion orders of
 *                         the pending persist set and require each to
 *                         stay model-consistent (0 = prefix only)
 *     --log-shards N      run both backends with the log NVRAM
 *                         sliced across N shards and the cross-shard
 *                         commit protocol (default 1)
 *     --no-crash          final-image differential only
 *     --no-shrink         report the first failure unminimized
 *     --out FILE          failing-program repro path
 *                         (default snfdiff-failure.snfprog)
 *     --conflict-rate R   generate shared-data conflicts: each op
 *                         targets the shared region with probability
 *                         R; judged by the serializability oracle
 *     --load-rate R       per-op load probability for conflicting
 *                         programs (default 0.25)
 *     --cc 2pl|tl2|none   CC scheme for conflicting programs
 *                         (default 2pl)
 *     --inject-skip-undo  self-test: sabotage the hardware backend's
 *     --inject-skip-redo  recovery (skip a replay phase / trust bad
 *     --inject-ignore-crc CRCs) so the differential has a real bug
 *                         to catch and shrink
 *     --inject-lost-update  self-test: run conflicting programs with
 *                         CC disabled so racing transactions produce
 *                         the anomalies the serializability oracle
 *                         must catch and shrink
 *
 * Exit status 0 iff every program agreed. Every value flag also
 * accepts --flag=value.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "conformlab/diffrun.hh"
#include "conformlab/proggen.hh"
#include "conformlab/shrink.hh"
#include "core/fault_flags.hh"
#include "sim/logging.hh"

using namespace snf;
using namespace snf::conformlab;

namespace
{

void
usage()
{
    std::printf("usage: snfdiff [--programs N] [--seed N] [--jobs N]\n"
                "               [--replay FILE] [--corpus DIR] "
                "[--max-crash-points N]\n"
                "               [--reorder-samples N] "
                "[--log-shards N]\n"
                "               [--no-crash] [--no-shrink] "
                "[--out FILE]\n"
                "               [--conflict-rate R] [--load-rate R] "
                "[--cc 2pl|tl2|none]\n"
                "               [--inject-skip-undo] "
                "[--inject-skip-redo] [--inject-ignore-crc]\n"
                "               [--inject-lost-update]\n");
}

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
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    std::optional<std::string> replayPath;
    std::optional<std::string> corpusDir;
    bool shrink = true;
    std::string outPath = "snfdiff-failure.snfprog";
    DiffConfig cfg;
    ProgGenConfig gen;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
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
        if (const char *v = arg("--programs")) {
            programs = static_cast<std::size_t>(
                parseCountFlag("--programs", v));
        } else if (const char *v = arg("--seed")) {
            baseSeed = parseCountFlag("--seed", v);
        } else if (const char *v = arg("--jobs")) {
            // 0 keeps meaning one worker.
            jobs = static_cast<unsigned>(std::max<std::uint64_t>(
                1, parseCountFlag("--jobs", v)));
        } else if (const char *v = arg("--replay")) {
            replayPath = v;
        } else if (const char *v = arg("--corpus")) {
            corpusDir = v;
        } else if (const char *v = arg("--max-crash-points")) {
            cfg.maxCrashPoints = static_cast<std::size_t>(
                parseCountFlag("--max-crash-points", v));
        } else if (const char *v = arg("--reorder-samples")) {
            cfg.reorderSamples = static_cast<std::size_t>(
                parseCountFlag("--reorder-samples", v));
        } else if (const char *v = arg("--log-shards")) {
            cfg.logShards = parseLogShardsFlag("--log-shards", v);
        } else if (const char *v = arg("--out")) {
            outPath = v;
        } else if (const char *v = arg("--conflict-rate")) {
            gen.conflictRate = parseUnitFlag("--conflict-rate", v);
        } else if (const char *v = arg("--load-rate")) {
            gen.loadRate = parseUnitFlag("--load-rate", v);
        } else if (const char *v = arg("--cc")) {
            if (std::strcmp(v, "2pl") == 0)
                cfg.ccMode = CcMode::TwoPhase;
            else if (std::strcmp(v, "tl2") == 0)
                cfg.ccMode = CcMode::Tl2;
            else if (std::strcmp(v, "none") == 0)
                cfg.ccMode = CcMode::None;
            else
                fatal("--cc wants 2pl, tl2, or none");
        } else if (args[i] == "--inject-lost-update") {
            cfg.injectLostUpdate = true;
        } else if (args[i] == "--no-crash") {
            cfg.crashDifferential = false;
        } else if (args[i] == "--no-shrink") {
            shrink = false;
        } else if (args[i] == "--inject-skip-undo") {
            cfg.hwRecovery.faultSkipUndo = true;
        } else if (args[i] == "--inject-skip-redo") {
            cfg.hwRecovery.faultSkipRedo = true;
        } else if (args[i] == "--inject-ignore-crc") {
            cfg.hwRecovery.faultIgnoreCrc = true;
        } else {
            usage();
            return args[i] == "--help" ? 0 : 2;
        }
    }

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
    for (unsigned t = 1; t < jobs; ++t)
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
