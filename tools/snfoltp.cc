/**
 * @file
 * snfoltp — production-scale OLTP driver (DESIGN §8): runs the
 * multi-warehouse TPC-C and Zipf-skewed YCSB engines across the
 * {fwb, undo-clwb, redo-clwb} × {2pl, tl2} matrix and reports
 * throughput, commit-latency quantiles (p50/p99/p999), abort/retry
 * rates, log-buffer / WCB occupancy per mode, and each cell's host
 * wall time split into setup, run and verify phases.
 *
 * Usage:
 *   snfoltp [options]
 *     --threads N        simulated cores (default 4)
 *     --tx N             transactions per thread (default 50)
 *     --seed N           workload RNG seed (default 11)
 *     --warehouses N     TPC-C warehouses (>= 1, default 2)
 *     --customers N      TPC-C customers per district (default 64)
 *     --keys N           YCSB keyspace size (>= 1, default 8192)
 *     --zipf-theta X     YCSB Zipf skew, strictly in (0,1)
 *                        (default 0.9)
 *     --log-shards N     shard the log across N regions (default 1)
 *     --oltp-seconds S   wall-clock budget per cell: after
 *                        --bench-repeats, keep re-running (and
 *                        re-checking counter identity) until S
 *                        seconds of measured time accumulate
 *     --bench-repeats N  minimum timed repeats per cell (default 1);
 *                        counters must be byte-identical across all
 *                        repeats or the run aborts
 *     --jobs N           run cells on N host threads (default 1);
 *                        counters are independent of this
 *     --bench-json FILE  write the snf-bench-oltp-v1 report
 *                        ("-" = stdout) instead of the table
 *
 * Every value flag also accepts --flag=value. All counts are strict:
 * a malformed or zero value is a hard error, never a silent default;
 * so is an infinite --oltp-seconds.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/fault_flags.hh"
#include "oltp/bench.hh"
#include "sim/logging.hh"

using namespace snf;
using namespace snf::oltp;

namespace
{

void
usage()
{
    std::printf(
        "usage: snfoltp [--threads N] [--tx N] [--seed N]\n"
        "               [--warehouses N] [--customers N] [--keys N]\n"
        "               [--zipf-theta X] [--log-shards N]\n"
        "               [--oltp-seconds S] [--bench-repeats N]\n"
        "               [--jobs N] [--bench-json FILE]\n");
}

double
parsePositiveSecondsFlag(const char *flag, const char *value)
{
    char *end = nullptr;
    double s = std::strtod(value, &end);
    if (end == value || *end != '\0')
        fatal("%s needs a number, got '%s'", flag, value);
    if (!(s > 0.0))
        fatal("%s needs a positive duration, got '%s'", flag, value);
    // inf (or 1e999, which strtod overflows to inf) would keep the
    // repeat loop going forever.
    if (!std::isfinite(s))
        fatal("%s needs a finite duration, got '%s'", flag, value);
    return s;
}

void
printTable(const std::vector<OltpCellResult> &results)
{
    std::printf("%-9s %-9s %-4s %9s %9s %8s %8s %9s %7s %7s %8s %8s "
                "%8s %9s\n",
                "workload", "mode", "cc", "commits", "tx/Mcyc",
                "aborts", "retries", "log-recs", "logocc", "wcbocc",
                "wall-ms", "setup-ms", "run-ms", "verify-ms");
    for (const OltpCellResult &r : results) {
        double txPerMcycle =
            r.cycles == 0 ? 0.0
                          : 1e6 * static_cast<double>(r.committedTx) /
                                static_cast<double>(r.cycles);
        double logOccAvg =
            r.occSamples == 0
                ? 0.0
                : static_cast<double>(r.logOccSum) /
                      static_cast<double>(r.occSamples);
        double wcbOccAvg =
            r.occSamples == 0
                ? 0.0
                : static_cast<double>(r.wcbOccSum) /
                      static_cast<double>(r.occSamples);
        std::printf(
            "%-9s %-9s %-4s %9llu %9.1f %8llu %8llu %9llu %7.1f "
            "%7.1f %8.1f %8.1f %8.1f %9.1f\n",
            r.spec.engine.c_str(), persistModeName(r.spec.mode),
            ccModeName(r.spec.cc),
            static_cast<unsigned long long>(r.committedTx),
            txPerMcycle,
            static_cast<unsigned long long>(r.abortedTx),
            static_cast<unsigned long long>(r.retries),
            static_cast<unsigned long long>(r.logRecords), logOccAvg,
            wcbOccAvg, 1e3 * r.wallSec, 1e3 * r.setupSec,
            1e3 * r.runSec, 1e3 * r.verifySec);
        for (const OltpTypeCounters &t : r.types)
            std::printf("    %-12s commits=%-7llu p50=%-6llu "
                        "p99=%-6llu p999=%-6llu max=%llu\n",
                        t.type.c_str(),
                        static_cast<unsigned long long>(t.committed),
                        static_cast<unsigned long long>(t.latP50),
                        static_cast<unsigned long long>(t.latP99),
                        static_cast<unsigned long long>(t.latP999),
                        static_cast<unsigned long long>(t.latMax));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    OltpMatrixConfig cfg;
    std::string benchJsonPath;

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
        if (const char *v = arg("--threads")) {
            cfg.threads = static_cast<std::uint32_t>(
                parsePositiveCountFlag("--threads", v));
        } else if (const char *v = arg("--tx")) {
            cfg.txPerThread = parsePositiveCountFlag("--tx", v);
        } else if (const char *v = arg("--seed")) {
            cfg.seed = parseCountFlag("--seed", v);
        } else if (const char *v = arg("--warehouses")) {
            cfg.warehouses =
                parsePositiveCountFlag("--warehouses", v);
        } else if (const char *v = arg("--customers")) {
            cfg.customers = parsePositiveCountFlag("--customers", v);
        } else if (const char *v = arg("--keys")) {
            cfg.keys = parsePositiveCountFlag("--keys", v);
        } else if (const char *v = arg("--zipf-theta")) {
            cfg.zipfTheta = parseOpenUnitFlag("--zipf-theta", v);
        } else if (const char *v = arg("--log-shards")) {
            cfg.logShards = parseLogShardsFlag("--log-shards", v);
        } else if (const char *v = arg("--oltp-seconds")) {
            cfg.secondsPerCell =
                parsePositiveSecondsFlag("--oltp-seconds", v);
        } else if (const char *v = arg("--bench-repeats")) {
            cfg.minRepeats =
                parsePositiveCountFlag("--bench-repeats", v);
        } else if (const char *v = arg("--jobs")) {
            cfg.jobs = static_cast<unsigned>(
                parsePositiveCountFlag("--jobs", v));
        } else if (const char *v = arg("--bench-json")) {
            benchJsonPath = v;
        } else {
            usage();
            return args[i] == "--help" ? 0 : 1;
        }
    }

    if (cfg.threads > 64)
        fatal("bad thread count");

    std::vector<OltpCellSpec> cells = oltpReferenceCells();
    std::vector<OltpCellResult> results = runOltpMatrix(cells, cfg);

    if (!benchJsonPath.empty()) {
        std::string json = oltpBenchJson(cfg, results);
        if (benchJsonPath == "-") {
            std::cout << json;
        } else {
            std::ofstream f(benchJsonPath);
            if (!f)
                fatal("cannot write '%s'", benchJsonPath.c_str());
            f << json;
        }
        return 0;
    }

    printTable(results);
    return 0;
}
