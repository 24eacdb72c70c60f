/**
 * @file
 * snfoltp — production-scale OLTP driver (DESIGN §8): runs the
 * multi-warehouse TPC-C and Zipf-skewed YCSB engines across the
 * {fwb, undo-clwb, redo-clwb} × {2pl, tl2} matrix and reports
 * throughput, commit-latency quantiles (p50/p99/p999), abort/retry
 * rates, log-buffer / WCB occupancy per mode, and each cell's host
 * wall time split into setup, run and verify phases.
 *
 * `snfoltp --help` lists the flags. All counts are strict: a
 * malformed or zero value is a hard error, never a silent default;
 * so is an infinite --oltp-seconds.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/flag_table.hh"
#include "oltp/bench.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

using namespace snf;
using namespace snf::oltp;

namespace
{

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
        std::printf("%-9s %-9s %-4s %9" PRIu64 " %9.1f %8" PRIu64
                    " %8" PRIu64 " %9" PRIu64
                    " %7.1f %7.1f %8.1f %8.1f %8.1f %9.1f\n",
                    r.spec.engine.c_str(), persistModeName(r.spec.mode),
                    ccModeName(r.spec.cc), r.committedTx, txPerMcycle,
                    r.abortedTx, r.retries, r.logRecords, logOccAvg,
                    wcbOccAvg, 1e3 * r.wallSec, 1e3 * r.setupSec,
                    1e3 * r.runSec, 1e3 * r.verifySec);
        for (const OltpTypeCounters &t : r.types)
            std::printf("    %-12s commits=%-7" PRIu64 " p50=%-6" PRIu64
                        " p99=%-6" PRIu64 " p999=%-6" PRIu64
                        " max=%" PRIu64 "\n",
                        t.type.c_str(), t.committed, t.latP50, t.latP99,
                        t.latP999, t.latMax);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    OltpMatrixConfig cfg;
    std::string benchJsonPath;

    FlagTable flags("snfoltp");
    flags
        .count("--threads", &cfg.threads, "simulated cores (default 4)",
               CountRange::Positive)
        .count("--tx", &cfg.txPerThread,
               "transactions per thread (default 50)", CountRange::Positive)
        .count("--seed", &cfg.seed, "workload RNG seed (default 11)")
        .count("--warehouses", &cfg.warehouses,
               "TPC-C warehouses (default 2)", CountRange::Positive)
        .count("--customers", &cfg.customers,
               "TPC-C customers per district (default 64)",
               CountRange::Positive)
        .count("--keys", &cfg.keys, "YCSB keyspace size (default 8192)",
               CountRange::Positive)
        .real("--zipf-theta", "X", &cfg.zipfTheta,
              "YCSB Zipf skew (default 0.9)", RealRange::OpenUnit)
        .count("--log-shards", &cfg.logShards,
               "shard the log across N regions (default 1)",
               CountRange::Shards)
        // tryParseReal rejects inf, which would keep the repeat loop
        // going forever.
        .real("--oltp-seconds", "S", &cfg.secondsPerCell,
              "keep re-running each cell until S seconds accumulate",
              RealRange::Duration)
        .count("--bench-repeats", &cfg.minRepeats,
               "minimum timed repeats per cell (default 1)",
               CountRange::Positive)
        .count("--jobs", &cfg.jobs, "cells run on N host threads (default 1)",
               CountRange::Jobs)
        .text("--bench-json", "FILE", &benchJsonPath,
              "write the snf-bench-oltp-v1 report (\"-\" = stdout)");
    flags.parse(argc, argv);

    if (cfg.threads > 64)
        fatal("bad thread count");

    std::vector<OltpCellSpec> cells = oltpReferenceCells();
    std::vector<OltpCellResult> results = runOltpMatrix(cells, cfg);

    if (!benchJsonPath.empty()) {
        writeOutput(benchJsonPath, [&](std::ostream &os) {
            os << oltpBenchJson(cfg, results);
        });
        return 0;
    }

    printTable(results);
    return 0;
}
