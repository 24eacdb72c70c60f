/**
 * @file
 * OLTP bench harness (DESIGN §8): runs engine × mode × CC cells to
 * completion, harvesting simulator counters, engine metrics (per-type
 * commit counts and latency quantiles), and log-buffer / WCB
 * occupancy sampled at every tx_commit probe event. Everything in a
 * cell's counters block is a pure function of the cell spec — the
 * committed BENCH_oltp.json regenerates byte-identically on any host
 * and at any --jobs setting, which is what the oltp-smoke CI lane
 * diffs; wall-clock rates live in the separate perf block CI strips.
 */

#ifndef SNF_OLTP_BENCH_HH
#define SNF_OLTP_BENCH_HH

#include <string>
#include <vector>

#include "oltp/engine.hh"

namespace snf::oltp
{

/** Shared knobs for a bench matrix run. */
struct OltpMatrixConfig
{
    std::uint32_t threads = 4;
    std::uint64_t txPerThread = 50;
    std::uint64_t seed = 11;
    /** TPC-C warehouses (< threads so warehouses are contended). */
    std::uint64_t warehouses = 2;
    /** TPC-C customers per district. */
    std::uint64_t customers = 64;
    /** YCSB keyspace size. */
    std::uint64_t keys = 8192;
    /** YCSB Zipf skew. */
    double zipfTheta = 0.9;
    std::uint32_t logShards = 1;
    /** Minimum timed repeats per cell (first sets the counters). */
    std::uint64_t minRepeats = 1;
    /**
     * Wall-clock budget per cell in seconds (--oltp-seconds): after
     * minRepeats, keep re-running (and re-checking counter identity)
     * while the cell's total measured time is below this. 0 = only
     * minRepeats.
     */
    double secondsPerCell = 0.0;
    /** Host worker threads running independent cells concurrently. */
    unsigned jobs = 1;
};

/** One cell of the matrix. */
struct OltpCellSpec
{
    std::string engine; ///< "oltp-tpcc" or "oltp-ycsb"
    PersistMode mode = PersistMode::Fwb;
    CcMode cc = CcMode::TwoPhase;
};

/** Deterministic per-transaction-type counters of one cell. */
struct OltpTypeCounters
{
    std::string type;
    std::uint64_t committed = 0;
    std::uint64_t latP50 = 0;
    std::uint64_t latP99 = 0;
    std::uint64_t latP999 = 0;
    std::uint64_t latMean = 0;
    std::uint64_t latMax = 0;
    std::uint64_t latSum = 0;

    bool operator==(const OltpTypeCounters &) const = default;
};

/** Result of one cell: counters (deterministic) + perf (wall). */
struct OltpCellResult
{
    OltpCellSpec spec;

    Tick cycles = 0;
    std::uint64_t committedTx = 0;
    std::uint64_t abortedTx = 0;
    std::uint64_t instructions = 0;
    std::uint64_t retries = 0;
    std::uint64_t userAborts = 0;
    std::uint64_t logRecords = 0;
    std::uint64_t nvramWrites = 0;
    /** tx_commit-sampled occupancies (sum/max over samples). */
    std::uint64_t occSamples = 0;
    std::uint64_t logOccSum = 0;
    std::uint64_t logOccMax = 0;
    std::uint64_t wcbOccSum = 0;
    std::uint64_t wcbOccMax = 0;
    std::vector<OltpTypeCounters> types;

    /**
     * Host seconds of the fastest repeat, and its phases: setup
     * (System and engine setup), run (System::run and the final
     * flush), verify (the engine's oracle). They sum to wallSec.
     */
    double wallSec = 0.0;
    double setupSec = 0.0;
    double runSec = 0.0;
    double verifySec = 0.0;
    std::uint64_t repeats = 0;

    /** Equality of the deterministic counters block only. */
    bool countersEqual(const OltpCellResult &o) const;
};

/**
 * The committed reference matrix behind BENCH_oltp.json:
 * {oltp-tpcc, oltp-ycsb} × {fwb, undo-clwb, redo-clwb} × {2pl, tl2}.
 */
std::vector<OltpCellSpec> oltpReferenceCells();

/**
 * Run one cell to completion (cfg.minRepeats+ timed repeats).
 * fatal() on verification failure or counter drift across repeats.
 */
OltpCellResult runOltpCell(const OltpCellSpec &cell,
                           const OltpMatrixConfig &cfg);

/** Run cells (cfg.jobs-way parallel), results in spec order. */
std::vector<OltpCellResult>
runOltpMatrix(const std::vector<OltpCellSpec> &cells,
              const OltpMatrixConfig &cfg);

/** Serialize a snf-bench-oltp-v1 report. */
std::string oltpBenchJson(const OltpMatrixConfig &cfg,
                          const std::vector<OltpCellResult> &results);

} // namespace snf::oltp

#endif // SNF_OLTP_BENCH_HH
