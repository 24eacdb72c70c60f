#include "oltp/bench.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "persist/log_buffer.hh"
#include "sim/logging.hh"
#include "sim/probe.hh"

namespace snf::oltp
{

namespace
{

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One timed end-to-end simulation of a cell. */
OltpCellResult
runOnce(const OltpCellSpec &cell, const OltpMatrixConfig &cfg)
{
    workloads::WorkloadParams params;
    params.threads = cfg.threads;
    params.txPerThread = cfg.txPerThread;
    params.seed = cfg.seed;
    params.warehouses = cfg.warehouses;
    params.zipfTheta = cfg.zipfTheta;
    params.footprint =
        cell.engine == "oltp-tpcc" ? cfg.customers : cfg.keys;

    SystemConfig sysCfg = SystemConfig::scaled(cfg.threads);
    sysCfg.persist.ccMode = cell.cc;
    sysCfg.persist.logShards = cfg.logShards;

    auto t0 = std::chrono::steady_clock::now();

    System sys(sysCfg, cell.mode);
    auto workload = workloads::makeWorkload(cell.engine);
    auto *engine = dynamic_cast<OltpEngine *>(workload.get());
    SNF_ASSERT(engine, "'%s' is not an OLTP engine",
               cell.engine.c_str());
    workload->setup(sys, params);

    OltpCellResult r;
    r.spec = cell;
    sys.setProbe([&](sim::ProbeEvent e, Tick now, std::uint64_t) {
        if (e != sim::ProbeEvent::TxCommit)
            return;
        ++r.occSamples;
        if (persist::LogBuffer *lb = sys.logBuffer()) {
            std::uint64_t occ = lb->occupancy(now);
            r.logOccSum += occ;
            r.logOccMax = std::max(r.logOccMax, occ);
        }
        std::uint64_t wocc = sys.mem().wcb().occupancy();
        r.wcbOccSum += wocc;
        r.wcbOccMax = std::max(r.wcbOccMax, wocc);
    });

    for (CoreId c = 0; c < params.threads; ++c) {
        sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
            return workload->thread(sys, t, params);
        });
    }
    auto tSetup = std::chrono::steady_clock::now();
    Tick end = sys.run(kTickNever);

    // Stats reflect the measured run; the final flush only exposes a
    // complete image for the oracle (as in workloads::runWorkload).
    RunStats s = sys.collectStats(end);
    sys.flushAll(end);
    auto tRun = std::chrono::steady_clock::now();
    std::string why;
    if (!workload->verify(sys.mem().nvram().store(), &why))
        fatal("oltp bench cell %s/%s/%s failed verification: %s",
              cell.engine.c_str(), persistModeName(cell.mode),
              ccModeName(cell.cc), why.c_str());

    auto t1 = std::chrono::steady_clock::now();
    r.setupSec = secondsBetween(t0, tSetup);
    r.runSec = secondsBetween(tSetup, tRun);
    r.verifySec = secondsBetween(tRun, t1);
    r.wallSec = secondsBetween(t0, t1);

    r.cycles = s.cycles;
    r.committedTx = s.committedTx;
    r.abortedTx = s.abortedTx;
    r.instructions = s.instr.total;
    r.retries = engine->retries();
    r.userAborts = engine->userAborts();
    r.logRecords = s.logRecords;
    r.nvramWrites = s.nvramWrites;
    for (const auto &[name, m] : engine->txMetrics()) {
        OltpTypeCounters tc;
        tc.type = name;
        tc.committed = m.committed;
        tc.latP50 = m.latency.p50();
        tc.latP99 = m.latency.p99();
        tc.latP999 = m.latency.p999();
        tc.latMean = m.latency.mean();
        tc.latMax = m.latency.max();
        tc.latSum = m.latency.sum();
        r.types.push_back(std::move(tc));
    }
    return r;
}

} // namespace

bool
OltpCellResult::countersEqual(const OltpCellResult &o) const
{
    return cycles == o.cycles && committedTx == o.committedTx &&
           abortedTx == o.abortedTx &&
           instructions == o.instructions && retries == o.retries &&
           userAborts == o.userAborts && logRecords == o.logRecords &&
           nvramWrites == o.nvramWrites &&
           occSamples == o.occSamples && logOccSum == o.logOccSum &&
           logOccMax == o.logOccMax && wcbOccSum == o.wcbOccSum &&
           wcbOccMax == o.wcbOccMax && types == o.types;
}

std::vector<OltpCellSpec>
oltpReferenceCells()
{
    std::vector<OltpCellSpec> cells;
    for (const char *engine : {"oltp-tpcc", "oltp-ycsb"})
        for (PersistMode mode :
             {PersistMode::Fwb, PersistMode::UndoClwb,
              PersistMode::RedoClwb})
            for (CcMode cc : {CcMode::TwoPhase, CcMode::Tl2})
                cells.push_back({engine, mode, cc});
    return cells;
}

OltpCellResult
runOltpCell(const OltpCellSpec &cell, const OltpMatrixConfig &cfg)
{
    OltpCellResult best;
    double total = 0.0;
    for (std::uint64_t r = 0;
         r < cfg.minRepeats ||
         (cfg.secondsPerCell > 0.0 && total < cfg.secondsPerCell);
         ++r) {
        OltpCellResult cur = runOnce(cell, cfg);
        total += cur.wallSec;
        if (r == 0) {
            best = std::move(cur);
        } else {
            if (!best.countersEqual(cur))
                fatal("oltp bench cell %s/%s/%s not deterministic "
                      "across repeats",
                      cell.engine.c_str(),
                      persistModeName(cell.mode),
                      ccModeName(cell.cc));
            if (cur.wallSec < best.wallSec) {
                best.wallSec = cur.wallSec;
                best.setupSec = cur.setupSec;
                best.runSec = cur.runSec;
                best.verifySec = cur.verifySec;
            }
        }
        ++best.repeats;
    }
    return best;
}

std::vector<OltpCellResult>
runOltpMatrix(const std::vector<OltpCellSpec> &cells,
              const OltpMatrixConfig &cfg)
{
    std::vector<OltpCellResult> results(cells.size());
    unsigned jobs = std::max(1u, cfg.jobs);
    if (jobs == 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            results[i] = runOltpCell(cells[i], cfg);
        return results;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned j = 0; j < jobs; ++j)
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= cells.size())
                    return;
                results[i] = runOltpCell(cells[i], cfg);
            }
        });
    for (auto &t : pool)
        t.join();
    return results;
}

std::string
oltpBenchJson(const OltpMatrixConfig &cfg,
              const std::vector<OltpCellResult> &results)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"snf-bench-oltp-v1\",\n";
    out << "  \"tool\": \"snfoltp\",\n";
    out << "  \"threads\": " << cfg.threads << ",\n";
    out << "  \"tx_per_thread\": " << cfg.txPerThread << ",\n";
    out << "  \"seed\": " << cfg.seed << ",\n";
    out << "  \"warehouses\": " << cfg.warehouses << ",\n";
    out << "  \"customers\": " << cfg.customers << ",\n";
    out << "  \"keys\": " << cfg.keys << ",\n";
    out << "  \"zipf_theta\": " << cfg.zipfTheta << ",\n";
    out << "  \"log_shards\": " << cfg.logShards << ",\n";
    out << "  \"cells\": [";
    bool first = true;
    for (const OltpCellResult &r : results) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\n";
        out << "      \"workload\": \"" << r.spec.engine << "\",\n";
        out << "      \"mode\": \"" << persistModeName(r.spec.mode)
            << "\",\n";
        out << "      \"cc\": \"" << ccModeName(r.spec.cc) << "\",\n";
        out << "      \"counters\": {\n";
        out << "        \"cycles\": " << r.cycles << ",\n";
        out << "        \"committed_tx\": " << r.committedTx << ",\n";
        out << "        \"aborted_tx\": " << r.abortedTx << ",\n";
        out << "        \"instructions\": " << r.instructions
            << ",\n";
        out << "        \"retries\": " << r.retries << ",\n";
        out << "        \"user_aborts\": " << r.userAborts << ",\n";
        out << "        \"log_records\": " << r.logRecords << ",\n";
        out << "        \"nvram_writes\": " << r.nvramWrites << ",\n";
        out << "        \"occ_samples\": " << r.occSamples << ",\n";
        out << "        \"log_occ_sum\": " << r.logOccSum << ",\n";
        out << "        \"log_occ_max\": " << r.logOccMax << ",\n";
        out << "        \"wcb_occ_sum\": " << r.wcbOccSum << ",\n";
        out << "        \"wcb_occ_max\": " << r.wcbOccMax << ",\n";
        out << "        \"tx_types\": [";
        bool firstType = true;
        for (const OltpTypeCounters &t : r.types) {
            out << (firstType ? "\n" : ",\n");
            firstType = false;
            out << "          {\"type\": \"" << t.type
                << "\", \"committed\": " << t.committed
                << ", \"lat_p50\": " << t.latP50
                << ", \"lat_p99\": " << t.latP99
                << ", \"lat_p999\": " << t.latP999
                << ", \"lat_mean\": " << t.latMean
                << ", \"lat_max\": " << t.latMax
                << ", \"lat_sum\": " << t.latSum << "}";
        }
        out << "\n        ]\n";
        out << "      },\n";
        out << "      \"perf\": {\n";
        out << "        \"wall_sec\": " << r.wallSec << ",\n";
        out << "        \"setup_sec\": " << r.setupSec << ",\n";
        out << "        \"run_sec\": " << r.runSec << ",\n";
        out << "        \"verify_sec\": " << r.verifySec << ",\n";
        out << "        \"sim_tx_per_sec\": "
            << (r.wallSec > 0.0
                    ? static_cast<double>(r.committedTx) / r.wallSec
                    : 0.0)
            << ",\n";
        out << "        \"repeats\": " << r.repeats << "\n";
        out << "      }\n";
        out << "    }";
    }
    out << "\n  ]\n";
    out << "}\n";
    return out.str();
}

} // namespace snf::oltp
