#include "oltp/bench.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/flag_table.hh"
#include "persist/log_buffer.hh"
#include "sim/json.hh"
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
    std::size_t jobs = poolSize(cfg.jobs, cells.size());
    if (jobs == 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            results[i] = runOltpCell(cells[i], cfg);
        return results;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (std::size_t j = 0; j < jobs; ++j)
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
    JsonWriter w(out);
    w.object();
    w.field("schema", "snf-bench-oltp-v1");
    w.field("tool", "snfoltp");
    w.field("threads", cfg.threads);
    w.field("tx_per_thread", cfg.txPerThread);
    w.field("seed", cfg.seed);
    w.field("warehouses", cfg.warehouses);
    w.field("customers", cfg.customers);
    w.field("keys", cfg.keys);
    w.field("zipf_theta", cfg.zipfTheta);
    w.field("log_shards", cfg.logShards);
    w.array("cells");
    for (const OltpCellResult &r : results) {
        w.object();
        w.field("workload", r.spec.engine);
        w.field("mode", persistModeName(r.spec.mode));
        w.field("cc", ccModeName(r.spec.cc));
        w.object("counters");
        w.field("cycles", r.cycles);
        w.field("committed_tx", r.committedTx);
        w.field("aborted_tx", r.abortedTx);
        w.field("instructions", r.instructions);
        w.field("retries", r.retries);
        w.field("user_aborts", r.userAborts);
        w.field("log_records", r.logRecords);
        w.field("nvram_writes", r.nvramWrites);
        w.field("occ_samples", r.occSamples);
        w.field("log_occ_sum", r.logOccSum);
        w.field("log_occ_max", r.logOccMax);
        w.field("wcb_occ_sum", r.wcbOccSum);
        w.field("wcb_occ_max", r.wcbOccMax);
        w.array("tx_types");
        for (const OltpTypeCounters &t : r.types) {
            w.object(nullptr, true);
            w.field("type", t.type);
            w.field("committed", t.committed);
            w.field("lat_p50", t.latP50);
            w.field("lat_p99", t.latP99);
            w.field("lat_p999", t.latP999);
            w.field("lat_mean", t.latMean);
            w.field("lat_max", t.latMax);
            w.field("lat_sum", t.latSum);
            w.end();
        }
        w.end();
        w.end();
        w.object("perf");
        w.field("wall_sec", r.wallSec);
        w.field("setup_sec", r.setupSec);
        w.field("run_sec", r.runSec);
        w.field("verify_sec", r.verifySec);
        w.field("sim_tx_per_sec",
                r.wallSec > 0.0
                    ? static_cast<double>(r.committedTx) / r.wallSec
                    : 0.0);
        w.field("repeats", r.repeats);
        w.end();
        w.end();
    }
    w.end();
    w.end();
    return out.str();
}

} // namespace snf::oltp
