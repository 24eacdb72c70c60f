/**
 * @file
 * snfbench — the repository benchmark (NOTES.md beside this file says
 * why each workload exists and which layer metric should move which
 * end-to-end metric).
 *
 * Drives libsnf from outside, through its public API only: System,
 * workloads::makeWorkload, Workload::setup/verify,
 * System::run/flushAll/collectStats, crashlab::runCrashSweep and
 * sim::Zipf. One process runs one workload. A run repeats the
 * workload's cell matrix ("a pass") until --seconds have elapsed and
 * reports, over the passes after the first (warm-up) one, the fastest
 * pass for run time and the median pass for setup and layer times.
 *
 * Usage:
 *   snfbench --workload tpcc-logwrap|ycsb-zipf-1m|crash-sweep
 *            --seed N --seconds S --trace 0|1
 *            [--spans FILE] [--cells-json FILE]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates
 * untraced and traced passes and prints the per-layer metrics plus
 * the tracing overhead. The last stdout line is one JSON object with
 * correct/attempted/failed/metrics (plus a "host" fingerprint).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hh"
#include "crashlab/sweep.hh"
#include "oltp/bench.hh"
#include "oltp/engine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

using namespace snf;

namespace
{

using Clock = std::chrono::steady_clock;

// The committed BENCH_oltp.json configuration (threads, warehouses,
// customers, keys, skew, tx per thread, seed): the OLTP workloads run
// exactly its cells so their counters can be diffed against it.
constexpr std::uint32_t kThreads = 8;
constexpr std::uint64_t kTxPerThread = 250;
constexpr std::uint64_t kWarehouses = 4;
constexpr std::uint64_t kCustomers = 256;
constexpr std::uint64_t kKeys = 1000000;
constexpr double kTheta = 0.9;
constexpr std::uint64_t kOltpSeed = 11;
/** crash-sweep: seed of the swept TPC-C run (as snfcrash's default). */
constexpr std::uint64_t kSweepRunSeed = 1;
/** crash-sweep: evaluation workers (fewer than the 4 host cores). */
constexpr std::size_t kSweepJobs = 2;
/** crash-sweep: crash points sampled per cell. */
constexpr std::size_t kSweepPoints = 64;
/**
 * crash-sweep: seed of the crash-point samples. Fixed, like the swept
 * run's seed, so every run tests the same points and its failed count
 * (the known sharded-recovery defect, NOTES.md) is comparable with
 * any other run's.
 */
constexpr std::uint64_t kSweepSampleSeed = 1;

constexpr PersistMode kModes[] = {PersistMode::Fwb, PersistMode::UndoClwb,
                                  PersistMode::RedoClwb};
constexpr CcMode kCcs[] = {CcMode::TwoPhase, CcMode::Tl2};
constexpr std::uint32_t kSweepShards[] = {1, 4};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------------
// Span recorder: spans live in memory and are written out at the end.

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t cell; ///< spans of one cell share this id
        int parent;         ///< index of the enclosing span, -1 = none
        double start;       ///< seconds since the tracer's epoch
        double end;
    };

    /** Records one span for its lifetime; a null tracer records none. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint64_t cell) : tr(t)
        {
            if (!tr)
                return;
            idx = static_cast<int>(tr->spans.size());
            tr->spans.push_back({name, cell, tr->open, tr->now(), 0.0});
            tr->open = idx;
        }

        ~Scope()
        {
            if (!tr)
                return;
            tr->spans[idx].end = tr->now();
            tr->open = tr->spans[idx].parent;
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tr;
        int idx = -1;
    };

    std::size_t size() const { return spans.size(); }

    /**
     * Self time per span name over spans [from, to): each span's
     * duration minus the part its child spans cover.
     */
    std::map<std::string, double>
    selfTimes(std::size_t from, std::size_t to) const
    {
        std::vector<double> self(to - from);
        for (std::size_t i = from; i < to; ++i)
            self[i - from] = spans[i].end - spans[i].start;
        for (std::size_t i = from; i < to; ++i) {
            int p = spans[i].parent;
            if (p >= static_cast<int>(from))
                self[p - from] -= spans[i].end - spans[i].start;
        }
        std::map<std::string, double> out;
        for (std::size_t i = from; i < to; ++i)
            out[spans[i].name] += self[i - from];
        return out;
    }

    /** Trace-event JSON (complete "X" events, microseconds). */
    void
    write(std::ostream &os) const
    {
        os << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                          "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                          "\"dur\": %.3f, \"args\": {\"cell\": %" PRIu64
                          ", \"id\": %zu, \"parent\": %d}}",
                          i ? "," : "", s.name, s.start * 1e6,
                          (s.end - s.start) * 1e6, s.cell, i, s.parent);
            os << buf;
        }
        os << "\n]}\n";
    }

  private:
    double now() const { return secondsBetween(epoch, Clock::now()); }

    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
    int open = -1;
};

// ------------------------------------------------------------------
// OLTP cells: setup -> run -> flushAll -> verify, as snfoltp runs them.

struct OltpCell
{
    const char *engine; ///< "oltp-tpcc" or "oltp-ycsb"
    PersistMode mode;
    CcMode cc;
    std::uint32_t shards;
    std::uint64_t seed;
    /**
     * Crash journal on, as in a sweep's reference run: it switches the
     * hardware log buffers to word-by-word drains, which changes
     * timing, so a plain run matches a sweep only with it set.
     */
    bool journal = false;
};

/** One execution of an OLTP cell. */
struct CellRun
{
    /** The BENCH_oltp.json counters block (countersEqual contract). */
    oltp::OltpCellResult res;
    RunStats stats;
    /** Commit latency of every committed tx, all types merged. */
    oltp::LatencyHistogram latency;
    bool verified = false;
    std::string why;
    double setupSec = 0; ///< System construction + Workload::setup
    double opsSec = 0;   ///< run + flushAll + verify
    double wallSec = 0;  ///< the whole cell, teardown included
};

workloads::WorkloadParams
cellParams(const OltpCell &cell)
{
    workloads::WorkloadParams p;
    p.threads = kThreads;
    p.txPerThread = kTxPerThread;
    p.seed = cell.seed;
    p.warehouses = kWarehouses;
    p.zipfTheta = kTheta;
    p.footprint =
        std::strcmp(cell.engine, "oltp-tpcc") == 0 ? kCustomers : kKeys;
    return p;
}

SystemConfig
cellSystem(const OltpCell &cell)
{
    SystemConfig cfg = SystemConfig::scaled(kThreads);
    cfg.persist.ccMode = cell.cc;
    cfg.persist.logShards = cell.shards;
    cfg.persist.crashJournal = cell.journal;
    return cfg;
}

CellRun
runOltpCell(const OltpCell &cell, Tracer *tr, std::uint64_t id)
{
    CellRun out;
    const workloads::WorkloadParams params = cellParams(cell);
    Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope cellSpan(tr, "bench.cell", id);
        std::unique_ptr<System> sys;
        {
            Tracer::Scope s(tr, "core.System", id);
            sys = std::make_unique<System>(cellSystem(cell),
                                           cell.mode);
        }
        auto workload = workloads::makeWorkload(cell.engine);
        auto *engine = dynamic_cast<oltp::OltpEngine *>(workload.get());
        if (!engine)
            fatal("'%s' is not an OLTP engine", cell.engine);
        {
            Tracer::Scope s(tr, "workloads.setup", id);
            workload->setup(*sys, params);
        }
        Clock::time_point t1 = Clock::now();

        // Occupancy sampled at every commit, as the BENCH_oltp.json
        // counters define it.
        oltp::OltpCellResult &r = out.res;
        System &sysRef = *sys;
        sys->setProbe([&](sim::ProbeEvent e, Tick now, std::uint64_t) {
            if (e != sim::ProbeEvent::TxCommit)
                return;
            ++r.occSamples;
            if (persist::LogBuffer *lb = sysRef.logBuffer()) {
                std::uint64_t occ = lb->occupancy(now);
                r.logOccSum += occ;
                r.logOccMax = std::max(r.logOccMax, occ);
            }
            std::uint64_t wocc = sysRef.mem().wcb().occupancy();
            r.wcbOccSum += wocc;
            r.wcbOccMax = std::max(r.wcbOccMax, wocc);
        });
        for (CoreId c = 0; c < params.threads; ++c)
            sys->spawn(c, [&](Thread &t) -> sim::Co<void> {
                return workload->thread(sysRef, t, params);
            });
        Tick end = 0;
        {
            Tracer::Scope s(tr, "core.run", id);
            end = sys->run(kTickNever);
        }
        out.stats = sys->collectStats(end);
        {
            Tracer::Scope s(tr, "core.flushAll", id);
            sys->flushAll(end);
        }
        {
            Tracer::Scope s(tr, "workloads.verify", id);
            out.verified =
                workload->verify(sys->mem().nvram().store(), &out.why);
        }
        out.opsSec = secondsBetween(t1, Clock::now());
        out.setupSec = secondsBetween(t0, t1);

        const RunStats &s = out.stats;
        r.spec = {cell.engine, cell.mode, cell.cc};
        r.cycles = s.cycles;
        r.committedTx = s.committedTx;
        r.abortedTx = s.abortedTx;
        r.instructions = s.instr.total;
        r.retries = engine->retries();
        r.userAborts = engine->userAborts();
        r.logRecords = s.logRecords;
        r.nvramWrites = s.nvramWrites;
        for (const auto &[name, m] : engine->txMetrics()) {
            oltp::OltpTypeCounters tc;
            tc.type = name;
            tc.committed = m.committed;
            tc.latP50 = m.latency.p50();
            tc.latP99 = m.latency.p99();
            tc.latP999 = m.latency.p999();
            tc.latMean = m.latency.mean();
            tc.latMax = m.latency.max();
            tc.latSum = m.latency.sum();
            r.types.push_back(std::move(tc));
            out.latency.merge(m.latency);
        }
    }
    out.wallSec = secondsBetween(t0, Clock::now());
    out.res.wallSec = out.wallSec;
    out.res.repeats = 1;
    return out;
}

/** Every simulated counter the benchmark reports, beyond res. */
std::vector<double>
statsKey(const RunStats &s)
{
    return {double(s.l1Hits),           double(s.l1Misses),
            double(s.l2Hits),           double(s.l2Misses),
            double(s.nvramReadBytes),   double(s.nvramWriteBytes),
            double(s.logWraps),         double(s.logBufferStalls),
            double(s.fwbWritebacks),    double(s.logFullStalls),
            double(s.forcedWritebacks), double(s.ccLockWaits),
            double(s.ccDeadlockAborts), double(s.ccValidationFailures),
            double(s.eventsScheduled),  double(s.eventsExecuted),
            double(s.instr.clwbs),      double(s.instr.fences),
            s.energy.memoryDynamicPj()};
}

/** Determinism guard: identical simulated counters, bit for bit. */
bool
sameCounters(const CellRun &a, const CellRun &b)
{
    return a.res.countersEqual(b.res) &&
           statsKey(a.stats) == statsKey(b.stats) &&
           a.latency.count() == b.latency.count() &&
           a.latency.sum() == b.latency.sum() &&
           a.latency.p50() == b.latency.p50() &&
           a.latency.p99() == b.latency.p99();
}

// ------------------------------------------------------------------
// crash-sweep cells: runCrashSweep over the tpcc-logwrap TPC-C run.

struct SweepCell
{
    PersistMode mode;
    std::uint32_t shards;
};

struct SweepRun
{
    crashlab::SweepResult res;
    double wallSec = 0;
};

OltpCell
sweepRunCell(const SweepCell &c)
{
    return {"oltp-tpcc", c.mode, CcMode::TwoPhase, c.shards,
            kSweepRunSeed, true};
}

SweepRun
runSweepCell(const SweepCell &c, std::uint64_t sampleSeed, Tracer *tr,
             std::uint64_t id)
{
    crashlab::SweepConfig cfg;
    OltpCell plain = sweepRunCell(c);
    cfg.run.workload = plain.engine;
    cfg.run.mode = c.mode;
    cfg.run.params = cellParams(plain);
    cfg.run.sys = cellSystem(plain);
    cfg.jobs = kSweepJobs;
    cfg.maxPoints = kSweepPoints;
    cfg.sampleSeed = sampleSeed;
    // Off so that throughput does not depend on how many points fail.
    cfg.minimizeFailures = false;

    SweepRun out;
    Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope cellSpan(tr, "bench.cell", id);
        Tracer::Scope s(tr, "crashlab.runCrashSweep", id);
        out.res = crashlab::runCrashSweep(cfg);
    }
    out.wallSec = secondsBetween(t0, Clock::now());
    return out;
}

double
sweepSetupSec(const crashlab::SweepResult &r)
{
    return r.perf.refRunSec + r.perf.harvestSec + r.perf.indexSec;
}

/** The simulated (worker-count independent) outcome of a sweep. */
std::vector<std::uint64_t>
sweepKey(const crashlab::SweepResult &r)
{
    std::vector<std::uint64_t> k{
        r.endTick,          r.pointsHarvested,    r.pointsTested,
        r.pointsFailed,     r.refVerified,        r.refCommittedTx,
        r.refLogWraps,      r.perf.journalEntries, r.perf.checkpointsBuilt};
    for (const auto &t : r.shardTotals)
        k.insert(k.end(), {t.shard, t.validRecords, t.salvagedTxns,
                           t.quarantinedTxns, t.abortedDeadShard,
                           t.deadPoints});
    return k;
}

// ------------------------------------------------------------------
// Metrics.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/**
 * Simulated end-to-end metrics of @p runs (one execution per cell):
 * tx/Mcycle as a geometric mean over the cells of a mode, latency
 * quantiles over every committed transaction of a mode.
 */
void
addSimulatedMetrics(Metrics &m, const std::vector<CellRun> &runs,
                    const std::vector<OltpCell> &cells)
{
    for (PersistMode mode : kModes) {
        const std::string mn = persistModeName(mode);
        double logSum = 0.0;
        int n = 0;
        oltp::LatencyHistogram h;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].mode != mode)
                continue;
            logSum += std::log(runs[i].stats.txPerMcycle);
            ++n;
            h.merge(runs[i].latency);
        }
        m.push_back({"tx_per_mcycle." + mn, n ? std::exp(logSum / n) : 0.0,
              "tx/Mcycle"});
        m.push_back({"p50_cycles." + mn, double(h.p50()), "cycles"});
        m.push_back({"p99_cycles." + mn, double(h.p99()), "cycles"});
    }
}

/** Per-mode simulated layer counters (paper Figs 7-9 and friends). */
void
addModeLayerMetrics(Metrics &m, const std::vector<CellRun> &runs,
                    const std::vector<OltpCell> &cells)
{
    for (PersistMode mode : kModes) {
        const std::string mn = std::string(".") + persistModeName(mode);
        RunStats t;
        std::uint64_t occSamples = 0, logOccSum = 0, logOccMax = 0;
        std::uint64_t wcbOccSum = 0, retries = 0, cores = 0;
        double memPj = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].mode != mode)
                continue;
            const RunStats &s = runs[i].stats;
            const oltp::OltpCellResult &r = runs[i].res;
            t.cycles += s.cycles;
            cores += s.cycles * kThreads;
            t.committedTx += s.committedTx;
            t.abortedTx += s.abortedTx;
            t.instr += s.instr;
            t.logRecords += s.logRecords;
            t.logWraps += s.logWraps;
            t.logBufferStalls += s.logBufferStalls;
            t.fwbWritebacks += s.fwbWritebacks;
            t.logFullStalls += s.logFullStalls;
            t.forcedWritebacks += s.forcedWritebacks;
            t.ccLockWaits += s.ccLockWaits;
            t.ccDeadlockAborts += s.ccDeadlockAborts;
            t.ccValidationFailures += s.ccValidationFailures;
            t.l1Hits += s.l1Hits;
            t.l1Misses += s.l1Misses;
            t.l2Hits += s.l2Hits;
            t.l2Misses += s.l2Misses;
            t.nvramWriteBytes += s.nvramWriteBytes;
            t.nvramReadBytes += s.nvramReadBytes;
            memPj += s.energy.memoryDynamicPj();
            occSamples += r.occSamples;
            logOccSum += r.logOccSum;
            logOccMax = std::max(logOccMax, r.logOccMax);
            wcbOccSum += r.wcbOccSum;
            retries += r.retries;
        }
        const double tx = double(t.committedTx);
        m.push_back({"persist.log_records_per_tx" + mn,
              ratio(double(t.logRecords), tx), "records/tx"});
        m.push_back({"persist.log_wraps" + mn, double(t.logWraps), "count"});
        m.push_back({"persist.log_buffer_stalls" + mn,
              double(t.logBufferStalls), "count"});
        m.push_back({"persist.fwb_writebacks_per_tx" + mn,
              ratio(double(t.fwbWritebacks), tx), "lines/tx"});
        m.push_back({"persist.log_occ_mean" + mn,
              ratio(double(logOccSum), double(occSamples)), "entries"});
        m.push_back({"persist.log_occ_max" + mn, double(logOccMax), "entries"});
        m.push_back({"persist.log_full_stalls" + mn, double(t.logFullStalls),
              "count"});
        m.push_back({"persist.forced_writebacks" + mn,
              double(t.forcedWritebacks), "count"});
        m.push_back({"persist.cc_lock_waits" + mn, double(t.ccLockWaits),
              "count"});
        m.push_back({"persist.cc_deadlock_aborts" + mn,
              double(t.ccDeadlockAborts), "count"});
        m.push_back({"persist.cc_validation_failures" + mn,
              double(t.ccValidationFailures), "count"});
        m.push_back({"oltp.retries" + mn, double(retries), "count"});
        m.push_back({"oltp.abort_frac" + mn,
              ratio(double(t.abortedTx), double(t.abortedTx) + tx),
              "frac"});
        m.push_back({"mem.l1_miss_rate" + mn,
              ratio(double(t.l1Misses), double(t.l1Hits + t.l1Misses)),
              "frac"});
        m.push_back({"mem.llc_miss_rate" + mn,
              ratio(double(t.l2Misses), double(t.l2Hits + t.l2Misses)),
              "frac"});
        m.push_back({"mem.nvram_write_bytes_per_tx" + mn,
              ratio(double(t.nvramWriteBytes), tx), "B/tx"});
        m.push_back({"mem.nvram_read_bytes_per_tx" + mn,
              ratio(double(t.nvramReadBytes), tx), "B/tx"});
        m.push_back({"mem.wcb_occ_mean" + mn,
              ratio(double(wcbOccSum), double(occSamples)), "entries"});
        m.push_back({"energy.memory_dynamic_pj_per_tx" + mn, ratio(memPj, tx),
              "pJ/tx"});
        m.push_back({"cpu.ipc" + mn, ratio(double(t.instr.total), double(cores)),
              "instr/cycle"});
        m.push_back({"cpu.instructions_per_tx" + mn,
              ratio(double(t.instr.total), tx), "instr/tx"});
        m.push_back({"cpu.clwbs_per_tx" + mn, ratio(double(t.instr.clwbs), tx),
              "clwb/tx"});
        m.push_back({"cpu.fences_per_tx" + mn,
              ratio(double(t.instr.fences), tx), "fence/tx"});
    }
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string spansPath;
    std::string cellsJsonPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "snfbench: %s\nusage: snfbench --workload "
                 "tpcc-logwrap|ycsb-zipf-1m|crash-sweep --seed N "
                 "--seconds S --trace 0|1 [--spans FILE] "
                 "[--cells-json FILE]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(v, &end, 10);
    if (!*v || *end || errno || v[0] == '-')
        usage((std::string(flag) + " needs a non-negative integer")
                  .c_str());
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + f).c_str());
        const char *v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = parseCount("--seed", v);
        else if (f == "--seconds")
            a.seconds = double(parseCount("--seconds", v));
        else if (f == "--trace")
            a.trace = int(parseCount("--trace", v));
        else if (f == "--spans")
            a.spansPath = v;
        else if (f == "--cells-json")
            a.cellsJsonPath = v;
        else
            usage(("unknown flag " + f).c_str());
    }
    if (a.workload != "tpcc-logwrap" && a.workload != "ycsb-zipf-1m" &&
        a.workload != "crash-sweep")
        usage("unknown --workload");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

/** Run order of a pass's cells: a seeded permutation. */
std::vector<std::size_t>
passOrder(std::size_t n, std::uint64_t seed, std::uint64_t pass)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    sim::Rng rng = sim::Rng(seed).split(pass);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

/** Host-side times of one pass over a workload's cell matrix. */
struct PassTimes
{
    double setupSec = 0;
    double opsSec = 0;
    double wallSec = 0;
    double ops = 0;
    /** Self time per span name (traced passes only). */
    std::map<std::string, double> self;
    std::size_t spans = 0;
    /** SweepPerf phases and counters summed over the pass. */
    std::map<std::string, double> sweep;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
};

/**
 * A check that failed: counted, reported, never averaged away. A run's
 * ops are the checks of its warm-up pass, so their number does not
 * depend on how many passes fit in --seconds. A check that fails on a
 * later pass (@p repeat) counts as one more op, failed.
 */
void
failCheck(Outcome &o, const std::string &what, bool repeat = false)
{
    if (repeat)
        ++o.attempted;
    ++o.failed;
    o.correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
}

std::string
cellName(const OltpCell &c)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s/%s/%s/shards=%u/seed=%" PRIu64,
                  c.engine, persistModeName(c.mode), ccModeName(c.cc),
                  c.shards, c.seed);
    return buf;
}

void
printHost()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("host: nproc=%u compiler=\"%s\" build=%s optimized=%s\n",
                std::thread::hardware_concurrency(), __VERSION__,
                SNF_BENCH_BUILD_TYPE, optimized ? "yes" : "no");
    if (!optimized)
        std::printf("WARNING: unoptimized build; host times are not "
                    "comparable\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const bool sweep = args.workload == "crash-sweep";
    printHost();

    std::vector<OltpCell> cells;
    std::vector<SweepCell> sweepCells;
    if (sweep) {
        for (PersistMode mode : kModes)
            for (std::uint32_t shards : kSweepShards) {
                sweepCells.push_back({mode, shards});
                cells.push_back(sweepRunCell(sweepCells.back()));
            }
    } else {
        const char *engine = args.workload == "tpcc-logwrap"
                                 ? "oltp-tpcc"
                                 : "oltp-ycsb";
        for (PersistMode mode : kModes)
            for (CcMode cc : kCcs)
                cells.push_back({engine, mode, cc, 1, kOltpSeed});
    }
    Outcome outcome;
    Tracer tracer;
    std::vector<CellRun> ref(cells.size());
    std::vector<crashlab::SweepResult> sweepRef(sweepCells.size());
    std::vector<PassTimes> untraced, traced;
    std::uint64_t nextCellId = 0;

    // crash-sweep: one plain run of each swept configuration gives the
    // simulated metrics and must match the sweep's reference run.
    if (sweep)
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ref[i] = runOltpCell(cells[i], nullptr, nextCellId++);
            ++outcome.attempted;
            if (!ref[i].verified)
                failCheck(outcome, cellName(cells[i]) +
                                       " verify: " + ref[i].why);
        }

    const Clock::time_point start = Clock::now();
    for (std::uint64_t pass = 0;; ++pass) {
        const bool warm = pass > 0;
        if (pass >= 3 &&
            secondsBetween(start, Clock::now()) >= args.seconds)
            break;
        // Trace mode alternates untraced (odd) and traced (even) passes.
        const bool tracedPass = args.trace == 1 && warm && pass % 2 == 0;
        Tracer *tr = tracedPass ? &tracer : nullptr;
        const std::size_t spanBegin = tracer.size();
        PassTimes pt;
        for (std::size_t i : passOrder(cells.size(), args.seed, pass)) {
            const std::uint64_t id = nextCellId++;
            if (sweep) {
                const SweepCell &c = sweepCells[i];
                const std::uint64_t sampleSeed =
                    sim::Rng(kSweepSampleSeed).split(i).next();
                SweepRun sr = runSweepCell(c, sampleSeed, tr, id);
                const crashlab::SweepResult &r = sr.res;
                const double setup = sweepSetupSec(r);
                pt.setupSec += setup;
                pt.opsSec += sr.wallSec - setup;
                pt.wallSec += sr.wallSec;
                pt.ops += double(r.pointsTested);
                pt.sweep["crashlab.ref_run_s"] += r.perf.refRunSec;
                pt.sweep["crashlab.harvest_s"] += r.perf.harvestSec;
                pt.sweep["crashlab.index_s"] += r.perf.indexSec;
                pt.sweep["crashlab.snapshot_s"] += r.perf.snapshotSec;
                pt.sweep["crashlab.check_s"] += r.perf.checkSec;
                pt.sweep["persist.recover_s"] += r.perf.recoverSec;
                pt.sweep["crashlab.entries_replayed"] +=
                    double(r.perf.entriesReplayed);
                pt.sweep["crashlab.pages_cloned"] +=
                    double(r.perf.pagesCloned);

                // Each crash point and each reference verify is a
                // check. Violations are failed ops; on shards=1 they
                // also make the run incorrect (see NOTES.md). Later
                // passes re-test the same points: they count only if
                // their outcome differs (sweepKey below).
                if (!warm) {
                    outcome.attempted += r.pointsTested + 1;
                    outcome.failed += r.pointsFailed;
                }
                const std::string name =
                    std::string(persistModeName(c.mode)) +
                    "/shards=" + std::to_string(c.shards);
                if (!r.refVerified)
                    failCheck(outcome,
                              name + " reference verify: " +
                                  r.refVerifyMessage,
                              warm);
                if (c.shards == 1 && r.pointsFailed != 0) {
                    outcome.correct = false;
                    std::printf("CHECK FAILED: %s: %zu violating crash "
                                "points on the unsharded log\n",
                                name.c_str(), r.pointsFailed);
                }
                if (!warm) {
                    sweepRef[i] = std::move(sr.res);
                    const crashlab::SweepResult &s = sweepRef[i];
                    if (s.endTick != ref[i].stats.cycles ||
                        s.refCommittedTx != ref[i].stats.committedTx)
                        failCheck(outcome,
                                  name + ": sweep reference run differs "
                                         "from the plain run");
                } else if (sweepKey(r) != sweepKey(sweepRef[i])) {
                    failCheck(outcome,
                              name + ": sweep not deterministic across "
                                     "repeats",
                              true);
                }
                continue;
            }

            CellRun cr = runOltpCell(cells[i], tr, id);
            pt.setupSec += cr.setupSec;
            pt.opsSec += cr.opsSec;
            pt.wallSec += cr.wallSec;
            pt.ops += double(cr.stats.committedTx);
            if (!warm)
                ++outcome.attempted;
            if (!cr.verified)
                failCheck(outcome,
                          cellName(cells[i]) + " verify: " + cr.why, warm);
            // Zipf tables as each cell's threads build them: under CC
            // every thread samples the whole keyspace.
            if (tracedPass &&
                std::strcmp(cells[i].engine, "oltp-ycsb") == 0) {
                Tracer::Scope s(tr, "sim.Zipf", id);
                std::uint64_t draws = 0; // uses each table once
                for (std::uint32_t t = 0; t < kThreads; ++t) {
                    sim::Zipf z(kKeys, kTheta);
                    sim::Rng rng(t);
                    draws += z.sample(rng);
                }
                if (draws >= kKeys * kThreads)
                    fatal("sim::Zipf sampled outside its keyspace");
            }
            if (!warm) {
                ref[i] = std::move(cr);
            } else if (!sameCounters(cr, ref[i])) {
                failCheck(outcome,
                          cellName(cells[i]) +
                              ": counters not deterministic across "
                              "repeats",
                          true);
            }
        }
        if (!warm)
            continue;
        if (tracedPass) {
            pt.self = tracer.selfTimes(spanBegin, tracer.size());
            pt.spans = tracer.size() - spanBegin;
            traced.push_back(std::move(pt));
        } else {
            untraced.push_back(std::move(pt));
        }
    }
    const double runSec = secondsBetween(start, Clock::now());

    auto med = [](const std::vector<PassTimes> &v, auto get) {
        std::vector<double> xs;
        for (const PassTimes &p : v)
            xs.push_back(get(p));
        return median(xs);
    };
    // Host speed on a shared machine drifts in phases lasting seconds
    // and only ever slows a pass down. The fastest pass (best-of-N)
    // repeats across runs about twice as closely as the median pass,
    // so the run-time metrics report it (NOTES.md, "Noise").
    auto best = [](const std::vector<PassTimes> &v, auto get) {
        double b = v.empty() ? 0.0 : get(v.front());
        for (const PassTimes &p : v)
            b = std::min(b, get(p));
        return b;
    };

    Metrics m;
    if (args.trace == 0) {
        m.push_back({"setup_s", med(untraced, [](auto &p) { return p.setupSec; }),
              "s"});
        m.push_back({"wall_s", best(untraced, [](auto &p) { return p.wallSec; }),
              "s"});
        m.push_back({"ops_per_s",
              ratio(1.0, best(untraced, [](auto &p) {
                        return ratio(p.opsSec, p.ops);
                    })),
              "1/s"});
        m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        addSimulatedMetrics(m, ref, cells);
    } else {
        auto self = [&](const char *span) {
            return med(traced, [&](const PassTimes &p) {
                auto it = p.self.find(span);
                return it == p.self.end() ? 0.0 : it->second;
            });
        };
        auto sweepMedian = [&](const char *key) {
            return med(traced, [&](const PassTimes &p) {
                auto it = p.sweep.find(key);
                return it == p.sweep.end() ? 0.0 : it->second;
            });
        };
        m.push_back({"bench.cell.self_s", self("bench.cell"), "s"});
        m.push_back({"core.System_s", self("core.System"), "s"});
        m.push_back({"workloads.setup_s", self("workloads.setup"), "s"});
        m.push_back({"core.run_s", self("core.run"), "s"});
        m.push_back({"core.flushAll_s", self("core.flushAll"), "s"});
        m.push_back({"workloads.verify_s", self("workloads.verify"), "s"});
        m.push_back({"sim.zipf_build_s", self("sim.Zipf"), "s"});
        m.push_back({"crashlab.runCrashSweep_s", self("crashlab.runCrashSweep"),
              "s"});
        std::uint64_t simCycles = 0, evSched = 0, evExec = 0;
        for (const CellRun &r : ref) {
            simCycles += r.stats.cycles;
            evSched += r.stats.eventsScheduled;
            evExec += r.stats.eventsExecuted;
        }
        m.push_back({"core.sim_cycles_per_s",
              ratio(double(simCycles), self("core.run")), "cycles/s"});
        m.push_back({"sim.events_scheduled", double(evSched), "count"});
        m.push_back({"sim.events_executed", double(evExec), "count"});
        for (const char *k :
             {"crashlab.ref_run_s", "crashlab.harvest_s",
              "crashlab.index_s", "crashlab.snapshot_s",
              "crashlab.check_s", "persist.recover_s"})
            m.push_back({k, sweepMedian(k), "s"});
        std::uint64_t tested = 0, checkpoints = 0, viol1 = 0, viol4 = 0;
        std::uint64_t valid = 0, salvaged = 0, quarantined = 0;
        for (std::size_t i = 0; i < sweepRef.size(); ++i) {
            const crashlab::SweepResult &r = sweepRef[i];
            tested += r.pointsTested;
            checkpoints += r.perf.checkpointsBuilt;
            (sweepCells[i].shards == 1 ? viol1 : viol4) += r.pointsFailed;
            for (const auto &t : r.shardTotals) {
                valid += t.validRecords;
                salvaged += t.salvagedTxns;
                quarantined += t.quarantinedTxns;
            }
        }
        m.push_back({"crashlab.points_tested", double(tested), "count"});
        m.push_back({"crashlab.entries_replayed",
              sweepMedian("crashlab.entries_replayed"), "count"});
        m.push_back({"crashlab.pages_cloned", sweepMedian("crashlab.pages_cloned"),
              "count"});
        m.push_back({"crashlab.checkpoints_built", double(checkpoints), "count"});
        m.push_back({"crashlab.violations", double(viol1 + viol4), "count"});
        m.push_back({"crashlab.violations_shards1", double(viol1), "count"});
        m.push_back({"crashlab.violations_shards4", double(viol4), "count"});
        m.push_back({"persist.shard_valid_records", double(valid), "count"});
        m.push_back({"persist.shard_salvaged", double(salvaged), "count"});
        m.push_back({"persist.shard_quarantined", double(quarantined), "count"});
        addModeLayerMetrics(m, ref, cells);
        // Same cell bodies with and without spans: compare cell time.
        const double tracedWall =
            best(traced, [](auto &p) { return p.wallSec; });
        const double plainWall =
            best(untraced, [](auto &p) { return p.wallSec; });
        m.push_back({"trace.overhead_frac", ratio(tracedWall, plainWall) - 1.0,
              "frac"});
        m.push_back({"trace.spans_per_pass",
              med(traced, [](auto &p) { return double(p.spans); }),
              "count"});
    }

    if (!args.spansPath.empty() && args.trace == 1) {
        std::ofstream f(args.spansPath);
        if (!f)
            fatal("cannot write '%s'", args.spansPath.c_str());
        tracer.write(f);
    }
    if (!args.cellsJsonPath.empty() && !sweep) {
        oltp::OltpMatrixConfig cfg;
        cfg.threads = kThreads;
        cfg.txPerThread = kTxPerThread;
        cfg.seed = kOltpSeed;
        cfg.warehouses = kWarehouses;
        cfg.customers = kCustomers;
        cfg.keys = kKeys;
        cfg.zipfTheta = kTheta;
        std::vector<oltp::OltpCellResult> results;
        for (const CellRun &r : ref)
            results.push_back(r.res);
        std::ofstream f(args.cellsJsonPath);
        if (!f)
            fatal("cannot write '%s'", args.cellsJsonPath.c_str());
        f << oltp::oltpBenchJson(cfg, results);
    }

    for (std::size_t i = 0; i < sweepRef.size(); ++i) {
        const crashlab::SweepResult &s = sweepRef[i];
        std::printf("sweep %s/shards=%u: harvested %zu, tested %zu, "
                    "violating %zu, log wraps %" PRIu64 "\n",
                    persistModeName(sweepCells[i].mode),
                    sweepCells[i].shards, s.pointsHarvested,
                    s.pointsTested, s.pointsFailed, s.refLogWraps);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellRun &r = ref[i];
        std::printf("cell %s: cycles %" PRIu64 ", committed %" PRIu64
                    ", tx/Mcyc %.3f, p99 %" PRIu64 ", verified %s\n",
                    cellName(cells[i]).c_str(), r.stats.cycles,
                    r.stats.committedTx, r.stats.txPerMcycle,
                    r.latency.p99(), r.verified ? "yes" : "no");
    }
    std::printf("passes: %zu untraced + %zu traced (+1 warm-up) in "
                "%.3f s; failed %" PRIu64 "/%" PRIu64 " checks\n",
                untraced.size(), traced.size(), runSec, outcome.failed,
                outcome.attempted);

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                outcome.correct ? "true" : "false", outcome.attempted,
                outcome.failed);
    bool first = true;
    for (const Metric &x : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", x.name.c_str(), x.value,
                    x.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}
