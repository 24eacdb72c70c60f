/**
 * @file
 * snfsim — command-line front end to the simulator: run any bundled
 * workload under any persistence mode and print the full statistics,
 * optionally crashing mid-run and recovering.
 *
 * `snfsim --help` lists the flags; the table that prints it is the
 * one that parses them (core/flag_table.hh).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/flag_table.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::workloads;

namespace
{

/**
 * Perf-bench mode: run the reference workload×mode matrix and write a
 * snf-bench-sim-v1 report. The counters block must repeat exactly
 * (the simulator is deterministic); wall-clock rates live in a
 * separate "perf" block so CI strips them before diffing.
 */
int
runBenchMatrix(const RunSpec &base, bool paper, std::uint64_t repeats,
               const std::string &path)
{
    static const char *kWorkloads[] = {"sps", "hash", "btree", "ycsb",
                                       "tpcc"};
    static const PersistMode kModes[] = {
        PersistMode::Fwb, PersistMode::UndoClwb, PersistMode::RedoClwb,
        PersistMode::NonPers};

    std::ostringstream out;
    JsonWriter w(out);
    w.object();
    w.field("schema", "snf-bench-sim-v1");
    w.field("tool", "snfsim");
    w.field("threads", base.params.threads);
    w.field("tx_per_thread", base.params.txPerThread);
    w.field("seed", base.params.seed);
    w.array("cells");
    for (const char *wl : kWorkloads) {
        for (PersistMode m : kModes) {
            RunSpec spec = base;
            spec.workload = wl;
            spec.mode = m;
            // Journal NVRAM writes like a crash sweep would, so the
            // journal-entries counter is live and gateable.
            spec.sys = paper
                           ? SystemConfig::paper(spec.params.threads)
                           : SystemConfig::scaled(spec.params.threads);
            spec.sys.persist.distributedLogs =
                base.sys.persist.distributedLogs;
            spec.sys.persist.logFullPolicy =
                base.sys.persist.logFullPolicy;
            spec.sys.persist.logShards = base.sys.persist.logShards;
            spec.sys.persist.crashJournal = true;

            RunStats s;
            bool verified = false;
            double bestSec = 0.0;
            for (std::uint64_t r = 0; r < repeats; ++r) {
                auto t0 = std::chrono::steady_clock::now();
                auto o = runWorkload(spec);
                auto t1 = std::chrono::steady_clock::now();
                double sec =
                    std::chrono::duration<double>(t1 - t0).count();
                if (r == 0) {
                    s = o.stats;
                    verified = o.verified;
                    bestSec = sec;
                } else {
                    bestSec = std::min(bestSec, sec);
                    if (o.stats.cycles != s.cycles ||
                        o.stats.eventsScheduled != s.eventsScheduled ||
                        o.stats.eventsExecuted != s.eventsExecuted ||
                        o.stats.journalEntries != s.journalEntries)
                        fatal("bench cell %s/%s not deterministic "
                              "across repeats",
                              wl, persistModeName(m));
                }
            }
            if (!verified)
                fatal("bench cell %s/%s failed verification", wl,
                      persistModeName(m));

            w.object();
            w.field("workload", wl);
            w.field("mode", persistModeName(m));
            w.object("counters");
            w.field("cycles", s.cycles);
            w.field("committed_tx", s.committedTx);
            w.field("instructions", s.instr.total);
            w.field("events_scheduled", s.eventsScheduled);
            w.field("events_executed", s.eventsExecuted);
            w.field("journal_entries", s.journalEntries);
            w.end();
            w.object("perf");
            w.field("wall_sec", bestSec);
            w.field("sim_tx_per_sec",
                    bestSec > 0.0
                        ? static_cast<double>(s.committedTx) / bestSec
                        : 0.0);
            w.field("events_per_sec",
                    bestSec > 0.0
                        ? static_cast<double>(s.eventsExecuted) / bestSec
                        : 0.0);
            w.end();
            w.end();
        }
    }
    w.end();
    w.end();
    writeOutput(path, [&](std::ostream &os) { os << out.str(); });
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    spec.workload = "sps";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 2;
    spec.params.txPerThread = 1000;
    bool dump = false;
    bool paper = false;
    std::uint32_t threads = 2;
    std::optional<Tick> crash_at;
    bool distributed = false;
    FaultModelConfig faults;
    faults.seed = 1;
    LogFullPolicy logFull = LogFullPolicy::Reclaim;
    std::uint32_t logShards = 1;
    bool scrub = false;
    std::string benchJsonPath;
    std::uint64_t benchRepeats = 1;

    FlagTable flags("snfsim");
    flags.text("--workload", "NAME", &spec.workload,
               "workload (default sps; see --list)")
        .choice("--mode", &spec.mode, kAllModes, persistModeName,
                "persistence mode (default fwb)", "unknown mode '%s'")
        .count("--threads", &threads, "workload threads (default 2)",
               CountRange::Positive)
        .count("--tx", &spec.params.txPerThread,
               "transactions per thread (default 1000)",
               CountRange::Positive)
        // Positive: every workload reads a footprint of 0 as "use
        // the built-in default", which would hide a typo.
        .count("--footprint", &spec.params.footprint,
               "elements in the initial structure", CountRange::Positive)
        .count("--warehouses", &spec.params.warehouses,
               "oltp-tpcc warehouse count", CountRange::Positive)
        .real("--zipf-theta", "X", &spec.params.zipfTheta,
              "oltp-ycsb Zipf skew", RealRange::OpenUnit)
        .count("--seed", &spec.params.seed, "workload RNG seed")
        .option("--strings", &spec.params.stringValues,
                "string (multi-word) values")
        .option("--distributed-log", &distributed,
                "per-thread log partitions")
        .option("--paper", &paper, "paper-sized caches (default: scaled)")
        .value("--crash-at", "TICK", "crash, recover and verify",
               [&](const char *v) {
                   Tick t = 0;
                   std::string err = FlagTable::parseCount(
                       "--crash-at", v, CountRange::Any, kTickNever, &t);
                   if (err.empty())
                       crash_at = t;
                   return err;
               })
        .choice("--log-full", &logFull, kAllLogFullPolicies,
                logFullPolicyName, "log-full policy (default reclaim)",
                "unknown log-full policy '%s'")
        .count("--log-shards", &logShards,
               "log shards, cross-shard commit (default 1)",
               CountRange::Shards);
    // The live-fault flag family shares its ordering rules (and the
    // contradiction diagnostics) with snfcrash/snfsoak.
    static const FaultFlagSet::Rate<FaultModelConfig> kRates[] = {
        {"--fault-bitflip", &FaultModelConfig::bitFlipProb,
         "live NVRAM fault: single-bit flip, per line written"},
        {"--fault-multibit", &FaultModelConfig::multiBitProb,
         "live NVRAM fault: double-bit flip, per line written"},
        {"--fault-drop", &FaultModelConfig::dropWriteProb,
         "live NVRAM fault: dropped write, per line written"},
        {"--fault-torn", &FaultModelConfig::tornLineProb,
         "live NVRAM fault: torn line, per line written"},
        {"--fault-stuck", &FaultModelConfig::stuckRowProb,
         "live NVRAM fault: stuck row, per line written"}};
    FaultFlagSet faultFlags(flags, faults, kRates);
    flags
        .option("--scrub", &scrub, "bad-line remapping + log scrubber")
        .option("--dump-stats", &dump, "dump every component counter")
        .option("--list", "list workloads and exit",
                [] {
                    for (const auto &w : allWorkloadNames())
                        std::printf("%s\n", w.c_str());
                    std::exit(0);
                })
        .text("--bench-json", "FILE", &benchJsonPath,
              "bench the reference matrix (\"-\" = stdout)")
        .count("--bench-repeats", &benchRepeats,
               "repeats per bench cell (default 1)",
               CountRange::Positive);
    flags.parse(argc, argv);

    if (threads > 64)
        fatal("bad thread count");
    spec.params.threads = threads;
    spec.sys = paper ? SystemConfig::paper(threads)
                     : SystemConfig::scaled(threads);
    spec.sys.persist.distributedLogs = distributed;
    spec.sys.persist.logFullPolicy = logFull;
    spec.sys.persist.logShards = logShards;
    spec.sys.nvram.faults = faults;
    if (scrub) {
        spec.sys.persist.scrub = true;
        if (spec.sys.map.remapSize == 0) {
            spec.sys.map.remapSize = 16 * 1024;
            spec.sys.map.spareSize = 32 * 1024;
        }
    }
    if (crash_at) {
        spec.sys.persist.crashJournal = true;
        spec.crashAt = crash_at;
    }

    if (!benchJsonPath.empty())
        return runBenchMatrix(spec, paper, benchRepeats,
                              benchJsonPath);

    auto o = runWorkload(spec);
    const RunStats &s = o.stats;
    std::printf("workload=%s mode=%s threads=%u tx/thread=%" PRIu64
                "%s\n",
                spec.workload.c_str(), persistModeName(spec.mode),
                spec.params.threads, spec.params.txPerThread,
                o.crashed ? " (CRASHED + RECOVERED)" : "");
    std::printf("  cycles          %" PRIu64 "\n", s.cycles);
    std::printf("  committed tx    %" PRIu64 "  (%.1f tx/Mcycle)\n",
                s.committedTx, s.txPerMcycle);
    if (s.abortedTx != 0)
        std::printf("  aborted tx      %" PRIu64 "\n", s.abortedTx);
    std::printf("  instructions    %" PRIu64 "  (ipc/core %.3f)\n",
                s.instr.total, s.ipc);
    std::printf("    loads=%" PRIu64 " stores=%" PRIu64
                " log-stores=%" PRIu64 " log-loads=%" PRIu64
                " clwb=%" PRIu64 " fences=%" PRIu64 "\n",
                s.instr.loads, s.instr.stores, s.instr.logStores,
                s.instr.logLoads, s.instr.clwbs, s.instr.fences);
    std::printf("  NVRAM           %" PRIu64 " reads / %" PRIu64
                " writes (%" PRIu64 " / %" PRIu64 " bytes)\n",
                s.nvramReads, s.nvramWrites, s.nvramReadBytes,
                s.nvramWriteBytes);
    std::printf("  log             %" PRIu64 " records, %" PRIu64
                " wraps, %" PRIu64 " buffer stalls\n",
                s.logRecords, s.logWraps, s.logBufferStalls);
    std::printf("  fwb             %" PRIu64 " scans, %" PRIu64
                " forced write-backs\n",
                s.fwbScans, s.fwbWritebacks);
    if (s.logFullStalls != 0 || s.forcedWritebacks != 0 ||
        s.logFullEscalations != 0)
        std::printf("  log-full        %" PRIu64 " stalls, %" PRIu64
                    " forced write-backs, %" PRIu64
                    " abort escalations (%s)\n",
                    s.logFullStalls, s.forcedWritebacks,
                    s.logFullEscalations, logFullPolicyName(logFull));
    if (s.faultsInjected != 0)
        std::printf("  media faults    %" PRIu64 " injected (seed %" PRIu64
                    ")\n",
                    s.faultsInjected, faults.seed);
    if (scrub) {
        std::uint64_t traffic = s.nvramReadBytes + s.nvramWriteBytes;
        double overhead =
            traffic == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(s.scrubReadBytes +
                                          s.scrubWriteBytes) /
                      static_cast<double>(traffic);
        std::printf("  scrub           %" PRIu64 " slots scanned, %" PRIu64
                    " repaired, %" PRIu64 " lines promoted\n",
                    s.scrubSlotsScanned, s.scrubRepairs,
                    s.scrubPromotions);
        std::printf("  scrub traffic   %" PRIu64 " read / %" PRIu64
                    " written bytes (%.2f%% of NVRAM traffic), %" PRIu64
                    " lines remapped\n",
                    s.scrubReadBytes, s.scrubWriteBytes, overhead,
                    s.remappedLines);
    }
    std::printf("  invariants      %" PRIu64 " order violations, %" PRIu64
                " overwrite hazards\n",
                s.orderViolations, s.overwriteHazards);
    std::printf("  energy          %.1f nJ memory dynamic, %.1f nJ "
                "processor dynamic\n",
                s.energy.memoryDynamicPj() / 1e3,
                s.energy.processorDynamicPj() / 1e3);
    const persist::RecoveryReport &r = o.recovery;
    if (o.crashed) {
        std::printf("  recovery        %" PRIu64 " records, %" PRIu64
                    " redone, %" PRIu64 " rolled back\n",
                    r.validRecords, r.committedTxns, r.uncommittedTxns);
        if (r.damagedSlots() != 0 || r.quarantinedTxns != 0)
            std::printf("  salvage         %" PRIu64 " salvaged, %" PRIu64
                        " quarantined; %" PRIu64 " torn / %" PRIu64
                        " crc-fail / %" PRIu64 " stale slots\n",
                        r.salvagedTxns, r.quarantinedTxns, r.tornSlots,
                        r.crcFailSlots, r.stalePassSlots);
    }
    std::printf("  verified        %s%s%s\n",
                o.verified ? "yes" : "NO",
                o.verifyMessage.empty() ? "" : " - ",
                o.verifyMessage.c_str());

    if (dump) {
        // Re-run the same spec with a live System so every component
        // counter can be dumped (the driver tears its System down).
        System sys(spec.sys, spec.mode);
        auto wl = makeWorkload(spec.workload);
        wl->setup(sys, spec.params);
        for (CoreId c = 0; c < spec.params.threads; ++c) {
            sys.spawn(c, [&](Thread &t) {
                return wl->thread(sys, t, spec.params);
            });
        }
        sys.run(spec.crashAt ? *spec.crashAt : kTickNever);
        std::printf("\n(component statistics)\n");
        sys.dumpStats(std::cout);
    }
    return o.verified ? 0 : 1;
}
