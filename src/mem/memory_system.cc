#include "mem/memory_system.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace snf::mem
{

MemorySystem::MemorySystem(const SystemConfig &config)
    : cfg(config),
      statGroup("mem"),
      l2("l2", config.l2),
      nvramDev("nvram", config.nvram, config.map.nvramBase,
               config.map.nvramSize, RemapTable::forMap(config.map)),
      dramDev("dram", config.dram, config.map.dramBase,
              config.map.dramSize),
      wcbuf(nvramDev, config.persist.wcbEntries, config.l1.lineBytes),
      coherenceInvalidations(statGroup.counter("coherence_invals")),
      cacheToCacheTransfers(statGroup.counter("cache_to_cache"))
{
    cfg.validate();
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<Cache>(strfmt("l1.%u", c),
                                              cfg.l1));
        statGroup.addChild(&l1s.back()->stats());
    }
    statGroup.addChild(&l2.stats());
    statGroup.addChild(&nvramDev.stats());
    statGroup.addChild(&dramDev.stats());
    statGroup.addChild(&wcbuf.stats());
    statGroup.addChild(&busMonitor.stats());
    if (cfg.persist.crashJournal) {
        nvramDev.store().setCheckpointInterval(
            cfg.persist.snapshotCheckpointK);
        nvramDev.store().enableJournal();
    }
}

MemDevice &
MemorySystem::deviceFor(Addr addr)
{
    if (cfg.map.isNvram(addr))
        return nvramDev;
    SNF_ASSERT(cfg.map.isDram(addr), "address %llx unmapped",
               static_cast<unsigned long long>(addr));
    return dramDev;
}

std::uint64_t &
MemorySystem::sharersOf(Addr lineAddr)
{
    return directory[lineAddr];
}

void
MemorySystem::clearSharer(Addr lineAddr, CoreId core)
{
    std::uint64_t *sharers = directory.find(lineAddr);
    if (!sharers)
        return;
    *sharers &= ~(1ULL << core);
    if (*sharers == 0)
        directory.erase(lineAddr);
}

void
MemorySystem::evictL2Line(CacheLine *slot, Tick now)
{
    Addr line = slot->lineAddr;
    // Inclusive hierarchy: recall every L1 copy first.
    if (const std::uint64_t *sharers = directory.find(line)) {
        const std::uint64_t mask = *sharers;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            if (!(mask & (1ULL << c)))
                continue;
            CacheLine *l1line = l1s[c]->find(line);
            if (l1line) {
                if (l1line->dirty()) {
                    slot->data = l1line->data;
                    l2.markDirty(slot);
                }
                l1s[c]->invalidate(l1line);
                coherenceInvalidations.inc();
            }
        }
        directory.erase(line);
    }
    l2.evictions.inc();
    if (slot->dirty()) {
        MemDevice &dev = deviceFor(line);
        Tick preBarrier = now;
        now = barrierFor(line, now);
        auto res = dev.access(true, line, l2.lineBytes(),
                              slot->data.data(), nullptr, now, false,
                              PersistOrigin::Data,
                              wbIssueHint(preBarrier));
        l2.writebacks.inc();
        if (cfg.map.isNvram(line))
            busMonitor.onDataWriteback(line, now, res.done);
    }
    l2.invalidate(slot);
}

MemorySystem::FillResult
MemorySystem::fillL2(Addr lineAddr, Tick now)
{
    Tick start = std::max(now, l2.busyUntil);
    if (CacheLine *l = l2.find(lineAddr)) {
        ++l2.pendingHits;
        l2.touch(l);
        return FillResult{l, start + l2.latency(), true};
    }
    ++l2.pendingMisses;
    CacheLine *slot = l2.victimFor(lineAddr);
    if (slot->valid)
        evictL2Line(slot, start);
    MemDevice &dev = deviceFor(lineAddr);
    auto res = dev.access(false, lineAddr, l2.lineBytes(), nullptr,
                          slot->data.data(), start + l2.latency());
    l2.install(slot, lineAddr);
    return FillResult{slot, res.done, false};
}

void
MemorySystem::writebackL1ToL2(CoreId core, CacheLine *line)
{
    CacheLine *l2line = l2.find(line->lineAddr);
    SNF_ASSERT(l2line != nullptr,
               "inclusivity violated: L1.%u line %llx missing in L2",
               core, static_cast<unsigned long long>(line->lineAddr));
    l2line->data = line->data;
    l2.markDirty(l2line);
    l2.touch(l2line);
    l1s[core]->writebacks.inc();
}

void
MemorySystem::evictL1Line(CoreId core, CacheLine *victim)
{
    if (victim->dirty())
        writebackL1ToL2(core, victim);
    clearSharer(victim->lineAddr, core);
    l1s[core]->evictions.inc();
    l1s[core]->invalidate(victim);
}

MemorySystem::FillResult
MemorySystem::ensureInL1(CoreId core, Addr lineAddr, Tick now,
                         bool for_store, HitLevel &level)
{
    Cache &l1 = *l1s[core];
    Tick start = std::max(now, l1.busyUntil);

    if (CacheLine *line = l1.find(lineAddr)) {
        ++l1.pendingHits;
        l1.touch(line);
        Tick done = start + l1.latency();
        if (for_store) {
            // Invalidate other (clean) sharers for exclusivity.
            std::uint64_t *sharers = directory.find(lineAddr);
            if (sharers && (*sharers & ~(1ULL << core)) != 0) {
                std::uint64_t mask = *sharers & ~(1ULL << core);
                for (CoreId c = 0; c < cfg.numCores; ++c) {
                    if (!(mask & (1ULL << c)))
                        continue;
                    CacheLine *other = l1s[c]->find(lineAddr);
                    if (other) {
                        SNF_ASSERT(!other->dirty(),
                                   "two dirty copies of line %llx",
                                   static_cast<unsigned long long>(
                                       lineAddr));
                        l1s[c]->invalidate(other);
                    }
                    coherenceInvalidations.inc();
                }
                *sharers = 1ULL << core;
                done += l1.latency();
            }
        }
        level = HitLevel::L1;
        return FillResult{line, done, true};
    }

    ++l1.pendingMisses;
    FillResult l2res = fillL2(lineAddr, start + l1.latency());
    Tick done = l2res.done;
    level = l2res.hit ? HitLevel::L2 : HitLevel::Memory;

    // If another L1 holds a dirty copy, pull it into L2 first
    // (cache-to-cache transfer).
    if (std::uint64_t *sharers = directory.find(lineAddr)) {
        std::uint64_t mask = *sharers;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            if (!(mask & (1ULL << c)) || c == core)
                continue;
            CacheLine *other = l1s[c]->find(lineAddr);
            if (!other)
                continue;
            if (other->dirty()) {
                l2res.line->data = other->data;
                l2.markDirty(l2res.line);
                l1s[c]->markClean(other);
                cacheToCacheTransfers.inc();
                done += l1.latency();
            }
            if (for_store) {
                l1s[c]->invalidate(other);
                coherenceInvalidations.inc();
            }
        }
        if (for_store)
            *sharers = 0;
    }

    CacheLine *victim = l1.victimFor(lineAddr);
    if (victim->valid)
        evictL1Line(core, victim);
    l1.install(victim, lineAddr);
    victim->data = l2res.line->data;
    sharersOf(lineAddr) |= 1ULL << core;

    return FillResult{victim, done + l1.latency(), false};
}

AccessResult
MemorySystem::load(CoreId core, Addr addr, std::uint32_t size, void *out,
                   Tick now)
{
    SNF_ASSERT(size > 0 && size <= 8, "load size %u", size);
    Addr line = lineOf(addr);
    SNF_ASSERT(lineOf(addr + size - 1) == line, "load crosses line");
    HitLevel level = HitLevel::L1;
    FillResult r = ensureInL1(core, line, now, false, level);
    std::memcpy(out, r.line->data.data() + (addr - line), size);
    return AccessResult{r.done, level};
}

AccessResult
MemorySystem::store(CoreId core, Addr addr, std::uint32_t size,
                    const void *in, Tick now, const StoreCtx &ctx)
{
    SNF_ASSERT(size > 0 && size <= 8, "store size %u", size);
    Addr line = lineOf(addr);
    SNF_ASSERT(lineOf(addr + size - 1) == line, "store crosses line");
    HitLevel level = HitLevel::L1;
    FillResult r = ensureInL1(core, line, now, true, level);

    std::uint8_t *p = r.line->data.data() + (addr - line);
    std::uint64_t old_val = 0;
    std::uint64_t new_val = 0;
    std::memcpy(&old_val, p, size);
    std::memcpy(&new_val, in, size);

    std::memcpy(p, in, size);
    l1s[core]->markDirty(r.line);
    l1s[core]->touch(r.line);

    Tick done = r.done;
    if (ctx.persistent && hook && cfg.map.isNvram(addr)) {
        Tick hd = hook->onPersistentStore(core, ctx.txSeq, addr, size,
                                          old_val, new_val, r.done);
        done = std::max(done, hd);
    }
    return AccessResult{done, level};
}

Tick
MemorySystem::uncacheableWrite(Addr addr, std::uint32_t size,
                               const void *in, Tick now)
{
    return wcbuf.append(addr, size, in, now);
}

Tick
MemorySystem::drainWcb(Tick now)
{
    return wcbuf.drainAll(now);
}

Tick
MemorySystem::clwb(CoreId core, Addr addr, Tick now)
{
    Addr line = lineOf(addr);
    Tick t = std::max(now, l1s[core]->busyUntil);

    // Step 1: any dirty L1 copy is written through to L2.
    if (const std::uint64_t *sharers = directory.find(line)) {
        const std::uint64_t mask = *sharers;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            if (!(mask & (1ULL << c)))
                continue;
            CacheLine *l1line = l1s[c]->find(line);
            if (l1line && l1line->dirty()) {
                writebackL1ToL2(c, l1line);
                l1s[c]->markClean(l1line);
                t += l1s[c]->latency();
            }
        }
    }

    // Step 2: a dirty L2 copy is written back to its device.
    CacheLine *l2line = l2.find(line);
    if (l2line && l2line->dirty()) {
        Tick start = std::max(t, l2.busyUntil) + l2.latency();
        Tick preBarrier = start;
        start = barrierFor(line, start);
        MemDevice &dev = deviceFor(line);
        auto res = dev.access(true, line, l2.lineBytes(),
                              l2line->data.data(), nullptr, start,
                              false, PersistOrigin::Data,
                              wbIssueHint(preBarrier));
        l2.markClean(l2line);
        l2.writebacks.inc();
        if (cfg.map.isNvram(line))
            busMonitor.onDataWriteback(line, start, res.done);
        return res.done;
    }
    return t + l2.latency();
}

FwbScanResult
MemorySystem::fwbScanAll(Tick now, double costPerLine)
{
    FwbScanResult out;

    // Forced write-backs are background traffic: the memory
    // controller trickles them out instead of bursting them all at
    // the scan instant, so demand accesses are not starved.
    const Tick wb_spacing =
        (cfg.nvram.writeConflictLat + cfg.nvram.burstCycles) /
            cfg.nvram.banks +
        1;
    Tick wb_issue = now;

    // fwb => dirty, so a clean or invalid line is IDLE and the walk
    // visits only dirty lines, in the slot order of a full tag walk.
    auto scan_cache = [&](Cache &cache, bool is_l1, CoreId core) {
        cache.forEachDirtyLine([&](CacheLine &line) {
            if (!cfg.map.isNvram(line.lineAddr))
                return;
            if (!line.fwb()) {
                // FLAG state: mark for write-back on the next pass.
                cache.flagFwb(&line);
                ++out.linesFlagged;
                return;
            }
            // {fwb,dirty} == {1,1}: force the write-back.
            if (is_l1) {
                writebackL1ToL2(core, &line);
                cache.markClean(&line);
            } else {
                MemDevice &dev = deviceFor(line.lineAddr);
                wb_issue += wb_spacing;
                Tick start = std::max(
                    wb_issue, barrierFor(line.lineAddr, now));
                auto res =
                    dev.access(true, line.lineAddr, cache.lineBytes(),
                               line.data.data(), nullptr, start,
                               false, PersistOrigin::Data,
                               wbIssueHint(wb_issue));
                cache.markClean(&line);
                cache.writebacks.inc();
                busMonitor.onDataWriteback(line.lineAddr, start,
                                           res.done);
                out.lastWritebackDone =
                    std::max(out.lastWritebackDone, res.done);
            }
            ++out.linesWrittenBack;
        });
        // The hardware walks the whole tag array: every line costs.
        Tick busy = static_cast<Tick>(
            static_cast<double>(cache.numLines()) * costPerLine);
        cache.busyUntil = std::max(cache.busyUntil, now) + busy;
    };

    for (CoreId c = 0; c < cfg.numCores; ++c)
        scan_cache(*l1s[c], true, c);
    scan_cache(l2, false, 0);
    return out;
}

Tick
MemorySystem::flushAllDirty(Tick now)
{
    Tick done = now;
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s[c]->forEachDirtyLine([&](CacheLine &line) {
            writebackL1ToL2(c, &line);
            l1s[c]->markClean(&line);
        });
    }
    l2.forEachDirtyLine([&](CacheLine &line) {
        MemDevice &dev = deviceFor(line.lineAddr);
        Tick start = barrierFor(line.lineAddr, now);
        auto res = dev.access(true, line.lineAddr, l2.lineBytes(),
                              line.data.data(), nullptr, start, false,
                              PersistOrigin::Data, wbIssueHint(now));
        l2.markClean(&line);
        l2.writebacks.inc();
        if (cfg.map.isNvram(line.lineAddr))
            busMonitor.onDataWriteback(line.lineAddr, now, res.done);
        done = std::max(done, res.done);
    });
    done = std::max(done, wcbuf.drainAll(now));
    return done;
}

void
MemorySystem::syncStats()
{
    for (auto &l1 : l1s)
        l1->syncDemandStats();
    l2.syncDemandStats();
}

void
MemorySystem::invalidateAllCaches()
{
    for (auto &l1 : l1s)
        l1->invalidateAll();
    l2.invalidateAll();
    directory.clear();
    wcbuf.dropAll();
}

bool
MemorySystem::isLineDirtyAnywhere(Addr addr) const
{
    Addr line = addr & ~static_cast<Addr>(cfg.l1.lineBytes - 1);
    for (const auto &l1 : l1s) {
        const CacheLine *l = l1->find(line);
        if (l && l->dirty())
            return true;
    }
    const CacheLine *l = l2.find(line);
    return l && l->dirty();
}

} // namespace snf::mem
