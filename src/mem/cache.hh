/**
 * @file
 * A set-associative cache array with per-line valid/dirty/fwb state.
 *
 * The cache is a passive container: the access protocol (fills,
 * write-backs, coherence) lives in mem::MemorySystem, and the FWB
 * state machine in persist::FwbEngine drives the fwb bits. This keeps
 * the entire protocol in one auditable place.
 *
 * Lookups run against a packed parallel tag array: one Addr compare
 * per way, no per-way valid-bit branch (invalid ways hold a sentinel
 * that can never equal a line-aligned address). The tag array is kept
 * consistent by install()/invalidate(), the only mutators of line
 * identity. A parallel bitmap holds one bit per slot that is set
 * exactly while the slot is valid and dirty, so walks over the dirty
 * lines (the FWB scan, the final flush) cost what is dirty, not the
 * size of the array.
 */

#ifndef SNF_MEM_CACHE_HH
#define SNF_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{

/**
 * One cache line: tag state plus a byte-accurate data image. Only the
 * owning Cache writes the dirty and fwb bits (markDirty, flagFwb,
 * markClean), which keeps fwb => dirty and the cache's dirty-line
 * bitmap exact.
 */
struct CacheLine
{
    Addr lineAddr = 0;
    bool valid = false;

  private:
    friend class Cache;

    // Next to `valid`, so the three flags share one padded word.
    bool dirtyBit = false;
    bool fwbBit = false;

  public:
    std::uint64_t lastUse = 0;
    std::vector<std::uint8_t> data;

    bool dirty() const { return dirtyBit; }

    /** Force-write-back flag bit (paper Section IV-D). */
    bool fwb() const { return fwbBit; }
};

/**
 * A single cache level (array + tags + LRU), parameterized by
 * CacheConfig. Timing is tracked with a port busy-until tick so FWB
 * tag scans can delay demand accesses.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheConfig &config);

    /** Look up @p lineAddr; nullptr on miss. Does not update LRU. */
    CacheLine *
    find(Addr lineAddr)
    {
        const std::uint32_t set = setIndex(lineAddr);
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg.ways;
        const Addr *tagBase = &tags[base];
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            if (tagBase[w] == lineAddr)
                return &lines[base + w];
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr lineAddr) const
    {
        return const_cast<Cache *>(this)->find(lineAddr);
    }

    /**
     * Pick the victim slot for installing @p lineAddr: an invalid way
     * if available, else the LRU way. The returned slot may still hold
     * a valid victim that the caller must write back / invalidate
     * before calling install().
     */
    CacheLine *victimFor(Addr lineAddr);

    /**
     * Reset @p slot and bind it to @p lineAddr (valid, clean).
     * The caller then fills slot->data.
     */
    void install(CacheLine *slot, Addr lineAddr);

    /** Mark @p line most recently used. */
    void touch(CacheLine *line);

    /** Invalidate a line (also clears dirty/fwb). */
    void invalidate(CacheLine *line);

    /** Invalidate every line (crash model). */
    void invalidateAll();

    /** Mark a valid @p line dirty. */
    void
    markDirty(CacheLine *line)
    {
        line->dirtyBit = true;
        const std::size_t i = slotOf(line);
        dirtyBits[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    /** Mark @p line clean; its fwb flag drops with it. */
    void
    markClean(CacheLine *line)
    {
        line->dirtyBit = false;
        line->fwbBit = false;
        const std::size_t i = slotOf(line);
        dirtyBits[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }

    /** Set the fwb flag of a dirty @p line (the FWB FLAG state). */
    void
    flagFwb(CacheLine *line)
    {
        SNF_ASSERT(line->dirtyBit, "fwb flag on a clean line in %s",
                   cacheName.c_str());
        line->fwbBit = true;
    }

    /**
     * Apply @p fn to every valid dirty line, in slot order. The
     * bitmap is re-read after each call, so the walk sees what a
     * full slot-order walk would: a line @p fn cleans or dirties
     * further on is skipped or visited. Statically dispatched so the
     * scan pays no std::function call.
     */
    template <typename Fn>
    void
    forEachDirtyLine(Fn &&fn)
    {
        for (std::size_t w = 0; w < dirtyBits.size(); ++w) {
            for (std::uint64_t bits = dirtyBits[w]; bits != 0;) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(bits));
                fn(lines[w * 64 + b]);
                bits = dirtyBits[w] & ((~std::uint64_t{1}) << b);
            }
        }
    }

    std::uint32_t lineBytes() const { return cfg.lineBytes; }

    std::uint32_t numLines() const { return cfg.numLines(); }

    std::uint32_t latency() const { return cfg.latency; }

    const std::string &name() const { return cacheName; }

    Addr
    lineOf(Addr a) const
    {
        return a & ~static_cast<Addr>(cfg.lineBytes - 1);
    }

    sim::StatGroup &stats() { return statGroup; }

    /** Port contention: accesses may not start before this tick. */
    Tick busyUntil = 0;

  private:
    /** All-ones is never line-aligned (lineBytes >= 2), so an invalid
     *  way can never match a lookup tag. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    std::string cacheName;
    CacheConfig cfg;
    sim::StatGroup statGroup; // must precede the counter references

  public:
    // Demand statistics, maintained by the protocol layer.
    sim::Counter &hits;
    sim::Counter &misses;
    sim::Counter &evictions;
    sim::Counter &writebacks;

    /** Hot-path demand hit/miss counts accumulate here (plain adds,
     *  no counter indirection) and fold into the named counters at
     *  stat-read boundaries via syncDemandStats(). */
    std::uint64_t pendingHits = 0;
    std::uint64_t pendingMisses = 0;

    void
    syncDemandStats()
    {
        if (pendingHits) {
            hits.inc(pendingHits);
            pendingHits = 0;
        }
        if (pendingMisses) {
            misses.inc(pendingMisses);
            pendingMisses = 0;
        }
    }

  private:
    std::uint32_t setIndex(Addr lineAddr) const;

    std::size_t
    slotOf(const CacheLine *line) const
    {
        return static_cast<std::size_t>(line - lines.data());
    }

    std::vector<CacheLine> lines;
    /** Parallel to `lines`: lineAddr when valid, kInvalidTag when not. */
    std::vector<Addr> tags;
    /** Bit i set = lines[i] is valid and dirty. */
    std::vector<std::uint64_t> dirtyBits;
    std::uint64_t useClock = 0;
};

} // namespace snf::mem

#endif // SNF_MEM_CACHE_HH
