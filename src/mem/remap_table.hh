/**
 * @file
 * Persistent bad-line remap table (lifelab): a small CRC-protected,
 * dual-bank structure in a reserved NVRAM region that maps worn or
 * repeatedly-damaged 64-byte lines to spare lines. MemDevice consults
 * it on every access, so a promoted line's traffic transparently lands
 * on its spare — a permanent media fault becomes a survivable event.
 *
 * Atomic update protocol: the table alternates between two banks of
 * the remap region. An update serializes the whole table into the
 * *inactive* bank — entry area first, the header (which carries the
 * sequence number and the CRC over everything) last — so a crash at
 * any interior point leaves the previous bank untouched and the new
 * bank CRC-invalid. Readers pick the CRC-valid bank with the highest
 * sequence number: they always observe the old mapping or the new
 * mapping, never a torn one.
 *
 * The header doubles as the lifecycle superblock: it records the
 * persistent heap's bump-allocator cursor and the generation number,
 * which is what lets a recovered image resume execution (crashlab
 * Lifecycle) instead of only being verified.
 */

#ifndef SNF_MEM_REMAP_TABLE_HH
#define SNF_MEM_REMAP_TABLE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/system_config.hh"
#include "sim/types.hh"

namespace snf::mem
{

class BackingStore;

/** See file comment. */
class RemapTable
{
  public:
    static constexpr std::uint64_t kMagic = 0x534e46524d505401ULL;
    static constexpr std::uint32_t kHeaderBytes = 64;
    static constexpr std::uint32_t kEntryBytes = 16;
    static constexpr std::uint32_t kLineBytes = 64;

    /** One promoted line: all traffic to orig is served at spare. */
    struct Entry
    {
        Addr orig;
        Addr spare;
    };

    /**
     * A table over the remap region [remapBase, remapBase+remapSize)
     * (split into two banks) handing out spare lines from
     * [spareBase, spareBase+spareSize).
     */
    RemapTable(Addr remapBase, std::uint64_t remapSize, Addr spareBase,
               std::uint64_t spareSize);

    /** The table over @p map's remap and spare regions; null when the
     *  map has no remap region. */
    static std::unique_ptr<RemapTable> forMap(const AddressMap &map);

    /** Max entries: bounded by bank space and by spare lines. */
    std::uint64_t capacity() const;

    std::uint64_t size() const { return table.size(); }

    bool full() const { return table.size() >= capacity(); }

    const std::vector<Entry> &entries() const { return table; }

    /** Spare line serving @p lineAddr, if promoted. */
    std::optional<Addr> find(Addr lineAddr) const;

    /** Where the byte at @p addr lives: in its line's spare once the
     *  line is promoted, else at @p addr. */
    Addr translate(Addr addr) const;

    /** True inside the remap and spare regions, which no promotion may
     *  cover (remapping the table through itself would recurse). */
    bool
    inMetadata(Addr lineAddr) const
    {
        return lineAddr >= regionBase &&
               lineAddr < spareRegionBase + spareRegionSize;
    }

    /**
     * Promote @p lineAddr (64-byte aligned): assign the next spare
     * line and return it, or nullopt when the table or spare area is
     * full or the line is already promoted. In-memory only — call
     * persist() to make it durable.
     */
    std::optional<Addr> add(Addr lineAddr);

    /** Sequence number of the last persisted state (0 = never). */
    std::uint64_t seq() const { return seqNo; }

    // Lifecycle superblock payload, persisted with the table.
    std::uint64_t heapCursor = 0; ///< persistent-heap allocated bytes
    std::uint64_t generation = 0; ///< lifecycle generation number

    /**
     * Writer callback: persist 64-byte-aligned chunks of the table
     * into NVRAM. Wired to timed device writes (live system), to
     * functional writes (setup), or to recovery's counted/translated
     * image writer (so crash-during-recovery sweeps can interrupt a
     * table update at any chunk).
     */
    using WriteFn =
        std::function<void(Addr, std::uint64_t, const void *)>;

    /**
     * Durably publish the current in-memory state into the inactive
     * bank (see file comment). @p maxWrites caps the number of chunk
     * writes issued — the atomicity unit tests use it to crash the
     * update at every interior point. @return true when the update
     * completed (the sequence number advances); false when it was cut
     * short (the in-memory state is unchanged and the half-written
     * bank is CRC-invalid by construction).
     */
    bool persist(const WriteFn &write,
                 std::uint64_t maxWrites = ~0ULL);

    /** Outcome of load(). */
    struct LoadResult
    {
        /** Neither bank valid and the whole region is zero: a table
         *  that was never persisted. */
        bool fresh = false;
        /** Neither bank valid but the region is nonzero: both copies
         *  damaged (or deliberately sabotaged) — the mapping is lost
         *  and the image must not be trusted. */
        bool corrupted = false;
        std::uint64_t entriesLoaded = 0;
    };

    /** Replace the in-memory state with the newest valid bank. */
    LoadResult load(const BackingStore &img);

    /** CRC-valid banks currently in @p img (0, 1 or 2). The online
     *  scrubber repairs redundancy when this drops below 2. */
    std::uint32_t validBanks(const BackingStore &img) const;

    /**
     * Structural self-check of the in-memory table: unique,
     * 64-byte-aligned original lines outside the remap/spare region,
     * spares in canonical allocation order.
     */
    bool wellFormed() const;

    /**
     * Test/sabotage helper: overwrite both bank headers with garbage
     * so load() reports corruption (drives the soak's sabotage
     * detection self-test).
     */
    static void sabotage(BackingStore &img, Addr remapBase,
                         std::uint64_t remapSize);

    Addr bankBase(std::uint32_t bank) const;

    std::uint64_t bankBytes() const { return regionSize / 2; }

  private:
    std::vector<std::uint8_t> serializeBank(std::uint64_t seq) const;
    bool parseBank(const BackingStore &img, std::uint32_t bank,
                   std::uint64_t &seqOut,
                   std::vector<Entry> &entriesOut,
                   std::uint64_t &cursorOut,
                   std::uint64_t &generationOut) const;

    Addr regionBase;
    std::uint64_t regionSize;
    Addr spareRegionBase;
    std::uint64_t spareRegionSize;
    std::uint64_t seqNo = 0;
    std::vector<Entry> table;
};

} // namespace snf::mem

#endif // SNF_MEM_REMAP_TABLE_HH
