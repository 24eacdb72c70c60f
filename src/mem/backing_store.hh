/**
 * @file
 * Sparse byte-accurate backing store for a simulated memory device,
 * with an optional timestamped write journal used to reconstruct the
 * device image as of a simulated crash instant.
 *
 * Snapshot engine (perf): pages are immutable-by-sharing and
 * copy-on-write (reference-counted) and indexed by a flat
 * open-addressing table, so cloning an image is one array copy plus a
 * refcount increment per page instead of byte copies; the journal
 * keeps a lazily built completion-tick index with materialized
 * checkpoints every K entries, so snapshotAt(t) replays only the
 * delta past the nearest checkpoint instead of the whole journal; and
 * journal entries store payloads of up to 32 bytes (the common
 * line/word write) inline, eliminating one heap allocation per
 * journaled NVRAM write. The monotone Cursor turns a sequence of
 * ascending-tick snapshots (a crash sweep) into a single incremental
 * replay: O(journal + points × delta) instead of O(points × journal).
 */

#ifndef SNF_MEM_BACKING_STORE_HH
#define SNF_MEM_BACKING_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace snf::mem
{

/**
 * Byte storage for a [base, base+size) physical range. Pages are
 * allocated lazily and zero-filled. When journaling is enabled, every
 * write is recorded with its completion tick so snapshotAt() can
 * rebuild the exact persistent image at any earlier tick.
 *
 * Thread safety: concurrent const use (snapshotAt, read,
 * firstDifference, Cursor) on a quiescent store is safe — the lazy
 * snapshot index is built once under an internal lock, and page
 * sharing is via atomic page refcounts. Mutation requires
 * exclusive access, as before.
 */
class BackingStore
{
  public:
    BackingStore(Addr base, std::uint64_t size);

    BackingStore(const BackingStore &other);
    BackingStore(BackingStore &&other) noexcept;
    BackingStore &operator=(const BackingStore &other);
    BackingStore &operator=(BackingStore &&other) noexcept;

    /** Read @p size bytes at @p addr into @p out. */
    void read(Addr addr, std::uint64_t size, void *out) const;

    /**
     * Write @p size bytes. @p doneTick is the simulated completion
     * time, recorded if journaling is on. @p issueTick is the tick the
     * write was accepted onto the NVRAM channel and @p origin who
     * issued it; together they let crash tooling recover the pending
     * set (issue <= t < done) at any crash tick. The default
     * issueTick (kTickNever) means "issue == done": the write is
     * never pending, which is correct for functional/zero-time writes
     * and keeps every legacy call site inert under reorder sweeps.
     */
    void write(Addr addr, std::uint64_t size, const void *in,
               Tick doneTick = 0, Tick issueTick = kTickNever,
               PersistOrigin origin = PersistOrigin::Functional);

    /** Convenience 64-bit accessors. */
    std::uint64_t read64(Addr addr) const;
    void write64(Addr addr, std::uint64_t v, Tick doneTick = 0);

    /**
     * Sparse read view: pointer to the resident bytes at @p addr, or
     * nullptr when the covering page was never written (the range
     * reads as zero). @p avail receives the number of contiguous
     * bytes from @p addr to the end of that page and of the store
     * range — the extent of the returned pointer's validity, or, for
     * nullptr, the extent known to read as zero. Bulk scanners (the
     * recovery slot scan) use this to skip untouched pages without
     * copying them.
     */
    const std::uint8_t *pageAt(Addr addr, std::uint64_t *avail) const;

    /**
     * Start journaling writes. Clones the current image as the
     * snapshot base; prior contents are the tick-0 state.
     */
    void enableJournal();

    bool journalEnabled() const { return journalOn; }

    /** Number of journal records accumulated so far. */
    std::size_t journalSize() const { return journal.size(); }

    /**
     * Set the journal-checkpoint interval: a materialized image is
     * kept every @p k journal entries (in completion-tick order), and
     * snapshotAt(t) replays only the delta past the nearest
     * checkpoint at or before t. 0 disables checkpoints (every
     * snapshot replays the full prefix — the naive reference mode the
     * equivalence tests and sweep_perf compare against). Resets any
     * index already built.
     */
    void setCheckpointInterval(std::size_t k);

    std::size_t checkpointInterval() const { return ckptInterval; }

    /**
     * Build the completion-tick index and checkpoints now (they are
     * otherwise built lazily by the first snapshotAt/Cursor). Exposed
     * so sweeps can time the build as its own phase.
     */
    void buildSnapshotIndex() const { ensureIndex(); }

    /** Checkpoints materialized by the last index build. */
    std::size_t checkpointCount() const;

    /** Journal entries replayed by snapshots/cursors so far. */
    std::uint64_t entriesReplayed() const { return statReplayed; }

    /**
     * Pages cloned by copy-on-write so far. A write that leaves a
     * shared page's bytes as they are keeps it shared and clones
     * nothing.
     */
    std::uint64_t pagesCloned() const { return statCloned; }

    /**
     * Reconstruct the device image as of @p tick: the journal-base
     * image plus every journaled write with doneTick <= @p tick,
     * applied in completion-tick order (the bus serializes by
     * completion, not by issue). Requires enableJournal(). The
     * returned image shares unmodified pages with this store
     * (copy-on-write), so the call is O(pages + replay delta).
     */
    BackingStore snapshotAt(Tick tick) const;

    /**
     * Incremental snapshot construction for monotone tick sequences.
     * imageAt(t) advances an internal image by exactly the journal
     * delta since the previous call and returns a COW copy, so a
     * whole ascending sweep costs one journal replay total. Ticks
     * must be non-decreasing across calls. The source store must
     * outlive the cursor and stay unmodified while it is used.
     */
    class Cursor
    {
      public:
        explicit Cursor(const BackingStore &source);
        ~Cursor();

        Cursor(const Cursor &) = delete;
        Cursor &operator=(const Cursor &) = delete;

        /** The image as of @p t (>= the previous call's tick). */
        BackingStore imageAt(Tick t);

      private:
        const BackingStore *src;
        /** Working image (pointer: BackingStore is incomplete here). */
        std::unique_ptr<BackingStore> image;
        std::size_t pos = 0; ///< sorted journal entries applied
        Tick lastTick = 0;
        bool started = false;
    };

    /**
     * Replace this store's contents with @p other's (same range
     * required). If journaling is on, the adopted image becomes the
     * new journal base and the journal restarts empty — used by the
     * lifecycle driver to resume a system on a recovered image while
     * keeping crash snapshots of the new generation possible.
     */
    void assignFrom(const BackingStore &other);

    /**
     * Visit every journaled write with doneTick <= @p maxTick as
     * (addr, size). Lifecycle's cross-generation invariant I9 uses
     * this to exclude legitimately-overwritten lines.
     */
    void forEachJournalWrite(
        Tick maxTick,
        const std::function<void(Addr, std::uint64_t)> &fn) const;

    /**
     * Read-only view of one journaled write, including the persist
     * metadata reorderlab needs. @p data points into the journal and
     * is valid while the store is alive and unmodified. @p seq is the
     * journal issue-order index (the snapshot replay tiebreak).
     */
    struct JournalRecord
    {
        Tick issue;
        Tick done;
        Addr addr;
        std::uint32_t size;
        PersistOrigin origin;
        std::uint32_t seq;
        const std::uint8_t *data;
    };

    /** Visit every journaled write in issue (append) order. */
    void forEachJournalRecord(
        const std::function<void(const JournalRecord &)> &fn) const;

    /**
     * Lowest address in [from, from+size) at which this store and
     * @p other differ (absent pages compare as zero), or nullopt if
     * the ranges are byte-identical. Both stores must cover the
     * range. Compares page-wise and skips pages the two stores share
     * (COW siblings diff only where they actually diverged), so
     * sparse images stay cheap; a range narrower than the resident
     * page set walks its own page indices instead of every resident
     * page.
     */
    std::optional<Addr> firstDifference(const BackingStore &other,
                                        Addr from,
                                        std::uint64_t size) const;

    /**
     * A journal-less store over the same range holding only this
     * store's pages that overlap [from, from+size), shared
     * copy-on-write; every other byte reads as zero. Holding it pins
     * those pages: a writer to any of them clones first, so the slice
     * keeps the bytes it was taken with.
     */
    BackingStore slice(Addr from, std::uint64_t size) const;

    Addr base() const { return rangeBase; }

    std::uint64_t size() const { return rangeSize; }

    bool
    contains(Addr addr, std::uint64_t sz) const
    {
        return addr >= rangeBase && addr + sz <= rangeBase + rangeSize;
    }

  private:
    static constexpr std::uint64_t kPageBytes = 4096;
    static constexpr std::size_t kDefaultCheckpointInterval = 1024;

    struct Page
    {
        std::uint8_t bytes[kPageBytes];
        /** Handles (PageRef) on this page. */
        std::atomic<std::uint32_t> refs{1};
    };

    /**
     * Owning handle on a page, counted in the page itself: one
     * pointer wide, so a page-table slot is 16 bytes.
     */
    class PageRef
    {
      public:
        PageRef() = default;

        /** A new page: zero-filled, or a copy of @p from's bytes. */
        static PageRef make(const Page *from = nullptr);

        PageRef(const PageRef &other) noexcept : p(other.p)
        {
            if (p)
                p->refs.fetch_add(1, std::memory_order_relaxed);
        }

        PageRef(PageRef &&other) noexcept
            : p(std::exchange(other.p, nullptr))
        {
        }

        PageRef &
        operator=(PageRef other) noexcept
        {
            std::swap(p, other.p);
            return *this;
        }

        ~PageRef()
        {
            if (p && p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
                delete p;
        }

        Page *get() const { return p; }
        Page *operator->() const { return p; }
        explicit operator bool() const { return p != nullptr; }

        /** Another handle (a sibling store, a checkpoint, a slice)
         *  holds the page too, so it must not be written in place. */
        bool
        shared() const
        {
            return p->refs.load(std::memory_order_acquire) > 1;
        }

      private:
        Page *p = nullptr;
    };

    /**
     * Page index -> page, open addressing: power-of-two capacity,
     * linear probing from a multiplicative hash, load factor at most
     * 1/2. Pages are only ever added, so probing needs no tombstones.
     * Copying is one slot-array copy plus a refcount increment per
     * page; iteration order is unspecified.
     */
    class PageMap
    {
      public:
        PageMap() = default;
        PageMap(const PageMap &) = default;
        PageMap &operator=(const PageMap &) = default;

        PageMap(PageMap &&other) noexcept
            : slots(std::move(other.slots)),
              count(std::exchange(other.count, 0)),
              shift(std::exchange(other.shift, 64))
        {
        }

        PageMap &
        operator=(PageMap &&other) noexcept
        {
            slots = std::move(other.slots);
            count = std::exchange(other.count, 0);
            shift = std::exchange(other.shift, 64);
            return *this;
        }

        /** The page stored under @p idx, or nullptr. */
        PageRef *find(std::uint64_t idx);

        const PageRef *
        find(std::uint64_t idx) const
        {
            return const_cast<PageMap *>(this)->find(idx);
        }

        /** Add @p page under @p idx, which must be absent. */
        void insert(std::uint64_t idx, PageRef page);

        std::size_t size() const { return count; }

        /** Call @p fn(idx, page) for every page. */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (const Slot &s : slots)
                if (s.page)
                    fn(s.idx, s.page);
        }

      private:
        /** Empty while page is null. */
        struct Slot
        {
            std::uint64_t idx = 0;
            PageRef page;
        };

        std::size_t
        home(std::uint64_t idx) const
        {
            return static_cast<std::size_t>(
                (idx * 0x9e3779b97f4a7c15ULL) >> shift);
        }

        void grow();

        std::vector<Slot> slots;
        std::size_t count = 0;
        /** 64 - log2(capacity). */
        unsigned shift = 64;
    };

    /**
     * One journaled write. Payloads of up to kInlineCapacity bytes
     * (the common case: words, log slots, half-lines) live inside the
     * entry; larger ones on the heap.
     */
    class JournalEntry
    {
      public:
        JournalEntry(Tick done, Tick issue, PersistOrigin origin,
                     Addr addr, const void *src, std::uint64_t len);
        JournalEntry(const JournalEntry &other);
        JournalEntry(JournalEntry &&other) noexcept;
        JournalEntry &operator=(const JournalEntry &other);
        JournalEntry &operator=(JournalEntry &&other) noexcept;
        ~JournalEntry();

        Tick done;
        /** Channel-acceptance tick; == done for non-pending writes. */
        Tick issue;
        Addr addr;
        PersistOrigin origin;

        std::uint32_t size() const { return len; }

        const std::uint8_t *
        data() const
        {
            return len <= kInlineCapacity ? inlineBytes : heapBytes;
        }

      private:
        static constexpr std::uint32_t kInlineCapacity = 32;

        void adopt(const void *src, std::uint64_t n);
        void release();

        std::uint32_t len;
        union
        {
            std::uint8_t inlineBytes[kInlineCapacity];
            std::uint8_t *heapBytes;
        };
    };

    /** Image after the first `count` index entries, for delta replay. */
    struct Checkpoint
    {
        Tick lastDone;     ///< doneTick of the last entry included
        std::size_t count; ///< index entries materialized
        PageMap pages;
    };

    const Page *pagePtr(std::uint64_t pageIdx) const;

    void rawWrite(Addr addr, std::uint64_t size, const void *in);

    void copyFrom(const BackingStore &other);
    void moveFrom(BackingStore &&other) noexcept;
    void invalidateIndex();
    void ensureIndex() const;

    /** Largest checkpoint with lastDone <= tick, or nullptr. */
    const Checkpoint *checkpointFor(Tick tick) const;

    Addr rangeBase;
    std::uint64_t rangeSize;
    PageMap pages;

    bool journalOn = false;
    PageMap journalBase;
    std::vector<JournalEntry> journal;
    std::size_t ckptInterval = kDefaultCheckpointInterval;

    /** Lazily built snapshot index (guarded by indexMutex). */
    mutable std::mutex indexMutex;
    mutable bool indexValid = false;
    mutable std::size_t indexedEntries = 0;
    /** Journal indices, sorted by (doneTick, issue order). */
    mutable std::vector<std::uint32_t> sortedIdx;
    mutable std::vector<Checkpoint> checkpoints;

    mutable std::atomic<std::uint64_t> statReplayed{0};
    mutable std::atomic<std::uint64_t> statCloned{0};
};

} // namespace snf::mem

#endif // SNF_MEM_BACKING_STORE_HH
