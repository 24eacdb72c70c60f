#include "mem/backing_store.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace snf::mem
{

// --- JournalEntry (small-buffer payload storage) ---------------------

void
BackingStore::JournalEntry::adopt(const void *src, std::uint64_t n)
{
    SNF_ASSERT(n <= ~std::uint32_t{0}, "journal write of %llu bytes",
               static_cast<unsigned long long>(n));
    len = static_cast<std::uint32_t>(n);
    if (len <= kInlineCapacity) {
        std::memcpy(inlineBytes, src, len);
    } else {
        heapBytes = new std::uint8_t[len];
        std::memcpy(heapBytes, src, len);
    }
}

void
BackingStore::JournalEntry::release()
{
    if (len > kInlineCapacity)
        delete[] heapBytes;
    len = 0;
}

BackingStore::JournalEntry::JournalEntry(Tick done_, Tick issue_,
                                         PersistOrigin origin_,
                                         Addr addr_, const void *src,
                                         std::uint64_t n)
    : done(done_), issue(issue_), addr(addr_), origin(origin_)
{
    adopt(src, n);
}

BackingStore::JournalEntry::JournalEntry(const JournalEntry &other)
    : done(other.done), issue(other.issue), addr(other.addr),
      origin(other.origin)
{
    adopt(other.data(), other.len);
}

BackingStore::JournalEntry::JournalEntry(JournalEntry &&other) noexcept
    : done(other.done), issue(other.issue), addr(other.addr),
      origin(other.origin), len(other.len)
{
    if (len <= kInlineCapacity)
        std::memcpy(inlineBytes, other.inlineBytes, len);
    else
        heapBytes = other.heapBytes;
    other.len = 0; // heap payload (if any) now owned here
}

BackingStore::JournalEntry &
BackingStore::JournalEntry::operator=(const JournalEntry &other)
{
    if (this == &other)
        return *this;
    release();
    done = other.done;
    issue = other.issue;
    addr = other.addr;
    origin = other.origin;
    adopt(other.data(), other.len);
    return *this;
}

BackingStore::JournalEntry &
BackingStore::JournalEntry::operator=(JournalEntry &&other) noexcept
{
    if (this == &other)
        return *this;
    release();
    done = other.done;
    issue = other.issue;
    addr = other.addr;
    origin = other.origin;
    len = other.len;
    if (len <= kInlineCapacity)
        std::memcpy(inlineBytes, other.inlineBytes, len);
    else
        heapBytes = other.heapBytes;
    other.len = 0;
    return *this;
}

BackingStore::JournalEntry::~JournalEntry()
{
    release();
}

// --- pages and the flat page table ------------------------------------

BackingStore::PageRef
BackingStore::PageRef::make(const Page *from)
{
    PageRef ref;
    if (from) {
        ref.p = new Page;
        std::memcpy(ref.p->bytes, from->bytes, kPageBytes);
    } else {
        ref.p = new Page{};
    }
    return ref;
}

BackingStore::PageRef *
BackingStore::PageMap::find(std::uint64_t idx)
{
    if (slots.empty())
        return nullptr;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = home(idx);; i = (i + 1) & mask) {
        Slot &s = slots[i];
        if (!s.page)
            return nullptr;
        if (s.idx == idx)
            return &s.page;
    }
}

void
BackingStore::PageMap::insert(std::uint64_t idx, PageRef page)
{
    if (2 * (count + 1) > slots.size())
        grow();
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(idx);
    while (slots[i].page) {
        SNF_ASSERT(slots[i].idx != idx, "page %llu inserted twice",
                   static_cast<unsigned long long>(idx));
        i = (i + 1) & mask;
    }
    slots[i].idx = idx;
    slots[i].page = std::move(page);
    ++count;
}

void
BackingStore::PageMap::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
    shift = 64 - static_cast<unsigned>(std::countr_zero(slots.size()));
    const std::size_t mask = slots.size() - 1;
    for (Slot &s : old) {
        if (!s.page)
            continue;
        std::size_t i = home(s.idx);
        while (slots[i].page)
            i = (i + 1) & mask;
        slots[i] = std::move(s);
    }
}

// --- construction / copying ------------------------------------------

BackingStore::BackingStore(Addr base, std::uint64_t size)
    : rangeBase(base), rangeSize(size)
{
}

void
BackingStore::copyFrom(const BackingStore &other)
{
    rangeBase = other.rangeBase;
    rangeSize = other.rangeSize;
    pages = other.pages;
    journalOn = other.journalOn;
    journalBase = other.journalBase;
    journal = other.journal;
    ckptInterval = other.ckptInterval;
    indexValid = other.indexValid;
    indexedEntries = other.indexedEntries;
    sortedIdx = other.sortedIdx;
    checkpoints = other.checkpoints;
    statReplayed = other.statReplayed.load();
    statCloned = other.statCloned.load();
}

void
BackingStore::moveFrom(BackingStore &&other) noexcept
{
    rangeBase = other.rangeBase;
    rangeSize = other.rangeSize;
    pages = std::move(other.pages);
    journalOn = other.journalOn;
    journalBase = std::move(other.journalBase);
    journal = std::move(other.journal);
    ckptInterval = other.ckptInterval;
    indexValid = other.indexValid;
    indexedEntries = other.indexedEntries;
    sortedIdx = std::move(other.sortedIdx);
    checkpoints = std::move(other.checkpoints);
    statReplayed = other.statReplayed.load();
    statCloned = other.statCloned.load();
    other.indexValid = false;
    other.indexedEntries = 0;
}

BackingStore::BackingStore(const BackingStore &other)
{
    copyFrom(other);
}

BackingStore::BackingStore(BackingStore &&other) noexcept
{
    moveFrom(std::move(other));
}

BackingStore &
BackingStore::operator=(const BackingStore &other)
{
    if (this != &other)
        copyFrom(other);
    return *this;
}

BackingStore &
BackingStore::operator=(BackingStore &&other) noexcept
{
    if (this != &other)
        moveFrom(std::move(other));
    return *this;
}

// --- page access (copy-on-write) -------------------------------------

const BackingStore::Page *
BackingStore::pagePtr(std::uint64_t pageIdx) const
{
    const PageRef *ref = pages.find(pageIdx);
    return ref ? ref->get() : nullptr;
}

void
BackingStore::read(Addr addr, std::uint64_t size, void *out) const
{
    SNF_ASSERT(contains(addr, size),
               "read [%llx,+%llu) outside store range",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(size));
    auto *dst = static_cast<std::uint8_t *>(out);
    std::uint64_t off = addr - rangeBase;
    while (size > 0) {
        std::uint64_t page = off / kPageBytes;
        std::uint64_t in_page = off % kPageBytes;
        std::uint64_t n = std::min(size, kPageBytes - in_page);
        const Page *src = pagePtr(page);
        if (src)
            std::memcpy(dst, src->bytes + in_page, n);
        else
            std::memset(dst, 0, n);
        dst += n;
        off += n;
        size -= n;
    }
}

const std::uint8_t *
BackingStore::pageAt(Addr addr, std::uint64_t *avail) const
{
    SNF_ASSERT(contains(addr, 1),
               "pageAt %llx outside store range",
               static_cast<unsigned long long>(addr));
    const std::uint64_t off = addr - rangeBase;
    const std::uint64_t inPage = off % kPageBytes;
    *avail = std::min(kPageBytes - inPage, rangeSize - off);
    const Page *p = pagePtr(off / kPageBytes);
    return p ? p->bytes + inPage : nullptr;
}

void
BackingStore::rawWrite(Addr addr, std::uint64_t size, const void *in)
{
    static const Page kZeroPage{};
    const auto *src = static_cast<const std::uint8_t *>(in);
    std::uint64_t off = addr - rangeBase;
    while (size > 0) {
        std::uint64_t page = off / kPageBytes;
        std::uint64_t in_page = off % kPageBytes;
        std::uint64_t n = std::min(size, kPageBytes - in_page);
        PageRef *ref = pages.find(page);
        if (!ref) {
            // Writing zeros to a page never written leaves the byte
            // image unchanged (absent pages read as zero): skip the
            // allocation so bulk zeroing (log truncation) keeps the
            // store sparse and later sparse scans can skip the pages
            // outright.
            if (std::memcmp(src, kZeroPage.bytes, n) != 0) {
                PageRef fresh = PageRef::make(); // zeroed
                std::memcpy(fresh->bytes + in_page, src, n);
                pages.insert(page, std::move(fresh));
            }
        } else if (ref->shared()) {
            // Shared with a snapshot, checkpoint, or sibling image. A
            // write that leaves the bytes as they are (recovery
            // replaying a value already in place) keeps the page
            // shared; otherwise clone before diverging.
            if (std::memcmp((*ref)->bytes + in_page, src, n) != 0) {
                *ref = PageRef::make(ref->get());
                statCloned.fetch_add(1, std::memory_order_relaxed);
                std::memcpy((*ref)->bytes + in_page, src, n);
            }
        } else {
            std::memcpy((*ref)->bytes + in_page, src, n);
        }
        src += n;
        off += n;
        size -= n;
    }
}

void
BackingStore::write(Addr addr, std::uint64_t size, const void *in,
                    Tick doneTick, Tick issueTick, PersistOrigin origin)
{
    SNF_ASSERT(contains(addr, size),
               "write [%llx,+%llu) outside store range",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(size));
    rawWrite(addr, size, in);
    if (journalOn) {
        // Default issue == done: the write is never observed as
        // pending, so untimed call sites stay inert under reorder.
        Tick issue = issueTick == kTickNever ? doneTick
                                             : std::min(issueTick, doneTick);
        journal.emplace_back(doneTick, issue, origin, addr, in, size);
    }
}

std::uint64_t
BackingStore::read64(Addr addr) const
{
    std::uint64_t v = 0;
    // Fast path: an in-range word that does not straddle a page is
    // one hash lookup + one 8-byte copy; the generic loop handles the
    // page-straddling and out-of-range (assert) cases.
    const std::uint64_t off = addr - rangeBase;
    if (addr >= rangeBase && off + sizeof(v) <= rangeSize &&
        off % kPageBytes <= kPageBytes - sizeof(v)) {
        if (const Page *src = pagePtr(off / kPageBytes))
            std::memcpy(&v, src->bytes + off % kPageBytes, sizeof(v));
        return v;
    }
    read(addr, sizeof(v), &v);
    return v;
}

void
BackingStore::write64(Addr addr, std::uint64_t v, Tick doneTick)
{
    write(addr, sizeof(v), &v, doneTick);
}

// --- journal / snapshot index ----------------------------------------

void
BackingStore::enableJournal()
{
    SNF_ASSERT(!journalOn, "journal already enabled");
    journalOn = true;
    journalBase = pages; // COW share: O(pages) pointer copies
    journal.clear();
    invalidateIndex();
}

void
BackingStore::setCheckpointInterval(std::size_t k)
{
    ckptInterval = k;
    invalidateIndex();
}

void
BackingStore::invalidateIndex()
{
    std::lock_guard<std::mutex> guard(indexMutex);
    indexValid = false;
    indexedEntries = 0;
    sortedIdx.clear();
    checkpoints.clear();
}

std::size_t
BackingStore::checkpointCount() const
{
    std::lock_guard<std::mutex> guard(indexMutex);
    return checkpoints.size();
}

void
BackingStore::ensureIndex() const
{
    std::lock_guard<std::mutex> guard(indexMutex);
    if (indexValid && indexedEntries == journal.size())
        return;

    // Writes are journaled in issue order but can complete out of
    // order (bank conflicts, read priority); at the crash instant the
    // device holds the value of the *latest-completing* write, so
    // replay order is (completion tick, issue order) — the index
    // tiebreak makes the sort stable.
    sortedIdx.resize(journal.size());
    for (std::uint32_t i = 0; i < sortedIdx.size(); ++i)
        sortedIdx[i] = i;
    std::sort(sortedIdx.begin(), sortedIdx.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  if (journal[a].done != journal[b].done)
                      return journal[a].done < journal[b].done;
                  return a < b;
              });

    // Materialize a checkpoint image every ckptInterval entries. The
    // working image and every checkpoint share pages copy-on-write,
    // so each checkpoint costs O(pages) pointer copies plus one clone
    // per page touched in the following interval.
    checkpoints.clear();
    if (ckptInterval != 0 && journal.size() >= ckptInterval) {
        BackingStore work(rangeBase, rangeSize);
        work.pages = journalBase;
        std::size_t applied = 0;
        for (std::uint32_t idx : sortedIdx) {
            const JournalEntry &e = journal[idx];
            work.rawWrite(e.addr, e.size(), e.data());
            ++applied;
            if (applied % ckptInterval == 0) {
                checkpoints.push_back(
                    Checkpoint{e.done, applied, work.pages});
            }
        }
        statCloned.fetch_add(work.statCloned.load(),
                             std::memory_order_relaxed);
    }

    indexValid = true;
    indexedEntries = journal.size();
}

const BackingStore::Checkpoint *
BackingStore::checkpointFor(Tick tick) const
{
    // Last checkpoint whose newest entry completed at or before tick;
    // lastDone values are non-decreasing in checkpoint order.
    auto it = std::upper_bound(
        checkpoints.begin(), checkpoints.end(), tick,
        [](Tick t, const Checkpoint &c) { return t < c.lastDone; });
    if (it == checkpoints.begin())
        return nullptr;
    return &*(it - 1);
}

BackingStore
BackingStore::snapshotAt(Tick tick) const
{
    SNF_ASSERT(journalOn, "snapshotAt without journaling");
    ensureIndex();

    BackingStore snap(rangeBase, rangeSize);
    std::size_t start = 0;
    if (const Checkpoint *ck = checkpointFor(tick)) {
        snap.pages = ck->pages;
        start = ck->count;
    } else {
        snap.pages = journalBase;
    }
    std::uint64_t replayed = 0;
    for (std::size_t i = start; i < sortedIdx.size(); ++i) {
        const JournalEntry &e = journal[sortedIdx[i]];
        if (e.done > tick)
            break;
        snap.rawWrite(e.addr, e.size(), e.data());
        ++replayed;
    }
    statReplayed.fetch_add(replayed, std::memory_order_relaxed);
    statCloned.fetch_add(snap.statCloned.load(),
                         std::memory_order_relaxed);
    snap.statCloned = 0;
    return snap;
}

// --- monotone cursor --------------------------------------------------

BackingStore::Cursor::Cursor(const BackingStore &source)
    : src(&source),
      image(std::make_unique<BackingStore>(source.rangeBase,
                                           source.rangeSize))
{
    SNF_ASSERT(source.journalOn, "Cursor without journaling");
    source.ensureIndex();
    image->pages = source.journalBase;
}

BackingStore::Cursor::~Cursor() = default;

BackingStore
BackingStore::Cursor::imageAt(Tick t)
{
    SNF_ASSERT(!started || t >= lastTick,
               "Cursor ticks must be non-decreasing (%llu after %llu)",
               static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(lastTick));
    started = true;
    lastTick = t;

    // Fast-forward through checkpoints when that skips at least one
    // full interval of replay; re-basing the image is only O(pages)
    // pointer copies.
    if (const Checkpoint *ck = src->checkpointFor(t)) {
        if (ck->count > pos &&
            ck->count - pos >= std::max<std::size_t>(
                                   1, src->ckptInterval / 2)) {
            image->pages = ck->pages;
            pos = ck->count;
        }
    }

    std::uint64_t replayed = 0;
    while (pos < src->sortedIdx.size()) {
        const JournalEntry &e = src->journal[src->sortedIdx[pos]];
        if (e.done > t)
            break;
        image->rawWrite(e.addr, e.size(), e.data());
        ++pos;
        ++replayed;
    }
    src->statReplayed.fetch_add(replayed, std::memory_order_relaxed);
    src->statCloned.fetch_add(image->statCloned.load(),
                              std::memory_order_relaxed);
    image->statCloned = 0;
    return *image; // COW copy: O(pages) pointer copies
}

// --- whole-image operations ------------------------------------------

void
BackingStore::assignFrom(const BackingStore &other)
{
    SNF_ASSERT(rangeBase == other.rangeBase &&
                   rangeSize == other.rangeSize,
               "assignFrom with mismatched store geometry");
    pages = other.pages; // COW share
    if (journalOn) {
        journalBase = pages;
        journal.clear();
        invalidateIndex();
    }
}

void
BackingStore::forEachJournalWrite(
    Tick maxTick,
    const std::function<void(Addr, std::uint64_t)> &fn) const
{
    for (const auto &e : journal)
        if (e.done <= maxTick)
            fn(e.addr, e.size());
}

void
BackingStore::forEachJournalRecord(
    const std::function<void(const JournalRecord &)> &fn) const
{
    for (std::uint32_t i = 0; i < journal.size(); ++i) {
        const JournalEntry &e = journal[i];
        fn(JournalRecord{e.issue, e.done, e.addr, e.size(), e.origin,
                         i, e.data()});
    }
}

std::optional<Addr>
BackingStore::firstDifference(const BackingStore &other, Addr from,
                              std::uint64_t size) const
{
    SNF_ASSERT(rangeBase == other.rangeBase,
               "firstDifference needs equal store bases");
    SNF_ASSERT(contains(from, size) && other.contains(from, size),
               "firstDifference range outside store");
    static const Page kZeroPage{};
    std::uint64_t first_page = (from - rangeBase) / kPageBytes;
    std::uint64_t last_off = from - rangeBase + size; // exclusive
    std::uint64_t last_page = (last_off + kPageBytes - 1) / kPageBytes;
    // Lowest differing address within page p's part of the range.
    auto pageDifference = [&](std::uint64_t p) -> std::optional<Addr> {
        const Page *a = pagePtr(p);
        const Page *b = other.pagePtr(p);
        if (a == b) // both absent, or one COW-shared page
            return std::nullopt;
        std::uint64_t lo = std::max<std::uint64_t>(
            p * kPageBytes, from - rangeBase);
        std::uint64_t hi =
            std::min<std::uint64_t>((p + 1) * kPageBytes, last_off);
        const std::uint64_t in_page = lo - p * kPageBytes;
        const std::uint8_t *pa =
            (a ? a->bytes : kZeroPage.bytes) + in_page;
        const std::uint8_t *pb =
            (b ? b->bytes : kZeroPage.bytes) + in_page;
        // Distinct pages often still hold equal bytes (a resident
        // all-zero page against an absent one, or a clone whose change
        // a later write undid): settle that with one memcmp and only
        // walk the bytes of a page known to differ.
        if (std::memcmp(pa, pb, hi - lo) == 0)
            return std::nullopt;
        const std::uint8_t *at = std::mismatch(pa, pa + (hi - lo), pb).first;
        return rangeBase + lo + static_cast<std::uint64_t>(at - pa);
    };

    // A range narrower than the resident sets is walked page by page.
    if (last_page - first_page <= pages.size() + other.pages.size()) {
        for (std::uint64_t p = first_page; p < last_page; ++p)
            if (auto d = pageDifference(p))
                return d;
        return std::nullopt;
    }
    // Otherwise only pages present in either store can differ (absent
    // pages read as zero), so visit those instead of walking the whole
    // range: the range can be gigabytes while the touched set is a
    // few hundred pages.
    std::vector<std::uint64_t> candidates;
    candidates.reserve(pages.size() + other.pages.size());
    auto inRange = [&](std::uint64_t p, const PageRef &) {
        if (p >= first_page && p < last_page)
            candidates.push_back(p);
    };
    pages.forEach(inRange);
    other.pages.forEach(inRange);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (std::uint64_t p : candidates)
        if (auto d = pageDifference(p))
            return d;
    return std::nullopt;
}

BackingStore
BackingStore::slice(Addr from, std::uint64_t size) const
{
    SNF_ASSERT(contains(from, size), "slice range outside store");
    BackingStore out(rangeBase, rangeSize);
    const std::uint64_t first_page = (from - rangeBase) / kPageBytes;
    const std::uint64_t last_page =
        (from - rangeBase + size + kPageBytes - 1) / kPageBytes;
    for (std::uint64_t p = first_page; p < last_page; ++p)
        if (const PageRef *ref = pages.find(p))
            out.pages.insert(p, *ref);
    return out;
}

} // namespace snf::mem
