/**
 * @file
 * The simulator's one hash table for its per-line and per-page side
 * tables: a 64-bit key to a value, open addressing in a single slot
 * array. Lookups probe linearly from a Fibonacci (multiplicative)
 * hash of the key; the capacity is a power of two kept at least twice
 * the entry count. Erase shifts the rest of the probe run back one
 * slot instead of leaving a tombstone, so a run never holds a dead
 * slot and lookups stay as short after erase-heavy phases as before.
 *
 * The all-ones key marks an empty slot and cannot be stored: line
 * addresses, page indices and transaction sequence numbers never
 * take it. Every insert or erase may move other entries, so a value
 * pointer is good only until the next insert or erase. Iteration
 * order is unspecified; the tables that must be deterministic are
 * never iterated.
 */

#ifndef SNF_SIM_FLAT_MAP_HH
#define SNF_SIM_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace snf::sim
{

/** See file comment. */
template <typename V>
class FlatMap
{
  public:
    using Key = std::uint64_t;

    /** The key of an empty slot; it can never be stored. */
    static constexpr Key kEmptyKey = ~Key{0};

    FlatMap() = default;
    FlatMap(const FlatMap &) = default;
    FlatMap &operator=(const FlatMap &) = default;

    FlatMap(FlatMap &&other) noexcept
        : slots(std::move(other.slots)),
          count(std::exchange(other.count, 0)),
          shift(std::exchange(other.shift, 64))
    {
    }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        slots = std::move(other.slots);
        other.slots.clear();
        count = std::exchange(other.count, 0);
        shift = std::exchange(other.shift, 64);
        return *this;
    }

    /** The value stored under @p key, or nullptr. */
    V *
    find(Key key)
    {
        if (count == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &s = slots[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    const V *
    find(Key key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** The value under @p key, value-initialized first if absent. */
    V &
    operator[](Key key)
    {
        SNF_ASSERT(key != kEmptyKey, "FlatMap cannot hold the empty key");
        if (!slots.empty()) {
            std::size_t i = home(key);
            for (; slots[i].key != kEmptyKey; i = next(i))
                if (slots[i].key == key)
                    return slots[i].value;
            if (2 * (count + 1) <= slots.size())
                return claim(i, key);
        }
        grow();
        std::size_t i = home(key);
        while (slots[i].key != kEmptyKey)
            i = next(i);
        return claim(i, key);
    }

    /** Add @p value under @p key, which must be absent. */
    void
    insert(Key key, V value)
    {
        const std::size_t before = count;
        V &slot = (*this)[key];
        SNF_ASSERT(count == before + 1, "key %llu inserted twice",
                   static_cast<unsigned long long>(key));
        slot = std::move(value);
    }

    /** Remove @p key; false if it was absent. */
    bool
    erase(Key key)
    {
        if (count == 0)
            return false;
        std::size_t hole = home(key);
        for (; slots[hole].key != key; hole = next(hole))
            if (slots[hole].key == kEmptyKey)
                return false;
        // Backward shift: pull each later entry of the probe run into
        // the hole unless its home lies after the hole (cyclically),
        // where the move would put it before its own home.
        const std::size_t mask = slots.size() - 1;
        for (std::size_t j = next(hole); slots[j].key != kEmptyKey;
             j = next(j)) {
            const std::size_t fromHome = (j - home(slots[j].key)) & mask;
            if (fromHome >= ((j - hole) & mask)) {
                slots[hole] = std::move(slots[j]);
                hole = j;
            }
        }
        slots[hole] = Slot{};
        --count;
        return true;
    }

    /** Drop every entry; the capacity stays. */
    void
    clear()
    {
        for (Slot &s : slots)
            s = Slot{};
        count = 0;
    }

    std::size_t size() const { return count; }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Key key = kEmptyKey;
        V value{};
    };

    /** Only called with slots non-empty (shift < 64). */
    std::size_t
    home(Key key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots.size() - 1);
    }

    V &
    claim(std::size_t i, Key key)
    {
        slots[i].key = key;
        ++count;
        return slots[i].value;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots);
        slots = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
        shift = 64 - static_cast<unsigned>(std::countr_zero(slots.size()));
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots[i].key != kEmptyKey)
                i = next(i);
            slots[i] = std::move(s);
        }
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
    /** 64 - log2(capacity). */
    unsigned shift = 64;
};

} // namespace snf::sim

#endif // SNF_SIM_FLAT_MAP_HH
