#include "sim/rng.hh"

#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "sim/logging.hh"

namespace snf::sim
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : origin(seed)
{
    std::uint64_t x = seed;
    for (auto &w : s)
        w = splitmix64(x);
}

Rng
Rng::split(std::uint64_t stream) const
{
    // Two splitmix rounds over (origin, stream). Using the stored
    // construction seed instead of the live xoshiro state is what
    // makes children independent of the parent's draw history.
    std::uint64_t x = origin + (stream + 1) * 0x9e3779b97f4a7c15ULL;
    std::uint64_t derived = splitmix64(x);
    derived ^= splitmix64(x);
    return Rng(derived);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    SNF_ASSERT(bound > 0, "Rng::below(0)");
    // Rejection-free Lemire-style bounded draw is overkill here; modulo
    // bias is negligible for workload generation with 64-bit draws.
    return next() % bound;
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    SNF_ASSERT(lo <= hi, "Rng::range lo > hi");
    return lo + below(hi - lo + 1);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

std::string
Rng::str(std::size_t len)
{
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string out;
    out.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        out.push_back(alphabet[below(sizeof(alphabet) - 1)]);
    return out;
}

namespace
{

/** Sum 1 / i^theta for i in [1, n], in order (the order fixes the bits). */
double
zetaSum(std::uint64_t n, double theta)
{
    double z = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        z += 1.0 / std::pow(static_cast<double>(i), theta);
    return z;
}

std::atomic<std::uint64_t> zetaBuildCount{0};

/**
 * zetaSum(n, theta), computed once per process per (n, theta). The
 * table lock only finds or inserts the entry; the sum runs under the
 * entry's once_flag, so threads racing on one key wait for a single
 * build while builds of different keys proceed in parallel. std::map
 * nodes never move, so entry pointers outlive later insertions.
 */
double
memoZeta(std::uint64_t n, double theta)
{
    struct Entry
    {
        std::once_flag built;
        double value = 0.0;
    };
    static std::mutex lock;
    static std::map<std::pair<std::uint64_t, std::uint64_t>, Entry> table;

    Entry *e = nullptr;
    {
        std::lock_guard<std::mutex> g(lock);
        e = &table[{n, std::bit_cast<std::uint64_t>(theta)}];
    }
    std::call_once(e->built, [&] {
        e->value = zetaSum(n, theta);
        zetaBuildCount.fetch_add(1, std::memory_order_relaxed);
    });
    return e->value;
}

} // namespace

Zipf::Zipf(std::uint64_t n, double t)
    : numItems(n), theta(t)
{
    SNF_ASSERT(n > 0, "Zipf over empty set");
    SNF_ASSERT(theta > 0.0 && theta < 1.0, "Zipf theta out of range");
    zetan = memoZeta(n, theta);
    alpha = 1.0 / (1.0 - theta);
    // sample() answers n <= 2 from zetan alone; the general formula's
    // denominator 1 - zeta2/zetan is zero there.
    eta = 0.0;
    if (n > 2) {
        const double zeta2 = zetaSum(2, theta);
        eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
              (1.0 - zeta2 / zetan);
    }
}

std::uint64_t
Zipf::zetaBuilds()
{
    return zetaBuildCount.load(std::memory_order_relaxed);
}

std::uint64_t
Zipf::sample(Rng &rng) const
{
    double u = rng.uniform();
    double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta))
        return 1;
    auto v = static_cast<std::uint64_t>(
        static_cast<double>(numItems) *
        std::pow(eta * u - eta + 1.0, alpha));
    return v >= numItems ? numItems - 1 : v;
}

} // namespace snf::sim
