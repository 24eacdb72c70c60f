/**
 * @file
 * Deterministic pseudo-random number generation for workloads.
 *
 * Uses splitmix64/xoshiro-style mixing so runs are reproducible across
 * platforms independent of libstdc++'s distribution implementations.
 */

#ifndef SNF_SIM_RNG_HH
#define SNF_SIM_RNG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace snf::sim
{

/** Small, fast, deterministic PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL);

    /**
     * Derive an independent child stream. The child's sequence is a
     * pure function of this stream's *seed* and @p stream — never of
     * how many values have been drawn — so consumers holding split
     * streams (program generator, scheduler jitter, fault model) stay
     * reproducible under one top-level seed even when one of them
     * changes how many draws it makes. Children can be split again;
     * split(a) and split(b) are distinct for a != b.
     */
    Rng split(std::uint64_t stream) const;

    /** The seed this stream was constructed from. */
    std::uint64_t seed() const { return origin; }

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p);

    /** Uniform printable ASCII string of length @p len. */
    std::string str(std::size_t len);

  private:
    std::uint64_t origin;
    std::uint64_t s[4];
};

/**
 * Zipfian key-popularity generator (YCSB-style) over [0, n).
 * theta in (0, 1); larger theta = more skew.
 *
 * The O(n) normalizer zeta(n, theta) is summed once per distinct
 * (n, theta) per process and shared by every later construction, from
 * any thread. The sum is the same sequential loop either way, so a
 * memoized Zipf samples bit-identically to a freshly summed one.
 */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double theta);

    std::uint64_t sample(Rng &rng) const;

    std::uint64_t n() const { return numItems; }

    /** zeta(n, theta) = sum of 1 / i^theta for i in [1, n]. */
    double zeta() const { return zetan; }

    /** zeta sums computed so far in this process (memo misses). */
    static std::uint64_t zetaBuilds();

  private:
    std::uint64_t numItems;
    double theta;
    double alpha;
    double zetan;
    double eta;
};

} // namespace snf::sim

#endif // SNF_SIM_RNG_HH
