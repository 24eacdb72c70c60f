/**
 * @file
 * The command-line flag table every tool parses its argv with: one
 * scanner for the `--flag value` and `--flag=value` spellings, a
 * usage text generated from the entries, and typed targets that
 * range-check a count against the field it is stored in (a 64-bit
 * parse stored into a 32-bit field must not wrap).
 *
 * FaultFlagSet registers a fault-injection family (rates, seed and
 * presets) into a table and enforces its ordering contract:
 *  - a preset flag must precede every explicit rate flag, because it
 *    assigns the whole family (error: "put the preset first");
 *  - after a preset, an explicit rate may *tune* a field but not
 *    zero one the preset set nonzero (error: contradiction — drop
 *    the preset instead);
 *  - the seed flag is exempt and may appear anywhere.
 */

#ifndef SNF_CORE_FLAG_TABLE_HH
#define SNF_CORE_FLAG_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace snf
{

/**
 * The strict number rule every flag parser shares, without exiting:
 * the whole value must parse, a count takes a base prefix but no
 * sign, and a real must be finite. Otherwise return false and leave
 * @p out alone.
 */
bool tryParseCount(const char *value, std::uint64_t *out);
bool tryParseReal(const char *value, double *out);

/** What a count flag must satisfy besides fitting its field. */
enum class CountRange
{
    Any,
    Positive, ///< >= 1: thread, transaction and repeat counts
    Shards,   ///< [1, 64]: 64 is the participation-mask width
    Jobs,     ///< [0, kMaxJobs]: host worker threads (--jobs)
};

/** Largest --jobs any tool accepts: one host thread per job. */
inline constexpr std::uint64_t kMaxJobs = 256;

/** Threads for a pool of @p jobs workers over @p items work items:
 *  no more than the items, and at least one. */
inline std::size_t
poolSize(std::size_t jobs, std::size_t items)
{
    return std::max<std::size_t>(1, std::min(jobs, items));
}

/** What a real flag must satisfy besides being finite. */
enum class RealRange
{
    Unit,     ///< [0, 1]: probabilities
    OpenUnit, ///< (0, 1): Zipf skew, where 0 and 1 degenerate
    Duration, ///< > 0 seconds
};

/** Outcome of FlagTable::scan(). */
enum class FlagStatus
{
    Ok,
    Help,    ///< --help was given
    Unknown, ///< not a flag of this table; the diagnostic names it
    Error,   ///< missing or invalid value; the diagnostic names the flag
};

class FlagTable
{
  public:
    /** Stores one value; returns "" or a diagnostic naming the flag. */
    using Setter = std::function<std::string(const char *value)>;

    explicit FlagTable(std::string tool) : tool(std::move(tool)) {}

    /** A switch: its presence runs @p act. */
    FlagTable &option(const char *name, const char *help,
                      std::function<void()> act);
    /** A switch that stores @p value into @p target. */
    FlagTable &option(const char *name, bool *target, const char *help,
                      bool value = true);
    /** A value flag with its own setter (lists, side effects). */
    FlagTable &value(const char *name, const char *metavar,
                     const char *help, Setter set);
    /** A string, into a std::string or a std::optional<std::string>. */
    template <typename S>
    FlagTable &
    text(const char *name, const char *metavar, S *target,
         const char *help)
    {
        return value(name, metavar, help, [target](const char *v) {
            *target = v;
            return std::string();
        });
    }
    FlagTable &real(const char *name, const char *metavar,
                    double *target, const char *help, RealRange range);

    /** A strict count, range-checked against @p target's type. */
    template <typename T>
    FlagTable &
    count(const char *name, T *target, const char *help,
          CountRange range = CountRange::Any)
    {
        return value(name, "N", help,
                     [name, target, range](const char *v) {
                         std::uint64_t n = 0;
                         std::string err = parseCount(
                             name, v, range,
                             std::numeric_limits<T>::max(), &n);
                         if (err.empty())
                             *target = static_cast<T>(n);
                         return err;
                     });
    }

    /** One of @p values, spelled as @p nameOf prints it. */
    template <typename E, std::size_t N>
    FlagTable &
    choice(const char *name, E *target, const E (&values)[N],
           const char *(*nameOf)(E), const char *help,
           const char *badFormat)
    {
        std::string metavar;
        for (E e : values)
            metavar.append(metavar.empty() ? "" : "|").append(nameOf(e));
        entries.push_back(
            {name, metavar, help,
             [=](const char *v) {
                 return pick(v, values, nameOf, badFormat, target);
             }});
        return *this;
    }

    /**
     * Scan @p args: every token must be a registered flag or --help.
     * Stops at the first Help, Unknown or Error, with the diagnostic
     * in @p err.
     */
    FlagStatus scan(const std::vector<std::string> &args,
                    std::string *err);

    /**
     * scan() argv. --help prints the usage and exits 0; an unknown
     * argument prints the usage and is fatal; any other error is
     * fatal with its diagnostic.
     */
    void parse(int argc, char **argv);

    /** The generated usage text: one line per flag. */
    void usage() const;

    /**
     * The strict count rule plus @p range and an upper bound of
     * @p max (the target's type). Returns "" or the diagnostic.
     */
    static std::string parseCount(const char *flag, const char *value,
                                  CountRange range, std::uint64_t max,
                                  std::uint64_t *out);
    static std::string parseReal(const char *flag, const char *value,
                                 RealRange range, double *out);

    /** Store the entry of @p values named @p v; "" or badFormat. */
    template <typename E, std::size_t N>
    static std::string
    pick(const char *v, const E (&values)[N], const char *(*nameOf)(E),
         const char *badFormat, E *target)
    {
        for (E e : values) {
            if (std::string(nameOf(e)) == v) {
                *target = e;
                return "";
            }
        }
        return strfmt(badFormat, v);
    }

  private:
    struct Entry
    {
        std::string name;
        std::string metavar; ///< "" = a switch
        std::string help;
        Setter set;          ///< called with nullptr for a switch
    };

    std::string tool;
    std::vector<Entry> entries;
};

/**
 * A family of fault flags over the double rate fields of a fault
 * config: one flag per rate, --fault-seed, and --fault-preset, whose
 * light and heavy presets assign the config's light() and heavy()
 * mixes. Values follow the tryParseCount / tryParseReal rule; the
 * ordering contract is in the file comment. The table it registers
 * into must not outlive it.
 */
class FaultFlagSet
{
  public:
    /** A rate field of a fault config and its flag. */
    template <typename Cfg>
    struct Rate
    {
        const char *flag;
        double Cfg::*field;
        const char *help;
    };

    template <typename Cfg, std::size_t N>
    FaultFlagSet(FlagTable &table, Cfg &cfg, const Rate<Cfg> (&rates)[N])
    {
        for (const Rate<Cfg> &r : rates)
            table.value(r.flag, "P", r.help,
                        [this, flag = r.flag,
                         target = &(cfg.*r.field)](const char *v) {
                            return setRate(flag, target, v);
                        });
        table.count("--fault-seed", &cfg.seed,
                    "seed of the deterministic damage (default 1)");
        for (const auto &[name, mix] :
             {std::pair{"light", Cfg::light(0)},
              std::pair{"heavy", Cfg::heavy(0)}}) {
            presets.push_back({name, {}});
            for (const Rate<Cfg> &r : rates)
                if (mix.*r.field != 0.0)
                    presets.back().values.emplace_back(&(cfg.*r.field),
                                                       mix.*r.field);
        }
        table.value("--fault-preset", "light|heavy",
                    "canned fault mix; put it before any --fault-* rate",
                    [this](const char *v) { return setPreset(v); });
    }

    FaultFlagSet(const FaultFlagSet &) = delete;
    FaultFlagSet &operator=(const FaultFlagSet &) = delete;

    /** Name of the preset applied so far ("" = none). */
    std::string activePreset() const { return active ? active->name : ""; }

  private:
    struct Preset
    {
        std::string name;
        std::vector<std::pair<double *, double>> values;
    };

    std::string setRate(const std::string &flag, double *target,
                        const char *v);
    std::string setPreset(const char *v);

    std::vector<Preset> presets;
    const Preset *active = nullptr;
    std::vector<double *> explicitRates;
};

} // namespace snf

#endif // SNF_CORE_FLAG_TABLE_HH
