#include "core/fault_flags.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace snf
{

bool
tryParseCount(const char *value, std::uint64_t *out)
{
    // strtoull accepts a sign and wraps "-1" to 2^64-1, and clamps
    // an overflowing value to 2^64-1; a count has neither.
    char *end = nullptr;
    errno = 0;
    std::uint64_t n = std::strtoull(value, &end, 0);
    if (end == value || *end != '\0' || errno == ERANGE ||
        std::strpbrk(value, "+-"))
        return false;
    *out = n;
    return true;
}

bool
tryParseReal(const char *value, double *out)
{
    // strtod reads "nan" and "inf" (and overflows "1e999" to inf);
    // no flag means any of them.
    char *end = nullptr;
    double x = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(x))
        return false;
    *out = x;
    return true;
}

std::uint64_t
parseCountFlag(const char *flag, const char *value)
{
    std::uint64_t n = 0;
    if (!tryParseCount(value, &n))
        fatal("%s needs a number, got '%s'", flag, value);
    return n;
}

double
parseRealFlag(const char *flag, const char *value)
{
    double x = 0.0;
    if (!tryParseReal(value, &x))
        fatal("%s needs a number, got '%s'", flag, value);
    return x;
}

std::uint32_t
parseLogShardsFlag(const char *flag, const char *value)
{
    std::uint64_t n = parseCountFlag(flag, value);
    if (n == 0 || n > 64)
        fatal("%s needs a shard count in [1,64], got '%s'", flag,
              value);
    return static_cast<std::uint32_t>(n);
}

std::uint64_t
parsePositiveCountFlag(const char *flag, const char *value)
{
    std::uint64_t n = parseCountFlag(flag, value);
    if (n == 0)
        fatal("%s needs a count >= 1, got '%s'", flag, value);
    return n;
}

double
parseOpenUnitFlag(const char *flag, const char *value)
{
    double x = parseRealFlag(flag, value);
    if (!(x > 0.0 && x < 1.0))
        fatal("%s needs a value strictly inside (0,1), got '%s'",
              flag, value);
    return x;
}

double
parseUnitFlag(const char *flag, const char *value)
{
    double x = parseRealFlag(flag, value);
    if (!(x >= 0.0 && x <= 1.0))
        fatal("%s needs a probability in [0,1], got '%s'", flag, value);
    return x;
}

void
FaultFlagSet::addRate(const std::string &flag, double *target)
{
    rates.push_back(RateFlag{flag, target});
}

void
FaultFlagSet::addSeed(const std::string &flag, std::uint64_t *target)
{
    seedFlag = flag;
    seedTarget = target;
}

void
FaultFlagSet::setPresetFlag(const std::string &flag)
{
    presetFlag = flag;
}

void
FaultFlagSet::addPreset(const std::string &name,
                        std::vector<std::pair<double *, double>> values)
{
    presets.push_back(Preset{name, std::move(values)});
}

bool
FaultFlagSet::takeValue(const std::vector<std::string> &args,
                        std::size_t &i, const std::string &flag,
                        std::string &valueOut, std::string *err) const
{
    const std::string &tok = args[i];
    if (tok.size() > flag.size() && tok[flag.size()] == '=') {
        valueOut = tok.substr(flag.size() + 1);
        return true;
    }
    if (i + 1 >= args.size()) {
        if (err)
            *err = flag + " needs a value";
        return false;
    }
    valueOut = args[++i];
    return true;
}

FlagParse
FaultFlagSet::consume(const std::vector<std::string> &args,
                      std::size_t &i, std::string *err)
{
    const std::string &tok = args[i];
    auto matches = [&tok](const std::string &flag) {
        return tok == flag ||
               (tok.size() > flag.size() &&
                tok.compare(0, flag.size(), flag) == 0 &&
                tok[flag.size()] == '=');
    };
    auto notANumber = [err](const std::string &flag,
                            const std::string &v) {
        if (err)
            *err = flag + " needs a number, got '" + v + "'";
        return FlagParse::Error;
    };

    if (seedTarget && matches(seedFlag)) {
        std::string v;
        if (!takeValue(args, i, seedFlag, v, err))
            return FlagParse::Error;
        if (!tryParseCount(v.c_str(), seedTarget))
            return notANumber(seedFlag, v);
        return FlagParse::Ok;
    }

    if (!presetFlag.empty() && matches(presetFlag)) {
        std::string v;
        if (!takeValue(args, i, presetFlag, v, err))
            return FlagParse::Error;
        if (!explicitRates.empty()) {
            if (err)
                *err = presetFlag + " " + v +
                       " would overwrite earlier explicit fault "
                       "rates; put the preset first and tune after it";
            return FlagParse::Error;
        }
        auto it = std::find_if(presets.begin(), presets.end(),
                               [&v](const Preset &p) {
                                   return p.name == v;
                               });
        if (it == presets.end()) {
            if (err) {
                *err = "unknown preset '" + v + "' (expected";
                for (const Preset &p : presets)
                    *err += " " + p.name;
                *err += ")";
            }
            return FlagParse::Error;
        }
        for (const auto &[field, value] : it->values)
            *field = value;
        presetName = v;
        return FlagParse::Ok;
    }

    for (const RateFlag &rf : rates) {
        if (!matches(rf.flag))
            continue;
        std::string v;
        if (!takeValue(args, i, rf.flag, v, err))
            return FlagParse::Error;
        double rate = 0.0;
        if (!tryParseReal(v.c_str(), &rate))
            return notANumber(rf.flag, v);
        if (rate < 0.0 || rate > 1.0) {
            if (err)
                *err = rf.flag + " " + v +
                       " is not a probability in [0,1]";
            return FlagParse::Error;
        }
        if (!presetName.empty() && rate == 0.0) {
            const Preset &p = *std::find_if(
                presets.begin(), presets.end(),
                [this](const Preset &q) {
                    return q.name == presetName;
                });
            bool preset_sets = std::any_of(
                p.values.begin(), p.values.end(),
                [&rf](const std::pair<double *, double> &fv) {
                    return fv.first == rf.target && fv.second > 0.0;
                });
            if (preset_sets) {
                if (err)
                    *err = rf.flag + " 0 contradicts " + presetFlag +
                           " '" + presetName +
                           "' which enables that fault class; drop "
                           "the preset or the override";
                return FlagParse::Error;
            }
        }
        *rf.target = rate;
        explicitRates.push_back(rf.target);
        return FlagParse::Ok;
    }
    return FlagParse::NotMine;
}

} // namespace snf
