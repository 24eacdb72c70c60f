#include "core/flag_table.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
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

std::string
FlagTable::parseCount(const char *flag, const char *value,
                      CountRange range, std::uint64_t max,
                      std::uint64_t *out)
{
    std::uint64_t n = 0;
    if (!tryParseCount(value, &n))
        return strfmt("%s needs a number, got '%s'", flag, value);
    if (range == CountRange::Positive && n == 0)
        return strfmt("%s needs a count >= 1, got '%s'", flag, value);
    if (range == CountRange::Shards && (n == 0 || n > 64))
        return strfmt("%s needs a shard count in [1,64], got '%s'",
                      flag, value);
    if (range == CountRange::Jobs && n > kMaxJobs)
        return strfmt("%s needs a worker count <= %llu, got '%s'", flag,
                      static_cast<unsigned long long>(kMaxJobs), value);
    if (n > max)
        return strfmt("%s needs a count <= %llu, got '%s'", flag,
                      static_cast<unsigned long long>(max), value);
    *out = n;
    return "";
}

std::string
FlagTable::parseReal(const char *flag, const char *value,
                     RealRange range, double *out)
{
    double x = 0.0;
    if (!tryParseReal(value, &x))
        return strfmt("%s needs a number, got '%s'", flag, value);
    if (range == RealRange::Unit && !(x >= 0.0 && x <= 1.0))
        return strfmt("%s needs a probability in [0,1], got '%s'", flag,
                      value);
    if (range == RealRange::OpenUnit && !(x > 0.0 && x < 1.0))
        return strfmt("%s needs a value strictly inside (0,1), got "
                      "'%s'",
                      flag, value);
    if (range == RealRange::Duration && !(x > 0.0))
        return strfmt("%s needs a positive duration, got '%s'", flag,
                      value);
    *out = x;
    return "";
}

FlagTable &
FlagTable::option(const char *name, const char *help,
                  std::function<void()> act)
{
    entries.push_back({name, "", help, [act](const char *) {
                           act();
                           return std::string();
                       }});
    return *this;
}

FlagTable &
FlagTable::option(const char *name, bool *target, const char *help,
                  bool value)
{
    return option(name, help, [target, value] { *target = value; });
}

FlagTable &
FlagTable::value(const char *name, const char *metavar,
                 const char *help, Setter set)
{
    entries.push_back({name, metavar, help, std::move(set)});
    return *this;
}

FlagTable &
FlagTable::real(const char *name, const char *metavar, double *target,
                const char *help, RealRange range)
{
    return value(name, metavar, help,
                 [name, target, range](const char *v) {
                     return parseReal(name, v, range, target);
                 });
}

FlagStatus
FlagTable::scan(const std::vector<std::string> &args, std::string *err)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &tok = args[i];
        if (tok == "--help")
            return FlagStatus::Help;
        auto e = std::find_if(
            entries.begin(), entries.end(), [&tok](const Entry &e) {
                return tok == e.name ||
                       (!e.metavar.empty() &&
                        tok.size() > e.name.size() &&
                        tok.compare(0, e.name.size(), e.name) == 0 &&
                        tok[e.name.size()] == '=');
            });
        if (e == entries.end()) {
            *err = "unknown argument '" + tok + "'";
            return FlagStatus::Unknown;
        }
        const char *v = nullptr;
        if (!e->metavar.empty()) {
            if (tok.size() > e->name.size()) {
                v = tok.c_str() + e->name.size() + 1;
            } else if (i + 1 < args.size()) {
                v = args[++i].c_str();
            } else {
                *err = e->name + " needs a value";
                return FlagStatus::Error;
            }
        }
        *err = e->set(v);
        if (!err->empty())
            return FlagStatus::Error;
    }
    return FlagStatus::Ok;
}

void
FlagTable::parse(int argc, char **argv)
{
    std::string err;
    std::vector<std::string> args(argv + 1, argv + argc);
    switch (scan(args, &err)) {
      case FlagStatus::Ok:
        return;
      case FlagStatus::Help:
        usage();
        std::exit(0);
      case FlagStatus::Unknown:
        usage();
        [[fallthrough]];
      case FlagStatus::Error:
        fatal("%s", err.c_str());
    }
}

void
FlagTable::usage() const
{
    std::printf("usage: %s [options]\n", tool.c_str());
    for (const Entry &e : entries) {
        std::string lhs = e.name;
        if (!e.metavar.empty())
            lhs += " " + e.metavar;
        if (lhs.size() > 24)
            std::printf("  %s\n  %-24s %s\n", lhs.c_str(), "",
                        e.help.c_str());
        else
            std::printf("  %-24s %s\n", lhs.c_str(), e.help.c_str());
    }
    std::printf("  %-24s %s\nEvery value flag also accepts "
                "--flag=value.\n",
                "--help", "print this text and exit");
}

std::string
FaultFlagSet::setPreset(const char *v)
{
    if (!explicitRates.empty())
        return std::string("--fault-preset ") + v +
               " would overwrite earlier explicit fault rates; put "
               "the preset first and tune after it";
    auto it = std::find_if(presets.begin(), presets.end(),
                           [v](const Preset &p) { return p.name == v; });
    if (it == presets.end())
        return std::string("unknown preset '") + v +
               "' (expected light heavy)";
    for (const auto &[field, value] : it->values)
        *field = value;
    active = &*it;
    return "";
}

std::string
FaultFlagSet::setRate(const std::string &flag, double *target,
                      const char *v)
{
    double rate = 0.0;
    if (!tryParseReal(v, &rate))
        return flag + " needs a number, got '" + v + "'";
    if (rate < 0.0 || rate > 1.0)
        return flag + " " + v + " is not a probability in [0,1]";
    // A preset lists only the fields it sets nonzero.
    if (active && rate == 0.0 &&
        std::any_of(active->values.begin(), active->values.end(),
                    [target](const auto &fv) {
                        return fv.first == target;
                    }))
        return flag + " 0 contradicts --fault-preset '" + active->name +
               "' which enables that fault class; drop the preset or "
               "the override";
    *target = rate;
    explicitRates.push_back(target);
    return "";
}

} // namespace snf
