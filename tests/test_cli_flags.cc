/**
 * @file
 * Tests for the tools' flag table (core/flag_table.hh): the fault
 * families' preset/explicit-rate ordering contract, the
 * contradiction diagnostics, the seed exemption, both flag
 * spellings, the strict count/real rule and its ranges, counts
 * checked against the type of the field they are stored in, enum
 * choices and the generated usage text.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/flag_table.hh"
#include "core/system_config.hh"

using namespace snf;

namespace
{

const FaultFlagSet::Rate<FaultModelConfig> kRates[] = {
    {"--fault-bitflip", &FaultModelConfig::bitFlipProb, ""},
    {"--fault-multibit", &FaultModelConfig::multiBitProb, ""},
    {"--fault-drop", &FaultModelConfig::dropWriteProb, ""}};

/** Three of snfsim's live-fault flags (seed 1) in a table. */
struct Fixture : FaultModelConfig
{
    FlagTable table{"test"};
    FaultFlagSet flags{table, *static_cast<FaultModelConfig *>(this),
                       kRates};

    Fixture() { seed = 1; }

    FlagStatus
    parse(std::vector<std::string> args, std::string *err = nullptr)
    {
        std::string ignored;
        return table.scan(args, err ? err : &ignored);
    }
};

/** Parse one count flag through a table, dying like a tool does. */
template <typename T = std::uint64_t>
T
countFlag(const char *flag, const char *value,
          CountRange range = CountRange::Any)
{
    T out{};
    FlagTable t("test");
    t.count(flag, &out, "", range);
    const char *argv[] = {"test", flag, value};
    t.parse(3, const_cast<char **>(argv));
    return out;
}

std::uint32_t
logShards(const char *value)
{
    return countFlag<std::uint32_t>("--log-shards", value,
                                    CountRange::Shards);
}

/** Parse one real flag through a table, dying like a tool does. */
double
realFlag(const char *flag, const char *value, RealRange range)
{
    double out = 0.0;
    FlagTable t("test");
    t.real(flag, "X", &out, "", range);
    const char *argv[] = {"test", flag, value};
    t.parse(3, const_cast<char **>(argv));
    return out;
}

} // namespace

TEST(FaultFlags, ExplicitRatesAndBothSpellings)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-drop=0.25"}),
              FlagStatus::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlipProb, 0.5);
    EXPECT_DOUBLE_EQ(f.dropWriteProb, 0.25);
    EXPECT_DOUBLE_EQ(f.multiBitProb, 0.0);
}

TEST(FaultFlags, PresetAssignsItsFields)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy"}), FlagStatus::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlipProb, 1e-3);
    EXPECT_DOUBLE_EQ(f.multiBitProb, 2e-4);
    EXPECT_EQ(f.flags.activePreset(), "heavy");
}

TEST(FaultFlags, PresetAfterExplicitRateIsAnError)
{
    // The silent-clobber bug this parser fixes: the preset would
    // wholesale overwrite the config and the earlier explicit rate
    // silently vanished.
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-preset",
                       "heavy"},
                      &err),
              FlagStatus::Error);
    EXPECT_NE(err.find("put the preset first"), std::string::npos);
    // The explicit rate survives untouched.
    EXPECT_DOUBLE_EQ(f.bitFlipProb, 0.5);
}

TEST(FaultFlags, ZeroingAPresetFieldIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy", "--fault-bitflip",
                       "0"},
                      &err),
              FlagStatus::Error);
    EXPECT_NE(err.find("contradicts"), std::string::npos);
    EXPECT_NE(err.find("heavy"), std::string::npos);
    EXPECT_DOUBLE_EQ(f.bitFlipProb, 1e-3); // preset value untouched
}

TEST(FaultFlags, NonzeroTuneAfterPresetIsValid)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy", "--fault-bitflip",
                       "5e-3"}),
              FlagStatus::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlipProb, 5e-3);
    EXPECT_DOUBLE_EQ(f.multiBitProb, 2e-4); // rest of the preset stands
}

TEST(FaultFlags, ZeroingAFieldThePresetLeavesAloneIsValid)
{
    // 'light' only sets bitFlip; zeroing multiBit after it
    // contradicts nothing.
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "light", "--fault-multibit",
                       "0"}),
              FlagStatus::Ok);
    EXPECT_DOUBLE_EQ(f.multiBitProb, 0.0);
}

TEST(FaultFlags, SeedIsOrderExempt)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-seed",
                       "42", "--fault-preset=light"}),
              FlagStatus::Error); // preset still rejected...
    Fixture g;
    EXPECT_EQ(g.parse({"--fault-seed=42", "--fault-preset", "light",
                       "--fault-seed", "7"}),
              FlagStatus::Ok); // ...but the seed never is
    EXPECT_EQ(g.seed, 7u);
}

TEST(FaultFlags, UnknownPresetIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-preset", "medium"}, &err),
              FlagStatus::Error);
    EXPECT_NE(err.find("unknown preset"), std::string::npos);
    EXPECT_NE(err.find("light"), std::string::npos);
    EXPECT_NE(err.find("heavy"), std::string::npos);
}

TEST(FaultFlags, OutOfRangeRateIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip", "1.5"}, &err),
              FlagStatus::Error);
    EXPECT_NE(err.find("probability"), std::string::npos);
}

TEST(FaultFlags, MalformedValueIsAnError)
{
    // strtod/strtoull without an end check read "0.5x" as 0.5 and
    // "abc" as 0, let nan past the range check, and wrapped "-1".
    const std::pair<const char *, const char *> cases[] = {
        {"--fault-bitflip", "nan"}, {"--fault-bitflip", "inf"},
        {"--fault-bitflip", "0.5x"}, {"--fault-bitflip", "abc"},
        {"--fault-seed", "abc"},     {"--fault-seed", "-1"},
        {"--fault-seed", "7x"},      {"--fault-seed", ""}};
    for (const auto &[flag, v] : cases) {
        Fixture f;
        std::string err;
        EXPECT_EQ(f.parse({flag, v}, &err), FlagStatus::Error)
            << flag << " " << v;
        EXPECT_EQ(err, std::string(flag) + " needs a number, got '" +
                           v + "'");
        EXPECT_DOUBLE_EQ(f.bitFlipProb, 0.0);
        EXPECT_EQ(f.seed, 1u);
    }
}

TEST(FaultFlags, MissingValueIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip"}, &err), FlagStatus::Error);
    EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST(FaultFlags, ForeignFlagsAreNotMine)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--workload", "sps"}, &err), FlagStatus::Unknown);
    EXPECT_EQ(err, "unknown argument '--workload'");
}

// ---- Strict count / --log-shards parsing (shared by the tools) ----

TEST(CountFlag, ParsesWholeValuesInAnyBase)
{
    EXPECT_EQ(countFlag("--jobs", "8"), 8u);
    EXPECT_EQ(countFlag("--jobs", "0"), 0u);
    EXPECT_EQ(countFlag("--max-points", "0x20"), 32u);
}

TEST(CountFlagDeathTest, RejectsGarbageWithDiagnostic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(countFlag("--jobs", "8x"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '8x'");
    EXPECT_EXIT(countFlag("--jobs", ""),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number");
    EXPECT_EXIT(countFlag("--jobs", "four"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got 'four'");
    // strtoull would wrap this to 2^64-1.
    EXPECT_EXIT(countFlag("--jobs", "-1"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '-1'");
    EXPECT_EXIT(countFlag("--jobs", "+4"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '\\+4'");
    // strtoull would clamp this to 2^64-1.
    EXPECT_EXIT(countFlag("--jobs", "18446744073709551616"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '18446744073709551616'");
}

TEST(LogShardsFlag, AcceptsTheFullMaskRange)
{
    EXPECT_EQ(logShards("1"), 1u);
    EXPECT_EQ(logShards("4"), 4u);
    EXPECT_EQ(logShards("64"), 64u);
}

TEST(JobsFlag, AcceptsZeroThroughTheBound)
{
    EXPECT_EQ(countFlag("--jobs", "0", CountRange::Jobs), 0u);
    EXPECT_EQ(countFlag("--jobs", "256", CountRange::Jobs), kMaxJobs);
}

TEST(JobsFlagDeathTest, RejectsCountsAboveTheBound)
{
    // One host thread per job: a huge count must not reach a pool.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(countFlag("--jobs", "257", CountRange::Jobs),
                ::testing::ExitedWithCode(1),
                "--jobs needs a worker count <= 256, got '257'");
    EXPECT_EXIT(countFlag("--jobs", "4294967297", CountRange::Jobs),
                ::testing::ExitedWithCode(1),
                "--jobs needs a worker count <= 256, got '4294967297'");
}

TEST(PoolSize, NoMoreWorkersThanItemsAndAtLeastOne)
{
    EXPECT_EQ(poolSize(4, 12), 4u);
    EXPECT_EQ(poolSize(kMaxJobs, 12), 12u); // snfoltp's 12 cells
    EXPECT_EQ(poolSize(0, 12), 1u);
    EXPECT_EQ(poolSize(8, 0), 1u);
}

TEST(PositiveCountFlag, AcceptsAnyNonzeroCount)
{
    EXPECT_EQ(countFlag("--threads", "1", CountRange::Positive), 1u);
    EXPECT_EQ(countFlag("--bench-repeats", "5", CountRange::Positive),
              5u);
    EXPECT_EQ(countFlag("--threads", "0x40", CountRange::Positive), 64u);
}

TEST(PositiveCountFlagDeathTest, RejectsZeroAndGarbage)
{
    // 0 silently degenerates the run (no threads, no repeats), so it
    // is a hard error; garbage fails the strict number parse first.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(countFlag("--threads", "0", CountRange::Positive),
                ::testing::ExitedWithCode(1),
                "--threads needs a count >= 1, got '0'");
    EXPECT_EXIT(countFlag("--bench-repeats", "3x",
                          CountRange::Positive),
                ::testing::ExitedWithCode(1),
                "--bench-repeats needs a number, got '3x'");
    EXPECT_EXIT(countFlag("--bench-repeats", "", CountRange::Positive),
                ::testing::ExitedWithCode(1),
                "--bench-repeats needs a number");
}

TEST(LogShardsFlagDeathTest, RejectsZeroOverflowAndGarbage)
{
    // 0 shards is meaningless and 64 is the participation-mask
    // width; garbage must fail the strict number parse first.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(logShards("0"),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a shard count in \\[1,64\\]");
    EXPECT_EXIT(logShards("65"),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a shard count in \\[1,64\\]");
    EXPECT_EXIT(logShards("2q"),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a number, got '2q'");
}

TEST(OpenUnitFlag, AcceptsInteriorValues)
{
    const RealRange open = RealRange::OpenUnit;
    EXPECT_DOUBLE_EQ(realFlag("--zipf-theta", "0.9", open), 0.9);
    EXPECT_DOUBLE_EQ(realFlag("--zipf-theta", "0.001", open), 0.001);
    EXPECT_DOUBLE_EQ(realFlag("--zipf-theta", ".5", open), 0.5);
}

TEST(OpenUnitFlagDeathTest, RejectsBoundsAndGarbage)
{
    // The interval is open: theta = 0 silently degenerates Zipf to
    // uniform and theta = 1 is outside the distribution's validity
    // range, so both are hard errors, as is a half-parsed value.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(realFlag("--zipf-theta", "0", RealRange::OpenUnit),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(realFlag("--zipf-theta", "1", RealRange::OpenUnit),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(realFlag("--zipf-theta", "1.5", RealRange::OpenUnit),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(realFlag("--zipf-theta", "-0.2", RealRange::OpenUnit),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(realFlag("--zipf-theta", "0.5x", RealRange::OpenUnit),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a number, got '0.5x'");
    EXPECT_EXIT(realFlag("--zipf-theta", "", RealRange::OpenUnit),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a number");
}

TEST(UnitFlag, AcceptsTheClosedInterval)
{
    EXPECT_DOUBLE_EQ(realFlag("--conflict-rate", "0", RealRange::Unit), 0.0);
    EXPECT_DOUBLE_EQ(realFlag("--conflict-rate", "1", RealRange::Unit), 1.0);
    EXPECT_DOUBLE_EQ(realFlag("--load-rate", "0.25", RealRange::Unit), 0.25);
    EXPECT_DOUBLE_EQ(realFlag("--load-rate", "1e-1", RealRange::Unit), 0.1);
}

TEST(UnitFlagDeathTest, RejectsOutOfRangeAndGarbage)
{
    // atof read "0.5x" as 0.5 and "abc" as 0; both are now errors.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(realFlag("--conflict-rate", "1.5", RealRange::Unit),
                ::testing::ExitedWithCode(1),
                "--conflict-rate needs a probability in \\[0,1\\]");
    EXPECT_EXIT(realFlag("--conflict-rate", "-0.1", RealRange::Unit),
                ::testing::ExitedWithCode(1),
                "--conflict-rate needs a probability in \\[0,1\\]");
    EXPECT_EXIT(realFlag("--load-rate", "nan", RealRange::Unit),
                ::testing::ExitedWithCode(1),
                "--load-rate needs a number, got 'nan'");
    EXPECT_EXIT(realFlag("--load-rate", "1e999", RealRange::Unit),
                ::testing::ExitedWithCode(1),
                "--load-rate needs a number, got '1e999'");
    EXPECT_EXIT(realFlag("--load-rate", "0.5x", RealRange::Unit),
                ::testing::ExitedWithCode(1),
                "--load-rate needs a number, got '0.5x'");
    EXPECT_EXIT(realFlag("--conflict-rate", "", RealRange::Unit),
                ::testing::ExitedWithCode(1),
                "--conflict-rate needs a number");
}

// ---- The table itself: typed targets, choices, switches, usage ----

TEST(FlagTableDeathTest, CountsMustFitTheirField)
{
    // Stored through a static_cast, a 64-bit parse wraps:
    // --threads 4294967297 would run 1 thread and --fault-kill-shard
    // 4294967296 would kill shard 0.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EQ(countFlag<std::uint32_t>("--threads", "4294967295"),
              4294967295u);
    EXPECT_EQ(countFlag<std::int32_t>("--kill", "2147483647"),
              2147483647);
    EXPECT_EXIT(countFlag<std::uint32_t>("--threads", "4294967297"),
                ::testing::ExitedWithCode(1),
                "--threads needs a count <= 4294967295, got "
                "'4294967297'");
    EXPECT_EXIT(countFlag<std::int32_t>("--kill", "2147483648"),
                ::testing::ExitedWithCode(1),
                "--kill needs a count <= 2147483647, got '2147483648'");
}

TEST(FlagTable, ChoicesSwitchesAndBothSpellings)
{
    PersistMode mode = PersistMode::Fwb;
    CcMode cc = CcMode::None;
    bool on = false;
    std::string out, err;
    FlagTable t("tool");
    t.choice("--cc", &cc, kAllCcModes, ccModeName, "cc scheme",
             "--cc wants 2pl, tl2, or none")
        .choice("--mode", &mode, kAllModes, persistModeName, "",
                "unknown mode '%s'")
        .option("--on", &on, "a switch")
        .text("--out", "FILE", &out, "a path");
    EXPECT_EQ(t.scan({"--mode=undo-clwb", "--cc", "tl2", "--on", "--out",
                      "-"},
                     &err),
              FlagStatus::Ok);
    EXPECT_EQ(mode, PersistMode::UndoClwb);
    EXPECT_EQ(cc, CcMode::Tl2);
    EXPECT_TRUE(on);
    EXPECT_EQ(out, "-");
    EXPECT_EQ(t.scan({"--mode", "bogus"}, &err), FlagStatus::Error);
    EXPECT_EQ(err, "unknown mode 'bogus'");
    EXPECT_EQ(t.scan({"--cc=x"}, &err), FlagStatus::Error);
    EXPECT_EQ(err, "--cc wants 2pl, tl2, or none");
    EXPECT_EQ(t.scan({"--out"}, &err), FlagStatus::Error);
    EXPECT_EQ(err, "--out needs a value");
    // A switch takes no value, and a prefix is not a flag.
    EXPECT_EQ(t.scan({"--on=1"}, &err), FlagStatus::Unknown);
    EXPECT_EQ(t.scan({"--mod", "fwb"}, &err), FlagStatus::Unknown);
    EXPECT_EQ(err, "unknown argument '--mod'");
    EXPECT_EQ(t.scan({"--on", "--help", "--bogus"}, &err),
              FlagStatus::Help);

    // The usage text is generated from the same entries.
    ::testing::internal::CaptureStdout();
    t.usage();
    std::string text = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(text.substr(0, text.find("  --mode")),
              "usage: tool [options]\n"
              "  --cc 2pl|tl2|none        cc scheme\n");
    EXPECT_NE(text.find("\n  --on                     a switch\n"
                        "  --out FILE               a path\n"
                        "  --help                   print this text and "
                        "exit\n"),
              std::string::npos);
}
