/**
 * @file
 * Tests for the shared fault-flag CLI parser (core/fault_flags.hh):
 * the preset/explicit-rate ordering contract, the contradiction
 * diagnostics, the seed exemption, and both flag spellings.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fault_flags.hh"

using namespace snf;

namespace
{

/** A fault-config stand-in plus a fully wired flag set over it. */
struct Fixture
{
    double bitFlip = 0.0;
    double multiBit = 0.0;
    double drop = 0.0;
    std::uint64_t seed = 1;
    FaultFlagSet flags;

    Fixture()
    {
        flags.addRate("--fault-bitflip", &bitFlip);
        flags.addRate("--fault-multibit", &multiBit);
        flags.addRate("--fault-drop", &drop);
        flags.addSeed("--fault-seed", &seed);
        flags.setPresetFlag("--fault-preset");
        flags.addPreset("light", {{&bitFlip, 1e-4}});
        flags.addPreset("heavy",
                        {{&bitFlip, 1e-3}, {&multiBit, 2e-4}});
    }

    /** Feed the whole arg vector; returns the first non-Ok result. */
    FlagParse
    parse(std::vector<std::string> args, std::string *err = nullptr)
    {
        for (std::size_t i = 0; i < args.size(); ++i) {
            FlagParse r = flags.consume(args, i, err);
            if (r != FlagParse::Ok)
                return r;
        }
        return FlagParse::Ok;
    }
};

} // namespace

TEST(FaultFlags, ExplicitRatesAndBothSpellings)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-drop=0.25"}),
              FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlip, 0.5);
    EXPECT_DOUBLE_EQ(f.drop, 0.25);
    EXPECT_DOUBLE_EQ(f.multiBit, 0.0);
}

TEST(FaultFlags, PresetAssignsItsFields)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy"}), FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlip, 1e-3);
    EXPECT_DOUBLE_EQ(f.multiBit, 2e-4);
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
              FlagParse::Error);
    EXPECT_NE(err.find("put the preset first"), std::string::npos);
    // The explicit rate survives untouched.
    EXPECT_DOUBLE_EQ(f.bitFlip, 0.5);
}

TEST(FaultFlags, ZeroingAPresetFieldIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy", "--fault-bitflip",
                       "0"},
                      &err),
              FlagParse::Error);
    EXPECT_NE(err.find("contradicts"), std::string::npos);
    EXPECT_NE(err.find("heavy"), std::string::npos);
    EXPECT_DOUBLE_EQ(f.bitFlip, 1e-3); // preset value untouched
}

TEST(FaultFlags, NonzeroTuneAfterPresetIsValid)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "heavy", "--fault-bitflip",
                       "5e-3"}),
              FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.bitFlip, 5e-3);
    EXPECT_DOUBLE_EQ(f.multiBit, 2e-4); // rest of the preset stands
}

TEST(FaultFlags, ZeroingAFieldThePresetLeavesAloneIsValid)
{
    // 'light' only sets bitFlip; zeroing multiBit after it
    // contradicts nothing.
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-preset", "light", "--fault-multibit",
                       "0"}),
              FlagParse::Ok);
    EXPECT_DOUBLE_EQ(f.multiBit, 0.0);
}

TEST(FaultFlags, SeedIsOrderExempt)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--fault-bitflip", "0.5", "--fault-seed",
                       "42", "--fault-preset=light"}),
              FlagParse::Error); // preset still rejected...
    Fixture g;
    EXPECT_EQ(g.parse({"--fault-seed=42", "--fault-preset", "light",
                       "--fault-seed", "7"}),
              FlagParse::Ok); // ...but the seed never is
    EXPECT_EQ(g.seed, 7u);
}

TEST(FaultFlags, UnknownPresetIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-preset", "medium"}, &err),
              FlagParse::Error);
    EXPECT_NE(err.find("unknown preset"), std::string::npos);
    EXPECT_NE(err.find("light"), std::string::npos);
    EXPECT_NE(err.find("heavy"), std::string::npos);
}

TEST(FaultFlags, OutOfRangeRateIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip", "1.5"}, &err),
              FlagParse::Error);
    EXPECT_NE(err.find("probability"), std::string::npos);
}

TEST(FaultFlags, MissingValueIsAnError)
{
    Fixture f;
    std::string err;
    EXPECT_EQ(f.parse({"--fault-bitflip"}, &err), FlagParse::Error);
    EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST(FaultFlags, ForeignFlagsAreNotMine)
{
    Fixture f;
    std::vector<std::string> args{"--workload", "sps"};
    std::size_t i = 0;
    EXPECT_EQ(f.flags.consume(args, i, nullptr), FlagParse::NotMine);
    EXPECT_EQ(i, 0u);
}

// ---- Strict count / --log-shards parsing (shared by the tools) ----

TEST(CountFlag, ParsesWholeValuesInAnyBase)
{
    EXPECT_EQ(parseCountFlag("--jobs", "8"), 8u);
    EXPECT_EQ(parseCountFlag("--jobs", "0"), 0u);
    EXPECT_EQ(parseCountFlag("--max-points", "0x20"), 32u);
}

TEST(CountFlagDeathTest, RejectsGarbageWithDiagnostic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseCountFlag("--jobs", "8x"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '8x'");
    EXPECT_EXIT(parseCountFlag("--jobs", ""),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number");
    EXPECT_EXIT(parseCountFlag("--jobs", "four"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got 'four'");
    // strtoull would wrap this to 2^64-1.
    EXPECT_EXIT(parseCountFlag("--jobs", "-1"),
                ::testing::ExitedWithCode(1),
                "--jobs needs a number, got '-1'");
}

TEST(LogShardsFlag, AcceptsTheFullMaskRange)
{
    EXPECT_EQ(parseLogShardsFlag("--log-shards", "1"), 1u);
    EXPECT_EQ(parseLogShardsFlag("--log-shards", "4"), 4u);
    EXPECT_EQ(parseLogShardsFlag("--log-shards", "64"), 64u);
}

TEST(PositiveCountFlag, AcceptsAnyNonzeroCount)
{
    EXPECT_EQ(parsePositiveCountFlag("--threads", "1"), 1u);
    EXPECT_EQ(parsePositiveCountFlag("--bench-repeats", "5"), 5u);
    EXPECT_EQ(parsePositiveCountFlag("--threads", "0x40"), 64u);
}

TEST(PositiveCountFlagDeathTest, RejectsZeroAndGarbage)
{
    // 0 silently degenerates the run (no threads, no repeats), so it
    // is a hard error; garbage fails the strict number parse first.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parsePositiveCountFlag("--threads", "0"),
                ::testing::ExitedWithCode(1),
                "--threads needs a count >= 1, got '0'");
    EXPECT_EXIT(parsePositiveCountFlag("--bench-repeats", "3x"),
                ::testing::ExitedWithCode(1),
                "--bench-repeats needs a number, got '3x'");
    EXPECT_EXIT(parsePositiveCountFlag("--bench-repeats", ""),
                ::testing::ExitedWithCode(1),
                "--bench-repeats needs a number");
}

TEST(LogShardsFlagDeathTest, RejectsZeroOverflowAndGarbage)
{
    // 0 shards is meaningless and 64 is the participation-mask
    // width; garbage must fail the strict number parse first.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseLogShardsFlag("--log-shards", "0"),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a shard count in \\[1,64\\]");
    EXPECT_EXIT(parseLogShardsFlag("--log-shards", "65"),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a shard count in \\[1,64\\]");
    EXPECT_EXIT(parseLogShardsFlag("--log-shards", "2q"),
                ::testing::ExitedWithCode(1),
                "--log-shards needs a number, got '2q'");
}

TEST(OpenUnitFlag, AcceptsInteriorValues)
{
    EXPECT_DOUBLE_EQ(parseOpenUnitFlag("--zipf-theta", "0.9"), 0.9);
    EXPECT_DOUBLE_EQ(parseOpenUnitFlag("--zipf-theta", "0.001"),
                     0.001);
    EXPECT_DOUBLE_EQ(parseOpenUnitFlag("--zipf-theta", ".5"), 0.5);
}

TEST(OpenUnitFlagDeathTest, RejectsBoundsAndGarbage)
{
    // The interval is open: theta = 0 silently degenerates Zipf to
    // uniform and theta = 1 is outside the distribution's validity
    // range, so both are hard errors, as is a half-parsed value.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseOpenUnitFlag("--zipf-theta", "0"),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseOpenUnitFlag("--zipf-theta", "1"),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseOpenUnitFlag("--zipf-theta", "1.5"),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseOpenUnitFlag("--zipf-theta", "-0.2"),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a value strictly inside \\(0,1\\)");
    EXPECT_EXIT(parseOpenUnitFlag("--zipf-theta", "0.5x"),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a number, got '0.5x'");
    EXPECT_EXIT(parseOpenUnitFlag("--zipf-theta", ""),
                ::testing::ExitedWithCode(1),
                "--zipf-theta needs a number");
}

TEST(UnitFlag, AcceptsTheClosedInterval)
{
    EXPECT_DOUBLE_EQ(parseUnitFlag("--conflict-rate", "0"), 0.0);
    EXPECT_DOUBLE_EQ(parseUnitFlag("--conflict-rate", "1"), 1.0);
    EXPECT_DOUBLE_EQ(parseUnitFlag("--load-rate", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseUnitFlag("--load-rate", "1e-1"), 0.1);
}

TEST(UnitFlagDeathTest, RejectsOutOfRangeAndGarbage)
{
    // atof read "0.5x" as 0.5 and "abc" as 0; both are now errors.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseUnitFlag("--conflict-rate", "1.5"),
                ::testing::ExitedWithCode(1),
                "--conflict-rate needs a probability in \\[0,1\\]");
    EXPECT_EXIT(parseUnitFlag("--conflict-rate", "-0.1"),
                ::testing::ExitedWithCode(1),
                "--conflict-rate needs a probability in \\[0,1\\]");
    EXPECT_EXIT(parseUnitFlag("--load-rate", "nan"),
                ::testing::ExitedWithCode(1),
                "--load-rate needs a probability in \\[0,1\\]");
    EXPECT_EXIT(parseUnitFlag("--load-rate", "0.5x"),
                ::testing::ExitedWithCode(1),
                "--load-rate needs a number, got '0.5x'");
    EXPECT_EXIT(parseUnitFlag("--conflict-rate", ""),
                ::testing::ExitedWithCode(1),
                "--conflict-rate needs a number");
}
