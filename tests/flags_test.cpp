// The shared flag grammar (tools/flags.hpp): every kind against an absent
// flag, a good value, --x=v, a missing value, a malformed number, a number
// out of range, a fractional integer, a negative-number value and an
// unknown flag.
#include "flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace {

using catalyst::flags::Args;
using catalyst::flags::Error;
using catalyst::flags::Flag;
using catalyst::flags::Kind;

constexpr Flag kTable[] = {
    {"quiet", Kind::toggle, "", "run"},
    {"out", Kind::text, "FILE", "run"},
    {"faults", Kind::optional, "SPEC", "run"},
    {"shift", Kind::real, "X", "run"},
    {"tau", Kind::positive, "X", "run"},
    {"reps", Kind::integer, "N", "run", 2, 100},
    {"out", Kind::toggle, "", "list"},
    {"level", Kind::integer, "N", "", 0, 9},
};

Args parse(std::vector<std::string> words, std::string_view commands) {
  std::string program = "prog";
  std::vector<char*> argv = {program.data()};
  for (std::string& word : words) argv.push_back(word.data());
  return catalyst::flags::parse(kTable, commands, static_cast<int>(argv.size()),
                                argv.data());
}

Args run(std::vector<std::string> words) {
  words.insert(words.begin(), "run");
  return parse(std::move(words), "run list");
}

/// The message of the Error `words` raise, or "" when they parse.
std::string refusal(std::vector<std::string> words,
                    std::string_view commands = "run list") {
  try {
    parse(std::move(words), commands);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

std::string run_refusal(std::vector<std::string> words) {
  words.insert(words.begin(), "run");
  return refusal(std::move(words));
}

TEST(Flags, AbsentFlagsReadTheirFallbacks) {
  const Args args = run({});
  EXPECT_EQ(args.positional, std::vector<std::string>{"run"});
  for (const char* name : {"quiet", "out", "faults", "shift", "tau", "reps"}) {
    EXPECT_FALSE(args.has(name)) << name;
  }
  EXPECT_EQ(args.text("out", "dflt"), "dflt");
  EXPECT_EQ(args.real("shift", -1.5), -1.5);
  EXPECT_EQ(args.real("tau", 0.25), 0.25);
  EXPECT_EQ(args.integer("reps", 7), 7u);
}

TEST(Flags, ToggleNeverTakesTheNextToken) {
  const Args args = run({"--quiet", "branch"});
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_EQ(args.positional, (std::vector<std::string>{"run", "branch"}));
  EXPECT_EQ(run_refusal({"--quiet=yes"}), "--quiet: takes no value");
}

TEST(Flags, TextTakesTheNextTokenOrTheEqualsForm) {
  EXPECT_EQ(run({"--out", "a.json"}).text("out", ""), "a.json");
  EXPECT_EQ(run({"--out=b.json"}).text("out", ""), "b.json");
  EXPECT_EQ(run({"--out", "-"}).text("out", ""), "-");
  // A flag may come before the subcommand that reads it.
  const Args early = parse({"--out", "c.json", "run"}, "run list");
  EXPECT_EQ(early.text("out", ""), "c.json");
  EXPECT_EQ(early.positional, std::vector<std::string>{"run"});
}

TEST(Flags, ValueFlagsRefuseAMissingValue) {
  EXPECT_EQ(run_refusal({"--out"}), "--out: missing value");
  EXPECT_EQ(run_refusal({"--out", "--quiet"}), "--out: missing value");
  EXPECT_EQ(run_refusal({"--out="}), "--out: missing value");
  EXPECT_EQ(run_refusal({"--shift"}), "--shift: missing value");
  EXPECT_EQ(run_refusal({"--tau", "--quiet"}), "--tau: missing value");
  EXPECT_EQ(run_refusal({"--reps"}), "--reps: missing value");
}

TEST(Flags, OptionalValueIsTheNextTokenUnlessThatIsAFlag) {
  EXPECT_TRUE(run({"--faults"}).has("faults"));
  EXPECT_EQ(run({"--faults"}).text("faults", "x"), "");
  EXPECT_EQ(run({"--faults", "mid"}).text("faults", ""), "mid");
  EXPECT_EQ(run({"--faults=drop=0.1"}).text("faults", ""), "drop=0.1");
  const Args args = run({"--faults", "--quiet"});
  EXPECT_EQ(args.text("faults", "x"), "");
  EXPECT_TRUE(args.has("quiet"));
}

TEST(Flags, RealReadsAnyFiniteNumber) {
  EXPECT_EQ(run({"--shift", "2.5"}).real("shift", 0), 2.5);
  EXPECT_EQ(run({"--shift=1e3"}).real("shift", 0), 1000.0);
  EXPECT_EQ(run({"--shift", "-2.5"}).real("shift", 0), -2.5);
  for (const char* bad : {"abc", "0x1p-3", " 1", "1.5x", "+1", "inf", "nan",
                          "1e999"}) {
    EXPECT_EQ(run_refusal({"--shift", bad}),
              std::string("--shift: expected a number, got '") + bad + "'");
  }
}

TEST(Flags, PositiveRefusesZeroAndNegativeValues) {
  EXPECT_EQ(run({"--tau", "0.5"}).real("tau", 0), 0.5);
  EXPECT_EQ(run({"--tau=1e-10"}).real("tau", 0), 1e-10);
  EXPECT_EQ(run_refusal({"--tau", "0"}),
            "--tau: must be a positive number, got '0'");
  EXPECT_EQ(run_refusal({"--tau", "-1"}),
            "--tau: must be a positive number, got '-1'");
  EXPECT_EQ(run_refusal({"--tau", "0.1x"}),
            "--tau: expected a number, got '0.1x'");
}

TEST(Flags, IntegerChecksItsRangeAndRefusesFractions) {
  EXPECT_EQ(run({"--reps", "5"}).integer("reps", 0), 5u);
  EXPECT_EQ(run({"--reps=100"}).integer("reps", 0), 100u);
  for (const char* bad : {"1", "101", "2.5", "2.0", "abc", "-3", "3x", " 3",
                          "+3", "99999999999999999999"}) {
    EXPECT_EQ(run_refusal({"--reps", bad}),
              std::string("--reps: must be an integer in [2, 100], got '") +
                  bad + "'");
  }
}

TEST(Flags, UnknownFlagsNameTheSubcommand) {
  EXPECT_EQ(run_refusal({"--bogus"}), "--bogus: not a flag of 'run'");
  EXPECT_EQ(run_refusal({"--bogus", "3"}), "--bogus: not a flag of 'run'");
  // A row another subcommand reads is no flag of this one.
  EXPECT_EQ(refusal({"list", "--reps", "3"}), "--reps: not a flag of 'list'");
  // The same name may have a different kind per subcommand.
  EXPECT_TRUE(parse({"list", "--out", "x"}, "run list").has("out"));
  EXPECT_EQ(parse({"list", "--out", "x"}, "run list").positional,
            (std::vector<std::string>{"list", "x"}));
  // Refusals come in command-line order.
  EXPECT_EQ(run_refusal({"--reps", "1", "--bogus"}),
            "--reps: must be an integer in [2, 100], got '1'");
}

TEST(Flags, NotASubcommandLeavesTheUsageToTheCaller) {
  const Args args = parse({"bogus", "--reps", "abc"}, "run list");
  EXPECT_EQ(args.positional, std::vector<std::string>{"bogus"});
  EXPECT_FALSE(args.has("reps"));
  EXPECT_TRUE(parse({}, "run list").positional.empty());
}

TEST(Flags, AToolWithoutSubcommandsRefusesWordsAndUnknownFlags) {
  EXPECT_EQ(parse({"--level", "3"}, "").integer("level", 0), 3u);
  EXPECT_EQ(refusal({"--bogus", "1"}, ""), "--bogus: unknown flag");
  EXPECT_EQ(refusal({"extra"}, ""), "unexpected argument 'extra'");
  EXPECT_EQ(refusal({"--level", "-1"}, ""),
            "--level: must be an integer in [0, 9], got '-1'");
}

TEST(Flags, IntegerValueNamesWhatItReads) {
  EXPECT_EQ(catalyst::flags::integer_value("ID", "42", 0, UINT64_MAX), 42u);
  EXPECT_EQ(catalyst::flags::integer_value("ID", "18446744073709551615", 0,
                                           UINT64_MAX),
            UINT64_MAX);
  try {
    catalyst::flags::integer_value("ID", "4.2", 0, 10);
    FAIL() << "4.2 parsed as an integer";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "ID: must be an integer in [0, 10], got '4.2'");
  }
}

TEST(Flags, UsageLinesComeFromTheTable) {
  std::ostringstream out;
  catalyst::flags::print_flags(out, kTable);
  const std::string text = out.str();
  EXPECT_NE(text.find("--faults [SPEC]"), std::string::npos) << text;
  EXPECT_NE(text.find("run: an integer in [2, 100]"), std::string::npos);
  EXPECT_NE(text.find("run: a number > 0"), std::string::npos);
  EXPECT_NE(text.find("--level N"), std::string::npos);
}

}  // namespace
