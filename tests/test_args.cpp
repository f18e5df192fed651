#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/args.hpp"

namespace delta {
namespace {

ArgParser parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, SpaceSeparatedValue) {
  const ArgParser a = parse({"--mix", "w2"});
  EXPECT_TRUE(a.has("mix"));
  EXPECT_EQ(a.get("mix"), "w2");
}

TEST(Args, EqualsSeparatedValue) {
  const ArgParser a = parse({"--cores=64"});
  EXPECT_EQ(a.get_int("cores", 16), 64);
}

TEST(Args, BooleanSwitch) {
  const ArgParser a = parse({"--csv", "--mix", "w1"});
  EXPECT_TRUE(a.has("csv"));
  EXPECT_EQ(a.get("csv"), "");
  EXPECT_EQ(a.get("mix"), "w1");
}

TEST(Args, DefaultsWhenAbsent) {
  const ArgParser a = parse({});
  EXPECT_FALSE(a.has("mix"));
  EXPECT_EQ(a.get("mix", "w2"), "w2");
  EXPECT_EQ(a.get_int("epochs", 300), 300);
  EXPECT_DOUBLE_EQ(a.get_double("x", 1.5), 1.5);
}

TEST(Args, IntAndDoubleParsing) {
  const ArgParser a = parse({"--epochs", "600", "--central-ms", "0.5"});
  EXPECT_EQ(a.get_int("epochs", 0), 600);
  EXPECT_DOUBLE_EQ(a.get_double("central-ms", 0.0), 0.5);
}

TEST(Args, MalformedNumbersThrowNamingTheFlag) {
  const ArgParser a = parse({"--seed", "abc", "--epochs", "12x", "--central-ms", "0.5ms"});
  try {
    (void)a.get_int("seed", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--seed expects an integer, got 'abc'");
  }
  EXPECT_THROW((void)a.get_int("epochs", 0), std::invalid_argument);
  EXPECT_THROW((void)a.get_double("central-ms", 0.0), std::invalid_argument);
}

TEST(Args, BoundedIntRejectsValuesBelowTheFloor) {
  const ArgParser a = parse({"--epochs", "0", "--jobs", "3", "--big", "4294967296"});
  EXPECT_EQ(a.get_int_at_least("jobs", 1, 0), 3);
  EXPECT_EQ(a.get_int_at_least("absent", 7, 1), 7);
  try {
    (void)a.get_int_at_least("epochs", 1, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--epochs must be >= 1, got 0");
  }
  EXPECT_THROW((void)a.get_int_at_least("big", 0, 0), std::invalid_argument);
}

TEST(Args, U64TakesTheFullRange) {
  const ArgParser a = parse({"--seed", "18446744073709551615", "--zero", "0"});
  EXPECT_EQ(a.get_u64("seed", 1), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a.get_u64("zero", 1), 0u);
  EXPECT_EQ(a.get_u64("absent", 42), 42u);
}

TEST(Args, U64RejectsSignsJunkAndOverflow) {
  const ArgParser a = parse({"--seed", "-1", "--plus", "+5", "--junk", "7x",
                             "--big", "18446744073709551616"});
  try {
    (void)a.get_u64("seed", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--seed expects a non-negative integer, got '-1'");
  }
  EXPECT_THROW((void)a.get_u64("plus", 0), std::invalid_argument);
  EXPECT_THROW((void)a.get_u64("junk", 0), std::invalid_argument);
  EXPECT_THROW((void)a.get_u64("big", 0), std::invalid_argument);
}

TEST(Args, U64TakesHexadecimalOverTheFullRange) {
  const ArgParser a = parse({"--seed", "0xCA", "--upper", "0X1f0c", "--max",
                             "0xFFFFFFFFFFFFFFFF", "--zero", "0x0"});
  EXPECT_EQ(a.get_u64("seed", 0), 202u);
  EXPECT_EQ(a.get_u64("upper", 0), 0x1F0Cu);
  EXPECT_EQ(a.get_u64("max", 0), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a.get_u64("zero", 1), 0u);
  // Only the seed getter reads a prefix: an int flag still wants decimal.
  EXPECT_THROW((void)a.get_int("seed", 0), std::invalid_argument);
}

TEST(Args, U64HexRejectsSignsJunkAndOverflow) {
  const ArgParser a = parse({"--neg", "0x-1", "--plus", "0x+5", "--bare", "0x",
                             "--junk", "0xCG", "--big", "0x10000000000000000",
                             "--minus-prefix", "-0x1"});
  for (const char* flag : {"neg", "plus", "bare", "junk", "big", "minus-prefix"}) {
    SCOPED_TRACE(flag);
    EXPECT_THROW((void)a.get_u64(flag, 0), std::invalid_argument);
  }
  try {
    (void)a.get_u64("junk", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--junk expects a non-negative integer, got '0xCG'");
  }
}

TEST(Args, NumberWithoutAValueThrows) {
  // A value flag at the end, before another flag, or with `=` and nothing
  // after it: never the default.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--epochs"},
        std::vector<std::string>{"--epochs", "--csv"},
        std::vector<std::string>{"--epochs="}}) {
    const ArgParser a = parse(args);
    try {
      (void)a.get_int_at_least("epochs", 300, 1);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "--epochs needs a value");
    }
    EXPECT_THROW((void)a.get_double("epochs", 1.0), std::invalid_argument);
    EXPECT_THROW((void)a.get_u64("epochs", 1), std::invalid_argument);
  }
}

TEST(Args, RepeatedFlagIsRejected) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--epochs", "1", "--epochs", "2"},
        std::vector<std::string>{"--epochs=1", "--csv", "--epochs", "1"}}) {
    const ArgParser a = parse(args);
    try {
      a.reject_repeated();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "--epochs is given more than once");
    }
  }
  EXPECT_NO_THROW(parse({"--epochs", "1", "--csv"}).reject_repeated());
}

TEST(Args, PositionalArguments) {
  const ArgParser a = parse({"first", "--mix", "w1", "second"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "first");
  EXPECT_EQ(a.positional()[1], "second");
}

TEST(Args, UnknownFlagDetection) {
  const ArgParser a = parse({"--mix", "w1", "--bogus", "x"});
  const auto unknown = a.unknown_flags({"mix", "scheme"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bogus");
}

TEST(Args, SwitchWithAValueThrows) {
  const ArgParser a = parse({"--csv", "5", "--list", "--quick="});
  try {
    (void)a.has_switch("csv");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--csv takes no value, got '5'");
  }
  EXPECT_TRUE(a.has_switch("list"));
  EXPECT_TRUE(a.has_switch("quick"));
  EXPECT_FALSE(a.has_switch("absent"));
}

TEST(Args, SwitchFollowedByFlag) {
  const ArgParser a = parse({"--csv", "--list"});
  EXPECT_TRUE(a.has("csv"));
  EXPECT_TRUE(a.has("list"));
}

}  // namespace
}  // namespace delta
