#include "util/flags.h"

#include <gtest/gtest.h>

#include <string_view>
#include <utility>

namespace cascache::util {
namespace {

TEST(FlagParserTest, DefaultsAppliedImmediately) {
  FlagParser parser;
  std::string s = "fallback";
  int64_t i = 7;
  double d = 0.5;
  bool b = false;
  parser.Add("name", &s, "h");
  parser.Add("count", &i, "h");
  parser.Add("ratio", &d, "h");
  parser.Add("verbose", &b, "h");
  const char* argv[] = {"positional-only"};
  ASSERT_TRUE(parser.Parse(1, argv).ok());
  EXPECT_EQ(s, "fallback");
  EXPECT_EQ(i, 7);
  EXPECT_DOUBLE_EQ(d, 0.5);
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, ParsesEqualsAndSpaceSyntax) {
  FlagParser parser;
  std::string s;
  int64_t i = 0;
  parser.Add("name", &s, "h");
  parser.Add("count", &i, "h");
  const char* argv[] = {"--name=abc", "--count", "42"};
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(i, 42);
}

TEST(FlagParserTest, BareBooleanFlag) {
  FlagParser parser;
  bool b = false;
  parser.Add("verbose", &b, "h");
  const char* argv[] = {"--verbose"};
  ASSERT_TRUE(parser.Parse(1, argv).ok());
  EXPECT_TRUE(b);
}

TEST(FlagParserTest, BooleanWithValue) {
  FlagParser parser;
  bool b = true;
  parser.Add("verbose", &b, "h");
  const char* argv[] = {"--verbose=false"};
  ASSERT_TRUE(parser.Parse(1, argv).ok());
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser parser;
  const char* argv[] = {"--nope=1"};
  EXPECT_FALSE(parser.Parse(1, argv).ok());
}

TEST(FlagParserTest, MalformedValuesFail) {
  FlagParser parser;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  bool b = false;
  parser.Add("i", &i, "h");
  parser.Add("u", &u, "h");
  parser.Add("d", &d, "h");
  parser.Add("b", &b, "h");
  {
    const char* argv[] = {"--i=abc"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
  {
    const char* argv[] = {"--u=-5"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
  {
    const char* argv[] = {"--d=1.2.3"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
  {
    const char* argv[] = {"--b=maybe"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
}

TEST(FlagParserTest, MissingValueFails) {
  FlagParser parser;
  int64_t i = 0;
  parser.Add("count", &i, "h");
  const char* argv[] = {"--count"};
  EXPECT_FALSE(parser.Parse(1, argv).ok());
}

TEST(FlagParserTest, PositionalArgumentsCollected) {
  FlagParser parser;
  std::string s;
  parser.Add("name", &s, "h");
  const char* argv[] = {"first", "--name=x", "second"};
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"first", "second"}));
}

TEST(FlagParserTest, UsageListsFlags) {
  FlagParser parser;
  double d = 2.5;
  parser.Add("ratio", &d, "the famous ratio");
  const std::string usage = parser.Usage("prog");
  EXPECT_NE(usage.find("--ratio"), std::string::npos);
  EXPECT_NE(usage.find("the famous ratio"), std::string::npos);
  EXPECT_NE(usage.find("2.5"), std::string::npos);
}

TEST(FlagParserTest, NegativeAndLargeNumbers) {
  FlagParser parser;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  parser.Add("i", &i, "h");
  parser.Add("u", &u, "h");
  parser.Add("d", &d, "h");
  const char* argv[] = {"--i=-123", "--u=18446744073709551615", "--d=-2.5e3"};
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  EXPECT_EQ(i, -123);
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(d, -2500.0);
}

TEST(FlagParserTest, DefaultTakenFromField) {
  FlagParser parser;
  uint32_t objects = 20'000;
  double theta = 0.8;
  bool release = true;
  std::string mode = "static";
  parser.Add("objects", &objects, "h");
  parser.Add("theta", &theta, "h");
  parser.Add("release", &release, "h");
  parser.Add("mode", &mode, "h");
  const std::string usage = parser.Usage("prog");
  EXPECT_NE(usage.find("--objects (default: 20000)"), std::string::npos);
  EXPECT_NE(usage.find("--theta (default: 0.800000)"), std::string::npos);
  EXPECT_NE(usage.find("--release (default: true)"), std::string::npos);
  EXPECT_NE(usage.find("--mode (default: static)"), std::string::npos);
}

TEST(FlagParserTest, IntegerNarrowingRejected) {
  FlagParser parser;
  uint32_t objects = 1;
  int radius = 4;
  parser.Add("objects", &objects, "h");
  parser.Add("radius", &radius, "h");
  for (const char* arg :
       {"--objects=4294967296", "--objects=-1", "--radius=2147483648",
        "--radius=-2147483649", "--radius=99999999999999999999"}) {
    const char* argv[] = {arg};
    EXPECT_FALSE(parser.Parse(1, argv).ok()) << arg;
  }
  // Rejected values are never wrapped into the field.
  EXPECT_EQ(objects, 1u);
  EXPECT_EQ(radius, 4);
  const char* argv[] = {"--objects=4294967295", "--radius=-2147483648"};
  ASSERT_TRUE(parser.Parse(2, argv).ok());
  EXPECT_EQ(objects, 4294967295u);
  EXPECT_EQ(radius, -2147483648);
}

TEST(FlagParserTest, NonFiniteAndJunkRejected) {
  FlagParser parser;
  double d = 1.0;
  uint64_t u = 7;
  parser.Add("d", &d, "h");
  parser.Add("u", &u, "h");
  for (const char* arg : {"--d=nan", "--d=inf", "--d=-inf", "--d=1e999",
                          "--d=", "--d=0.5x", "--u=18446744073709551616",
                          "--u=", "--u=12 ", "--u=0x10"}) {
    const char* argv[] = {arg};
    EXPECT_FALSE(parser.Parse(1, argv).ok()) << arg;
  }
  EXPECT_DOUBLE_EQ(d, 1.0);
  EXPECT_EQ(u, 7u);
}

enum class Shape { kCircle, kSquare };
constexpr std::pair<std::string_view, Shape> kShapes[] = {
    {"circle", Shape::kCircle}, {"square", Shape::kSquare}};

TEST(FlagParserTest, EnumFlagUsesNameTable) {
  FlagParser parser;
  Shape shape = Shape::kSquare;
  parser.Add("shape", &shape, kShapes, "h");
  EXPECT_NE(parser.Usage("prog").find("--shape (default: square)"),
            std::string::npos);
  const char* ok[] = {"--shape=circle"};
  ASSERT_TRUE(parser.Parse(1, ok).ok());
  EXPECT_EQ(shape, Shape::kCircle);

  const char* bad[] = {"--shape=triangle"};
  const Status status = parser.Parse(1, bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("triangle"), std::string::npos);
  EXPECT_NE(status.message().find("circle|square"), std::string::npos);
  EXPECT_EQ(shape, Shape::kCircle);
}

TEST(SplitCommaListTest, Basic) {
  EXPECT_EQ(SplitCommaList("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCommaList("solo"), std::vector<std::string>{"solo"});
  EXPECT_TRUE(SplitCommaList("").empty());
  EXPECT_EQ(SplitCommaList("a,,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitCommaList(",x,"), std::vector<std::string>{"x"});
}

}  // namespace
}  // namespace cascache::util
