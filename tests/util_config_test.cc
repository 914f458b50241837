#include "util/config.h"

#include <gtest/gtest.h>

namespace ps::util {
namespace {

constexpr const char* kSample = R"(
# cluster description
top_key = 1

[Cluster]
racks = 56
chassis_per_rack = 5
name = Curie ; not a comment mid-line is kept

[power]
down_watts = 14
idle_watts = 117.0
enabled = yes
)";

TEST(Config, ParsesSectionsAndKeys) {
  Config config = Config::parse(kSample);
  EXPECT_EQ(config.get("power", "down_watts"), "14");
  EXPECT_FALSE(config.get("missing", "racks").has_value());
  EXPECT_FALSE(config.get("power", "racks").has_value());  // keys stay in their section
  EXPECT_EQ(config.get_i64("cluster", "racks"), 56);
  EXPECT_EQ(config.get_i64("", "top_key"), 1);
}

TEST(Config, SectionAndKeyLookupIsCaseInsensitive) {
  Config config = Config::parse(kSample);
  EXPECT_EQ(config.get_i64("CLUSTER", "RACKS"), 56);
  EXPECT_EQ(config.get_i64("Cluster", "Chassis_Per_Rack"), 5);
}

TEST(Config, TypedGetters) {
  Config config = Config::parse(kSample);
  EXPECT_DOUBLE_EQ(config.get_f64("power", "idle_watts").value(), 117.0);
  EXPECT_EQ(config.get("power", "enabled"), "yes");
  EXPECT_FALSE(config.get("power", "absent").has_value());
}

TEST(Config, TypedGettersWithDefaults) {
  Config config = Config::parse(kSample);
  EXPECT_EQ(config.get_i64_or("cluster", "racks", 1), 56);
  EXPECT_EQ(config.get_i64_or("cluster", "absent", 7), 7);
  EXPECT_DOUBLE_EQ(config.get_f64_or("power", "absent", 2.5), 2.5);
  EXPECT_EQ(config.get_or("cluster", "absent", "dflt"), "dflt");
  EXPECT_EQ(config.get_or("cluster", "racks", "dflt"), "56");
}

TEST(Config, MalformedTypedValueThrows) {
  Config config = Config::parse("[s]\nk = not-a-number\n");
  EXPECT_THROW((void)config.get_i64("s", "k"), std::runtime_error);
  EXPECT_THROW((void)config.get_f64("s", "k"), std::runtime_error);
}

TEST(Config, SyntaxErrorsThrowWithLineInfo) {
  EXPECT_THROW((void)Config::parse("[never closed\n"), std::runtime_error);
  EXPECT_THROW((void)Config::parse("[ok]\nno equals sign\n"), std::runtime_error);
  EXPECT_THROW((void)Config::parse("[ok]\n= value\n"), std::runtime_error);
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  Config config = Config::parse("# c1\n; c2\n\n[a]\nk = v\n");
  EXPECT_EQ(config.get("a", "k"), "v");
}

TEST(Config, EmptySectionHeaderEndsThePreviousSection) {
  Config config = Config::parse("[b]\nz=1\na=2\n[a]\n");
  EXPECT_EQ(config.get("b", "z"), "1");
  EXPECT_EQ(config.get("b", "a"), "2");
  EXPECT_FALSE(config.get("a", "z").has_value());
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW((void)Config::load_file("/nonexistent/x.ini"), std::runtime_error);
}

TEST(Config, LastDuplicateKeyWins) {
  Config config = Config::parse("[s]\nk=1\nk=2\n");
  EXPECT_EQ(config.get_i64("s", "k"), 2);
}

}  // namespace
}  // namespace ps::util
