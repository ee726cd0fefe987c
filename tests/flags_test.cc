#include <gtest/gtest.h>

#include "common/flags.h"
#include "floorplan/io.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, ParsesTypes) {
  FlagParser flags =
      Parse({"--name=abc", "--count=7", "--ratio=2.5", "--on=true",
             "--off=false"});
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0.0), 2.5);
  EXPECT_TRUE(flags.GetBool("on", false));
  EXPECT_FALSE(flags.GetBool("off", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagParserTest, BareFlagIsTrue) {
  FlagParser flags = Parse({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = Parse({"input.txt", "--k=3", "output.txt"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.txt", "output.txt"}));
}

TEST(FlagParserTest, CheckUnusedFlagsTypos) {
  FlagParser flags = Parse({"--known=1", "--typo=2"});
  flags.GetInt("known", 0);
  const Status status = flags.CheckUnused();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("typo"), std::string::npos);

  flags.GetInt("typo", 0);
  EXPECT_TRUE(flags.CheckUnused().ok());
}

TEST(CustomBuildingTest, SimulationRunsOnParsedPlan) {
  constexpr char kBuilding[] = R"(
hallway main 0 0 40 0 3
room a 5 1.5 15 9.5
room b 20 1.5 30 9.5
door a main 10 0
door b main 25 0
reader 8 0 2
reader 20 0 2
reader 32 0 2
)";
  auto spec = ParseBuilding(kBuilding);
  ASSERT_TRUE(spec.ok()) << spec.status();

  SimulationConfig config;
  config.custom_plan = spec->plan;
  config.custom_readers = spec->readers;
  config.trace.num_objects = 10;
  config.seed = 9;
  auto sim = Simulation::Create(config);
  ASSERT_TRUE(sim.ok()) << sim.status();
  EXPECT_EQ((*sim)->deployment().num_readers(), 3);
  EXPECT_EQ((*sim)->plan().rooms().size(), 2u);

  (*sim)->Run(200);
  EXPECT_GT((*sim)->collector().num_known_objects(), 0u);
  for (ObjectId id : (*sim)->collector().KnownObjects()) {
    const AnchorDistribution* dist =
        (*sim)->pf_engine().InferObject(id, (*sim)->now());
    ASSERT_NE(dist, nullptr);
    EXPECT_NEAR(dist->TotalProbability(), 1.0, 1e-9);
  }
}

TEST(CustomBuildingTest, CustomPlanMustValidate) {
  FloorPlan broken;
  broken.AddHallway(Segment({0, 0}, {10, 0}), 2.0).value();
  broken.AddRoom(Rect(2, 1, 8, 5)).value();  // No door.
  SimulationConfig config;
  config.custom_plan = broken;
  config.trace.num_objects = 2;
  EXPECT_FALSE(Simulation::Create(config).ok());
}

}  // namespace
}  // namespace ipqs
