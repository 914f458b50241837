// The fault trigger and the three tiers' site tables: every spec string
// committed in tests/, the CI workflow and README.md must parse and fire
// on exactly the (site, key, attempt) set recorded when all sixteen sites
// still shared one enum, so the tuned chaos storms replay bit-identical.
// Each tier parses against its own table only: another tier's token is an
// unknown site, and `sites=all` means all sites of that tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dist/worker.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "util/fault.h"
#include "util/seal.h"

namespace ps {
namespace {

struct Schedule {
  int fired = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
};

/// Folds every (draw number, key, attempt) that fires over keys 0..63 x
/// attempts 0..3, in table (= ascending draw) order.
template <class Plan, class Table>
Schedule schedule_of(std::string_view spec, const Table& sites) {
  const Plan plan = Plan::parse(spec);
  Schedule out;
  for (const auto& row : sites) {
    for (std::uint64_t key = 0; key < 64; ++key) {
      for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
        if (!plan.fires(row.site, key, attempt)) continue;
        out.digest = util::fnv1a(out.digest, static_cast<std::uint64_t>(row.site));
        out.digest = util::fnv1a(out.digest, key);
        out.digest = util::fnv1a(out.digest, attempt);
        ++out.fired;
      }
    }
  }
  return out;
}

struct Pin {
  const char* spec;
  int fired;
  std::uint64_t digest;
};

// The `seed=28,rate=0.5,sites=all` rows are not committed specs: at rate
// 0.5 each pins every draw number of its tier.
constexpr Pin kSweepPins[] = {
    {"seed=7,rate=0.5,sites=die_before_publish+torn_publish,max_attempt=2", 192,
     0x80bb779c29d43f92ull},
    {"seed=7,rate=1,sites=torn_publish", 192, 0x1526db858f519d25ull},
    {"seed=7,rate=1,sites=all,shards=2", 15, 0xfb05ea3a6f4130c0ull},
    {"seed=20150525,rate=0.45,max_attempt=2,"
     "sites=die_before_publish+torn_publish+corrupt_result",
     258, 0x8e0baabf63760e5aull},
    {"seed=20150525,rate=0.45,max_attempt=2,sites=hang_after_claim+stall_heartbeat",
     174, 0xb52ea1031efa5fc7ull},
    {"seed=11,rate=1,max_attempt=2,shards=1+2,sites=die_before_publish", 6,
     0x916e8f41d880b4c6ull},
    {"seed=3,rate=1,max_attempt=1,sites=hang_after_claim,shards=0", 2,
     0x5f50cbf17b2bfe64ull},
    {"seed=5,rate=1,max_attempt=1,sites=torn_publish", 128, 0x9ec139b60bedcf25ull},
    {"seed=5,rate=1,max_attempt=1,sites=corrupt_result", 128, 0x26bbe9e4f2d9af25ull},
    {"seed=9,rate=1,max_attempt=99,sites=die_before_publish,shards=0", 4,
     0xd37228b8f7e836a5ull},
    {"seed=1,rate=1,max_attempt=1,sites=die_before_publish", 128,
     0xc8ce99712a4bcf25ull},
    {"seed=1,rate=1,max_attempt=9,sites=die_before_publish+hang_after_claim+"
     "stall_heartbeat+torn_publish+corrupt_result",
     1280, 0x9a60a61523aea325ull},
    {"seed=28,rate=0.5,sites=all", 479, 0xe268c7b5d3551cebull},
};

constexpr Pin kServePins[] = {
    {"seed=1,rate=1,max_attempt=0,sites=die_after_claim,shards=5", 1,
     0x4b825e94ac940865ull},
    {"seed=2,rate=1,max_attempt=0,sites=die_after_claim,shards=13", 1,
     0xc3730cd5453cca6dull},
    {"seed=3,rate=1,max_attempt=0,sites=die_after_claim,shards=50", 1,
     0x6ea6c0bb42033b92ull},
    {"seed=4,rate=1,max_attempt=0,sites=die_before_checkpoint,shards=0", 1,
     0x3482ed5f85684e43ull},
    {"seed=5,rate=1,max_attempt=0,sites=torn_checkpoint,shards=0", 1,
     0x0ddb4423c7fe63e2ull},
    {"seed=6,rate=1,max_attempt=0,sites=die_after_checkpoint,shards=0", 1,
     0xb70f89b4eb8b760dull},
    {"seed=7,rate=1,max_attempt=0,sites=die_after_checkpoint,shards=0", 1,
     0xb70f89b4eb8b760dull},
    {"seed=8,rate=1,max_attempt=9,sites=stall_ingest", 256, 0x272b414066b2eb25ull},
    {"seed=99,rate=1,max_attempt=2,sites=die_after_claim+die_after_checkpoint,"
     "shards=3+7",
     12, 0x318d6b3b0a13c9c5ull},
    {"seed=99,rate=1,max_attempt=2,sites=die_after_claim+die_before_checkpoint+"
     "torn_checkpoint+die_after_checkpoint,shards=3+7",
     24, 0x408fb454a6cb3b65ull},
    {"seed=11,rate=1,max_attempt=0,sites=die_after_checkpoint,shards=0", 1,
     0xb70f89b4eb8b760dull},
    {"seed=1,rate=1,max_attempt=0,sites=stall_drain", 64, 0xbc40c5be9fd72925ull},
    {"seed=1,rate=1,max_attempt=0,sites=stall_drain,shards=0", 1,
     0x43188e01b34db6eaull},
    {"seed=28,rate=0.5,sites=all", 577, 0xbcde0964444a705eull},
};

constexpr Pin kClientPins[] = {
    {"seed=1,rate=1,max_attempt=2,sites=stall_client,shards=0", 3,
     0x7a861ff25d6e858aull},
    {"seed=9,rate=1,max_attempt=0,sites=lie_watermark+stall_client", 128,
     0x58aa486de7062f25ull},
    {"seed=42,rate=0.35,max_attempt=3,"
     "sites=corrupt_submission+flood_burst+stall_client+dup_publish",
     353, 0xaf1f97448e7bc81eull},
    {"seed=28,rate=0.5,sites=all", 482, 0x9a05df91cdb7edcfull},
};

template <class Plan, class Table, std::size_t N>
void expect_pins(const Pin (&pins)[N], const Table& sites) {
  for (const Pin& pin : pins) {
    const Schedule got = schedule_of<Plan>(pin.spec, sites);
    EXPECT_EQ(got.fired, pin.fired) << pin.spec;
    EXPECT_EQ(got.digest, pin.digest) << pin.spec;
  }
}

TEST(FaultTrigger, SweepSpecsFireTheirPinnedSchedules) {
  expect_pins<dist::SweepFaultPlan>(kSweepPins, dist::kSweepFaultSites);
}

TEST(FaultTrigger, ServeSpecsFireTheirPinnedSchedules) {
  expect_pins<serve::ServeFaultPlan>(kServePins, serve::kServeFaultSites);
}

TEST(FaultTrigger, ClientSpecsFireTheirPinnedSchedules) {
  expect_pins<serve::ClientFaultPlan>(kClientPins, serve::kClientFaultSites);
}

/// Every token of `foreign` is an unknown site to `Plan`.
template <class Plan, class Table>
void expect_rejects(const Table& foreign) {
  for (const auto& row : foreign) {
    const std::string spec = "seed=1,rate=1,sites=" + std::string(row.token);
    try {
      Plan::parse(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("unknown site"), std::string::npos)
          << error.what();
    }
  }
}

TEST(FaultTrigger, EachTierRejectsTheOtherTiersSites) {
  expect_rejects<dist::SweepFaultPlan>(serve::kServeFaultSites);
  expect_rejects<dist::SweepFaultPlan>(serve::kClientFaultSites);
  expect_rejects<serve::ServeFaultPlan>(dist::kSweepFaultSites);
  expect_rejects<serve::ServeFaultPlan>(serve::kClientFaultSites);
  expect_rejects<serve::ClientFaultPlan>(dist::kSweepFaultSites);
  expect_rejects<serve::ClientFaultPlan>(serve::kServeFaultSites);
}

TEST(FaultTrigger, AllMeansEverySiteOfTheParsingTier) {
  const serve::ServeFaultPlan plan = serve::ServeFaultPlan::parse("rate=1,sites=all");
  for (const auto& row : serve::kServeFaultSites) {
    EXPECT_TRUE(plan.fires(row.site, 0, 0)) << row.token;
  }
}

}  // namespace
}  // namespace ps
