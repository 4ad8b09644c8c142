#include "rjms/fairshare.h"

#include <gtest/gtest.h>

#include <cstring>

#include "util/check.h"
#include "util/rng.h"

namespace ps::rjms {
namespace {

TEST(FairShare, UnusedUserGetsFullFactor) {
  FairShare fs;
  EXPECT_DOUBLE_EQ(fs.factor(1, 0), 1.0);
}

TEST(FairShare, HeavyUserPenalized) {
  FairShare fs;
  fs.charge(1, 1e6, 0);
  fs.charge(2, 1.0, 0);
  EXPECT_LT(fs.factor(1, 0), fs.factor(2, 0));
  EXPECT_GT(fs.factor(2, 0), 0.9);
}

TEST(FairShare, EqualUsageEqualFactor) {
  FairShare fs;
  fs.charge(1, 500.0, 0);
  fs.charge(2, 500.0, 0);
  EXPECT_DOUBLE_EQ(fs.factor(1, 0), fs.factor(2, 0));
  // Two users, each at exactly their share: factor = 2^-1 = 0.5.
  EXPECT_DOUBLE_EQ(fs.factor(1, 0), 0.5);
}

TEST(FairShare, UsageDecaysWithHalfLife) {
  FairShare fs(sim::hours(1));
  fs.charge(1, 1000.0, 0);
  EXPECT_NEAR(fs.total_usage(sim::hours(1)), 500.0, 1e-9);
  EXPECT_NEAR(fs.total_usage(sim::hours(2)), 250.0, 1e-9);
}

TEST(FairShare, DecayRestoresFactorOverTime) {
  FairShare fs(sim::hours(1));
  fs.charge(1, 1e6, 0);
  fs.charge(2, 1.0, 0);
  double early = fs.factor(1, 0);
  // After many half-lives user 1's usage is negligible *relative to user 2's
  // equally decayed usage*... both decay equally, so the ratio persists;
  // what recovers the factor is new usage by others.
  fs.charge(2, 1e6, sim::hours(10));
  double later = fs.factor(1, sim::hours(10));
  EXPECT_GT(later, early);
}

TEST(FairShare, ChargeAccumulates) {
  FairShare fs;
  fs.charge(1, 100.0, 0);
  fs.charge(1, 200.0, 0);
  EXPECT_NEAR(fs.total_usage(0), 300.0, 1e-9);
  EXPECT_EQ(fs.user_count(), 1u);
}

TEST(FairShare, NegativeChargeRejected) {
  FairShare fs;
  EXPECT_THROW(fs.charge(1, -5.0, 0), CheckError);
  EXPECT_THROW(FairShare(0), CheckError);
}

TEST(FairShare, FactorBounded) {
  FairShare fs;
  fs.charge(1, 1e9, 0);
  double f = fs.factor(1, 0);
  EXPECT_GT(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(FairShare, FactorGivenTotalIsBitEqual) {
  // The scheduling pass scores every user against one total_usage(now);
  // that must give exactly the factor each per-user call recomputes.
  util::Rng rng(20150525);
  FairShare fs(sim::hours(3));
  sim::Time now = 0;
  std::size_t compared = 0;
  for (int round = 0; round < 400; ++round) {
    now += rng.uniform_int(0, sim::hours(2));
    for (int c = 0, n = static_cast<int>(rng.uniform_int(0, 4)); c < n; ++c) {
      fs.charge(static_cast<std::int32_t>(rng.uniform_int(0, 60)),
                rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 1e7), now);
    }
    sim::Time at = now + rng.uniform_int(0, sim::hours(30));
    double total = fs.total_usage(at);
    for (std::int32_t user = -1; user <= 64; ++user) {  // includes unknown users
      double alone = fs.factor(user, at);
      double shared = fs.factor(user, at, total);
      ASSERT_EQ(std::memcmp(&alone, &shared, sizeof alone), 0)
          << "user " << user << " at " << at << ": " << alone << " vs " << shared;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 400u * 66u);
}

}  // namespace
}  // namespace ps::rjms
