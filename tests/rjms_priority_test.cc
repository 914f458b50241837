#include "rjms/priority.h"

#include <gtest/gtest.h>

#include "rjms/fairshare.h"
#include "util/check.h"

namespace ps::rjms {
namespace {

Job make_job(std::int64_t id, sim::Time submit, std::int64_t cores, std::int32_t user = 0) {
  Job job;
  job.request.id = id;
  job.request.submit_time = submit;
  job.request.requested_cores = cores;
  job.request.user = user;
  return job;
}

TEST(Priority, OlderJobsScoreHigher) {
  PriorityCalculator calc(PriorityWeights{}, 80640);
  Job old_job = make_job(1, 0, 100);
  Job new_job = make_job(2, sim::hours(3), 100);
  sim::Time now = sim::hours(4);
  EXPECT_GT(calc.compute(old_job, now, 1.0), calc.compute(new_job, now, 1.0));
}

TEST(Priority, AgeFactorSaturates) {
  PriorityWeights w;
  w.age_saturation = sim::hours(1);
  PriorityCalculator calc(w, 80640);
  Job job = make_job(1, 0, 1);
  double at_saturation = calc.compute(job, sim::hours(1), 1.0);
  double beyond = calc.compute(job, sim::hours(20), 1.0);
  EXPECT_DOUBLE_EQ(at_saturation, beyond);
}

TEST(Priority, BiggerJobsScoreHigher) {
  PriorityCalculator calc(PriorityWeights{}, 80640);
  Job small = make_job(1, 0, 16);
  Job big = make_job(2, 0, 40000);
  EXPECT_GT(calc.compute(big, 0, 1.0), calc.compute(small, 0, 1.0));
}

TEST(Priority, SizeFactorCapsAtClusterWidth) {
  PriorityCalculator calc(PriorityWeights{}, 1000);
  Job machine_wide = make_job(1, 0, 1000);
  Job wider = make_job(2, 0, 5000);
  EXPECT_DOUBLE_EQ(calc.compute(machine_wide, 0, 1.0),
                   calc.compute(wider, 0, 1.0));
}

TEST(Priority, FairShareInfluences) {
  PriorityCalculator calc(PriorityWeights{}, 80640);
  FairShare fs;
  fs.charge(1, 1e9, 0);  // user 1 heavy
  fs.charge(2, 1.0, 0);
  Job heavy_user = make_job(1, 0, 100, 1);
  Job light_user = make_job(2, 0, 100, 2);
  EXPECT_GT(calc.compute(light_user, 0, fs.factor(2)),
            calc.compute(heavy_user, 0, fs.factor(1)));
}

TEST(Priority, WeightsScaleContribution) {
  PriorityWeights only_age;
  only_age.age = 100.0;
  only_age.size = 0.0;
  only_age.fair_share = 0.0;
  only_age.age_saturation = sim::hours(1);
  PriorityCalculator calc(only_age, 80640);
  Job job = make_job(1, 0, 80640);
  EXPECT_DOUBLE_EQ(calc.compute(job, sim::hours(1), 1.0), 100.0);
  EXPECT_DOUBLE_EQ(calc.compute(job, 0, 1.0), 0.0);
}

TEST(Priority, NegativeWaitClampedToZero) {
  PriorityCalculator calc(PriorityWeights{}, 80640);
  Job future = make_job(1, sim::hours(5), 1);
  double p = calc.compute(future, 0, 1.0);
  PriorityWeights w;
  // Age factor must clamp to 0; only fairshare (=1) and the tiny size
  // factor contribute.
  double expected = w.fair_share + w.size * (1.0 / 80640.0);
  EXPECT_NEAR(p, expected, 1e-9);
}

TEST(Priority, InvalidConstruction) {
  EXPECT_THROW(PriorityCalculator(PriorityWeights{}, 0), CheckError);
  PriorityWeights w;
  w.age_saturation = 0;
  EXPECT_THROW(PriorityCalculator(w, 100), CheckError);
}

}  // namespace
}  // namespace ps::rjms
