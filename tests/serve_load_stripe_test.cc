// The ps-load prelude: serve::load_stripe's one streaming pass must hand
// each client exactly the jobs of the materialized prelude (load_file →
// rebase_submit_times over the whole trace → round-robin stripe → stable
// sort by submit time), for any fleet size and either trace filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "serve/load_gen.h"
#include "workload/swf.h"

namespace ps::serve {
namespace {

using workload::JobRequest;

std::vector<JobRequest> materialized_stripe(const LoadOptions& options) {
  workload::swf::ParseOptions parse;
  parse.skip_zero_runtime = options.skip_zero_runtime;
  parse.max_jobs = options.max_jobs;
  std::vector<JobRequest> jobs = workload::swf::load_file(options.swf, parse);
  workload::swf::rebase_submit_times(jobs);
  std::vector<JobRequest> mine;
  for (std::size_t i = static_cast<std::size_t>(options.client_index); i < jobs.size();
       i += static_cast<std::size_t>(options.client_count)) {
    mine.push_back(jobs[i]);
  }
  std::stable_sort(mine.begin(), mine.end(), [](const JobRequest& a, const JobRequest& b) {
    return a.submit_time < b.submit_time;
  });
  return mine;
}

/// An SWF file out of submit order, with submit-time ties (so the stable
/// sort's tie order shows) and zero-runtime jobs (so the filter shows),
/// removed on scope exit.
class UnsortedTrace {
 public:
  UnsortedTrace() {
    std::mt19937_64 rng(7);
    std::vector<JobRequest> jobs;
    for (std::int64_t id = 1; id <= 300; ++id) {
      JobRequest job;
      job.id = id;
      job.submit_time = sim::seconds(100 + static_cast<std::int64_t>(rng() % 40) * 30);
      job.base_runtime = rng() % 5 == 0 ? 0 : sim::seconds(1 + static_cast<std::int64_t>(rng() % 600));
      job.requested_walltime = sim::seconds(900);
      job.requested_cores = 1 + static_cast<std::int64_t>(rng() % 64);
      job.user = static_cast<std::int32_t>(rng() % 9);
      jobs.push_back(job);
    }
    path_ = ::testing::TempDir() + "load_stripe_unsorted_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".swf";
    std::ofstream out(path_);
    workload::swf::write(out, jobs);
  }
  ~UnsortedTrace() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_prelude_matches(const std::string& trace) {
  for (int clients = 1; clients <= 3; ++clients) {
    for (bool skip_zero : {false, true}) {
      for (std::int64_t max_jobs : {std::int64_t{0}, std::int64_t{157}}) {
        for (int index = 0; index < clients; ++index) {
          LoadOptions options;
          options.swf = trace;
          options.client_index = index;
          options.client_count = clients;
          options.skip_zero_runtime = skip_zero;
          options.max_jobs = max_jobs;
          const std::vector<JobRequest> expected = materialized_stripe(options);
          const std::vector<JobRequest> actual = load_stripe(options);
          const std::string what = "client " + std::to_string(index) + "/" +
                                   std::to_string(clients) + " skip_zero " +
                                   std::to_string(skip_zero) + " max_jobs " +
                                   std::to_string(max_jobs);
          ASSERT_EQ(actual.size(), expected.size()) << what;
          ASSERT_FALSE(actual.empty()) << what;
          for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(actual[i].id, expected[i].id) << what << " job " << i;
            EXPECT_EQ(actual[i].submit_time, expected[i].submit_time) << what << " job " << i;
            EXPECT_EQ(actual[i].base_runtime, expected[i].base_runtime) << what << " job " << i;
            EXPECT_EQ(actual[i].requested_walltime, expected[i].requested_walltime)
                << what << " job " << i;
            EXPECT_EQ(actual[i].requested_cores, expected[i].requested_cores)
                << what << " job " << i;
            EXPECT_EQ(actual[i].user, expected[i].user) << what << " job " << i;
          }
        }
      }
    }
  }
}

TEST(LoadStripe, MatchesMaterializedPreludeOnMiniTrace) {
  expect_prelude_matches(std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf");
}

TEST(LoadStripe, MatchesMaterializedPreludeOnUnsortedTrace) {
  UnsortedTrace trace;
  expect_prelude_matches(trace.path());
}

TEST(LoadStripe, MissingTraceThrows) {
  LoadOptions options;
  options.swf = "/nonexistent/trace.swf";
  EXPECT_THROW((void)load_stripe(options), std::runtime_error);
}

}  // namespace
}  // namespace ps::serve
