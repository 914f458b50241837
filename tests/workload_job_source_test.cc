// JobSource implementations: chunk partitioning, boundary semantics, the
// streaming SWF reader's equivalence with the batch parser, and the chunked
// synthetic generator's chunk-size invariance.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workload/job_source.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

namespace ps::workload {
namespace {

JobRequest job_at(std::int64_t id, sim::Time submit) {
  JobRequest job;
  job.id = id;
  job.submit_time = submit;
  job.requested_cores = 4;
  job.base_runtime = sim::seconds(60);
  job.requested_walltime = sim::seconds(120);
  return job;
}

std::vector<std::int64_t> ids(const std::vector<JobRequest>& jobs) {
  std::vector<std::int64_t> out;
  for (const JobRequest& job : jobs) out.push_back(job.id);
  return out;
}

/// A scratch SWF file cleaned up on scope exit.
class TempSwf {
 public:
  explicit TempSwf(const std::string& contents) {
    path_ = ::testing::TempDir() + "job_source_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".swf";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempSwf() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string swf_text(const std::vector<JobRequest>& jobs) {
  std::ostringstream out;
  swf::write(out, jobs);
  return out.str();
}

/// What the materialized path derives its horizon from: the largest submit
/// time after load_file and rebase_submit_times.
sim::Time materialized_hint(const std::string& path, const swf::ParseOptions& options = {}) {
  std::vector<JobRequest> jobs = swf::load_file(path, options);
  return swf::rebase_submit_times(jobs);
}

// --- VectorJobSource ---------------------------------------------------------

TEST(VectorJobSource, ChunksPartitionBySubmitTimeInclusive) {
  // Unsorted input: the source orders stably by submit time.
  std::vector<JobRequest> jobs = {job_at(1, 500), job_at(2, 100), job_at(3, 500),
                                  job_at(4, 1500), job_at(5, 1000)};
  VectorJobSource source(std::move(jobs));
  EXPECT_EQ(source.last_submit_hint(), 1500);

  std::vector<JobRequest> chunk;
  // Boundary is inclusive: the job at exactly `until` belongs to this chunk.
  EXPECT_TRUE(source.next_chunk(500, chunk));
  EXPECT_EQ(ids(chunk), (std::vector<std::int64_t>{2, 1, 3}));  // stable ties
  chunk.clear();
  EXPECT_TRUE(source.next_chunk(1000, chunk));
  EXPECT_EQ(ids(chunk), (std::vector<std::int64_t>{5}));
  chunk.clear();
  EXPECT_FALSE(source.next_chunk(sim::kTimeMax, chunk));
  EXPECT_EQ(ids(chunk), (std::vector<std::int64_t>{4}));

  source.rewind();
  chunk.clear();
  EXPECT_FALSE(source.next_chunk(1600, chunk));  // rewound: everything <= 1600
  EXPECT_EQ(chunk.size(), 5u);
}

TEST(VectorJobSource, EmptyVector) {
  VectorJobSource source({});
  EXPECT_EQ(source.last_submit_hint(), 0);
  std::vector<JobRequest> chunk;
  EXPECT_FALSE(source.next_chunk(1000, chunk));
  EXPECT_TRUE(chunk.empty());
}

TEST(JobSource, MaterializeDrainsEverything) {
  VectorJobSource source({job_at(1, 10), job_at(2, 20)});
  std::vector<JobRequest> chunk;
  source.next_chunk(15, chunk);
  // materialize() rewinds first, so it always yields the full set.
  EXPECT_EQ(materialize(source).size(), 2u);
}

// --- SwfStreamSource ---------------------------------------------------------

std::string mini_trace_path() {
  return std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf";
}

TEST(SwfStreamSource, MatchesBatchParseOnMiniTrace) {
  swf::ParseOptions options;
  options.skip_zero_runtime = true;
  std::vector<JobRequest> batch = swf::load_file(mini_trace_path(), options);
  swf::rebase_submit_times(batch);

  SwfStreamSource::Options stream_options;
  stream_options.parse = options;
  SwfStreamSource source(mini_trace_path(), stream_options);
  std::vector<JobRequest> streamed = materialize(source);

  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].id, batch[i].id);
    EXPECT_EQ(streamed[i].submit_time, batch[i].submit_time);
    EXPECT_EQ(streamed[i].requested_cores, batch[i].requested_cores);
    EXPECT_EQ(streamed[i].requested_walltime, batch[i].requested_walltime);
    EXPECT_EQ(streamed[i].base_runtime, batch[i].base_runtime);
    EXPECT_EQ(streamed[i].user, batch[i].user);
  }
}

TEST(SwfStreamSource, ChunkedDrainEqualsMaterialized) {
  SwfStreamSource chunked(mini_trace_path());
  SwfStreamSource whole(mini_trace_path());
  std::vector<JobRequest> piecewise;
  sim::Time until = 0;
  bool more = true;
  while (more) {
    more = chunked.next_chunk(until, piecewise);
    until += sim::minutes(10);
  }
  EXPECT_EQ(ids(piecewise), ids(materialize(whole)));
}

TEST(SwfStreamSource, HintIsTheMaterializedRebasedMaximum) {
  // The hint must agree with the batch path's rebased max.
  std::vector<JobRequest> jobs = {job_at(1, sim::seconds(5)), job_at(2, sim::seconds(900))};
  TempSwf file(swf_text(jobs));
  SwfStreamSource source(file.path());
  EXPECT_EQ(source.last_submit_hint(), materialized_hint(file.path()));
  EXPECT_EQ(source.last_submit_hint(), sim::seconds(895));  // rebased to the minimum
  // The hint is answered before any chunk is pulled; pulling afterwards
  // still yields every job.
  EXPECT_EQ(materialize(source).size(), 2u);
  EXPECT_EQ(source.last_submit_hint(), sim::seconds(895));
}

TEST(SwfStreamSource, PrescanHintWithoutHeader) {
  // Hand-written SWF: the one-pass scan answers, and fixes the rebase
  // offset from the true minimum (second line here).
  TempSwf file(
      "; no hint header\n"
      "1 100 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "2 40 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "3 400 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n");
  SwfStreamSource source(file.path());
  EXPECT_EQ(source.last_submit_hint(), sim::seconds(360));  // 400 - min(40)
  // With the offset anchored at the true minimum, the local disorder stays
  // within the first chunk and streams fine.
  std::vector<JobRequest> all = materialize(source);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].submit_time, sim::seconds(60));
  EXPECT_EQ(all[1].submit_time, sim::seconds(0));
}

TEST(SwfStreamSource, RegressionBelowReplayedBoundaryThrows) {
  TempSwf file(
      "1 100 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "2 5000 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "3 200 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n");
  SwfStreamSource source(file.path());
  std::vector<JobRequest> chunk;
  // First chunk replays up to t=1000s (rebased): job 1, and job 3 would
  // belong here — but it sits after job 2 in the file, beyond the lookahead.
  EXPECT_TRUE(source.next_chunk(sim::seconds(1000), chunk));
  ASSERT_EQ(chunk.size(), 1u);
  EXPECT_THROW(source.next_chunk(sim::seconds(10000), chunk), std::runtime_error);
}

TEST(SwfStreamSource, MaxJobsAndFiltersMatchBatchParse) {
  std::string text =
      "1 0 -1 0 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n"   // zero runtime
      "2 10 -1 60 8 -1 -1 8 60 -1 0 3 -1 -1 -1 -1 -1 -1\n"  // failed status
      "3 20 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "4 30 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "5 40 -1 60 8 -1 -1 8 60 -1 1 3 -1 -1 -1 -1 -1 -1\n";
  swf::ParseOptions options;
  options.skip_zero_runtime = true;
  options.skip_failed_status = true;
  options.max_jobs = 2;
  TempSwf file(text);
  SwfStreamSource::Options stream_options;
  stream_options.parse = options;
  SwfStreamSource source(file.path(), stream_options);
  std::vector<JobRequest> streamed = materialize(source);
  std::vector<JobRequest> batch = swf::parse_string(text, options);
  swf::rebase_submit_times(batch);
  EXPECT_EQ(ids(streamed), ids(batch));
  EXPECT_EQ(ids(streamed), (std::vector<std::int64_t>{3, 4}));
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].submit_time, batch[i].submit_time) << i;
  }
  EXPECT_EQ(streamed[0].submit_time, 0);  // rebased on the first kept job
}

TEST(SwfStreamSource, TruncatingOptionsBoundTheHint) {
  // With max_jobs (or a filter) active the hint must match the *kept* set,
  // or streamed and materialized replays would derive different horizons.
  std::vector<JobRequest> jobs = {job_at(1, 0), job_at(2, sim::seconds(100)),
                                  job_at(3, sim::seconds(900))};
  TempSwf file(swf_text(jobs));
  swf::ParseOptions options;
  options.max_jobs = 2;
  SwfStreamSource::Options stream_options;
  stream_options.parse = options;
  SwfStreamSource source(file.path(), stream_options);
  EXPECT_EQ(source.last_submit_hint(), materialized_hint(file.path(), options));
  EXPECT_EQ(source.last_submit_hint(), sim::seconds(100));  // not the file's 900
  EXPECT_EQ(materialize(source).size(), 2u);

  SwfStreamSource whole(file.path());
  EXPECT_EQ(whole.last_submit_hint(), materialized_hint(file.path()));
  EXPECT_EQ(whole.last_submit_hint(), sim::seconds(900));
}

TEST(SwfStreamSource, HintAfterFullDrainIsStillExact) {
  // First hint request arrives only after the stream was drained (with a
  // kTimeMax chunk): the answer must be the trace's real bound, never the
  // consumer's last `until`.
  std::vector<JobRequest> jobs = {job_at(1, 0), job_at(2, sim::seconds(700))};
  TempSwf file(swf_text(jobs));
  SwfStreamSource source(file.path());
  EXPECT_EQ(materialize(source).size(), 2u);
  EXPECT_EQ(source.last_submit_hint(), sim::seconds(700));
}

TEST(SwfStreamSource, RewindReplaysIdentically) {
  SwfStreamSource source(mini_trace_path());
  std::vector<std::int64_t> first = ids(materialize(source));
  std::vector<std::int64_t> second = ids(materialize(source));  // rewinds
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 400u);
}

// --- ChunkedSyntheticSource --------------------------------------------------

GeneratorParams small_params() {
  GeneratorParams params;
  params.name = "chunk-test";
  params.span = sim::hours(6);
  params.job_count = 500;
  params.backlog_fraction = 0.1;
  params.w_huge = 0.0;
  return params;
}

TEST(ChunkedSyntheticSource, InvariantToConsumerChunking) {
  ChunkedSyntheticSource whole(small_params(), 7);
  std::vector<JobRequest> reference = materialize(whole);
  EXPECT_EQ(reference.size(), 500u);

  ChunkedSyntheticSource sliced(small_params(), 7);
  std::vector<JobRequest> piecewise;
  sim::Time until = 0;
  bool more = true;
  while (more) {
    more = sliced.next_chunk(until, piecewise);
    until += sim::minutes(17);  // deliberately unaligned with gen windows
  }
  ASSERT_EQ(piecewise.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(piecewise[i].id, reference[i].id);
    EXPECT_EQ(piecewise[i].submit_time, reference[i].submit_time);
    EXPECT_EQ(piecewise[i].requested_cores, reference[i].requested_cores);
    EXPECT_EQ(piecewise[i].base_runtime, reference[i].base_runtime);
    EXPECT_EQ(piecewise[i].requested_walltime, reference[i].requested_walltime);
  }
}

TEST(ChunkedSyntheticSource, DeterministicAndSorted) {
  ChunkedSyntheticSource a(small_params(), 42);
  ChunkedSyntheticSource b(small_params(), 42);
  std::vector<JobRequest> ja = materialize(a);
  std::vector<JobRequest> jb = materialize(b);
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].submit_time, jb[i].submit_time);
    EXPECT_EQ(ja[i].requested_cores, jb[i].requested_cores);
    if (i > 0) EXPECT_GE(ja[i].submit_time, ja[i - 1].submit_time);
    EXPECT_EQ(ja[i].id, static_cast<std::int64_t>(i + 1));
    EXPECT_LT(ja[i].submit_time, small_params().span);
    EXPECT_GE(ja[i].submit_time, 0);
  }
  // Backlog lands at t=0.
  EXPECT_EQ(ja[49].submit_time, 0);

  ChunkedSyntheticSource other_seed(small_params(), 43);
  std::vector<JobRequest> jc = materialize(other_seed);
  bool any_difference = false;
  for (std::size_t i = 0; i < ja.size(); ++i) {
    if (jc[i].submit_time != ja[i].submit_time) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChunkedSyntheticSource, RewindRestartsTheStream) {
  ChunkedSyntheticSource source(small_params(), 7);
  std::vector<JobRequest> chunk;
  source.next_chunk(sim::hours(2), chunk);
  std::size_t partial = chunk.size();
  EXPECT_GT(partial, 0u);
  EXPECT_LT(partial, 500u);
  EXPECT_EQ(materialize(source).size(), 500u);  // rewinds internally
}

TEST(ChunkedSyntheticSource, CurieMonthParamsAreMultiWeek) {
  GeneratorParams params = curie_month_params();
  EXPECT_EQ(params.span, sim::hours(24 * 28));
  EXPECT_EQ(params.job_count, 50000u);
  ChunkedSyntheticSource source(params, 20111001, sim::hours(6));
  EXPECT_EQ(source.last_submit_hint(), params.span);
}

}  // namespace
}  // namespace ps::workload
