// The dist serde contract: bit-exact round-trips over *every* field of
// ScenarioConfig and ScenarioResult (including the optional workload
// blocks, announce-typed cap windows and trace jobs), deterministic bytes,
// and loud rejection of version skew, unknown fields and malformed rows.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "dist/serde.h"
#include "obs/registry.h"
#include "scenario_fingerprint.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/quarantine.h"
#include "util/stats.h"

namespace ps::dist {
namespace {

/// Every field set away from its default, so a serializer that drops or
/// reorders anything cannot round-trip this.
core::ScenarioConfig exhaustive_config() {
  core::ScenarioConfig config;
  config.profile = workload::Profile::BigJob;

  workload::GeneratorParams params;
  params.name = "serde round trip";  // strings may contain spaces
  params.span = sim::hours(7);
  params.job_count = 1234;
  params.backlog_fraction = 0.375;
  params.w_tiny = 0.5;
  params.w_medium = 0.25;
  params.w_large = 0.2;
  params.w_huge = 0.05;
  params.overestimate_median = 9999.5;
  params.overestimate_sigma = 0.75;
  params.max_walltime = sim::hours(100);
  params.user_count = 17;
  params.heterogeneous_apps = true;
  config.custom_workload = params;

  config.trace_jobs = std::vector<workload::JobRequest>{
      {1, 0, 3, 512, sim::hours(2), sim::minutes(90), "linpack"},
      {2, sim::seconds(30), 0, 16, sim::minutes(10), sim::minutes(2), ""},
      {3, sim::hours(1), 7, 80640, sim::hours(24), sim::hours(20), "stream"},
  };

  // Above INT64_MAX on purpose: seeds span the full uint64 range and the
  // parser must not route them through a signed parse.
  config.seed = 0xdeadbeefcafebabeull;
  config.racks = 3;

  config.powercap.policy = core::Policy::Auto;
  config.powercap.default_degmin = 1.5;
  config.powercap.use_app_degmin = false;
  config.powercap.mix_min_ghz = 2.2;
  config.powercap.rho = core::RhoConvention::Exact;
  config.powercap.selection = core::OfflineSelection::Scattered;
  config.powercap.admission = core::AdmissionMode::Projection;
  config.powercap.offline_enabled = false;
  config.powercap.strict_reservation_blocking = true;
  config.powercap.kill_on_overcap = true;
  config.powercap.audit_admission_cache = true;
  config.powercap.dynamic_dvfs = true;

  config.cap_lambda = 0.45;
  config.cap_start = sim::minutes(30);
  config.cap_duration = sim::hours(2);
  // Advance, announce-typed and open-ended windows all represented.
  config.cap_windows = {
      {0.4, sim::hours(1), sim::hours(2), -1},
      {0.6, sim::hours(4), 0, sim::hours(3)},        // open-ended, announced
      {0.5, -1, sim::minutes(45), sim::minutes(5)},  // centered, announced
  };

  config.controller.priority.age = 123.0;
  config.controller.priority.size = 45.5;
  config.controller.priority.fair_share = 678.0;
  config.controller.priority.age_saturation = sim::hours(3);
  config.controller.backfill_depth = 99;
  config.controller.selector = rjms::SelectorKind::Spread;
  config.controller.fairshare_enabled = false;
  config.controller.fairshare_half_life = sim::hours(11);
  config.controller.shutdown_delay = sim::seconds(20);
  config.controller.boot_delay = sim::seconds(90);

  config.horizon = sim::hours(9);
  config.submit_chunk = sim::minutes(45);
  return config;
}

void expect_config_equal(const core::ScenarioConfig& a, const core::ScenarioConfig& b) {
  EXPECT_EQ(a.profile, b.profile);
  ASSERT_EQ(a.custom_workload.has_value(), b.custom_workload.has_value());
  if (a.custom_workload) {
    EXPECT_EQ(a.custom_workload->name, b.custom_workload->name);
    EXPECT_EQ(a.custom_workload->span, b.custom_workload->span);
    EXPECT_EQ(a.custom_workload->job_count, b.custom_workload->job_count);
    EXPECT_EQ(a.custom_workload->backlog_fraction, b.custom_workload->backlog_fraction);
    EXPECT_EQ(a.custom_workload->w_tiny, b.custom_workload->w_tiny);
    EXPECT_EQ(a.custom_workload->w_medium, b.custom_workload->w_medium);
    EXPECT_EQ(a.custom_workload->w_large, b.custom_workload->w_large);
    EXPECT_EQ(a.custom_workload->w_huge, b.custom_workload->w_huge);
    EXPECT_EQ(a.custom_workload->overestimate_median,
              b.custom_workload->overestimate_median);
    EXPECT_EQ(a.custom_workload->overestimate_sigma,
              b.custom_workload->overestimate_sigma);
    EXPECT_EQ(a.custom_workload->max_walltime, b.custom_workload->max_walltime);
    EXPECT_EQ(a.custom_workload->user_count, b.custom_workload->user_count);
    EXPECT_EQ(a.custom_workload->heterogeneous_apps,
              b.custom_workload->heterogeneous_apps);
  }
  ASSERT_EQ(a.trace_jobs.has_value(), b.trace_jobs.has_value());
  if (a.trace_jobs) {
    ASSERT_EQ(a.trace_jobs->size(), b.trace_jobs->size());
    for (std::size_t i = 0; i < a.trace_jobs->size(); ++i) {
      const workload::JobRequest& ja = (*a.trace_jobs)[i];
      const workload::JobRequest& jb = (*b.trace_jobs)[i];
      EXPECT_EQ(ja.id, jb.id);
      EXPECT_EQ(ja.submit_time, jb.submit_time);
      EXPECT_EQ(ja.user, jb.user);
      EXPECT_EQ(ja.requested_cores, jb.requested_cores);
      EXPECT_EQ(ja.requested_walltime, jb.requested_walltime);
      EXPECT_EQ(ja.base_runtime, jb.base_runtime);
      EXPECT_EQ(ja.app, jb.app);
    }
  }
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.racks, b.racks);
  EXPECT_EQ(a.powercap.policy, b.powercap.policy);
  EXPECT_EQ(a.powercap.default_degmin, b.powercap.default_degmin);
  EXPECT_EQ(a.powercap.use_app_degmin, b.powercap.use_app_degmin);
  EXPECT_EQ(a.powercap.mix_min_ghz, b.powercap.mix_min_ghz);
  EXPECT_EQ(a.powercap.rho, b.powercap.rho);
  EXPECT_EQ(a.powercap.selection, b.powercap.selection);
  EXPECT_EQ(a.powercap.admission, b.powercap.admission);
  EXPECT_EQ(a.powercap.offline_enabled, b.powercap.offline_enabled);
  EXPECT_EQ(a.powercap.strict_reservation_blocking,
            b.powercap.strict_reservation_blocking);
  EXPECT_EQ(a.powercap.kill_on_overcap, b.powercap.kill_on_overcap);
  EXPECT_EQ(a.powercap.audit_admission_cache, b.powercap.audit_admission_cache);
  EXPECT_EQ(a.powercap.dynamic_dvfs, b.powercap.dynamic_dvfs);
  EXPECT_EQ(a.cap_lambda, b.cap_lambda);
  EXPECT_EQ(a.cap_start, b.cap_start);
  EXPECT_EQ(a.cap_duration, b.cap_duration);
  ASSERT_EQ(a.cap_windows.size(), b.cap_windows.size());
  for (std::size_t i = 0; i < a.cap_windows.size(); ++i) {
    EXPECT_EQ(a.cap_windows[i].lambda, b.cap_windows[i].lambda);
    EXPECT_EQ(a.cap_windows[i].start, b.cap_windows[i].start);
    EXPECT_EQ(a.cap_windows[i].duration, b.cap_windows[i].duration);
    EXPECT_EQ(a.cap_windows[i].announce, b.cap_windows[i].announce);
  }
  EXPECT_EQ(a.controller.priority.age, b.controller.priority.age);
  EXPECT_EQ(a.controller.priority.size, b.controller.priority.size);
  EXPECT_EQ(a.controller.priority.fair_share, b.controller.priority.fair_share);
  EXPECT_EQ(a.controller.priority.age_saturation, b.controller.priority.age_saturation);
  EXPECT_EQ(a.controller.backfill_depth, b.controller.backfill_depth);
  EXPECT_EQ(a.controller.selector, b.controller.selector);
  EXPECT_EQ(a.controller.fairshare_enabled, b.controller.fairshare_enabled);
  EXPECT_EQ(a.controller.fairshare_half_life, b.controller.fairshare_half_life);
  EXPECT_EQ(a.controller.shutdown_delay, b.controller.shutdown_delay);
  EXPECT_EQ(a.controller.boot_delay, b.controller.boot_delay);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.submit_chunk, b.submit_chunk);
}

// --- wire-byte pins ----------------------------------------------------------
//
// One fixed value per record type, every field away from its default, and
// the exact bytes it must serialize to. A refactor of the serde may move
// code freely but must never move one of these bytes (kSerdeVersion pins
// the format, not the implementation).

core::OfflinePlan pinned_plan(std::int32_t first_node) {
  core::OfflinePlan plan;
  plan.split.mechanism = core::model::Mechanism::Both;
  plan.split.n_off = 12.5;
  plan.split.n_dvfs = 3.25;
  plan.split.work = 0.875;
  plan.selection.nodes = {first_node, first_node + 1, first_node + 2,
                          first_node + 7};
  plan.selection.whole_racks = 1;
  plan.selection.whole_chassis = 2;
  plan.selection.singles = 3;
  plan.selection.saving_vs_busy_watts = 34360.5;
  plan.selection.saving_vs_idle_watts = 12670.25;
  plan.cap_watts = 900000.0;
  plan.node_budget_watts = 850000.0;
  plan.required_saving_watts = 41000.0;
  plan.reservation_id = 17 + first_node;
  return plan;
}

core::ScenarioResult pinned_result() {
  core::ScenarioResult result;
  metrics::RunSummary& s = result.summary;
  s.from = 60'000;
  s.to = 7'200'000;
  s.energy_joules = 1.5e9;
  s.work_core_seconds = 2.25e7;
  s.effective_work_core_seconds = 2.0e7;
  s.max_possible_work = 3.0e7;
  s.launched_jobs = 101;
  s.completed_jobs = 97;
  s.killed_jobs = 2;
  s.submitted_jobs = 120;
  s.mean_wait_seconds = 311.5;
  s.utilization = 0.75;
  s.mean_watts = 612345.5;
  s.max_watts = 998877.25;
  s.cap_violation_seconds = 4.5;
  rjms::Controller::Stats& st = result.stats;
  st.submitted = 120;
  st.started = 101;
  st.completed = 97;
  st.killed = 2;
  st.rejected = 1;
  st.full_passes = 333;
  st.backfill_starts = 44;
  st.quick_attempts = 555;
  st.selector_fast_fails = 7;
  st.admission_fast_fails = 8;
  result.samples = {{0, 400000.5, 10, 2, 1, {3, 0, 5}},
                    {60'000, -0.0, 0, 0, 4, {}}};
  result.cap_watts = 900000.0;
  result.cap_start = 1'800'000;
  result.cap_end = 5'400'000;
  result.has_plan = true;
  result.plan = pinned_plan(0);
  result.windows = {{1'800'000, 5'400'000, 900000.0},
                    {6'000'000, sim::kTimeMax, 700000.5}};
  result.plans = {pinned_plan(0), pinned_plan(40)};
  result.max_cluster_watts = 1234567.75;
  result.total_cores = 80640;
  return result;
}

serve::Submission pinned_submission(const std::string& client,
                                    std::uint64_t seq) {
  serve::Submission doc;
  doc.client = client;
  doc.seq = seq;
  doc.watermark = 90'000 + static_cast<sim::Time>(seq);
  doc.eof = true;
  doc.publish_ns = 123'456'789;
  doc.jobs = {{41, 60'000, 3, 512, sim::hours(2), sim::minutes(90), "linpack"},
              {42, 61'000, 0, 16, sim::minutes(10), sim::minutes(2), ""}};
  return doc;
}

/// Every double kind the telemetry walk must carry bit for bit: a value
/// %.17g needed all digits for, -0.0 and the smallest denormal.
obs::Snapshot pinned_snapshot() {
  obs::Snapshot snap;
  snap.seq = 42;
  snap.wall_ns = 1'760'000'000'123'456'789;
  snap.mono_ns = 987'654'321'000;
  snap.sim_time_ms = 3'600'000;
  snap.counters = {{"serve.docs", 120},
                   {"spool.claim_races", 18446744073709551615ull}};
  snap.gauges = {{"serve.queue_depth", 17.25},
                 {"serve.ratio", 0.1},
                 {"serve.neg_zero", -0.0},
                 {"serve.tiny", 4.9406564584124654e-324}};
  snap.histograms = {{"serve.admit_ms", 6, 975.5, 0.5, 2.0100000000000002,
                      64.299999999999997, 900.10000000000002, 900.0}};
  return snap;
}

/// A non-default geometry with samples below min_value, above max_value
/// and in a shared bucket.
util::QuantileSketch pinned_sketch() {
  util::QuantileSketch sketch(0.02, 0.5, 1e6);
  for (double x : {0.1, 0.75, 3.0, 3.0, 42.0, 250.5, 1e7}) sketch.add(x);
  return sketch;
}

std::string sketch_text(const util::QuantileSketch& sketch) {
  return util::encode(sketch,
                      util::qsketch<util::Writer, const util::QuantileSketch>,
                      /*sealed=*/false);
}

util::QuantileSketch parse_sketch(std::string_view text) {
  return util::decode(text, util::qsketch<util::Reader, util::QuantileSketch>,
                      /*sealed=*/false);
}

const char kScenarioResultPin[] = R"(begin scenario_result v5
begin run_summary v5
from 60000
to 7200000
energy_joules 41d65a0bc0000000
work_core_seconds 4175752a00000000
effective_work_core_seconds 417312d000000000
max_possible_work 417c9c3800000000
launched_jobs 101
completed_jobs 97
killed_jobs 2
submitted_jobs 120
mean_wait_seconds 4073780000000000
utilization 3fe8000000000000
mean_watts 4122aff300000000
max_watts 412e7bba80000000
cap_violation_seconds 4012000000000000
end run_summary
begin controller_stats v5
submitted 120
started 101
completed 97
killed 2
rejected 1
full_passes 333
backfill_starts 44
quick_attempts 555
selector_fast_fails 7
admission_fast_fails 8
end controller_stats
samples 2
sample 0 41186a0200000000 10 2 1 3 3 0 5
sample 60000 8000000000000000 0 0 4 0
cap_watts 412b774000000000
cap_start 1800000
cap_end 5400000
has_plan 1
begin offline_plan v5
mechanism both
n_off 4029000000000000
n_dvfs 400a000000000000
work 3fec000000000000
begin selection v5
nodes 4 0+3 7+1
whole_racks 1
whole_chassis 2
singles 3
saving_vs_busy_watts 40e0c71000000000
saving_vs_idle_watts 40c8bf2000000000
end selection
cap_watts 412b774000000000
node_budget_watts 4129f0a000000000
required_saving_watts 40e4050000000000
reservation_id 17
end offline_plan
windows 2
window 1800000 5400000 412b774000000000
window 6000000 9223372036854775807 41255cc100000000
plans 2
begin offline_plan v5
mechanism both
n_off 4029000000000000
n_dvfs 400a000000000000
work 3fec000000000000
begin selection v5
nodes 4 0+3 7+1
whole_racks 1
whole_chassis 2
singles 3
saving_vs_busy_watts 40e0c71000000000
saving_vs_idle_watts 40c8bf2000000000
end selection
cap_watts 412b774000000000
node_budget_watts 4129f0a000000000
required_saving_watts 40e4050000000000
reservation_id 17
end offline_plan
begin offline_plan v5
mechanism both
n_off 4029000000000000
n_dvfs 400a000000000000
work 3fec000000000000
begin selection v5
nodes 4 40+3 47+1
whole_racks 1
whole_chassis 2
singles 3
saving_vs_busy_watts 40e0c71000000000
saving_vs_idle_watts 40c8bf2000000000
end selection
cap_watts 412b774000000000
node_budget_watts 4129f0a000000000
required_saving_watts 40e4050000000000
reservation_id 57
end offline_plan
max_cluster_watts 4132d687c0000000
total_cores 80640
end scenario_result
)";

const char kShardResultsHeadPin[] = R"(begin shard_results v5
id 5
cells 1
begin cell_record v5
index 12
fingerprint 0123456789abcdef
)";

const char kShardResultsTailPin[] = R"(end cell_record
end shard_results
checksum 9955f35fbffa2c08
)";

struct PinCase {
  const char* name;
  std::string actual;
  std::string expected;
};

std::vector<PinCase> pin_cases() {
  Shard shard;
  shard.id = 5;
  core::ScenarioConfig plain;
  plain.seed = 9;
  shard.cells = {{12, exhaustive_config()}, {40, plain}};

  ShardResults results;
  results.id = 5;
  results.records = {{12, 0x0123456789abcdefull, pinned_result()}};

  serve::Hello hello;
  hello.client = "alpha";
  hello.jobs = 133;
  hello.last_submit = 7'200'000;
  hello.tenant = "team-a";
  hello.weight = 3;

  serve::Status status;
  status.accepting = false;
  status.seq = 77;
  status.sim_time = 3'600'000;
  status.admitted = 250;
  status.slow_start = true;
  status.tenants = {{"team-a", 3, 2, 7, true, false},
                    {"team-b", 1, 0, 0, false, true}};

  serve::Checkpoint ckpt;
  ckpt.seq = 6;
  ckpt.committed = 123'456;
  ckpt.admitted = 240;
  ckpt.docs = 12;
  ckpt.clamped = 3;
  ckpt.scenario_checksum = 0xdeadbeefcafef00dull;
  ckpt.clients = {{"alpha", 200, 999'000, 6, 120'000, true, 120, 0x1234},
                  {"beta", 100, 888'000, 2, -5, false, 30, 0xfedcba9876543210ull}};
  ckpt.sketch = pinned_sketch();

  serve::Segment segment;
  segment.seq = 6;
  segment.docs = {pinned_submission("alpha", 0), pinned_submission("beta", 3)};

  serve::QuarantineReason reason;
  reason.client = "beta";
  reason.seq = 9;
  reason.kind = "hello";
  reason.reason = "parse_failure";
  reason.detail = "serde: line 3:\nbad field";  // flattened to one line
  reason.consumed = true;
  reason.generation = 2;
  reason.jobs = 17;
  reason.wall_ns = 555'000'111;

  return {
      {"scenario_result", serialize(pinned_result()),
       kScenarioResultPin},
      {"shard", serialize_shard(shard),
       R"(begin shard v5
id 5
cells 2
begin cell v5
index 12
begin scenario_config v5
profile bigjob
has_custom_workload 1
begin generator_params v5
name serde round trip
span 25200000
job_count 1234
backlog_fraction 3fd8000000000000
w_tiny 3fe0000000000000
w_medium 3fd0000000000000
w_large 3fc999999999999a
w_huge 3fa999999999999a
overestimate_median 40c387c000000000
overestimate_sigma 3fe8000000000000
max_walltime 360000000
user_count 17
heterogeneous_apps 1
end generator_params
has_trace_jobs 1
jobs 3
job 1 0 3 512 7200000 5400000 linpack
job 2 30000 0 16 600000 120000 -
job 3 3600000 7 80640 86400000 72000000 stream
seed 16045690984503098046
racks 3
begin powercap_config v5
policy auto
default_degmin 3ff8000000000000
use_app_degmin 0
mix_min_ghz 400199999999999a
rho exact
selection scattered
admission projection
offline_enabled 0
strict_reservation_blocking 1
kill_on_overcap 1
audit_admission_cache 1
dynamic_dvfs 1
end powercap_config
cap_lambda 3fdccccccccccccd
cap_start 1800000
cap_duration 7200000
cap_windows 3
window 3fd999999999999a 3600000 7200000 -1
window 3fe3333333333333 14400000 0 10800000
window 3fe0000000000000 -1 2700000 300000
begin controller_config v5
priority_age 405ec00000000000
priority_size 4046c00000000000
priority_fair_share 4085300000000000
priority_age_saturation 10800000
backfill_depth 99
selector spread
fairshare_enabled 0
fairshare_half_life 39600000
shutdown_delay 20000
boot_delay 90000
end controller_config
horizon 32400000
submit_chunk 2700000
end scenario_config
end cell
begin cell v5
index 40
begin scenario_config v5
profile medianjob
has_custom_workload 0
has_trace_jobs 0
seed 9
racks 56
begin powercap_config v5
policy shut
default_degmin 3ffa147ae147ae14
use_app_degmin 1
mix_min_ghz 4000000000000000
rho published
selection bonus_grouped
admission paper_live
offline_enabled 1
strict_reservation_blocking 0
kill_on_overcap 0
audit_admission_cache 0
dynamic_dvfs 0
end powercap_config
cap_lambda 3ff0000000000000
cap_start -1
cap_duration 3600000
cap_windows 0
begin controller_config v5
priority_age 408f400000000000
priority_size 407f400000000000
priority_fair_share 409f400000000000
priority_age_saturation 86400000
backfill_depth 50
selector packing
fairshare_enabled 1
fairshare_half_life 604800000
shutdown_delay 0
boot_delay 0
end controller_config
horizon 0
submit_chunk 0
end scenario_config
end cell
end shard
checksum eb586aff55c32468
)"},
      {"shard_results", serialize_shard_results(results),
       std::string(kShardResultsHeadPin) + kScenarioResultPin + kShardResultsTailPin},
      {"grid_meta", serialize_grid_meta({27, 4, 0xfeedface12345678ull}),
       R"(begin grid_meta v5
cells 27
shards 4
grid_checksum feedface12345678
end grid_meta
checksum 14fd306ee11f497e
)"},
      {"heartbeat", serialize_heartbeat(42, 4711),
       R"(hb 42 4711
)"},
      {"hello", serve::serialize_hello(hello),
       R"(begin serve_hello v5
client alpha
jobs 133
last_submit 7200000
tenant team-a
weight 3
end serve_hello
checksum 80768393f7a796a0
)"},
      {"submission", serve::serialize_submission(pinned_submission("alpha", 8)),
       R"(begin serve_submission v5
client alpha
seq 8
watermark 90008
eof 1
publish_ns 123456789
jobs 2
job 41 60000 3 512 7200000 5400000 linpack
job 42 61000 0 16 600000 120000 -
end serve_submission
checksum 8e0508cff893de0a
)"},
      {"status", serve::serialize_status(status),
       R"(begin serve_status v5
accepting 0
seq 77
sim_time 3600000
admitted 250
slow_start 1
tenant_count 2
tenant team-a 3 2 7 1 0
tenant team-b 1 0 0 0 1
end serve_status
checksum 23a4c87a20e02aad
)"},
      {"checkpoint", serve::serialize_checkpoint(ckpt),
       R"(begin serve_checkpoint v5
seq 6
committed 123456
admitted 240
docs 12
clamped 3
scenario_checksum deadbeefcafef00d
clients 2
begin ckpt_client v5
name alpha
hello_jobs 200
hello_last_submit 999000
next_seq 6
watermark 120000
eof 1
admitted_jobs 120
history_fp 0000000000001234
end ckpt_client
begin ckpt_client v5
name beta
hello_jobs 100
hello_last_submit 888000
next_seq 2
watermark -5
eof 0
admitted_jobs 30
history_fp fedcba9876543210
end ckpt_client
begin qsketch v5
gamma 3ff0a72f0539782a
min_value 3fe0000000000000
inv_log_gamma 4038ff2585faed51
bucket_count 365
count 7
sum 416312f56b333333
min 3fb999999999999a
max 416312d000000000
buckets 6
bucket 0 1
bucket 11 1
bucket 45 2
bucket 111 1
bucket 156 1
bucket 364 1
end qsketch
end serve_checkpoint
checksum a7f1ea9a49a4d512
)"},
      {"segment", serve::serialize_segment(segment),
       R"(begin serve_segment v5
seq 6
docs 2
begin serve_submission v5
client alpha
seq 0
watermark 90000
eof 1
publish_ns 123456789
jobs 2
job 41 60000 3 512 7200000 5400000 linpack
job 42 61000 0 16 600000 120000 -
end serve_submission
begin serve_submission v5
client beta
seq 3
watermark 90003
eof 1
publish_ns 123456789
jobs 2
job 41 60000 3 512 7200000 5400000 linpack
job 42 61000 0 16 600000 120000 -
end serve_submission
end serve_segment
checksum 084912a56a4fac6a
)"},
      {"quarantine_reason", serve::serialize_quarantine_reason(reason),
       R"(begin quarantine_reason v5
client beta
seq 9
kind hello
reason parse_failure
detail serde: line 3: bad field
consumed 1
generation 2
jobs 17
wall_ns 555000111
end quarantine_reason
checksum 62ca430683ca0dc2
)"},
      {"telemetry", obs::serialize_snapshot(pinned_snapshot()),
       R"(begin telemetry v5
seq 42
wall_ns 1760000000123456789
mono_ns 987654321000
sim_time_ms 3600000
counters 2
counter serve.docs 120
counter spool.claim_races 18446744073709551615
gauges 4
gauge serve.queue_depth 4031400000000000
gauge serve.ratio 3fb999999999999a
gauge serve.neg_zero 8000000000000000
gauge serve.tiny 0000000000000001
histograms 1
hist serve.admit_ms 6 408e7c0000000000 3fe0000000000000 4000147ae147ae15 4050133333333333 408c20cccccccccd 408c200000000000
end telemetry
checksum c39314060b2b1ea2
)"},
      {"qsketch", sketch_text(pinned_sketch()),
       R"(begin qsketch v5
gamma 3ff0a72f0539782a
min_value 3fe0000000000000
inv_log_gamma 4038ff2585faed51
bucket_count 365
count 7
sum 416312f56b333333
min 3fb999999999999a
max 416312d000000000
buckets 6
bucket 0 1
bucket 11 1
bucket 45 2
bucket 111 1
bucket 156 1
bucket 364 1
end qsketch
)"},
  };
}

TEST(DistSerde, EveryRecordTypeKeepsItsWireBytes) {
  for (const PinCase& pin : pin_cases()) {
    EXPECT_EQ(pin.actual, pin.expected) << pin.name << " moved on the wire";
  }
}

template <auto serialize_fn, auto parse_fn>
std::string reparse(const std::string& text) {
  return serialize_fn(parse_fn(text));
}

std::string reparse_result(const std::string& text) {
  return serialize(parse_scenario_result(text));
}

std::string reparse_sketch(const std::string& text) {
  return sketch_text(parse_sketch(text));
}

std::string reparse_heartbeat(const std::string& text) {
  std::optional<Heartbeat> hb = parse_heartbeat(text);
  return hb ? serialize_heartbeat(hb->seq, hb->pid) : std::string();
}

TEST(DistSerde, EveryPinnedRecordReparsesToItsOwnBytes) {
  // The parse direction of each walk, over values with no default field:
  // parse the pinned bytes and serialize them again.
  const std::map<std::string, std::string (*)(const std::string&)> reparsers = {
      {"scenario_result", reparse_result},
      {"shard", reparse<serialize_shard, parse_shard>},
      {"shard_results", reparse<serialize_shard_results, parse_shard_results>},
      {"grid_meta", reparse<serialize_grid_meta, parse_grid_meta>},
      {"heartbeat", reparse_heartbeat},
      {"hello", reparse<serve::serialize_hello, serve::parse_hello>},
      {"submission", reparse<serve::serialize_submission, serve::parse_submission>},
      {"status", reparse<serve::serialize_status, serve::parse_status>},
      {"checkpoint", reparse<serve::serialize_checkpoint, serve::parse_checkpoint>},
      {"segment", reparse<serve::serialize_segment, serve::parse_segment>},
      {"quarantine_reason", reparse<serve::serialize_quarantine_reason,
                                    serve::parse_quarantine_reason>},
      {"telemetry", reparse<obs::serialize_snapshot, obs::parse_snapshot>},
      {"qsketch", reparse_sketch},
  };
  for (const PinCase& pin : pin_cases()) {
    ASSERT_TRUE(reparsers.count(pin.name)) << pin.name;
    EXPECT_EQ(reparsers.at(pin.name)(pin.expected), pin.expected) << pin.name;
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(DistSerde, TelemetryAndSketchParseToTheirRecordedValues) {
  // Recorded from the hand-written `telemetry v1` and `qsketch1` parsers
  // these walks replaced, over the same two pinned values: every double
  // as its bit pattern, and the sketch's quantiles.
  const obs::Snapshot snap =
      obs::parse_snapshot(obs::serialize_snapshot(pinned_snapshot()));
  EXPECT_EQ(snap.seq, 42u);
  EXPECT_EQ(snap.wall_ns, 1760000000123456789);
  EXPECT_EQ(snap.mono_ns, 987654321000);
  EXPECT_EQ(snap.sim_time_ms, 3600000);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "serve.docs");
  EXPECT_EQ(snap.counters[0].value, 120u);
  EXPECT_EQ(snap.counters[1].name, "spool.claim_races");
  EXPECT_EQ(snap.counters[1].value, 18446744073709551615ull);
  const std::uint64_t gauges[] = {0x4031400000000000ull, 0x3fb999999999999aull,
                                  0x8000000000000000ull, 0x0000000000000001ull};
  ASSERT_EQ(snap.gauges.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bits(snap.gauges[i].value), gauges[i]) << snap.gauges[i].name;
  }
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::Snapshot::HistogramValue& h = snap.histograms[0];
  EXPECT_EQ(h.name, "serve.admit_ms");
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(bits(h.sum), 0x408e7c0000000000ull);
  EXPECT_EQ(bits(h.min), 0x3fe0000000000000ull);
  EXPECT_EQ(bits(h.p50), 0x4000147ae147ae15ull);
  EXPECT_EQ(bits(h.p95), 0x4050133333333333ull);
  EXPECT_EQ(bits(h.p99), 0x408c20cccccccccdull);
  EXPECT_EQ(bits(h.max), 0x408c200000000000ull);

  const util::QuantileSketch sketch =
      parse_sketch(sketch_text(pinned_sketch()));
  EXPECT_EQ(sketch.count(), 7u);
  EXPECT_EQ(sketch.bucket_count(), 365u);
  EXPECT_EQ(bits(sketch.sum()), 0x416312f56b333333ull);
  EXPECT_EQ(bits(sketch.min()), 0x3fb999999999999aull);
  EXPECT_EQ(bits(sketch.max()), 0x416312d000000000ull);
  EXPECT_EQ(bits(sketch.error_bound()), 0x3f94e5e0a72f0540ull);
  const std::pair<double, std::uint64_t> quantiles[] = {
      {0.0, 0x3fe0000000000000ull},  {0.01, 0x3fe0000000000000ull},
      {0.1, 0x3fe0000000000000ull},  {0.25, 0x3fe85b8d0bd4dbd2ull},
      {0.5, 0x4007bad467a0a7fbull},  {0.75, 0x406f73897e8a1151ull},
      {0.9, 0x412f8e807d6b5ac3ull},  {0.95, 0x412f8e807d6b5ac3ull},
      {0.99, 0x412f8e807d6b5ac3ull}, {0.999, 0x412f8e807d6b5ac3ull},
      {1.0, 0x412f8e807d6b5ac3ull},
  };
  for (const auto& [q, expected] : quantiles) {
    EXPECT_EQ(bits(sketch.quantile(q)), expected) << "q=" << q;
  }
}

TEST(DistSerde, ScenarioConfigRoundTripsEveryField) {
  core::ScenarioConfig config = exhaustive_config();
  std::string text = serialize(config);
  core::ScenarioConfig parsed = parse_scenario_config(text);
  expect_config_equal(config, parsed);
  // Deterministic bytes: re-serializing the parsed config is identical.
  EXPECT_EQ(text, serialize(parsed));
}

TEST(DistSerde, DefaultConfigRoundTrips) {
  core::ScenarioConfig config;
  core::ScenarioConfig parsed = parse_scenario_config(serialize(config));
  expect_config_equal(config, parsed);
}

TEST(DistSerde, ScenarioResultRoundTripsBitExactly) {
  // A real result (plans, windows, samples and all), not a synthetic one:
  // a capped multi-window run so windows/plans/selection are populated.
  core::ScenarioConfig config;
  workload::GeneratorParams params =
      workload::params_for(workload::Profile::MedianJob);
  params.span = sim::minutes(20);
  params.job_count = 120;
  params.w_huge = 0.0;
  config.custom_workload = params;
  config.racks = 2;
  config.powercap.policy = core::Policy::Mix;
  config.cap_windows = {
      {0.5, sim::minutes(5), sim::minutes(5), -1},
      {0.7, sim::minutes(12), sim::minutes(4), sim::minutes(2)},
  };
  core::ScenarioResult result = core::run_scenario(config);
  ASSERT_FALSE(result.samples.empty());
  ASSERT_FALSE(result.plans.empty());

  std::string text = serialize(result);
  core::ScenarioResult parsed = parse_scenario_result(text);

  // The shared fingerprint covers every summary field, counter and sample
  // bit — the exact merge fence the driver applies.
  EXPECT_EQ(core::testing::fingerprint(result), core::testing::fingerprint(parsed));
  // Fields outside the fingerprint, checked explicitly.
  EXPECT_EQ(result.cap_watts, parsed.cap_watts);
  EXPECT_EQ(result.cap_start, parsed.cap_start);
  EXPECT_EQ(result.cap_end, parsed.cap_end);
  EXPECT_EQ(result.has_plan, parsed.has_plan);
  EXPECT_EQ(result.max_cluster_watts, parsed.max_cluster_watts);
  EXPECT_EQ(result.total_cores, parsed.total_cores);
  ASSERT_EQ(result.windows.size(), parsed.windows.size());
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    EXPECT_EQ(result.windows[i].start, parsed.windows[i].start);
    EXPECT_EQ(result.windows[i].end, parsed.windows[i].end);
    EXPECT_EQ(result.windows[i].watts, parsed.windows[i].watts);
  }
  ASSERT_EQ(result.plans.size(), parsed.plans.size());
  for (std::size_t i = 0; i < result.plans.size(); ++i) {
    const core::OfflinePlan& pa = result.plans[i];
    const core::OfflinePlan& pb = parsed.plans[i];
    EXPECT_EQ(pa.split.mechanism, pb.split.mechanism);
    EXPECT_EQ(pa.split.n_off, pb.split.n_off);
    EXPECT_EQ(pa.split.n_dvfs, pb.split.n_dvfs);
    EXPECT_EQ(pa.split.work, pb.split.work);
    EXPECT_EQ(pa.selection.nodes, pb.selection.nodes);
    EXPECT_EQ(pa.selection.whole_racks, pb.selection.whole_racks);
    EXPECT_EQ(pa.selection.whole_chassis, pb.selection.whole_chassis);
    EXPECT_EQ(pa.selection.singles, pb.selection.singles);
    EXPECT_EQ(pa.selection.saving_vs_busy_watts, pb.selection.saving_vs_busy_watts);
    EXPECT_EQ(pa.selection.saving_vs_idle_watts, pb.selection.saving_vs_idle_watts);
    EXPECT_EQ(pa.cap_watts, pb.cap_watts);
    EXPECT_EQ(pa.node_budget_watts, pb.node_budget_watts);
    EXPECT_EQ(pa.required_saving_watts, pb.required_saving_watts);
    EXPECT_EQ(pa.reservation_id, pb.reservation_id);
  }
  EXPECT_EQ(text, serialize(parsed));
}

TEST(DistSerde, SpecialDoublesRoundTrip) {
  core::ScenarioConfig config;
  config.cap_lambda = -0.0;
  core::ScenarioConfig parsed = parse_scenario_config(serialize(config));
  EXPECT_TRUE(std::signbit(parsed.cap_lambda));  // decimal text would lose this
}

TEST(DistSerde, VersionSkewIsRejected) {
  std::string text = serialize(core::ScenarioConfig{});
  std::string current = " v" + std::to_string(util::kSerdeVersion);
  std::string next = " v" + std::to_string(util::kSerdeVersion + 1);
  std::string skewed = text;
  skewed.replace(skewed.find(current), current.size(), next);
  EXPECT_THROW(parse_scenario_config(skewed), util::SerdeError);
}

TEST(DistSerde, LiveJobSourceIsRejected) {
  // A streaming source has no value representation; serializing must fail
  // loudly rather than ship a config that replays a different workload.
  core::ScenarioConfig config;
  config.job_source = std::make_shared<workload::VectorJobSource>(
      std::vector<workload::JobRequest>{});
  EXPECT_THROW(serialize(config), util::SerdeError);
}

TEST(DistSerde, UnknownFieldIsRejected) {
  std::string text = serialize(core::ScenarioConfig{});
  // Inject a plausible-looking field a newer binary might emit.
  std::size_t pos = text.find("seed ");
  ASSERT_NE(pos, std::string::npos);
  std::string extended = text.substr(0, pos) + "shiny_new_knob 7\n" + text.substr(pos);
  EXPECT_THROW(parse_scenario_config(extended), util::SerdeError);
}

TEST(DistSerde, MissingFieldIsRejected) {
  std::string text = serialize(core::ScenarioConfig{});
  std::size_t pos = text.find("seed ");
  std::size_t eol = text.find('\n', pos);
  std::string truncated = text.substr(0, pos) + text.substr(eol + 1);
  EXPECT_THROW(parse_scenario_config(truncated), util::SerdeError);
}

TEST(DistSerde, TrailingGarbageIsRejected) {
  std::string text = serialize(core::ScenarioConfig{});
  EXPECT_THROW(parse_scenario_config(text + "extra junk\n"), util::SerdeError);
}

TEST(DistSerde, ProtocolDocumentsRoundTrip) {
  std::vector<core::ScenarioConfig> grid(3);
  grid[1].seed = 7;
  grid[2].cap_lambda = 0.6;
  std::string grid_text = serialize_cell_grid(grid);
  std::vector<core::ScenarioConfig> parsed_grid = parse_cell_grid(grid_text);
  ASSERT_EQ(parsed_grid.size(), 3u);
  EXPECT_EQ(parsed_grid[1].seed, 7u);
  EXPECT_EQ(grid_text, serialize_cell_grid(parsed_grid));

  Shard shard;
  shard.id = 4;
  shard.cells = {{10, grid[0]}, {11, grid[1]}};
  Shard parsed_shard = parse_shard(serialize_shard(shard));
  EXPECT_EQ(parsed_shard.id, 4u);
  ASSERT_EQ(parsed_shard.cells.size(), 2u);
  EXPECT_EQ(parsed_shard.cells[0].index, 10u);
  EXPECT_EQ(parsed_shard.cells[1].index, 11u);

  std::vector<std::uint64_t> manifest = {0x1234, 0xffffffffffffffffull, 0};
  EXPECT_EQ(parse_manifest(serialize_manifest(manifest)), manifest);
}

TEST(DistSerde, SealedDocumentRoundTrips) {
  std::string body = "shard_results {\nid 3\n}\n";
  std::string sealed = util::seal_document(body);
  EXPECT_NE(sealed, body);                        // the seal is visible bytes
  EXPECT_EQ(util::open_document(sealed), body);         // ...and strips clean
  // Sealing is deterministic: same body, same document.
  EXPECT_EQ(sealed, util::seal_document(body));
}

TEST(DistSerde, UnsealedDocumentIsRejected) {
  // A document written by a pre-checksum binary (or a write torn before
  // the final line) has no seal: open must refuse, never guess.
  EXPECT_THROW(util::open_document("shard_results {\nid 3\n}\n"), util::SerdeError);
  EXPECT_THROW(util::open_document(""), util::SerdeError);
  EXPECT_THROW(util::open_document("checksum tooshort\n"), util::SerdeError);
}

TEST(DistSerde, TruncatedSealedDocumentIsRejected) {
  // Torn writes truncate at arbitrary byte offsets; every prefix of a
  // sealed document must fail to open.
  std::string sealed = serialize_shard_results([] {
    ShardResults r;
    r.id = 9;
    return r;
  }());
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    EXPECT_THROW(util::open_document(std::string_view(sealed).substr(0, len)),
                 util::SerdeError)
        << "prefix of " << len << " bytes opened";
  }
}

TEST(DistSerde, BitFlippedSealedDocumentIsRejected) {
  // Bitrot anywhere — body or the checksum line itself — must be caught.
  std::string sealed = util::seal_document("manifest {\ncells 0\n}\n");
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string corrupt = sealed;
    corrupt[i] ^= 0x01;
    EXPECT_THROW(util::open_document(corrupt), util::SerdeError) << "flip at byte " << i;
  }
}

TEST(DistSerde, EveryProtocolDocumentIsSealed) {
  // All four spool document kinds carry the trailing checksum line and
  // refuse a stripped body — the driver relies on this to classify any
  // torn file as a retriable worker fault.
  std::vector<core::ScenarioConfig> grid(2);
  Shard shard;
  shard.id = 1;
  shard.cells = {{0, grid[0]}};
  ShardResults results;
  results.id = 1;
  GridMeta meta{2, 1, 0xabcd};

  for (const std::string& doc :
       {serialize_cell_grid(grid), serialize_shard(shard),
        serialize_shard_results(results), serialize_manifest({1, 2}),
        serialize_grid_meta(meta)}) {
    std::string_view body = util::open_document(doc);  // must not throw
    EXPECT_THROW(parse_cell_grid(body), util::SerdeError);
  }
  GridMeta parsed = parse_grid_meta(serialize_grid_meta(meta));
  EXPECT_EQ(parsed.cells, 2u);
  EXPECT_EQ(parsed.shards, 1u);
  EXPECT_EQ(parsed.grid_checksum, 0xabcdu);
}

TEST(DistSerde, SpoolNamesCarryFencingTokens) {
  EXPECT_EQ(shard_file_name(3, 1), "shard-000003.t001.shard");
  EXPECT_EQ(results_file_name(3, 12), "shard-000003.t012.results");
  EXPECT_EQ(heartbeat_file_name(3, 2), "shard-000003.t002.hb");

  auto name = parse_spool_name("shard-000003.t012.results");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->id, 3u);
  EXPECT_EQ(name->token, 12u);
  // Claim files carry a trailing .<pid>; the name parser ignores it, the
  // pid parser extracts it.
  auto claim = parse_spool_name("shard-000003.t012.shard.4711");
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(claim->token, 12u);
  EXPECT_EQ(parse_claim_pid("shard-000003.t012.shard.4711"),
            std::optional<std::int64_t>(4711));

  EXPECT_FALSE(parse_spool_name("shard-xyz.t001.shard").has_value());
  EXPECT_FALSE(parse_spool_name("shard-000003.shard").has_value());
  EXPECT_FALSE(parse_spool_name("other-000003.t001.shard").has_value());
  EXPECT_FALSE(parse_spool_name(".tmp.shard-000003.t001.shard").has_value());
}

TEST(DistSerde, HeartbeatRoundTripsAndToleratesGarbage) {
  auto hb = parse_heartbeat(serialize_heartbeat(42, 999));
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->seq, 42u);
  EXPECT_EQ(hb->pid, 999);
  // A torn heartbeat must read as "no heartbeat", not an exception: the
  // driver treats it as a lease that simply is not renewing.
  EXPECT_FALSE(parse_heartbeat("").has_value());
  EXPECT_FALSE(parse_heartbeat("hb 42").has_value());
  EXPECT_FALSE(parse_heartbeat("hb x 999").has_value());
  EXPECT_FALSE(parse_heartbeat("nope 42 999").has_value());
}

// --- hostile input -----------------------------------------------------------

/// `doc` with the first line that starts with `prefix` replaced by
/// `replacement`, resealed when `doc` was sealed — a well-formed seal
/// around hostile content, the case the checksum cannot catch.
std::string with_line(const std::string& doc, const std::string& prefix,
                      const std::string& replacement, bool sealed = true) {
  std::string body(sealed ? util::open_document(doc) : std::string_view(doc));
  std::size_t pos = body.rfind("\n" + prefix) + 1;
  EXPECT_NE(pos, 0u) << "no line starts with '" << prefix << "'";
  std::size_t eol = body.find('\n', pos);
  body.replace(pos, eol - pos, replacement);
  return sealed ? util::seal_document(body) : body;
}

/// The message of the util::SerdeError `parse` raises; empty when it
/// accepts.
template <class Parse>
std::string serde_error(Parse&& parse) {
  try {
    parse();
  } catch (const util::SerdeError& error) {
    return error.what();
  }
  return "";
}

TEST(DistSerde, HostileCountsAreSerdeErrorsBeforeAnyAllocation) {
  // A sealed manifest of a few dozen bytes claiming 10^8 cells: the count
  // is rejected against the bytes left in the document, before anything is
  // reserved for it.
  const std::string head =
      "begin manifest v" + std::to_string(util::kSerdeVersion) + "\ncells ";
  for (const char* count : {"100000000", "100000000000000"}) {
    try {
      parse_manifest(util::seal_document(head + count + "\nend manifest\n"));
      ADD_FAILURE() << count << " accepted";
    } catch (const util::SerdeError& error) {
      // The count guard, not a version or checksum mismatch.
      EXPECT_NE(std::string(error.what()).find("exceeds the"), std::string::npos)
          << count << ": " << error.what();
    }
  }
  serve::Submission doc = pinned_submission("alpha", 1);
  EXPECT_THROW(serve::parse_submission(with_line(
                   serve::serialize_submission(doc), "jobs ",
                   "jobs 1000000000000000")),
               util::SerdeError);
  ShardResults results;
  results.records = {{0, 1, pinned_result()}};
  std::string sealed_results = serialize_shard_results(results);
  for (const char* hostile :
       {"cells 18446744073709551615", "samples 99999999999"}) {
    std::string key = std::string(hostile).substr(0, std::string(hostile).find(' ') + 1);
    EXPECT_THROW(parse_shard_results(with_line(sealed_results, key, hostile)),
                 util::SerdeError)
        << hostile;
  }
  // Counts inside a row are bounded by the row's own bytes.
  EXPECT_THROW(parse_shard_results(with_line(
                   sealed_results, "sample 60000",
                   "sample 60000 8000000000000000 0 0 4 4000000000")),
               util::SerdeError);
  // The telemetry and sketch lists take the same guard.
  for (const std::string& error :
       {serde_error([] {
          obs::parse_snapshot(with_line(obs::serialize_snapshot(pinned_snapshot()),
                                        "counters ", "counters 100000000"));
        }),
        serde_error([] {
          parse_sketch(with_line(sketch_text(pinned_sketch()), "buckets ",
                                 "buckets 100000000", /*sealed=*/false));
        })}) {
    EXPECT_NE(error.find("exceeds the"), std::string::npos) << error;
  }
  // The selection's run-length row decodes to far more nodes than bytes by
  // design; its count is capped, and runs may not overshoot the count.
  for (const char* hostile : {"nodes 4000000000 0+4000000000",
                              "nodes 2 0+1000000000000", "nodes 2 0+1 -5+1",
                              "nodes 2 2147483647+2"}) {
    EXPECT_THROW(parse_scenario_result(
                     with_line(serialize(pinned_result()), "nodes ", hostile,
                               /*sealed=*/false)),
                 util::SerdeError)
        << hostile;
  }
}

TEST(DistSerde, OutOfRangeIntegersAreSerdeErrors) {
  // Each value must fit the field's own type: no silent int32 narrowing,
  // no negative value wrapping into an unsigned field.
  const std::string config = serialize(exhaustive_config());
  for (const char* hostile : {"racks 3000000000", "user_count -2147483649",
                              "seed -1", "job_count 18446744073709551616"}) {
    std::string prefix = std::string(hostile).substr(0, 5);
    EXPECT_THROW(parse_scenario_config(
                     with_line(config, prefix, hostile, /*sealed=*/false)),
                 util::SerdeError)
        << hostile;
  }
  EXPECT_THROW(parse_scenario_config(with_line(
                   config, "job 1 ", "job 1 0 4294967296 512 7200000 5400000 x",
                   /*sealed=*/false)),
               util::SerdeError);
  const std::string result = serialize(pinned_result());
  for (const char* hostile : {"whole_racks 2147483648",
                              "sample 0 411869c040000000 4294967306 2 1 3 3 0 5",
                              "sample 0 411869c040000000 10 2 1 3 3 0 -2147483649"}) {
    std::string prefix = std::string(hostile).substr(0, 8);
    EXPECT_THROW(parse_scenario_result(
                     with_line(result, prefix, hostile, /*sealed=*/false)),
                 util::SerdeError)
        << hostile;
  }

  // Sketch bucket rows: index past bucket_count, a descending index, an
  // explicit zero bucket.
  const std::string sketch = sketch_text(pinned_sketch());
  struct SketchRow {
    const char* prefix;
    const char* hostile;
    const char* check;  ///< the walk's own message for it
  };
  for (const SketchRow& row :
       {SketchRow{"bucket 364", "bucket 365 1", "index out of range"},
        SketchRow{"bucket 45", "bucket 5 2", "not strictly ascending"},
        SketchRow{"bucket 364", "bucket 364 0", "explicit zero bucket"}}) {
    std::string error = serde_error([&] {
      parse_sketch(with_line(sketch, row.prefix, row.hostile, false));
    });
    EXPECT_NE(error.find(row.check), std::string::npos)
        << row.hostile << ": " << error;
  }
  // Metric names are checked as registration checks them.
  const std::string telemetry = obs::serialize_snapshot(pinned_snapshot());
  for (const char* hostile : {"counter serve\tdocs 120",
                              "counter serve\x01" "docs 120",
                              "counter serve\x7f 120"}) {
    EXPECT_THROW(obs::parse_snapshot(
                     with_line(telemetry, "counter serve.docs", hostile)),
                 util::SerdeError)
        << hostile;
  }

  serve::Status status;
  status.tenants = {{"team-a", 3, 2, 7, true, false}};
  const std::string sealed_status = serve::serialize_status(status);
  for (const char* hostile : {"tenant team-a -5 2 7 1 0", "tenant team-a 3 2 7 2 0",
                              "tenant team-a 3 2 7 1", "tenant team-a 3 2 7 1 0 9"}) {
    EXPECT_THROW(serve::parse_status(with_line(sealed_status, "tenant ", hostile)),
                 util::SerdeError)
        << hostile;
  }
}

}  // namespace
}  // namespace ps::dist
