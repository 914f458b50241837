// The overload / multi-tenant fence: deficit-weighted round-robin
// admission, per-tenant window quotas, poison-document quarantine and the
// hostile-client fault sites must all be invisible to the deterministic
// replay fingerprint — fairness reorders *admission work*, never sim-time
// semantics — while every malformed document lands in
// <spool>/quarantine/ under a sealed reason record and zero well-formed
// work is lost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "obs/registry.h"
#include "serve/fair.h"
#include "serve/load_gen.h"
#include "serve/protocol.h"
#include "serve/quarantine.h"
#include "serve/server.h"
#include "util/spool.h"
#include "util/strings.h"
#include "util/subprocess.h"
#include "util/wire.h"

namespace ps::serve {
namespace {

/// The offline single-window golden digest of curie_mini at racks=2,
/// Policy::Mix, lambda=0.5 (workload_trace_replay_test.cc).
constexpr const char* kGoldenFingerprint = "7cb9a43f79a4103c";
constexpr std::uint64_t kMiniTraceJobs = 400;

std::string mini_trace() {
  return std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf";
}

std::map<std::string, std::string> parse_report(const std::string& text) {
  std::map<std::string, std::string> fields;
  for (const std::string& line : strings::split(text, '\n')) {
    std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

std::uint64_t field_u64(const std::map<std::string, std::string>& report,
                        const std::string& key) {
  auto it = report.find(key);
  if (it == report.end()) {
    ADD_FAILURE() << "report has no field " << key;
    return 0;
  }
  return static_cast<std::uint64_t>(
      strings::parse_i64(it->second).value_or(-1));
}

/// Loads every sealed reason record in <spool>/quarantine/ (parse failures
/// are test failures — a quarantine record must never itself be torn).
std::vector<QuarantineReason> load_reasons(const std::string& spool) {
  std::vector<QuarantineReason> reasons;
  const std::string dir = quarantine_dir(spool);
  if (!util::path_exists(dir)) return reasons;
  for (const std::string& name : util::list_files(dir, ".reason")) {
    reasons.push_back(parse_quarantine_reason(util::read_file(dir + "/" + name)));
  }
  return reasons;
}

/// Publishes a hand-rolled client's hello (no load generator behind it).
void publish_hello(const std::string& spool, const std::string& client,
                   std::uint64_t jobs, sim::Time last_submit,
                   const std::string& tenant = "") {
  util::ensure_dir(spool);
  util::ensure_dir(inbox_dir(spool));
  Hello hello;
  hello.client = client;
  hello.jobs = jobs;
  hello.last_submit = last_submit;
  hello.tenant = tenant;
  util::write_file_atomic(inbox_dir(spool) + "/" + hello_file_name(client),
                          serialize_hello(hello), /*durable=*/false);
}

/// Publishes one job-less submission document of a hand-rolled client.
void publish_empty_submission(const std::string& spool,
                              const std::string& client, std::uint64_t seq,
                              bool eof) {
  Submission doc;
  doc.client = client;
  doc.seq = seq;
  doc.watermark = 0;
  doc.eof = eof;
  util::write_file_atomic(
      inbox_dir(spool) + "/" + submission_file_name(client, seq),
      serialize_submission(doc), /*durable=*/false);
}

/// Polls `done` every 5 ms for up to `patience_ms`.
bool eventually(const std::function<bool()>& done, std::int64_t patience_ms) {
  for (std::int64_t waited = 0; waited < patience_ms; waited += 5) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// Waits (bounded) until `count` sealed reason records sit in quarantine/.
bool wait_for_reasons(const std::string& spool, std::size_t count,
                      std::int64_t patience_ms) {
  return eventually([&] { return load_reasons(spool).size() >= count; },
                    patience_ms);
}

/// The det-golden scenario (curie_mini, racks=2, Mix, lambda 0.5).
ServeOptions golden_options(const std::string& spool) {
  ServeOptions options;
  options.spool = spool;
  options.scenario.racks = 2;
  options.scenario.powercap.policy = core::Policy::Mix;
  options.scenario.cap_lambda = 0.5;
  options.stats_interval_ms = 0;
  return options;
}

/// run_server on a thread of this process. finish() waits for the report;
/// past its patience it throws the stop flag, so a run that would never
/// end reports `interrupted` instead of hanging the test.
class InProcessServer {
 public:
  explicit InProcessServer(ServeOptions options)
      : options_(std::move(options)) {
    options_.stop = &stop_;
    thread_ = std::thread([this] {
      try {
        report_.emplace(run_server(options_));
      } catch (const std::exception& e) {
        failure_ = e.what();
      }
      done_.store(true);
    });
  }
  ~InProcessServer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  bool done() const { return done_.load(); }

  std::optional<ServeReport> finish(std::int64_t patience_ms) {
    if (!eventually([&] { return done(); }, patience_ms)) stop_.store(true);
    thread_.join();
    EXPECT_EQ(failure_, "");
    return std::move(report_);
  }

 private:
  ServeOptions options_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::optional<ServeReport> report_;
  std::string failure_;
  std::thread thread_;
};

// --- FairAdmitter unit fences ------------------------------------------------

TEST(FairAdmitter, ThroughputConvergesToWeightRatio) {
  TenantQuotaOptions options;
  options.quantum_jobs = 10;
  options.window_jobs = 0;
  FairAdmitter admitter(options);
  admitter.add_tenant("a", 1);
  admitter.add_tenant("b", 3);
  int admitted_a = 0;
  int admitted_b = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    admitter.begin_cycle(0, {"a", "b"});
    while (admitter.try_admit("a", 10)) ++admitted_a;
    while (admitter.try_admit("b", 10)) ++admitted_b;
  }
  EXPECT_EQ(admitted_a, 10);
  EXPECT_EQ(admitted_b, 30);  // exactly the 1:3 weight ratio
}

TEST(FairAdmitter, OversizedDocumentSavesDeficitAcrossCycles) {
  TenantQuotaOptions options;
  options.quantum_jobs = 4;
  FairAdmitter admitter(options);
  admitter.add_tenant("t", 1);
  admitter.begin_cycle(0, {"t"});
  EXPECT_FALSE(admitter.try_admit("t", 10));  // deficit 4
  admitter.begin_cycle(0, {"t"});
  EXPECT_FALSE(admitter.try_admit("t", 10));  // deficit 8
  admitter.begin_cycle(0, {"t"});
  EXPECT_TRUE(admitter.try_admit("t", 10));   // deficit 12 covers it
}

TEST(FairAdmitter, IdleTenantsHoardNoCredit) {
  TenantQuotaOptions options;
  options.quantum_jobs = 4;
  FairAdmitter admitter(options);
  admitter.add_tenant("t", 1);
  admitter.begin_cycle(0, {"t"});   // deficit 4
  admitter.begin_cycle(0, {});      // idle: reset to 0
  admitter.begin_cycle(0, {"t"});   // deficit 4 again, not 8
  EXPECT_FALSE(admitter.try_admit("t", 8));
  EXPECT_TRUE(admitter.try_admit("t", 4));
}

TEST(FairAdmitter, WindowQuotaDefersAndRolls) {
  TenantQuotaOptions options;
  options.quantum_jobs = 1000;  // deficit never binds in this fence
  options.window_ms = 100;
  options.window_jobs = 10;
  FairAdmitter admitter(options);
  admitter.add_tenant("t", 1);

  admitter.begin_cycle(0, {"t"});
  EXPECT_TRUE(admitter.try_admit("t", 6));
  EXPECT_EQ(admitter.window_jobs_left("t"), 4);
  EXPECT_FALSE(admitter.try_admit("t", 6));  // 6 + 6 > 10
  EXPECT_FALSE(admitter.try_admit("t", 6));
  EXPECT_EQ(admitter.window_deferrals(), 1u);  // counted once per cycle

  admitter.begin_cycle(50, {"t"});  // same window
  EXPECT_FALSE(admitter.try_admit("t", 6));
  EXPECT_EQ(admitter.window_deferrals(), 2u);

  admitter.begin_cycle(120, {"t"});  // window rolled: budget restored
  EXPECT_TRUE(admitter.try_admit("t", 6));

  // A document bigger than the whole window is admissible only against a
  // fresh window — otherwise it could never be admitted at all.
  admitter.begin_cycle(220, {"t"});
  EXPECT_TRUE(admitter.try_admit("t", 25));
  EXPECT_TRUE(admitter.window_blocked("t"));
  EXPECT_EQ(admitter.window_jobs_left("t"), 0);
}

TEST(FairAdmitter, RepeatRegistrationKeepsGreatestWeight) {
  FairAdmitter admitter;
  admitter.add_tenant("t", 2);
  admitter.add_tenant("t", 5);
  admitter.add_tenant("t", 1);
  EXPECT_EQ(admitter.weight("t"), 5u);
}

TEST(QuarantineReasonCodec, RoundTripsAndFlattensHostileDetail) {
  QuarantineReason reason;
  reason.client = "c1";
  reason.seq = 7;
  reason.kind = "submission";
  reason.reason = "parse_failure";
  reason.detail = "seal: bad\nchecksum\r\nline";
  reason.consumed = false;
  reason.generation = 3;
  reason.jobs = 17;
  reason.wall_ns = 123456789;
  QuarantineReason parsed =
      parse_quarantine_reason(serialize_quarantine_reason(reason));
  EXPECT_EQ(parsed.client, "c1");
  EXPECT_EQ(parsed.seq, 7);
  EXPECT_EQ(parsed.reason, "parse_failure");
  EXPECT_EQ(parsed.detail.find('\n'), std::string::npos);
  EXPECT_EQ(parsed.detail.find('\r'), std::string::npos);
  EXPECT_FALSE(parsed.consumed);
  EXPECT_EQ(parsed.generation, 3u);
  EXPECT_EQ(parsed.jobs, 17u);

  // An empty detail must still frame (serde rejects empty rest-of-line).
  reason.detail.clear();
  EXPECT_EQ(parse_quarantine_reason(serialize_quarantine_reason(reason)).detail,
            "-");
}

// --- integration fences ------------------------------------------------------

struct RunResult {
  std::map<std::string, std::string> report;
  std::vector<QuarantineReason> reasons;
  std::string dir;   ///< caller removes when done
  std::string spool;
};

RunResult run_quota_fence(int clients, int batch_jobs,
                          const std::vector<std::string>& serve_extra,
                          const std::vector<std::string>& load_extra) {
  RunResult run;
  run.dir = util::make_temp_dir("serve_fair");
  run.spool = run.dir + "/spool";
  std::vector<std::string> serve_argv = {
      PS_SERVE_BIN, "--spool", run.spool, "--expect-clients",
      strings::format("%d", clients), "--racks", "2", "--policy", "mix",
      "--lambda", "0.5", "--stats-ms", "0"};
  serve_argv.insert(serve_argv.end(), serve_extra.begin(), serve_extra.end());
  util::Subprocess server = util::Subprocess::spawn(
      serve_argv, run.dir + "/serve.out", run.dir + "/serve.err");

  std::vector<std::string> load_argv = {
      PS_LOAD_BIN, "--spool", run.spool, "--swf", mini_trace(), "--clients",
      strings::format("%d", clients), "--batch-jobs",
      strings::format("%d", batch_jobs)};
  load_argv.insert(load_argv.end(), load_extra.begin(), load_extra.end());
  util::Subprocess load = util::Subprocess::spawn(
      load_argv, run.dir + "/load.out", run.dir + "/load.err");

  EXPECT_EQ(load.wait(), 0) << util::read_file(run.dir + "/load.err");
  int server_exit = -1;
  if (!server.wait_for(120'000, &server_exit)) {
    server.kill();
    server.wait();
    ADD_FAILURE() << "ps-serve did not finish within 120s";
  }
  EXPECT_EQ(server_exit, 0) << util::read_file(run.dir + "/serve.err");
  run.report = parse_report(util::read_file(run.dir + "/serve.out"));
  run.reasons = load_reasons(run.spool);
  return run;
}

TEST(ServeFairness, QuotasAndWeightsPreserveTheDetGolden) {
  // Three tenants (one per client, weights forwarded fleet-wide), a tight
  // jobs-per-window quota and a small DRR quantum: admission is heavily
  // reshaped, the deterministic fingerprint must not move at all.
  // The quota must trip on every run, not only when the processes race.
  // Documents applied before the last hello are admitted unthrottled, so
  // each client first stalls 250 ms after its hello (stall_client at seq 0)
  // and its whole stream lands after the live loop starts; the loop's
  // first 16 iterations nap (stall_drain), so that stream piles up and more
  // than 24 jobs of one tenant meet in a single admission window.
  std::string stall_opening = "seed=1,rate=1,max_attempt=0,sites=stall_drain,shards=0";
  for (int iteration = 1; iteration < 16; ++iteration) {
    stall_opening += strings::format("+%d", iteration);
  }
  RunResult run = run_quota_fence(
      3, 17,
      {"--quantum-jobs", "16", "--admit-window-ms", "25",
       "--tenant-window-jobs", "24", "--faults", stall_opening},
      {"--weight", "3", "--faults",
       "seed=1,rate=1,max_attempt=2,sites=stall_client,shards=0"});
  ASSERT_TRUE(run.report.count("fingerprint"));
  EXPECT_EQ(run.report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(field_u64(run.report, "admitted"), kMiniTraceJobs);
  EXPECT_EQ(field_u64(run.report, "jobs_declared"), kMiniTraceJobs);
  EXPECT_EQ(field_u64(run.report, "quarantined_docs"), 0u);
  EXPECT_EQ(field_u64(run.report, "poisoned_tenants"), 0u);
  // 400 jobs against a 24-jobs-per-window cap cannot fit one window: the
  // quota demonstrably engaged.
  EXPECT_GT(field_u64(run.report, "quota_deferrals"), 0u);
  EXPECT_EQ(run.reasons.size(), 0u);
  util::remove_tree(run.dir);
}

TEST(ServeFairness, HostileStormLosesNoWellFormedWork) {
  // The CI chaos storm in miniature: corrupt publishes, duplicate
  // publishes, floods and stalls across three clients. Every well-formed
  // submission is still admitted exactly once (golden fingerprint), every
  // poison document lands in quarantine under a sealed reason record, and
  // no poison reason consumes a sequence number (the republish retry
  // protocol fills every gap).
  RunResult run = run_quota_fence(
      3, 17, {"--quantum-jobs", "64"},
      {"--faults",
       "seed=42,rate=0.35,max_attempt=3,"
       "sites=corrupt_submission+flood_burst+stall_client+dup_publish"});
  ASSERT_TRUE(run.report.count("fingerprint"));
  EXPECT_EQ(run.report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(field_u64(run.report, "admitted"), kMiniTraceJobs);
  EXPECT_EQ(field_u64(run.report, "poisoned_tenants"), 0u);

  // The storm demonstrably fired and every quarantined document has its
  // sealed reason record.
  EXPECT_GT(field_u64(run.report, "quarantined_docs"), 0u);
  EXPECT_EQ(field_u64(run.report, "quarantined_docs"), run.reasons.size());
  const std::set<std::string> benign = {"parse_failure", "duplicate",
                                        "seq_replayed"};
  for (const QuarantineReason& reason : run.reasons) {
    EXPECT_TRUE(benign.count(reason.reason))
        << "well-formed work quarantined as " << reason.reason;
    EXPECT_FALSE(reason.consumed)
        << reason.reason << " must not consume a retryable seq";
  }
  util::remove_tree(run.dir);
}

TEST(ServeFairness, PoisonThresholdAbandonsTheTenant) {
  // One honest solo client plus one hand-rolled hostile client that
  // publishes only garbage: the hostile tenant crosses the poison
  // threshold and is abandoned, the honest replay still reaches the
  // golden, and the run completes without the hostile eof.
  std::string dir = util::make_temp_dir("serve_poison");
  std::string spool = dir + "/spool";
  ServeOptions options = golden_options(spool);
  options.expect_clients = 2;
  options.poison_threshold = 2;
  InProcessServer server(options);

  const std::string inbox = inbox_dir(spool);
  publish_hello(spool, "evil", 0, -1);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    util::write_file_atomic(inbox + "/" + submission_file_name("evil", seq),
                            "not a sealed submission document\n",
                            /*durable=*/false);
  }

  LoadOptions load;
  load.spool = spool;
  load.swf = mini_trace();
  load.client = "solo";
  load.batch_jobs = 64;
  EXPECT_NO_THROW(run_load_client(load));
  std::optional<ServeReport> report = server.finish(120'000);
  ASSERT_TRUE(report.has_value());
  ASSERT_FALSE(report->interrupted) << "ps-serve hung";

  EXPECT_EQ(util::hex64_token(report->fingerprint), kGoldenFingerprint);
  EXPECT_EQ(report->admitted, kMiniTraceJobs);
  EXPECT_EQ(report->counters.delta("serve.quarantine.poisoned_tenants"), 1u);
  EXPECT_GE(report->counters.delta("serve.quarantine.docs"), 3u);
  std::vector<QuarantineReason> reasons = load_reasons(spool);
  EXPECT_EQ(reasons.size(), report->counters.delta("serve.quarantine.docs"));
  for (const QuarantineReason& reason : reasons) {
    EXPECT_EQ(reason.client, "evil");
    EXPECT_TRUE(reason.reason == "parse_failure" ||
                reason.reason == "tenant_poisoned")
        << reason.reason;
  }
  util::remove_tree(dir);
}

TEST(ServeFairness, LateHelloOnAPoisonedTenantIsAbandoned) {
  // Client "evil" of tenant t closes its stream and then publishes two
  // more documents: both quarantine as doc_after_eof during the hello
  // phase, which poisons t at threshold 2. Client "late", also of tenant
  // t, then publishes a document before its hello and one (its eof)
  // after. Joining a poisoned tenant abandons "late" at its hello: the
  // early document quarantines as tenant_poisoned, and with every stream
  // abandoned the run ends without waiting for an eof that could never
  // be admitted.
  std::string dir = util::make_temp_dir("serve_late_poisoned");
  std::string spool = dir + "/spool";
  publish_hello(spool, "evil", 0, -1, "t");
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    publish_empty_submission(spool, "evil", seq, /*eof=*/true);
  }
  ServeOptions options = golden_options(spool);
  options.expect_clients = 2;
  options.poison_threshold = 2;
  InProcessServer server(options);
  ASSERT_TRUE(wait_for_reasons(spool, 2, 30'000)) << "evil never poisoned";

  const std::string inbox = inbox_dir(spool);
  auto inbox_empty = [&] { return util::list_files(inbox).empty(); };
  publish_empty_submission(spool, "late", 0, /*eof=*/false);
  ASSERT_TRUE(eventually(inbox_empty, 30'000));
  publish_hello(spool, "late", 0, -1, "t");
  // The eof goes out once the serve loop runs (it publishes tenant rows)
  // or the run is already over.
  EXPECT_TRUE(eventually(
      [&] {
        return server.done() ||
               (util::path_exists(status_path(spool)) &&
                !parse_status(util::read_file(status_path(spool)))
                     .tenants.empty());
      },
      30'000));
  publish_empty_submission(spool, "late", 1, /*eof=*/true);

  std::optional<ServeReport> report = server.finish(5'000);
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->interrupted) << "the loop waited on an abandoned stream";
  EXPECT_EQ(report->clients, 2);
  EXPECT_EQ(report->counters.delta("serve.quarantine.poisoned_tenants"), 1u);
  std::map<std::string, std::string> verdicts;
  for (const QuarantineReason& reason : load_reasons(spool)) {
    verdicts[strings::format("%s/%lld", reason.client.c_str(),
                             static_cast<long long>(reason.seq))] =
        reason.reason;
  }
  EXPECT_EQ(verdicts["evil/1"], "doc_after_eof");
  EXPECT_EQ(verdicts["evil/2"], "doc_after_eof");
  EXPECT_EQ(verdicts["late/0"], "tenant_poisoned");
  verdicts.erase("late/1");  // claimed only if ingest saw it before the drain
  EXPECT_EQ(verdicts.size(), 3u);
  util::remove_tree(dir);
}

TEST(ServeFairness, WatermarkLiarStrandsOnlyItsOwnLateJobs) {
  // lie_watermark drags the committed frontier hours ahead of the truth;
  // stall_client paces the stream so the frontier demonstrably advances
  // between documents. The det-mode server must quarantine the stranded
  // payloads as consumed late_jobs tombstones (plus the final honest eof
  // as a watermark regression) instead of admitting in the past — and
  // still terminate cleanly.
  RunResult run = run_quota_fence(
      1, 64, {},
      {"--faults",
       "seed=9,rate=1,max_attempt=0,sites=lie_watermark+stall_client"});
  EXPECT_EQ(field_u64(run.report, "interrupted"), 0u);
  const std::uint64_t admitted = field_u64(run.report, "admitted");
  const std::uint64_t stranded = field_u64(run.report, "quarantined_jobs");
  EXPECT_EQ(admitted + stranded, kMiniTraceJobs)
      << "jobs neither admitted nor accounted for in quarantine";
  EXPECT_GT(stranded, 0u) << "the lie never stranded anything";
  EXPECT_EQ(field_u64(run.report, "quarantined_docs"), run.reasons.size());
  for (const QuarantineReason& reason : run.reasons) {
    EXPECT_TRUE(reason.reason == "late_jobs" ||
                reason.reason == "watermark_regressed")
        << reason.reason;
    EXPECT_TRUE(reason.consumed)
        << reason.reason << " must tombstone its seq or recovery deadlocks";
  }
  util::remove_tree(run.dir);
}

TEST(ServeFairness, ExtraClientHelloIsQuarantinedAndItsTenantAbandoned) {
  // The honest client's whole stream sits in the inbox before the daemon
  // starts, next to a hello from a client --expect-clients does not cover.
  // Hellos claim in name order, so "solo" is the expected client and "zz"
  // the extra one: its hello quarantines as unexpected_client, its tenant
  // is abandoned, and the honest replay still reaches the golden.
  std::string dir = util::make_temp_dir("serve_extra");
  std::string spool = dir + "/spool";
  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--client",
       "solo", "--batch-jobs", "64"},
      dir + "/load.out", dir + "/load.err");
  ASSERT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  publish_hello(spool, "zz", 0, -1);

  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", spool, "--expect-clients", "1", "--racks",
       "2", "--policy", "mix", "--lambda", "0.5", "--stats-ms", "0"},
      dir + "/serve.out", dir + "/serve.err");
  int server_exit = -1;
  ASSERT_TRUE(server.wait_for(120'000, &server_exit)) << "ps-serve hung";
  EXPECT_EQ(server_exit, 0) << util::read_file(dir + "/serve.err");

  std::map<std::string, std::string> report =
      parse_report(util::read_file(dir + "/serve.out"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(field_u64(report, "admitted"), kMiniTraceJobs);
  EXPECT_EQ(field_u64(report, "clients"), 1u);
  EXPECT_EQ(field_u64(report, "quarantined_docs"), 1u);
  EXPECT_EQ(field_u64(report, "poisoned_tenants"), 1u);
  std::vector<QuarantineReason> reasons = load_reasons(spool);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0].reason, "unexpected_client");
  EXPECT_EQ(reasons[0].client, "zz");
  EXPECT_EQ(reasons[0].kind, "hello");
  EXPECT_FALSE(reasons[0].consumed);
  EXPECT_EQ(reasons[0].generation, 0u);
  util::remove_tree(dir);
}

TEST(ServeFairness, SubmissionAfterEofIsQuarantined) {
  // "late" declares no jobs, closes its stream with seq 0, then publishes
  // seq 1 anyway. All three documents are in the inbox before the daemon
  // starts, so they apply during the hello phase (the daemon still waits
  // for its second client), where a helloed client's documents apply in
  // claim order: seq 1 meets a closed stream and quarantines as
  // doc_after_eof. Only then does the honest client start publishing.
  std::string dir = util::make_temp_dir("serve_after_eof");
  std::string spool = dir + "/spool";
  publish_hello(spool, "late", 0, -1);
  publish_empty_submission(spool, "late", 0, /*eof=*/true);
  publish_empty_submission(spool, "late", 1, /*eof=*/true);
  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", spool, "--expect-clients", "2", "--racks",
       "2", "--policy", "mix", "--lambda", "0.5", "--stats-ms", "0"},
      dir + "/serve.out", dir + "/serve.err");
  EXPECT_TRUE(wait_for_reasons(spool, 1, 30'000))
      << "the post-eof document was never quarantined";

  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--client",
       "solo", "--batch-jobs", "64"},
      dir + "/load.out", dir + "/load.err");
  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  int server_exit = -1;
  ASSERT_TRUE(server.wait_for(120'000, &server_exit)) << "ps-serve hung";
  EXPECT_EQ(server_exit, 0) << util::read_file(dir + "/serve.err");

  std::map<std::string, std::string> report =
      parse_report(util::read_file(dir + "/serve.out"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(field_u64(report, "admitted"), kMiniTraceJobs);
  EXPECT_EQ(field_u64(report, "jobs_declared"), kMiniTraceJobs);
  EXPECT_EQ(field_u64(report, "quarantined_docs"), 1u);
  EXPECT_EQ(field_u64(report, "poisoned_tenants"), 0u);
  std::vector<QuarantineReason> reasons = load_reasons(spool);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0].reason, "doc_after_eof");
  EXPECT_EQ(reasons[0].client, "late");
  EXPECT_EQ(reasons[0].seq, 1);
  EXPECT_FALSE(reasons[0].consumed);
  EXPECT_EQ(reasons[0].generation, 0u);
  util::remove_tree(dir);
}

TEST(ServeFairness, LossFenceHoldsWithTheRegistryDisabled) {
  // The loss fence (admitted == declared unless work was quarantined) must
  // decide from the spool, never from registry counters: with the obs kill
  // switch thrown every counter delta reads 0, and a run that rightly
  // quarantined the watermark liar's stranded payloads must still finish.
  struct RegistryOff {
    RegistryOff() { obs::Registry::global().set_enabled(false); }
    ~RegistryOff() { obs::Registry::global().set_enabled(true); }
  } registry_off;
  std::string dir = util::make_temp_dir("serve_obs_off");
  std::string spool = dir + "/spool";
  InProcessServer server(golden_options(spool));

  LoadOptions load;
  load.spool = spool;
  load.swf = mini_trace();
  load.client = "solo";
  load.faults = ClientFaultPlan::parse(
      "seed=9,rate=1,max_attempt=0,sites=lie_watermark+stall_client");
  EXPECT_NO_THROW(run_load_client(load));
  std::optional<ServeReport> report = server.finish(120'000);
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->interrupted);
  std::uint64_t stranded = 0;
  std::vector<QuarantineReason> reasons = load_reasons(spool);
  for (const QuarantineReason& reason : reasons) {
    EXPECT_TRUE(reason.consumed) << reason.reason;
    stranded += reason.jobs;
  }
  EXPECT_GT(stranded, 0u) << "the lie never stranded anything";
  EXPECT_EQ(report->admitted + stranded, kMiniTraceJobs);
  util::remove_tree(dir);
}

}  // namespace
}  // namespace ps::serve
