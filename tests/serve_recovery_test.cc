// The crash-recovery fence: ps-serve SIGKILLed (via the serve-tier fault
// injector) at every covered crash window — mid-ingest, before / torn /
// after a checkpoint write — must recover with --recover to the SAME
// committed golden fingerprint a crash-free run of curie_mini pins
// (tests/serve_determinism_test.cc), at 1, 2 and 4 publishing clients.
// Nothing lost, nothing duplicated: admitted == jobs_declared exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "serve/ingest.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/quarantine.h"
#include "util/spool.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace ps::serve {
namespace {

/// The offline single-window golden digest of curie_mini at racks=2,
/// Policy::Mix, lambda=0.5 (workload_trace_replay_test.cc).
constexpr const char* kGoldenFingerprint = "7cb9a43f79a4103c";
constexpr const char* kMiniTraceJobs = "400";

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

std::vector<std::string> serve_args(const std::string& spool, int clients,
                                    const std::string& faults,
                                    int checkpoint_jobs, bool recover) {
  std::vector<std::string> args = {
      PS_SERVE_BIN,  "--spool",  spool, "--expect-clients",
      strings::format("%d", clients),   "--racks",
      "2",           "--policy", "mix", "--lambda",
      "0.5",         "--stats-ms", "0"};
  if (!faults.empty()) {
    args.push_back("--faults");
    args.push_back(faults);
  }
  if (checkpoint_jobs >= 0) {
    args.push_back("--checkpoint-jobs");
    args.push_back(strings::format("%d", checkpoint_jobs));
  }
  if (recover) args.push_back("--recover");
  return args;
}

/// One crashing run: ps-serve under a fault plan plus a ps-load fleet that
/// publishes the whole trace. Returns ps-serve's exit code (137 when a
/// die_* site fired, 0 when the plan stayed dormant).
int crash_run(const std::string& dir, const std::string& spool, int clients,
              int batch_jobs, const std::string& faults, int checkpoint_jobs) {
  util::Subprocess server = util::Subprocess::spawn(
      serve_args(spool, clients, faults, checkpoint_jobs, /*recover=*/false),
      dir + "/serve0.out", dir + "/serve0.err");
  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--clients",
       strings::format("%d", clients), "--batch-jobs",
       strings::format("%d", batch_jobs)},
      dir + "/load.out", dir + "/load.err");
  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  int exit_code = -1;
  if (!server.wait_for(60'000, &exit_code)) {
    server.kill();
    server.wait();
    ADD_FAILURE() << "crashing ps-serve did not exit within 60s";
  }
  return exit_code;
}

/// One --recover attempt over the dirty spool (clients already exited; the
/// whole workload sits in journal + checkpoints + inbox).
int recover_run(const std::string& dir, const std::string& spool, int clients,
                const std::string& faults, int checkpoint_jobs, int attempt,
                std::map<std::string, std::string>* report) {
  std::string out = strings::format("%s/recover%d.out", dir.c_str(), attempt);
  std::string err = strings::format("%s/recover%d.err", dir.c_str(), attempt);
  util::Subprocess server = util::Subprocess::spawn(
      serve_args(spool, clients, faults, checkpoint_jobs, /*recover=*/true),
      out, err);
  int exit_code = -1;
  if (!server.wait_for(60'000, &exit_code)) {
    server.kill();
    server.wait();
    ADD_FAILURE() << "recovering ps-serve did not exit within 60s";
    return -1;
  }
  *report = parse_report(util::read_file(out));
  return exit_code;
}

void expect_recovered_golden(const std::map<std::string, std::string>& report,
                             int clients) {
  ASSERT_TRUE(report.count("fingerprint"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint)
      << clients << "-client recovery diverged from the crash-free replay";
  EXPECT_EQ(report.at("jobs_declared"), kMiniTraceJobs);
  // Nothing lost, nothing duplicated: the journal holds each admitted
  // document exactly once, so the recount is exact, not approximate.
  EXPECT_EQ(report.at("admitted"), kMiniTraceJobs);
  EXPECT_EQ(report.at("clamped"), "0");
  EXPECT_EQ(report.at("interrupted"), "0");
  // Note: latency_count == admitted is NOT asserted here — documents
  // replayed from the journal carry a dead process's publish timestamps
  // and are deliberately excluded from latency measurement.
}

/// Crash once under `faults`, then recover once (the same plan stays armed:
/// max_attempt must fence it to generation 0).
std::map<std::string, std::string> crash_then_recover(
    int clients, int batch_jobs, const std::string& faults,
    int checkpoint_jobs = -1) {
  std::string dir = util::make_temp_dir("serve_crash");
  std::string spool = dir + "/spool";
  EXPECT_EQ(crash_run(dir, spool, clients, batch_jobs, faults,
                      checkpoint_jobs),
            137)
      << "the fault plan never killed ps-serve: " << faults;
  std::map<std::string, std::string> report;
  int exit_code = recover_run(dir, spool, clients, faults, checkpoint_jobs,
                              /*attempt=*/1, &report);
  EXPECT_EQ(exit_code, 0) << util::read_file(dir + "/recover1.err");
  EXPECT_GE(strings::parse_i64(report.at("generation")).value_or(0), 1);
  EXPECT_GE(strings::parse_i64(report.at("recovered_docs")).value_or(0), 1);
  util::remove_tree(dir);
  return report;
}

TEST(ServeRecovery, OneClientKilledMidIngestRecoversGolden) {
  // Dies journaling the 6th claim of generation 0; generation 1 replays the
  // journal, re-claims the rest of the inbox, and must match the golden.
  expect_recovered_golden(
      crash_then_recover(
          1, 64, "seed=1,rate=1,max_attempt=0,sites=die_after_claim,shards=5"),
      1);
}

TEST(ServeRecovery, TwoClientsKilledMidIngestRecoverGolden) {
  expect_recovered_golden(
      crash_then_recover(
          2, 17,
          "seed=2,rate=1,max_attempt=0,sites=die_after_claim,shards=13"),
      2);
}

TEST(ServeRecovery, FourClientsKilledMidIngestRecoverGolden) {
  // 4 clients x (1 hello + 20 submissions at batch 5) = 84 claims; dying at
  // ordinal 50 lands mid-stream for several clients at once.
  expect_recovered_golden(
      crash_then_recover(
          4, 5, "seed=3,rate=1,max_attempt=0,sites=die_after_claim,shards=50"),
      4);
}

TEST(ServeRecovery, DiesBeforeCheckpointJournalCarriesEverything) {
  // Killed at the first checkpoint attempt, before anything was written:
  // the full history is still in the journal, nothing was compacted.
  std::map<std::string, std::string> report = crash_then_recover(
      1, 64, "seed=4,rate=1,max_attempt=0,sites=die_before_checkpoint,shards=0",
      /*checkpoint_jobs=*/100);
  expect_recovered_golden(report, 1);
  EXPECT_EQ(report.at("checkpoints_skipped"), "0");
}

TEST(ServeRecovery, TornCheckpointIsSkippedBackward) {
  // ckpt-000000 is half-written under its final name: its seal fails at
  // parse time, recovery counts it skipped and replays the journal from
  // scratch (the prune that would have followed the write never ran).
  std::map<std::string, std::string> report = crash_then_recover(
      2, 17, "seed=5,rate=1,max_attempt=0,sites=torn_checkpoint,shards=0",
      /*checkpoint_jobs=*/100);
  expect_recovered_golden(report, 2);
  EXPECT_EQ(report.at("checkpoints_skipped"), "1");
}

TEST(ServeRecovery, DiesAfterCheckpointBeforePruneTwoClients) {
  // The crash window between the sealed checkpoint write and the journal
  // prune: recovery loads the checkpoint, finishes the prune, and replays
  // the segment instead of the pruned journal files.
  std::map<std::string, std::string> report = crash_then_recover(
      2, 17, "seed=6,rate=1,max_attempt=0,sites=die_after_checkpoint,shards=0",
      /*checkpoint_jobs=*/100);
  expect_recovered_golden(report, 2);
  EXPECT_EQ(report.at("checkpoints_skipped"), "0");
}

TEST(ServeRecovery, DiesAfterCheckpointBeforePruneFourClients) {
  expect_recovered_golden(
      crash_then_recover(
          4, 5, "seed=7,rate=1,max_attempt=0,sites=die_after_checkpoint,shards=0",
          /*checkpoint_jobs=*/100),
      4);
}

TEST(ServeRecovery, StalledIngestStaysGoldenWithoutRecovery) {
  // stall_ingest only slows the claim path — no kill, no recovery, and the
  // delayed interleaving must still be invisible to the fingerprint.
  std::string dir = util::make_temp_dir("serve_stall");
  std::string spool = dir + "/spool";
  EXPECT_EQ(crash_run(dir, spool, 1, 64,
                      "seed=8,rate=1,max_attempt=9,sites=stall_ingest", -1),
            0)
      << util::read_file(dir + "/serve0.err");
  std::map<std::string, std::string> report =
      parse_report(util::read_file(dir + "/serve0.out"));
  ASSERT_TRUE(report.count("fingerprint"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(report.at("admitted"), kMiniTraceJobs);
  EXPECT_EQ(report.at("generation"), "0");
  util::remove_tree(dir);
}

TEST(ServeRecovery, DaemonIgnoresTheSweepFaultVariable) {
  // $PS_SWEEP_FAULTS drives the sweep worker only: a rate-1 daemon-site
  // spec left in the environment must not reach ps-serve, which takes its
  // faults from --faults alone.
  ASSERT_EQ(::setenv("PS_SWEEP_FAULTS",
                     "seed=1,rate=1,max_attempt=9,sites=die_after_claim", 1),
            0);
  std::string dir = util::make_temp_dir("serve_env_faults");
  std::string spool = dir + "/spool";
  const int exit_code = crash_run(dir, spool, 1, 64, "", -1);
  ::unsetenv("PS_SWEEP_FAULTS");
  ASSERT_EQ(exit_code, 0) << util::read_file(dir + "/serve0.err");
  std::map<std::string, std::string> report =
      parse_report(util::read_file(dir + "/serve0.out"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(report.at("admitted"), kMiniTraceJobs);
  util::remove_tree(dir);
}

TEST(ServeRecovery, DaemonRejectsASweepSite) {
  // The daemon parses --faults against its own site table only.
  std::string dir = util::make_temp_dir("serve_foreign_site");
  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", dir + "/spool", "--expect-clients", "1",
       "--faults", "sites=die_before_publish"},
      dir + "/serve.out", dir + "/serve.err");
  EXPECT_EQ(server.wait(), 1);
  const std::string err = util::read_file(dir + "/serve.err");
  EXPECT_NE(err.find("unknown site 'die_before_publish'"), std::string::npos)
      << err;
  util::remove_tree(dir);
}

TEST(ServeRecovery, ChaosStormSurvivesRepeatedKills) {
  // Generations 0..2 each die mid-ingest (max_attempt=2); generation 3 runs
  // clean. Every generation makes progress — at least the claims below the
  // fault ordinal are journaled — so the storm converges deterministically.
  const std::string faults =
      "seed=99,rate=1,max_attempt=2,sites=die_after_claim+die_after_checkpoint,"
      "shards=3+7";
  std::string dir = util::make_temp_dir("serve_storm");
  std::string spool = dir + "/spool";
  int exit_code = crash_run(dir, spool, 2, 17, faults, /*checkpoint_jobs=*/60);
  std::map<std::string, std::string> report;
  int attempts = 0;
  while (exit_code == 137) {
    ASSERT_LT(++attempts, 8) << "recovery did not converge under the storm";
    exit_code = recover_run(dir, spool, 2, faults, 60, attempts, &report);
  }
  ASSERT_EQ(exit_code, 0) << util::read_file(
      strings::format("%s/recover%d.err", dir.c_str(), attempts));
  EXPECT_GE(attempts, 1) << "the storm never killed ps-serve";
  expect_recovered_golden(report, 2);
  EXPECT_GE(strings::parse_i64(report.at("generation")).value_or(0), 3);
  util::remove_tree(dir);
}

TEST(ServeRecovery, WallClockRecoveryKeepsEveryJobAndItsClampCount) {
  // Wall mode has no golden fingerprint to fence — its recovery invariant
  // is exactness of the counts: after a SIGKILL in the window between a
  // sealed checkpoint and the journal prune, the recovered run still
  // admits every declared job exactly once, and the clamped-jobs total is
  // cumulative across generations (the checkpoint carries generation 0's
  // clamps; a reset-to-zero counter would under-report the SLO breach).
  std::string dir = util::make_temp_dir("serve_wall_recover");
  std::string spool = dir + "/spool";
  auto argv = [&](bool recover) {
    std::vector<std::string> args = {
        PS_SERVE_BIN, "--spool", spool, "--expect-clients", "1", "--racks",
        "2", "--mode", "wall", "--accel", "20000", "--stats-ms", "0",
        "--checkpoint-jobs", "100", "--faults",
        "seed=11,rate=1,max_attempt=0,sites=die_after_checkpoint,shards=0"};
    if (recover) args.push_back("--recover");
    return args;
  };
  util::Subprocess server = util::Subprocess::spawn(
      argv(false), dir + "/serve0.out", dir + "/serve0.err");
  // The client replays at half the server's clock rate: every batch after
  // the first arrives behind the simulation clock and is clamped late —
  // the wall-mode overload scenario, and a deterministic source of
  // pre-checkpoint clamps for the cumulative-count assertion below.
  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--client",
       "solo", "--batch-jobs", "32", "--accel", "10000"},
      dir + "/load.out", dir + "/load.err");
  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  int exit_code = -1;
  ASSERT_TRUE(server.wait_for(60'000, &exit_code)) << "wall ps-serve hung";
  ASSERT_EQ(exit_code, 137) << "the checkpoint kill never fired";

  util::Subprocess recovered = util::Subprocess::spawn(
      argv(true), dir + "/recover.out", dir + "/recover.err");
  ASSERT_TRUE(recovered.wait_for(60'000, &exit_code))
      << "wall-mode recovery hung";
  EXPECT_EQ(exit_code, 0) << util::read_file(dir + "/recover.err");

  std::map<std::string, std::string> report =
      parse_report(util::read_file(dir + "/recover.out"));
  EXPECT_EQ(report.at("jobs_declared"), kMiniTraceJobs);
  EXPECT_EQ(report.at("admitted"), kMiniTraceJobs);
  EXPECT_EQ(report.at("interrupted"), "0");
  EXPECT_GE(strings::parse_i64(report.at("generation")).value_or(0), 1);
  EXPECT_GE(strings::parse_i64(report.at("recovered_jobs")).value_or(0), 100);
  // At accel=200000 the restarted sim clock laps the inbox backlog almost
  // immediately: late admissions are certain, and the total must stay
  // within the admitted count (a double-counted checkpoint would not).
  const std::int64_t clamped =
      strings::parse_i64(report.at("clamped")).value_or(-1);
  EXPECT_GT(clamped, 0);
  EXPECT_LE(clamped, 400);
  util::remove_tree(dir);
}

TEST(ServeRecovery, DirtySpoolWithoutRecoverFailsLoudly) {
  std::string dir = util::make_temp_dir("serve_dirty");
  std::string spool = dir + "/spool";
  ASSERT_EQ(crash_run(dir, spool, 1, 64,
                      "seed=1,rate=1,max_attempt=0,sites=die_after_claim,"
                      "shards=5",
                      -1),
            137);
  // Restarting over the journal without --recover must refuse, not quietly
  // drop the admitted history.
  util::Subprocess server = util::Subprocess::spawn(
      serve_args(spool, 1, "", -1, /*recover=*/false), dir + "/serve1.out",
      dir + "/serve1.err");
  EXPECT_EQ(server.wait(), 1);
  EXPECT_NE(util::read_file(dir + "/serve1.err").find("--recover"),
            std::string::npos);
  util::remove_tree(dir);
}

TEST(ServeRecovery, RecoverOnFreshSpoolIsAFreshStart) {
  // --recover on a spool with no history degrades to a normal first start:
  // generation 0, nothing replayed, golden fingerprint.
  std::string dir = util::make_temp_dir("serve_fresh");
  std::string spool = dir + "/spool";
  util::Subprocess server = util::Subprocess::spawn(
      serve_args(spool, 1, "", -1, /*recover=*/true), dir + "/serve0.out",
      dir + "/serve0.err");
  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--clients", "1",
       "--batch-jobs", "64"},
      dir + "/load.out", dir + "/load.err");
  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  int exit_code = -1;
  ASSERT_TRUE(server.wait_for(60'000, &exit_code)) << "fresh --recover hung";
  EXPECT_EQ(exit_code, 0) << util::read_file(dir + "/serve0.err");
  std::map<std::string, std::string> report =
      parse_report(util::read_file(dir + "/serve0.out"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(report.at("generation"), "0");
  EXPECT_EQ(report.at("recovered_docs"), "0");
  util::remove_tree(dir);
}

/// What a planted journal entry recovers into.
struct GhostRecovery {
  std::map<std::string, std::string> report;
  std::vector<QuarantineReason> reasons;
  bool seq0_left_in_journal = true;
};

/// Crashes a one-client run mid-ingest, then plants a second, job-less
/// client "ghost" straight into the dirty spool's journal: its hello, a
/// seq-0 entry holding `seq0_bytes`, and a well-formed seq-1 eof document.
/// With `tombstone`, a consumed reason record for ghost seq 0 is planted
/// too, without moving the entry — a previous generation killed between
/// the two steps of a quarantine. Then recovers with both clients.
GhostRecovery recover_with_ghost(const std::string& seq0_bytes,
                                 bool tombstone) {
  GhostRecovery out;
  std::string dir = util::make_temp_dir("serve_ghost");
  std::string spool = dir + "/spool";
  EXPECT_EQ(crash_run(dir, spool, 1, 64,
                      "seed=1,rate=1,max_attempt=0,sites=die_after_claim,"
                      "shards=5",
                      -1),
            137);
  const std::string journal = journal_dir(spool);
  Hello hello;
  hello.client = "ghost";
  hello.jobs = 0;
  hello.last_submit = -1;
  util::write_file_atomic(journal + "/" + hello_file_name("ghost"),
                          serialize_hello(hello), /*durable=*/false);
  const std::string seq0 = submission_file_name("ghost", 0);
  util::write_file_atomic(journal + "/" + seq0, seq0_bytes, /*durable=*/false);
  Submission eof;
  eof.client = "ghost";
  eof.seq = 1;
  eof.watermark = 0;
  eof.eof = true;
  util::write_file_atomic(journal + "/" + submission_file_name("ghost", 1),
                          serialize_submission(eof), /*durable=*/false);
  if (tombstone) {
    // A tombstone whose document was never moved: the source is missing.
    util::ensure_dir(quarantine_dir(spool));
    ServeOptions options;
    options.spool = spool;
    Shared(options).quarantine(dir, {.client = "ghost", .seq = 0}, "late_jobs",
                               "planted tombstone", 0, /*consumed=*/true);
  }

  int exit_code = recover_run(dir, spool, 2, "", -1, 1, &out.report);
  EXPECT_EQ(exit_code, 0) << util::read_file(dir + "/recover1.err");
  for (const std::string& name :
       util::list_files(quarantine_dir(spool), ".reason")) {
    out.reasons.push_back(parse_quarantine_reason(
        util::read_file(quarantine_dir(spool) + "/" + name)));
  }
  out.seq0_left_in_journal = util::path_exists(journal + "/" + seq0);
  util::remove_tree(dir);
  return out;
}

void expect_ghost_recovered(const GhostRecovery& run) {
  ASSERT_TRUE(run.report.count("fingerprint"));
  EXPECT_EQ(run.report.at("fingerprint"), kGoldenFingerprint);
  EXPECT_EQ(run.report.at("jobs_declared"), kMiniTraceJobs);
  EXPECT_EQ(run.report.at("admitted"), kMiniTraceJobs);
  EXPECT_EQ(run.report.at("clients"), "2");
  EXPECT_EQ(run.report.at("generation"), "1");
  EXPECT_EQ(run.report.at("quarantined_docs"), "1");
  EXPECT_FALSE(run.seq0_left_in_journal);
}

TEST(ServeRecovery, TombstoneSweepFinishesAnInterruptedQuarantine) {
  Submission seq0;
  seq0.client = "ghost";
  seq0.seq = 0;
  seq0.watermark = 0;
  GhostRecovery run =
      recover_with_ghost(serialize_submission(seq0), /*tombstone=*/true);
  expect_ghost_recovered(run);
  ASSERT_EQ(run.reasons.size(), 2u);
  int swept = 0;
  for (const QuarantineReason& reason : run.reasons) {
    if (reason.reason != "tombstone_sweep") continue;
    ++swept;
    EXPECT_EQ(reason.client, "ghost");
    EXPECT_EQ(reason.seq, 0);
    EXPECT_FALSE(reason.consumed);
    EXPECT_EQ(reason.generation, 1u);
  }
  EXPECT_EQ(swept, 1);
}

TEST(ServeRecovery, RottedJournalEntryBecomesAConsumedTombstone) {
  // A journal entry that no longer parses is disk damage: it quarantines
  // with a consumed tombstone, and the ghost's stream replays around it.
  GhostRecovery run =
      recover_with_ghost("rotted journal entry\n", /*tombstone=*/false);
  expect_ghost_recovered(run);
  ASSERT_EQ(run.reasons.size(), 1u);
  EXPECT_EQ(run.reasons[0].reason, "parse_failure");
  EXPECT_EQ(run.reasons[0].client, "ghost");
  EXPECT_EQ(run.reasons[0].seq, 0);
  EXPECT_TRUE(run.reasons[0].consumed);
  EXPECT_EQ(run.reasons[0].generation, 1u);
}

}  // namespace
}  // namespace ps::serve
