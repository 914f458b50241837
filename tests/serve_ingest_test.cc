// The ps-serve ingest thread, driven in-process against a temp spool, and
// the TenantBook it shares with the serve loop. Each fence plays the serve
// thread by hand: it pops the queue, releases in-flight slots and marks
// tenants poisoned through the same calls the daemon makes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/ingest.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/quarantine.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/spool.h"

namespace ps::serve {
namespace {

/// Polls `done` every 2 ms for up to `patience_ms`.
bool eventually(const std::function<bool()>& done, std::int64_t patience_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(patience_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

std::string submission_text(const std::string& client, std::uint64_t seq,
                            std::size_t jobs) {
  Submission doc;
  doc.client = client;
  doc.seq = seq;
  doc.watermark = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::JobRequest job;
    job.id = static_cast<std::int64_t>(seq * 100 + i);
    job.submit_time = 1000 + static_cast<sim::Time>(i);
    job.requested_cores = 16;
    job.requested_walltime = sim::seconds(600);
    job.base_runtime = sim::seconds(300);
    doc.jobs.push_back(job);
  }
  return serialize_submission(doc);
}

/// One ingest thread over a fresh spool. The fixture owns the options and
/// the Shared state; start() launches run_ingest, stop() joins it.
class IngestFence : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = util::make_temp_dir("serve_ingest");
    options_.spool = dir_ + "/spool";
    for (const std::string& d :
         {options_.spool, inbox_dir(options_.spool),
          accepted_dir(options_.spool), journal_dir(options_.spool),
          quarantine_dir(options_.spool), options_.spool + "/control"}) {
      util::ensure_dir(d);
    }
  }

  void TearDown() override {
    stop();
    util::remove_tree(dir_);
  }

  void start() {
    shared_ = std::make_unique<Shared>(options_);
    shared_->generation = 4;
    base_ = counters();
    for (const auto& hook : before_start_) hook(*shared_);
    thread_ = std::thread([this] { run_ingest(options_, *shared_); });
  }

  void stop() {
    if (!thread_.joinable()) return;
    shared_->ingest_stop.store(true);
    shared_->queue.close();
    thread_.join();
    EXPECT_FALSE(shared_->failed.load()) << shared_->failure;
  }

  void publish(const std::string& client, std::uint64_t seq,
               std::size_t jobs = 1) {
    util::write_file_atomic(
        inbox_dir(options_.spool) + "/" + submission_file_name(client, seq),
        submission_text(client, seq, jobs), /*durable=*/false);
  }

  std::size_t inbox_backlog() const {
    return util::list_files(inbox_dir(options_.spool), ".sub").size();
  }

  std::vector<QuarantineReason> reasons() const {
    std::vector<QuarantineReason> out;
    const std::string q = quarantine_dir(options_.spool);
    for (const std::string& name : util::list_files(q, ".reason")) {
      out.push_back(parse_quarantine_reason(util::read_file(q + "/" + name)));
    }
    return out;
  }

  /// Drains whatever is queued right now (waiting up to `wait_ms`).
  std::vector<IngestDoc> pop(std::int64_t wait_ms = 5) {
    std::vector<IngestDoc> docs;
    shared_->queue.pop_all(docs, wait_ms);
    return docs;
  }

  struct Counts {
    std::uint64_t stalls, holds, slow, q_docs, q_jobs;
  };
  Counts counters() const {
    return {shared_->stalls.value(), shared_->inflight_holds.value(),
            shared_->slow_holds.value(), shared_->q_docs.value(),
            shared_->q_jobs.value()};
  }

  std::string dir_;
  ServeOptions options_;
  std::unique_ptr<Shared> shared_;
  Counts base_{};
  std::vector<std::function<void(Shared&)>> before_start_;
  std::thread thread_;
};

TEST_F(IngestFence, InflightQuotaHoldsTheTenantUntilReleased) {
  options_.tenant_inflight_docs = 2;
  for (std::uint64_t seq = 0; seq < 5; ++seq) publish("a", seq);
  start();
  std::vector<IngestDoc> claimed;
  ASSERT_TRUE(eventually(
      [&] {
        for (IngestDoc& doc : pop()) claimed.push_back(std::move(doc));
        return claimed.size() == 2 &&
               counters().holds > base_.holds;
      },
      10'000));
  // Held, not dropped: the rest of the flood stays in the durable inbox,
  // and a few more claim passes take nothing.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(pop().empty());
  EXPECT_EQ(inbox_backlog(), 3u);
  for (const IngestDoc& doc : claimed) {
    EXPECT_EQ(doc.charged, "a");
    shared_->tenants.release(doc.charged);  // the serve loop applied it
  }
  ASSERT_TRUE(eventually(
      [&] {
        for (IngestDoc& doc : pop()) claimed.push_back(std::move(doc));
        return claimed.size() == 4;
      },
      10'000));
  EXPECT_EQ(inbox_backlog(), 1u);
  EXPECT_EQ(claimed[3].submission.seq, 3u);
}

TEST_F(IngestFence, SlowStartDoublesItsAllowanceEachWindow) {
  // One claim in window 0, two in window 1, four in window 2: the seven
  // documents can arrive no earlier than those windows open, and (with a
  // generous margin) no later than a flat one-per-window gate would let
  // the last of them through.
  constexpr std::int64_t kWindowMs = 200;
  options_.quotas.window_ms = kWindowMs;
  options_.slow_start_docs = 1;
  before_start_.push_back(
      [](Shared& shared) { shared.slow_start.store(true); });
  for (std::uint64_t seq = 0; seq < 7; ++seq) publish("a", seq);
  const std::int64_t t0 = monotonic_ns();
  start();
  std::vector<std::int64_t> arrived_ms;
  ASSERT_TRUE(eventually(
      [&] {
        for (std::size_t n = pop().size(); n > 0; --n) {
          arrived_ms.push_back((monotonic_ns() - t0) / 1'000'000);
        }
        return arrived_ms.size() == 7;
      },
      20'000));
  const int kOpensInWindow[7] = {0, 1, 1, 2, 2, 2, 2};
  for (int k = 0; k < 7; ++k) {
    EXPECT_GE(arrived_ms[k], kOpensInWindow[k] * kWindowMs) << "doc " << k;
  }
  EXPECT_LT(arrived_ms[6], 6 * kWindowMs) << "the allowance did not double";
  EXPECT_GT(counters().slow, base_.slow);
}

TEST_F(IngestFence, DuplicateOfAJournaledDocumentQuarantines) {
  const std::string name = submission_file_name("a", 0);
  const std::string original = submission_text("a", 0, 3);
  util::write_file_atomic(journal_dir(options_.spool) + "/" + name, original,
                          /*durable=*/false);
  publish("a", 0, 3);
  start();
  // The reason record lands first, the document after it.
  const std::string evidence = quarantine_dir(options_.spool) + "/" +
                               quarantine_file_name(4, 0, name);
  ASSERT_TRUE(eventually(
      [&] { return reasons().size() == 1 && util::path_exists(evidence); },
      10'000));
  const QuarantineReason reason = reasons()[0];
  EXPECT_EQ(reason.reason, "duplicate");
  EXPECT_EQ(reason.client, "a");
  EXPECT_EQ(reason.seq, 0);
  EXPECT_EQ(reason.kind, "submission");
  EXPECT_EQ(reason.jobs, 3u);
  EXPECT_FALSE(reason.consumed);
  EXPECT_EQ(reason.generation, 4u);
  // The journaled original stays byte-exact; nothing entered the pipeline.
  EXPECT_EQ(util::read_file(journal_dir(options_.spool) + "/" + name),
            original);
  EXPECT_TRUE(pop().empty());
  EXPECT_EQ(counters().q_docs - base_.q_docs, 1u);
  EXPECT_EQ(counters().q_jobs - base_.q_jobs, 3u);
}

TEST_F(IngestFence, ParseFailureQuarantinesAndChargesPoison) {
  util::write_file_atomic(
      inbox_dir(options_.spool) + "/" + submission_file_name("a", 0),
      "not a sealed submission document\n", /*durable=*/false);
  options_.poison_threshold = 1;
  start();
  // The poison charge follows the quarantine.
  ASSERT_TRUE(eventually(
      [&] {
        return reasons().size() == 1 &&
               !shared_->tenants.over_threshold().empty();
      },
      10'000));
  EXPECT_EQ(reasons()[0].reason, "parse_failure");
  EXPECT_EQ(reasons()[0].jobs, 0u);
  EXPECT_FALSE(reasons()[0].consumed);  // a republish may still fill the seq
  EXPECT_TRUE(util::list_files(journal_dir(options_.spool)).empty());
  EXPECT_TRUE(pop().empty());
  EXPECT_EQ(shared_->tenants.over_threshold(),
            std::vector<std::string>{"a"});
}

TEST_F(IngestFence, PoisonedTenantsDocumentsGoStraightToQuarantine) {
  // Quota 1 would hold the second document of a live tenant; a poisoned
  // tenant is never held — every document is evidence, claimed at once.
  options_.tenant_inflight_docs = 1;
  before_start_.push_back([](Shared& shared) {
    shared.tenants.bind("a", "t");
    shared.tenants.poison("t");
  });
  for (std::uint64_t seq = 0; seq < 3; ++seq) publish("a", seq, 2);
  start();
  ASSERT_TRUE(eventually([&] { return reasons().size() == 3; }, 10'000));
  for (const QuarantineReason& reason : reasons()) {
    EXPECT_EQ(reason.reason, "tenant_poisoned");
    EXPECT_EQ(reason.client, "a");
  }
  EXPECT_TRUE(pop().empty());
  EXPECT_TRUE(util::list_files(journal_dir(options_.spool)).empty());
  EXPECT_EQ(counters().holds, base_.holds);
}

TEST_F(IngestFence, FullQueueStallsAndClosesTheGate) {
  options_.queue_capacity = 1;
  for (std::uint64_t seq = 0; seq < 3; ++seq) publish("a", seq);
  auto accepting = [&]() -> int {
    const std::string path = status_path(options_.spool);
    if (!util::path_exists(path)) return -1;
    return parse_status(util::read_file(path)).accepting ? 1 : 0;
  };
  start();
  ASSERT_TRUE(eventually(
      [&] { return counters().stalls > base_.stalls && accepting() == 0; },
      10'000));
  // Nothing was dropped: the stalled document is held, the rest wait in
  // the inbox, and draining the queue lets every one through.
  std::size_t drained = 0;
  ASSERT_TRUE(eventually(
      [&] {
        drained += pop().size();
        return drained == 3;
      },
      10'000));
  EXPECT_EQ(inbox_backlog(), 0u);
  EXPECT_TRUE(eventually([&] { return accepting() == 1; }, 10'000))
      << "the gate never reopened";
}

// --- TenantBook --------------------------------------------------------------

TEST(TenantBook, ChargeBeforeHelloReleasesAgainstTheChargedTenant) {
  TenantBook book(/*poison_threshold=*/2);
  // A document claimed before its client's hello bills to the client name.
  const std::string charged = book.tenant_of("c");
  EXPECT_EQ(charged, "c");
  book.charge(charged);
  EXPECT_TRUE(book.at_quota("c", 1));
  // The hello then names tenant t: c's next claims bill to t, which holds
  // nothing yet, and the early slot still belongs to "c".
  book.bind("c", "t");
  EXPECT_EQ(book.tenant_of("c"), "t");
  EXPECT_FALSE(book.at_quota("c", 1));
  book.release(charged);
  // Neither tenant is left holding a slot.
  std::map<std::string, TenantStatus> rows;
  rows["c"].tenant = "c";
  rows["t"].tenant = "t";
  book.set_rows(std::move(rows));
  for (const TenantStatus& row : book.rows()) {
    EXPECT_EQ(row.inflight_docs, 0u) << row.tenant;
  }
  // Releasing t would steal a slot t was never charged.
  EXPECT_THROW(book.release("t"), CheckError);
  book.release("");  // recovered documents were never charged
}

TEST(TenantBook, PoisonAbandonsEveryClientOfTheTenantIncludingLateOnes) {
  TenantBook book(/*poison_threshold=*/2);
  book.bind("a", "t");
  EXPECT_FALSE(book.charge_poison("t"));
  EXPECT_TRUE(book.over_threshold().empty());
  EXPECT_TRUE(book.charge_poison("t"));  // the threshold is 2
  EXPECT_EQ(book.over_threshold(), std::vector<std::string>{"t"});
  EXPECT_FALSE(book.abandoned("a"));  // the serve thread decides
  EXPECT_TRUE(book.poison("t"));
  EXPECT_FALSE(book.poison("t"));
  EXPECT_TRUE(book.over_threshold().empty());
  EXPECT_TRUE(book.abandoned("a"));
  EXPECT_FALSE(book.abandoned("b"));
  book.bind("b", "t");  // joins after the poisoning
  EXPECT_TRUE(book.abandoned("b"));
  TenantBook never(/*poison_threshold=*/0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(never.charge_poison("t"));
  EXPECT_TRUE(never.over_threshold().empty());
  // A poisoned tenant is never held at its quota.
  book.charge("t");
  EXPECT_FALSE(book.at_quota("t", 1));
}

TEST(TenantBook, StatusRowsCarryInflightAndPoison) {
  TenantBook book(/*poison_threshold=*/2);
  book.charge("t");
  book.charge("t");
  book.poison("u");
  std::map<std::string, TenantStatus> rows;
  rows["t"].tenant = "t";
  rows["u"].tenant = "u";
  rows["u"].weight = 3;
  book.set_rows(std::move(rows));
  const std::vector<TenantStatus> published = book.rows();
  ASSERT_EQ(published.size(), 2u);
  EXPECT_EQ(published[0].tenant, "t");
  EXPECT_EQ(published[0].inflight_docs, 2u);
  EXPECT_FALSE(published[0].poisoned);
  EXPECT_EQ(published[1].tenant, "u");
  EXPECT_EQ(published[1].weight, 3u);
  EXPECT_TRUE(published[1].poisoned);
}

TEST(TenantBook, ChargesAndReleasesFromTwoThreadsBalance) {
  TenantBook book(/*poison_threshold=*/2);
  constexpr int kDocs = 20'000;
  std::atomic<int> charged{0};
  std::thread ingest([&] {
    for (int i = 0; i < kDocs; ++i) {
      book.charge("t");
      charged.fetch_add(1, std::memory_order_release);
    }
  });
  for (int released = 0; released < kDocs;) {
    if (charged.load(std::memory_order_acquire) > released) {
      book.release("t");
      ++released;
    }
  }
  ingest.join();
  EXPECT_FALSE(book.at_quota("t", 1));
}

}  // namespace
}  // namespace ps::serve
