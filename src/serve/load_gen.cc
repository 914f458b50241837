#include "serve/load_gen.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "util/backoff.h"
#include "util/check.h"
#include "util/spool.h"
#include "util/strings.h"
#include "workload/job_request.h"
#include "workload/swf.h"

namespace ps::serve {

namespace {

const std::string& tenant_of(const LoadOptions& options) {
  return options.tenant.empty() ? options.client : options.tenant;
}

/// True when the spool currently welcomes a publish: the server's status
/// document (when present) says accepting, our tenant is not over its
/// window quota, the server is not in post-recovery slow start, and the
/// inbox backlog is under the high-water. A missing or unreadable status
/// document is not a stop signal — the server may simply not have started
/// yet.
bool gate_open(const LoadOptions& options) {
  std::size_t backlog = 0;
  for (const std::string& name : util::list_files(inbox_dir(options.spool))) {
    if (parse_inbox_name(name)) ++backlog;
  }
  if (backlog > options.inbox_high_water) return false;
  const std::string path = status_path(options.spool);
  if (util::path_exists(path)) {
    try {
      Status status = parse_status(util::read_file(path));
      if (!status.accepting) return false;
      // Self-throttle: the status document advertises per-tenant quota
      // state precisely so well-behaved clients ease off before the
      // server has to hold their claims.
      if (status.slow_start) return false;
      for (const TenantStatus& t : status.tenants) {
        if (t.tenant == tenant_of(options)) {
          if (t.over_quota) return false;
          break;
        }
      }
    } catch (const std::exception&) {
      // Torn read cannot happen (atomic rename); anything else here is the
      // server's problem to fail loudly on, not a reason to stop publishing.
    }
  }
  return true;
}

/// Blocks until the gate opens, backing off with capped exponential
/// delays and deterministic per-client jitter, for at most
/// gate_patience_ms — the inbox is durable and unbounded, so a dead or
/// wedged server must not strand the client; publishing into backlog is
/// always safe. Returns the number of back-offs taken.
std::uint64_t wait_for_gate(const LoadOptions& options,
                            util::Backoff& backoff) {
  std::uint64_t stalls = 0;
  std::int64_t waited = 0;
  while (waited < options.gate_patience_ms && !gate_open(options)) {
    ++stalls;
    const std::int64_t delay = backoff.next_ms();
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    waited += delay;
  }
  backoff.reset();
  return stalls;
}

/// Waits (bounded) until the server claims `path` out of the inbox.
/// False = still unclaimed at the deadline (server slow or absent).
bool wait_claimed(const std::string& path, std::int64_t patience_ms) {
  const std::int64_t deadline = monotonic_ns() + patience_ms * 1'000'000;
  while (util::path_exists(path)) {
    if (monotonic_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

std::vector<workload::JobRequest> load_stripe(const LoadOptions& options) {
  PS_CHECK_MSG(options.client_count >= 1 && options.client_index >= 0 &&
                   options.client_index < options.client_count,
               "load: client_index must lie in [0, client_count)");
  // The offline prelude (tests/workload_trace_replay_test.cc,
  // examples/replay_swf.cpp): filter, then rebase over the *whole* trace —
  // every client must rebase against the same minimum, so the stripe keeps
  // raw submit times until the pass has seen every kept job.
  workload::swf::ParseOptions parse_options;
  parse_options.skip_zero_runtime = options.skip_zero_runtime;
  parse_options.max_jobs = options.max_jobs;
  std::ifstream in = workload::swf::open(options.swf);
  const auto index = static_cast<std::size_t>(options.client_index);
  const auto count = static_cast<std::size_t>(options.client_count);
  std::vector<workload::JobRequest> mine;
  std::size_t kept = 0;
  sim::Time base = sim::kTimeMax;
  workload::swf::for_each_record(in, parse_options, [&](const workload::swf::Record& record) {
    base = std::min(base, record.job.submit_time);
    if (kept++ % count == index) mine.push_back(record.job);
  });
  for (workload::JobRequest& job : mine) job.submit_time -= base;
  // SWF does not require submit-time order; the watermark protocol does
  // (per client). Stable sort keeps equal-submit jobs in trace order.
  const auto by_submit = [](const workload::JobRequest& a, const workload::JobRequest& b) {
    return a.submit_time < b.submit_time;
  };
  if (!std::is_sorted(mine.begin(), mine.end(), by_submit)) {
    std::stable_sort(mine.begin(), mine.end(), by_submit);
  }
  return mine;
}

LoadReport run_load_client(const LoadOptions& options) {
  PS_CHECK_MSG(valid_client_name(options.client),
               "load: invalid client name");
  PS_CHECK_MSG(options.batch_jobs >= 1, "load: batch_jobs >= 1");

  const std::vector<workload::JobRequest> mine = load_stripe(options);

  LoadReport report;
  report.client = options.client;
  report.last_submit = mine.empty() ? -1 : mine.back().submit_time;
  const std::string inbox = inbox_dir(options.spool);
  util::ensure_dir(options.spool);  // clients may start before the server
  util::ensure_dir(inbox);
  const std::int64_t start_ns = monotonic_ns();

  util::Backoff::Options backoff_options;
  backoff_options.initial_ms = options.backoff_initial_ms;
  backoff_options.max_ms = options.backoff_max_ms;
  backoff_options.seed = util::Backoff::seed_from_name(options.client);
  util::Backoff backoff(backoff_options);

  Hello hello;
  hello.client = options.client;
  hello.tenant = tenant_of(options);
  hello.weight = options.weight;
  hello.jobs = mine.size();
  hello.last_submit = report.last_submit;
  report.stalls += wait_for_gate(options, backoff);
  util::write_file_atomic(inbox + "/" + hello_file_name(options.client),
                          serialize_hello(hello), /*durable=*/false);

  // Hostile sites fire as pure functions of (seed, site, doc seq,
  // client_index) — a seeded storm replays identically. The patience on
  // the claim waits keeps a hostile client from hanging when the server
  // is gone; hostility must degrade into ordinary publishing.
  const auto fires = [&](ClientFault site, std::uint64_t seq) {
    return options.faults.fires(site, seq,
                                static_cast<std::uint64_t>(options.client_index));
  };
  const std::int64_t claim_patience_ms = 5'000;
  int flood_left = 0;

  std::uint64_t seq = 0;
  std::size_t pos = 0;
  do {  // a client with an empty stripe still publishes its eof document
    std::size_t end =
        std::min(mine.size(), pos + static_cast<std::size_t>(options.batch_jobs));
    Submission doc;
    doc.client = options.client;
    doc.seq = seq++;
    doc.eof = end == mine.size();
    doc.watermark = doc.eof ? report.last_submit : mine[end].submit_time - 1;
    doc.jobs.assign(mine.begin() + static_cast<std::ptrdiff_t>(pos),
                    mine.begin() + static_cast<std::ptrdiff_t>(end));

    if (fires(ClientFault::FloodBurst, doc.seq) && flood_left == 0) {
      // Ignore the gate and the pacing for the next few documents — the
      // burst the server's fair admission and in-flight quota must absorb.
      ++report.faults_injected;
      flood_left = std::max(options.flood_docs, 1);
    }
    if (fires(ClientFault::StallClient, doc.seq)) {
      // A client that wedges mid-stream (GC pause, swapped-out VM): the
      // server keeps serving everyone else off this client's watermark.
      ++report.faults_injected;
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    if (!doc.eof && fires(ClientFault::LieWatermark, doc.seq)) {
      // A watermark far beyond the jobs actually published: the det-mode
      // server quarantines the payloads this lie strands (late_jobs)
      // instead of admitting in the past or crashing.
      ++report.faults_injected;
      doc.watermark += sim::hours(6);
    }

    const bool flooding = flood_left > 0;
    if (flooding) --flood_left;
    if (options.accel > 0.0 && end > pos && !flooding) {
      // Paced replay: this batch "happens" at its last job's submit time.
      double target_ms = static_cast<double>(mine[end - 1].submit_time) /
                         options.accel;
      while (static_cast<double>(monotonic_ns() - start_ns) / 1e6 < target_ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!flooding) report.stalls += wait_for_gate(options, backoff);
    doc.publish_ns = monotonic_ns();
    const std::string path =
        inbox + "/" + submission_file_name(options.client, doc.seq);
    const std::string sealed = serialize_submission(doc);

    if (fires(ClientFault::CorruptSubmission, doc.seq)) {
      // Torn/corrupted publish: flip one payload byte so the seal fails at
      // ingest, wait for the server to quarantine the claim, then
      // republish the well-formed bytes under the same name — the retry a
      // real client's integrity check would drive. The seq is not
      // consumed by a parse failure, so zero jobs are lost.
      ++report.faults_injected;
      std::string corrupt = sealed;
      corrupt[corrupt.size() / 2] ^= 0x01;
      util::write_file_atomic(path, corrupt, /*durable=*/false);
      // If the server never claims it, the atomic overwrite below simply
      // repairs the document in place.
      wait_claimed(path, claim_patience_ms);
    }
    util::write_file_atomic(path, sealed, /*durable=*/false);
    if (fires(ClientFault::DupPublish, doc.seq)) {
      // Lost-ack retry: publish the identical document again once the
      // original has been claimed. The journal duplicate check must
      // quarantine the copy and keep the original byte-exact.
      ++report.faults_injected;
      if (wait_claimed(path, claim_patience_ms)) {
        util::write_file_atomic(path, sealed, /*durable=*/false);
      }
    }
    report.published += doc.jobs.size();
    ++report.docs;
    pos = end;
  } while (pos < mine.size());

  report.wall_ms = (monotonic_ns() - start_ns) / 1'000'000;
  return report;
}

std::string format_load_report(const LoadReport& report) {
  std::string out;
  out += "load_report v1\n";
  out += "client " + report.client + "\n";
  out += strings::format("published %llu\n",
                         static_cast<unsigned long long>(report.published));
  out += strings::format("docs %llu\n",
                         static_cast<unsigned long long>(report.docs));
  out += strings::format("stalls %llu\n",
                         static_cast<unsigned long long>(report.stalls));
  out += strings::format("faults_injected %llu\n",
                         static_cast<unsigned long long>(
                             report.faults_injected));
  out += strings::format("last_submit %lld\n",
                         static_cast<long long>(report.last_submit));
  out += strings::format("wall_ms %lld\n",
                         static_cast<long long>(report.wall_ms));
  return out;
}

}  // namespace ps::serve
