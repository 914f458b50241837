// The ps-load client: replays an SWF slice into a ps-serve spool.
//
// A fleet of N clients partitions one trace by round-robin stripe (job i
// goes to client i mod N), so N concurrent processes jointly publish
// exactly the jobs an offline replay of the same trace would see — the
// other half of the determinism fence (serve/server.h). Each client
// publishes its stripe in submit-time order as batched submission
// documents with monotone watermarks, then an eof marker.
//
// Backpressure: before every publish the client consults the server's
// status document and the inbox backlog; when either says "stop", it
// backs off with doubling sleeps and retries. The wait is bounded — the
// spool inbox is durable and unbounded, so after `gate_patience_ms` of
// refusal the client publishes anyway rather than hanging forever behind
// a server that died. Nothing is ever dropped.
//
// Hostile-client fault injection: --faults drives the client sites below
// (util/fault.h), so a seeded storm is reproducible across runs and across
// the fleet. The sites emulate *misbehavior the server must survive*, not
// loss: every well-formed job is still published exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/fault.h"
#include "workload/job_request.h"

namespace ps::serve {

/// The client's chaos sites. key = the seq of the document about to be
/// published, attempt = the client's fleet index, so one spec shared by a
/// whole `ps-load --clients N` fleet still draws independent faults per
/// (client, document). Each value is the site's draw number.
enum class ClientFault : std::uint8_t {
  CorruptSubmission = 10,  ///< poison under the real name, then the good doc
  FloodBurst = 11,         ///< a burst that ignores the gate and the pacing
  StallClient = 12,        ///< client naps mid-stream (GC pause, swapped host)
  DupPublish = 13,         ///< the same document twice (lost-ack retry)
  LieWatermark = 14,       ///< watermark far past the published jobs
};

inline constexpr util::FaultSiteName<ClientFault> kClientFaultSites[] = {
    {"corrupt_submission", ClientFault::CorruptSubmission},
    {"flood_burst", ClientFault::FloodBurst},
    {"stall_client", ClientFault::StallClient},
    {"dup_publish", ClientFault::DupPublish},
    {"lie_watermark", ClientFault::LieWatermark},
};

using ClientFaultPlan = util::FaultPlan<ClientFault, kClientFaultSites>;

struct LoadOptions {
  std::string spool;
  std::string swf;          ///< trace to replay
  std::string client;       ///< spool identity (valid_client_name)
  std::string tenant;       ///< billing tenant; empty = the client name
  std::uint64_t weight = 1; ///< tenant weight for fair admission
  int client_index = 0;     ///< this client's stripe
  int client_count = 1;     ///< fleet size the trace is striped across

  /// Jobs per submission document.
  int batch_jobs = 64;
  /// Replay acceleration: a batch whose last job submits at simulation
  /// time t is published when wall time reaches t / accel. 0 = firehose
  /// (publish as fast as the backpressure gate allows).
  double accel = 0.0;

  /// Trace prelude, mirroring the offline golden configs: drop zero-runtime
  /// jobs, then rebase submit times to t = 0.
  bool skip_zero_runtime = true;
  std::int64_t max_jobs = 0;  ///< 0 = whole trace

  /// Inbox backlog (files) above which the client treats the spool as
  /// congested even without a status document.
  std::size_t inbox_high_water = 512;
  /// Gate retry back-off (util::Backoff): capped exponential with
  /// deterministic jitter seeded from the client name, so a fleet's
  /// retries de-synchronize instead of stampeding in lockstep.
  std::int64_t backoff_initial_ms = 2;
  std::int64_t backoff_max_ms = 200;
  /// Longest continuous gate wait before publishing anyway.
  std::int64_t gate_patience_ms = 10'000;

  /// Hostile-client chaos sites (inert by default). flood_burst publishes
  /// `flood_docs` documents ignoring the gate and the pacing.
  ClientFaultPlan faults;
  int flood_docs = 8;
};

struct LoadReport {
  std::string client;
  std::uint64_t published = 0;  ///< jobs published
  std::uint64_t docs = 0;       ///< submission documents (incl. the eof one)
  std::uint64_t stalls = 0;     ///< backpressure back-offs taken
  std::uint64_t faults_injected = 0;  ///< hostile-site firings
  sim::Time last_submit = -1;   ///< greatest submit time in the stripe
  std::int64_t wall_ms = 0;
};

/// This client's jobs, in one streaming pass over the trace: the offline
/// prelude's filters, submit times rebased against the minimum over the
/// *whole* filtered trace (every client rebases alike), every
/// client_count-th kept job from client_index, in submit-time order (a
/// stable sort, run only when the stripe is out of order). The same jobs
/// as swf::load_file → rebase_submit_times → stripe → stable sort, without
/// holding the whole trace.
std::vector<workload::JobRequest> load_stripe(const LoadOptions& options);

/// Runs one client to completion: hello, batches, eof. Throws on I/O or
/// option errors.
LoadReport run_load_client(const LoadOptions& options);

/// The report as `key value` lines (what ps-load prints on stdout).
std::string format_load_report(const LoadReport& report);

}  // namespace ps::serve
