#include "dist/worker.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/fingerprint.h"
#include "util/spool.h"

namespace ps::dist {

namespace {

/// Renews the shard's heartbeat file on a background thread while the
/// shard runs. The file is written with durable=false: a heartbeat only
/// has to be *visible* to the live driver, never to survive a crash — a
/// lost heartbeat reads as a stale lease, which is the safe direction.
class HeartbeatPump {
 public:
  HeartbeatPump(std::string path, std::int64_t interval_ms, bool stalled)
      : path_(std::move(path)) {
    beat(1);  // liveness is visible from the moment the claim is held
    thread_ = std::jthread([this, interval_ms, stalled](std::stop_token stop) {
      std::mutex mutex;
      std::condition_variable_any wake;
      std::unique_lock<std::mutex> lock(mutex);
      for (std::uint64_t seq = 2;;) {
        wake.wait_for(lock, stop, std::chrono::milliseconds(interval_ms),
                      [] { return false; });
        if (stop.stop_requested()) return;
        // stall_heartbeat fault: the thread lives but renewals stop — the
        // emulated NFS stall the driver must detect via the lease.
        if (!stalled) beat(seq++);
      }
    });
  }

  HeartbeatPump(const HeartbeatPump&) = delete;
  HeartbeatPump& operator=(const HeartbeatPump&) = delete;

  /// Stops renewals and joins; the destructor does the same.
  void stop() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void beat(std::uint64_t seq) {
    util::write_file_atomic(path_, serialize_heartbeat(seq, ::getpid()),
                            /*durable=*/false);
  }

  std::string path_;
  std::jthread thread_;
};

}  // namespace

ShardResults run_shard(const Shard& shard) {
  ShardResults results;
  results.id = shard.id;
  results.records.reserve(shard.cells.size());
  for (const IndexedCell& cell : shard.cells) {
    // Each result is fingerprinted before it is serialized.
    CellRecord& record = results.records.emplace_back();
    record.index = cell.index;
    record.result = core::run_scenario(cell.config);
    record.fingerprint = core::fingerprint(record.result);
  }
  return results;
}

int run_worker_spool(const WorkerOptions& options) {
  const std::string cells_dir = spool_cells_dir(options.spool_dir);
  const std::string claimed_dir = spool_claimed_dir(options.spool_dir);
  const std::string results_dir = spool_results_dir(options.spool_dir);
  util::ensure_dir(claimed_dir);
  util::ensure_dir(results_dir);
  std::string pid_suffix = ".";
  pid_suffix += std::to_string(::getpid());
  const SweepFaultPlan& faults = options.faults;

  for (;;) {
    bool claimed_one = false;
    for (const std::string& name : util::list_files(cells_dir, ".shard")) {
      std::optional<SpoolName> spool_name = parse_spool_name(name);
      if (!spool_name) continue;  // tmp litter or foreign file
      const std::uint64_t id = spool_name->id;
      const std::uint64_t attempt = spool_name->token;
      std::string claim_path = claimed_dir + "/" + name + pid_suffix;
      if (!util::claim_file(cells_dir + "/" + name, claim_path)) {
        continue;  // another worker won this shard; try the next
      }
      claimed_one = true;

      if (faults.fires(SweepFault::HangAfterClaim, id, attempt)) {
        // Emulated process freeze: no heartbeat, no progress, no exit —
        // only the driver's lease timeout (and SIGKILL) ends this.
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
      }

      HeartbeatPump heartbeat(
          claimed_dir + "/" + heartbeat_file_name(id, attempt),
          options.heartbeat_interval_ms,
          faults.fires(SweepFault::StallHeartbeat, id, attempt));

      Shard shard = parse_shard(util::read_file(claim_path));
      std::string document = serialize_shard_results(run_shard(shard));
      // The fencing token from the claim we won is baked into the result
      // name: if the driver reclaimed this shard while we ran, our token
      // is stale and the driver discards this file instead of merging it.
      std::string published =
          results_dir + "/" + results_file_name(shard.id, attempt);

      if (faults.fires(SweepFault::DieBeforePublish, id, attempt)) {
        util::emulate_sigkill();  // computed, never published: claim stranded
      }
      if (faults.fires(SweepFault::TornPublish, id, attempt)) {
        // A torn write that still reached the final name (non-atomic FS):
        // half the document, no checksum line, then death.
        util::write_file_atomic(published, document.substr(0, document.size() / 2),
                                /*durable=*/false);
        util::emulate_sigkill();
      }
      if (faults.fires(SweepFault::CorruptResult, id, attempt)) {
        // Bitrot after sealing: the checksum no longer matches the body.
        // The worker itself is healthy; the document is the casualty.
        document[document.size() / 2] ^= 0x20;
      }

      util::write_file_atomic(published, document);
      heartbeat.stop();
      util::remove_file(claimed_dir + "/" + heartbeat_file_name(id, attempt));
      util::remove_file(claim_path);
      break;  // re-list: claiming order stays fair across workers
    }
    if (!claimed_one) return 0;  // nothing pending — done
  }
}

}  // namespace ps::dist
