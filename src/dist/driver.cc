#include "dist/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include <unistd.h>

#include "core/fingerprint.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/spool.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace ps::dist {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("dist driver: " + message);
}

/// Contiguous, near-even partition: shard k holds indices
/// [k*q + min(k,r), ...) — every shard within one cell of the others.
std::vector<Shard> partition(const std::vector<core::ScenarioConfig>& cells,
                             std::size_t shard_count) {
  std::vector<Shard> shards(shard_count);
  std::size_t q = cells.size() / shard_count;
  std::size_t r = cells.size() % shard_count;
  std::size_t next = 0;
  for (std::size_t k = 0; k < shard_count; ++k) {
    shards[k].id = k;
    for (std::size_t end = next + q + (k < r ? 1 : 0); next < end; ++next) {
      shards[k].cells.push_back({next, cells[next]});
    }
  }
  return shards;
}

/// Everything the driver tracks per shard: the fencing token of the
/// current attempt, attempt accounting, the parsed results once accepted,
/// and the lease observation state for the current claim.
struct ShardState {
  std::uint64_t token = 0;  ///< 0 until Driver::issue starts attempt 1
  std::size_t attempts = 0;
  bool done = false;
  bool quarantined = false;
  ShardResults results;
  // Lease observation: the driver watches the heartbeat *sequence* for
  // change against its own clock, so worker clocks never matter.
  bool lease_tracked = false;
  std::uint64_t hb_seq = 0;
  Clock::time_point last_progress{};
};

/// A published results file judged against its spool name and the grid.
/// Corrupt: the checksum or the parse failed (a torn or rotted write).
/// Inconsistent: sealed, yet its shard id, a record index or a recomputed
/// fingerprint is wrong (serde infidelity or version skew).
struct Verdict {
  enum Kind { kValid, kCorrupt, kInconsistent } kind = kInconsistent;
  std::string message;   ///< what is inconsistent
  ShardResults results;  ///< the parsed document when valid
};

Verdict validate_results(const std::string& path, std::uint64_t shard_id,
                         std::size_t cell_count) {
  Verdict v;
  try {
    v.results = parse_shard_results(util::read_file(path));
  } catch (const util::SerdeError&) {
    v.kind = Verdict::kCorrupt;
    return v;
  }
  if (v.results.id != shard_id) {
    v.message = strings::format("results file for shard %llu carries id %llu",
                                static_cast<unsigned long long>(shard_id),
                                static_cast<unsigned long long>(v.results.id));
    return v;
  }
  for (const CellRecord& record : v.results.records) {
    if (record.index >= cell_count) {
      v.message = strings::format("record index %llu outside the %zu-cell grid",
                                  static_cast<unsigned long long>(record.index),
                                  cell_count);
      return v;
    }
    // The merge fence: re-fingerprint the *parsed* result. Any serde
    // infidelity or worker/driver skew diverges here, loudly.
    std::uint64_t digest = core::fingerprint(record.result);
    if (digest != record.fingerprint) {
      v.message = strings::format(
          "cell %llu fingerprint mismatch: worker %016llx, driver %016llx "
          "(serde infidelity or version skew)",
          static_cast<unsigned long long>(record.index),
          static_cast<unsigned long long>(record.fingerprint),
          static_cast<unsigned long long>(digest));
      return v;
    }
  }
  v.kind = Verdict::kValid;
  return v;
}

/// One distributed drive: the members are its state, the methods its
/// phases, called in order by run_distributed — open_spool, issue_all or
/// adopt, the poll loop (reap, accept_results, check_leases,
/// account_barren_wave, top_up), stop_workers, merge.
class Driver {
 public:
  Driver(const std::vector<core::ScenarioConfig>& cells,
         const DriverOptions& options)
      : cells_(cells),
        options_(options),
        lease_timeout_(std::max(options.lease_timeout_ms,
                                2 * options.heartbeat_interval_ms)) {}

  /// Checks the options, creates the spool and pins it to this grid: a
  /// fresh drive writes grid.meta, a resume checks it and takes the
  /// partition geometry from it.
  void open_spool() {
    if (options_.workers == 0) fail("workers must be >= 1");
    if (options_.max_attempts == 0) fail("max_attempts must be >= 1");
    if (options_.resume && options_.spool_dir.empty()) {
      fail("resume wants an explicit spool_dir");
    }
    if (!options_.golden.empty() && options_.golden.size() != cells_.size()) {
      fail(strings::format("golden manifest holds %zu fingerprints for %zu cells",
                           options_.golden.size(), cells_.size()));
    }
    spool_ = options_.spool_dir.empty() ? util::make_temp_dir("ps-sweep-spool-")
                                        : options_.spool_dir;
    cells_dir_ = spool_cells_dir(spool_);
    claimed_dir_ = spool_claimed_dir(spool_);
    results_dir_ = spool_results_dir(spool_);
    for (const std::string& dir : {cells_dir_, claimed_dir_, results_dir_}) {
      util::ensure_dir(dir);
    }

    // The grid checksum pins the spool to this exact grid: resuming
    // different cells must fail loudly, never merge.
    const std::uint64_t grid_checksum =
        util::fnv1a_bytes(serialize_cell_grid(cells_));
    const std::string meta_path = spool_grid_meta_path(spool_);
    std::size_t shard_count =
        options_.shards != 0 ? std::min(options_.shards, cells_.size())
                             : std::min(cells_.size(), options_.workers * 2);
    if (options_.resume) {
      if (!util::path_exists(meta_path)) {
        fail("spool at " + spool_ + " has no grid.meta — nothing to resume");
      }
      GridMeta meta;
      try {
        meta = parse_grid_meta(util::read_file(meta_path));
      } catch (const util::SerdeError& error) {
        fail("grid.meta unreadable (" + std::string(error.what()) + ")");
      }
      if (meta.cells != cells_.size() || meta.grid_checksum != grid_checksum) {
        fail("spool at " + spool_ +
             " belongs to a different grid — refusing to resume");
      }
      // The partition geometry is pinned by the spool, not the caller: the
      // published shard files only make sense under the original split.
      shard_count = meta.shards;
    } else {
      if (util::path_exists(meta_path)) {
        fail("spool at " + spool_ + " already holds a grid (use resume?)");
      }
      util::write_file_atomic(
          meta_path,
          serialize_grid_meta({cells_.size(), shard_count, grid_checksum}));
    }
    shards_ = partition(cells_, shard_count);
    state_.resize(shard_count);
    report_.shard_count = shard_count;
    worker_argv_ = {options_.worker_command.empty() ? default_worker_command()
                                                    : options_.worker_command,
                    "worker", "--spool", spool_, "--heartbeat-ms",
                    std::to_string(options_.heartbeat_interval_ms)};
    worker_argv_.insert(worker_argv_.end(), options_.worker_args.begin(),
                        options_.worker_args.end());
  }

  /// Fresh drive: attempt 1 of every shard.
  void issue_all() {
    for (std::uint64_t id = 0; id < shards_.size(); ++id) issue(id);
  }

  /// Resume: adopts each published results file that re-validates and
  /// counts any other — sealed-but-inconsistent included, it is the dead
  /// run's — as a corrupt document to recompute. Then sweeps the dead run's
  /// litter and reissues each unfinished shard above any token it issued.
  void adopt() {
    std::vector<std::uint64_t> max_token(shards_.size(), 0);
    for_each_result([&](const SpoolName& sn, const std::string& path) {
      max_token[sn.id] = std::max(max_token[sn.id], sn.token);
      ShardState& st = state_[sn.id];
      if (st.done) {
        util::remove_file(path);  // duplicate publish of an adopted shard
        return;
      }
      Verdict verdict = validate_results(path, sn.id, cells_.size());
      if (verdict.kind != Verdict::kValid) {
        corrupt_.inc();
        util::remove_file(path);
        return;
      }
      resumed_.inc(verdict.results.records.size());
      st.done = true;
      st.token = sn.token;
      st.results = std::move(verdict.results);
    });
    for (const std::string& dir : {cells_dir_, claimed_dir_}) {
      for (const std::string& name : util::list_files(dir)) {
        if (std::optional<SpoolName> sn = parse_spool_name(name);
            sn && sn->id < shards_.size()) {
          max_token[sn->id] = std::max(max_token[sn->id], sn->token);
        }
        util::remove_file(dir + "/" + name);
      }
    }
    for (std::uint64_t id = 0; id < shards_.size(); ++id) {
      ShardState& st = state_[id];
      if (st.done) continue;
      st.token = max_token[id];  // issue bumps to max_token + 1
      st.attempts = static_cast<std::size_t>(st.token);
      issue(id);
    }
  }

  std::size_t unfinished() const {
    return static_cast<std::size_t>(std::ranges::count_if(
        state_, [](const ShardState& st) { return !st.done && !st.quarantined; }));
  }

  /// Reaps exited workers; check_leases handles any claim they left.
  void reap() {
    std::erase_if(pool_, [&](util::Subprocess& worker) {
      if (!worker.try_wait(nullptr)) return false;
      exited_pids_.insert(worker.pid());
      return true;
    });
  }

  /// Accepts current-token publishes and fences out the rest. A corrupt
  /// document is a worker fault to resubmit; a sealed but inconsistent one
  /// is deterministic, so retrying cannot fix it: throw.
  bool accept_results() {
    bool progress = false;
    for_each_result([&](const SpoolName& sn, const std::string& path) {
      ShardState& st = state_[sn.id];
      if (sn.token != st.token) {
        util::remove_file(path);
        fenced_.inc();
        return;
      }
      if (st.done || st.quarantined) return;  // the accepted artifact itself
      progress = true;
      Verdict verdict = validate_results(path, sn.id, cells_.size());
      if (verdict.kind == Verdict::kInconsistent) fail(verdict.message);
      if (verdict.kind == Verdict::kCorrupt) {
        corrupt_.inc();
        util::remove_file(path);
        resubmit(sn.id);
        return;
      }
      st.done = true;
      st.results = std::move(verdict.results);
      // The holder normally clears its own claim; sweep leftovers in case
      // it died right after publishing.
      for (const std::string& claim : util::list_files(claimed_dir_)) {
        std::optional<SpoolName> cn = parse_spool_name(claim);
        if (cn && cn->id == sn.id) util::remove_file(claimed_dir_ + "/" + claim);
      }
      PS_LOG(Info) << "dist: shard " << sn.id << " done ("
                   << shards_.size() - unfinished() << "/" << shards_.size()
                   << " shards complete)";
      progress_since_spawn_ = true;
    });
    return progress;
  }

  /// Every current-token claim must show heartbeat movement within the
  /// lease window: dead local holders are reclaimed at once, hung ones at
  /// lease expiry, mid-wave. Stale-token files are zombie litter.
  bool check_leases() {
    bool progress = false;
    Clock::time_point now = Clock::now();
    for (const std::string& name : util::list_files(claimed_dir_)) {
      std::optional<SpoolName> sn = parse_spool_name(name);
      if (!sn || sn->id >= shards_.size()) continue;
      ShardState& st = state_[sn->id];
      if (st.done || st.quarantined || sn->token != st.token) {
        util::remove_file(claimed_dir_ + "/" + name);
        continue;
      }
      if (name.ends_with(".hb")) continue;  // read via its claim below
      std::optional<std::int64_t> pid = parse_claim_pid(name);
      std::uint64_t seq = heartbeat_seq(sn->id, sn->token);
      if (!st.lease_tracked || seq != st.hb_seq) {
        st.lease_tracked = true;
        st.hb_seq = seq;
        st.last_progress = now;
        progress_since_spawn_ = true;  // a claim exists: workers do run
        continue;
      }
      bool holder_is_dead_local = pid && exited_pids_.contains(*pid);
      bool lease_expired = now - st.last_progress >= lease_timeout_;
      if (!holder_is_dead_local && !lease_expired) continue;
      if (lease_expired && !holder_is_dead_local) {
        reclaimed_.inc();
        PS_LOG(Warn) << "dist: shard " << sn->id
                     << " lease expired — reclaiming from a hung holder";
        // A hung *local* holder is killed before its shard is re-issued;
        // a remote one is fenced out by the token bump alone.
        if (pid) kill_local(*pid);
      }
      util::remove_file(claimed_dir_ + "/" + name);
      resubmit(sn->id);
      progress = true;
    }
    return progress;
  }

  /// Current claims in the spool, heartbeat files excluded.
  std::size_t count_claims() const {
    return static_cast<std::size_t>(std::ranges::count_if(
        util::list_files(claimed_dir_),
        [](const std::string& name) { return !name.ends_with(".hb"); }));
  }

  /// No live workers and no progress since the last spawn mean workers
  /// cannot run (bad binary, unclaimable spool): charge each pending shard
  /// an attempt so exhaustion stays bounded instead of respawning forever.
  void account_barren_wave() {
    if (!spawned_any_ || !pool_.empty() || progress_since_spawn_) return;
    for (std::uint64_t id = 0; id < shards_.size(); ++id) {
      ShardState& st = state_[id];
      if (st.done || st.quarantined) continue;
      if (may_retry(id)) {
        ++st.attempts;
      } else {
        util::remove_file(cells_dir_ + "/" + shard_file_name(id, st.token));
      }
    }
  }

  /// Spawns workers for the unclaimed backlog, up to the fleet size.
  void top_up(std::size_t claimed) {
    std::size_t pending = unfinished();
    std::size_t want = std::min(options_.workers,
                                pending > claimed ? pending - claimed : 0);
    if (pool_.size() >= want) return;
    for (std::size_t i = pool_.size(); i < want; ++i) {
      pool_.push_back(util::Subprocess::spawn(worker_argv_));
      spawned_.inc();
    }
    spawned_any_ = true;
    progress_since_spawn_ = false;
    PS_LOG(Info) << "dist: wave — " << pool_.size() << " workers live, "
                 << pending << " shards pending (" << claimed << " claimed)";
  }

  /// Ends fenced zombies that may still hang: pure cleanup.
  void stop_workers() {
    for (util::Subprocess& worker : pool_) {
      worker.kill();
      worker.wait();
    }
  }

  /// Index-ordered, golden-verified merge of every accepted shard.
  DriverReport merge() {
    PS_TRACE_SPAN("dist.merge");
    report_.results.resize(cells_.size());
    report_.fingerprints.assign(cells_.size(), 0);
    std::vector<bool> seen(cells_.size(), false);
    for (std::uint64_t id = 0; id < shards_.size(); ++id) {
      if (state_[id].quarantined) continue;
      // Shard ids, indices and fingerprints were validated at accept time.
      for (CellRecord& record : state_[id].results.records) {
        if (seen[record.index]) {
          fail(strings::format("cell %llu reported twice",
                               static_cast<unsigned long long>(record.index)));
        }
        std::uint64_t digest = record.fingerprint;
        if (!options_.golden.empty() && digest != options_.golden[record.index]) {
          fail(strings::format(
              "cell %llu diverged from the golden manifest: got %016llx, "
              "expected %016llx",
              static_cast<unsigned long long>(record.index),
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(options_.golden[record.index])));
        }
        seen[record.index] = true;
        report_.fingerprints[record.index] = digest;
        report_.results[record.index] = std::move(record.result);
      }
    }
    std::ranges::sort(report_.quarantined_cells);
    for (std::uint64_t index : report_.quarantined_cells) seen[index] = true;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (!seen[i]) fail(strings::format("cell %zu missing after merge", i));
    }
    if (options_.spool_dir.empty() && !options_.keep_spool && report_.complete) {
      util::remove_tree(spool_);
    }
    report_.resubmitted_shards = baseline_.delta("dist.resubmitted_shards");
    report_.reclaimed_leases = baseline_.delta("dist.reclaimed_leases");
    report_.fenced_publishes = baseline_.delta("dist.fenced_publishes");
    report_.corrupt_documents = baseline_.delta("dist.corrupt_documents");
    report_.resumed_cells = baseline_.delta("dist.resumed_cells");
    report_.workers_spawned = baseline_.delta("dist.workers_spawned");
    return std::move(report_);
  }

 private:
  /// Visits each results file a shard of this grid owns; removes the rest.
  template <typename Visit>
  void for_each_result(Visit&& visit) {
    for (const std::string& name : util::list_files(results_dir_, ".results")) {
      std::optional<SpoolName> sn = parse_spool_name(name);
      if (sn && sn->id < shards_.size()) {
        visit(*sn, results_dir_ + "/" + name);
      } else {
        util::remove_file(results_dir_ + "/" + name);
      }
    }
  }

  /// Whether shard `id` may make another attempt. When its attempts are
  /// spent it is quarantined (false) or the drive throws.
  bool may_retry(std::uint64_t id) {
    if (state_[id].attempts < options_.max_attempts) return true;
    if (!options_.quarantine) {
      fail(strings::format("shard %llu failed %zu attempts — giving up "
                           "(spool kept at %s)",
                           static_cast<unsigned long long>(id),
                           options_.max_attempts, spool_.c_str()));
    }
    state_[id].quarantined = true;
    for (const IndexedCell& cell : shards_[id].cells) {
      report_.quarantined_cells.push_back(cell.index);
    }
    report_.complete = false;
    return false;
  }

  /// The one way an attempt starts: check exhaustion, bump attempts and
  /// token, write the shard file. False when quarantined instead.
  bool issue(std::uint64_t id) {
    if (!may_retry(id)) return false;
    ShardState& st = state_[id];
    ++st.attempts;
    ++st.token;
    util::write_file_atomic(cells_dir_ + "/" + shard_file_name(id, st.token),
                            serialize_shard(shards_[id]));
    return true;
  }

  /// Sweeps the old token's files, so a zombie's artifacts are never
  /// confused with the new attempt's, and issues the shard again.
  void resubmit(std::uint64_t id) {
    ShardState& st = state_[id];
    util::remove_file(cells_dir_ + "/" + shard_file_name(id, st.token));
    util::remove_file(claimed_dir_ + "/" + heartbeat_file_name(id, st.token));
    st.lease_tracked = false;
    resubmitted_.inc();
    if (issue(id)) {
      PS_LOG(Warn) << "dist: shard " << id << " resubmitted (attempt "
                   << st.attempts << "/" << options_.max_attempts << ")";
    }
  }

  /// A claim's heartbeat sequence; vanished or garbled reads as 0.
  std::uint64_t heartbeat_seq(std::uint64_t id, std::uint64_t token) const {
    std::string path = claimed_dir_ + "/" + heartbeat_file_name(id, token);
    if (!util::path_exists(path)) return 0;
    try {
      if (auto hb = parse_heartbeat(util::read_file(path))) return hb->seq;
    } catch (const std::exception&) {
    }
    return 0;
  }

  /// Kills and reaps the pool worker with this pid, if it is ours.
  void kill_local(std::int64_t pid) {
    auto it = std::ranges::find_if(pool_, [&](const util::Subprocess& worker) {
      return static_cast<std::int64_t>(worker.pid()) == pid;
    });
    if (it == pool_.end()) return;
    it->kill();
    it->wait_for(2000);
    exited_pids_.insert(pid);
    pool_.erase(it);
  }

  const std::vector<core::ScenarioConfig>& cells_;
  const DriverOptions& options_;
  const std::chrono::milliseconds lease_timeout_;
  // Registry-homed counters (obs/registry.h): the report's fields are
  // this run's deltas against the baseline, which is captured first.
  const obs::CounterBaseline baseline_;
  obs::Registry& registry_ = obs::Registry::global();
  obs::Counter& resubmitted_ = registry_.counter("dist.resubmitted_shards");
  obs::Counter& reclaimed_ = registry_.counter("dist.reclaimed_leases");
  obs::Counter& fenced_ = registry_.counter("dist.fenced_publishes");
  obs::Counter& corrupt_ = registry_.counter("dist.corrupt_documents");
  obs::Counter& resumed_ = registry_.counter("dist.resumed_cells");
  obs::Counter& spawned_ = registry_.counter("dist.workers_spawned");
  std::string spool_, cells_dir_, claimed_dir_, results_dir_;
  std::vector<Shard> shards_;
  std::vector<ShardState> state_;
  std::vector<std::string> worker_argv_;
  std::vector<util::Subprocess> pool_;
  std::unordered_set<std::int64_t> exited_pids_;
  bool spawned_any_ = false;
  bool progress_since_spawn_ = false;
  DriverReport report_;
};

}  // namespace

std::string default_worker_command() {
  if (const char* env = std::getenv("PS_SWEEP_WORKER_BIN"); env != nullptr && *env) {
    return env;
  }
  char buf[4096];
  ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) {
    std::string self(buf, static_cast<std::size_t>(len));
    std::size_t slash = self.rfind('/');
    if (slash != std::string::npos) {
      std::string sibling = self.substr(0, slash + 1) + "ps-sweep";
      if (util::path_exists(sibling)) return sibling;
    }
  }
  return "ps-sweep";
}

DriverReport run_distributed(const std::vector<core::ScenarioConfig>& cells,
                             const DriverOptions& options) {
  PS_TRACE_SPAN("dist.run");
  if (cells.empty()) return {};
  Driver driver(cells, options);
  driver.open_spool();
  if (options.resume) {
    driver.adopt();
  } else {
    driver.issue_all();
  }
  while (driver.unfinished() > 0) {
    driver.reap();
    bool progress = driver.accept_results();
    progress = driver.check_leases() || progress;
    if (driver.unfinished() == 0) break;
    const std::size_t claimed = driver.count_claims();
    driver.account_barren_wave();
    if (driver.unfinished() == 0) break;
    driver.top_up(claimed);
    if (!progress) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.poll_interval_ms));
    }
  }
  driver.stop_workers();
  return driver.merge();
}

}  // namespace ps::dist
