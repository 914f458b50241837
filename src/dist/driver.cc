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
    std::size_t take = q + (k < r ? 1 : 0);
    shards[k].cells.reserve(take);
    for (std::size_t i = 0; i < take; ++i, ++next) {
      shards[k].cells.push_back({next, cells[next]});
    }
  }
  return shards;
}

/// Everything the driver tracks per shard: the fencing token of the
/// current attempt, attempt accounting, the parsed results once accepted,
/// and the lease observation state for the current claim.
struct ShardState {
  std::uint64_t token = 1;  ///< fencing token == number of the current attempt
  std::size_t attempts = 1;
  bool done = false;
  bool quarantined = false;
  ShardResults results;
  // Lease observation: the driver watches the heartbeat *sequence* for
  // change against its own clock, so worker clocks never matter.
  bool lease_tracked = false;
  std::uint64_t hb_seq = 0;
  Clock::time_point last_progress{};
};

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

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
  DriverReport report;
  if (cells.empty()) return report;

  // Registry-homed fault-tolerance counters (obs/registry.h): sites
  // increment the process-wide counters, the report's fields are this
  // run's deltas against the baseline captured here.
  obs::Registry& registry = obs::Registry::global();
  const obs::CounterBaseline baseline;
  obs::Counter& c_resubmitted = registry.counter("dist.resubmitted_shards");
  obs::Counter& c_reclaimed = registry.counter("dist.reclaimed_leases");
  obs::Counter& c_fenced = registry.counter("dist.fenced_publishes");
  obs::Counter& c_corrupt = registry.counter("dist.corrupt_documents");
  obs::Counter& c_resumed = registry.counter("dist.resumed_cells");
  obs::Counter& c_spawned = registry.counter("dist.workers_spawned");
  auto finalize_report_counters = [&] {
    report.resubmitted_shards = baseline.delta("dist.resubmitted_shards");
    report.reclaimed_leases = baseline.delta("dist.reclaimed_leases");
    report.fenced_publishes = baseline.delta("dist.fenced_publishes");
    report.corrupt_documents = baseline.delta("dist.corrupt_documents");
    report.resumed_cells = baseline.delta("dist.resumed_cells");
    report.workers_spawned = baseline.delta("dist.workers_spawned");
  };
  if (options.workers == 0) fail("workers must be >= 1");
  if (options.max_attempts == 0) fail("max_attempts must be >= 1");
  if (options.resume && options.spool_dir.empty()) {
    fail("resume wants an explicit spool_dir");
  }
  if (!options.golden.empty() && options.golden.size() != cells.size()) {
    fail(strings::format("golden manifest holds %zu fingerprints for %zu cells",
                         options.golden.size(), cells.size()));
  }
  const std::int64_t lease_timeout_ms =
      std::max(options.lease_timeout_ms, 2 * options.heartbeat_interval_ms);
  const auto lease_timeout = std::chrono::milliseconds(lease_timeout_ms);

  // --- spool setup -----------------------------------------------------------
  const bool private_spool = options.spool_dir.empty();
  const std::string spool =
      private_spool ? util::make_temp_dir("ps-sweep-spool-") : options.spool_dir;
  const std::string cells_dir = spool_cells_dir(spool);
  const std::string claimed_dir = spool_claimed_dir(spool);
  const std::string results_dir = spool_results_dir(spool);
  util::ensure_dir(cells_dir);
  util::ensure_dir(claimed_dir);
  util::ensure_dir(results_dir);

  // The grid checksum pins the spool to this exact grid: resuming a spool
  // that was created for different cells must fail loudly, never merge.
  const std::string grid_doc = serialize_cell_grid(cells);
  const std::uint64_t grid_checksum = core::fnv1a_bytes(grid_doc);
  const std::string meta_path = spool_grid_meta_path(spool);

  std::size_t shard_count = options.shards != 0
                                ? std::min(options.shards, cells.size())
                                : std::min(cells.size(), options.workers * 2);
  if (options.resume) {
    if (!util::path_exists(meta_path)) {
      fail("spool at " + spool + " has no grid.meta — nothing to resume");
    }
    GridMeta meta;
    try {
      meta = parse_grid_meta(util::read_file(meta_path));
    } catch (const SerdeError& error) {
      fail("grid.meta unreadable (" + std::string(error.what()) + ")");
    }
    if (meta.cells != cells.size() || meta.grid_checksum != grid_checksum) {
      fail("spool at " + spool + " belongs to a different grid — refusing to resume");
    }
    // The partition geometry is pinned by the spool, not the caller: the
    // published shard files only make sense under the original split.
    shard_count = meta.shards;
  } else {
    if (util::path_exists(meta_path)) {
      fail("spool at " + spool + " already holds a grid (use resume?)");
    }
  }
  std::vector<Shard> shards = partition(cells, shard_count);
  report.shard_count = shard_count;
  std::vector<ShardState> state(shard_count);

  // Exhaustion handling shared by resubmission and barren-wave accounting.
  // Returns true when the shard may try again; quarantines or throws when
  // its attempts are spent.
  auto exhaust_or_continue = [&](std::uint64_t id) -> bool {
    ShardState& st = state[id];
    if (st.attempts < options.max_attempts) return true;
    if (options.quarantine) {
      st.quarantined = true;
      for (const IndexedCell& cell : shards[id].cells) {
        report.quarantined_cells.push_back(cell.index);
      }
      report.complete = false;
      return false;
    }
    fail(strings::format("shard %llu failed %zu attempts — giving up "
                         "(spool kept at %s)",
                         static_cast<unsigned long long>(id),
                         options.max_attempts, spool.c_str()));
  };

  // Return a shard to the pending pool under a fresh fencing token. The
  // old token's files are swept first so a zombie's artifacts can never be
  // confused with the new attempt's.
  auto resubmit = [&](std::uint64_t id) {
    ShardState& st = state[id];
    util::remove_file(cells_dir + "/" + shard_file_name(id, st.token));
    util::remove_file(claimed_dir + "/" + heartbeat_file_name(id, st.token));
    st.lease_tracked = false;
    c_resubmitted.inc();
    if (!exhaust_or_continue(id)) return;
    ++st.attempts;
    ++st.token;
    PS_LOG(Warn) << "dist: shard " << id << " resubmitted (attempt "
                 << st.attempts << "/" << options.max_attempts << ")";
    util::write_file_atomic(cells_dir + "/" + shard_file_name(id, st.token),
                            serialize_shard(shards[id]));
  };

  if (options.resume) {
    // --- adopt prior work ----------------------------------------------------
    // Every published results file is re-validated from scratch: checksum,
    // parse, shard identity, and a fresh fingerprint over every record. A
    // valid file is adopted (its cells are never recomputed); an invalid
    // one is a counted corpse. Highest token seen anywhere becomes the
    // floor for the next attempt so stale zombies stay fenced out.
    std::vector<std::uint64_t> max_token(shard_count, 0);
    for (const std::string& name : util::list_files(results_dir, ".results")) {
      std::optional<SpoolName> sn = parse_spool_name(name);
      std::string path = results_dir + "/" + name;
      if (!sn || sn->id >= shard_count) {
        util::remove_file(path);
        continue;
      }
      max_token[sn->id] = std::max(max_token[sn->id], sn->token);
      ShardState& st = state[sn->id];
      if (st.done) {
        util::remove_file(path);  // duplicate publish of an adopted shard
        continue;
      }
      try {
        ShardResults parsed = parse_shard_results(util::read_file(path));
        if (parsed.id != sn->id) throw SerdeError("results carry a foreign shard id");
        for (const CellRecord& record : parsed.records) {
          if (record.index >= cells.size() ||
              core::fingerprint(record.result) != record.fingerprint) {
            throw SerdeError("record fails re-fingerprinting");
          }
        }
        c_resumed.inc(parsed.records.size());
        st.done = true;
        st.token = sn->token;
        st.results = std::move(parsed);
      } catch (const SerdeError&) {
        c_corrupt.inc();
        util::remove_file(path);
      }
    }
    // Sweep stale pending/claim/heartbeat litter from the dead run; every
    // unfinished shard restarts above any token the old run ever issued.
    for (const std::string& name : util::list_files(cells_dir)) {
      if (std::optional<SpoolName> sn = parse_spool_name(name);
          sn && sn->id < shard_count) {
        max_token[sn->id] = std::max(max_token[sn->id], sn->token);
      }
      util::remove_file(cells_dir + "/" + name);
    }
    for (const std::string& name : util::list_files(claimed_dir)) {
      if (std::optional<SpoolName> sn = parse_spool_name(name);
          sn && sn->id < shard_count) {
        max_token[sn->id] = std::max(max_token[sn->id], sn->token);
      }
      util::remove_file(claimed_dir + "/" + name);
    }
    for (std::uint64_t id = 0; id < shard_count; ++id) {
      ShardState& st = state[id];
      if (st.done) continue;
      st.token = max_token[id];  // resubmit bumps to max_token + 1
      st.attempts = static_cast<std::size_t>(std::max<std::uint64_t>(st.token, 1));
      if (st.token == 0) {
        // Never attempted: submit attempt 1 directly.
        st.token = 1;
        util::write_file_atomic(cells_dir + "/" + shard_file_name(id, st.token),
                                serialize_shard(shards[id]));
      } else if (exhaust_or_continue(id)) {
        ++st.attempts;
        ++st.token;
        util::write_file_atomic(cells_dir + "/" + shard_file_name(id, st.token),
                                serialize_shard(shards[id]));
      }
    }
  } else {
    util::write_file_atomic(meta_path,
                            serialize_grid_meta({cells.size(), shard_count,
                                                 grid_checksum}));
    for (const Shard& shard : shards) {
      util::write_file_atomic(cells_dir + "/" + shard_file_name(shard.id, 1),
                              serialize_shard(shard));
    }
  }

  const std::string worker_command =
      options.worker_command.empty() ? default_worker_command() : options.worker_command;
  std::vector<std::string> worker_argv = {
      worker_command, "worker", "--spool", spool, "--heartbeat-ms",
      std::to_string(options.heartbeat_interval_ms)};
  worker_argv.insert(worker_argv.end(), options.worker_args.begin(),
                     options.worker_args.end());

  // --- poll the spool until every shard is settled ---------------------------
  //
  // The driver never blocks on a worker: each poll reaps exits, accepts or
  // rejects publishes, expires leases, and tops the worker pool back up.
  std::vector<util::Subprocess> pool;
  std::unordered_set<long long> exited_pids;
  bool spawned_any = false;
  bool progress_since_spawn = false;

  auto unfinished = [&]() {
    std::size_t count = 0;
    for (const ShardState& st : state) {
      if (!st.done && !st.quarantined) ++count;
    }
    return count;
  };

  while (unfinished() > 0) {
    bool progress = false;

    // 1. Reap exited workers (their claims, if any, are handled below).
    for (std::size_t i = 0; i < pool.size();) {
      int code = 0;
      if (pool[i].try_wait(&code)) {
        exited_pids.insert(static_cast<long long>(pool[i].pid()));
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    // 2. Published results: accept the current fencing token, discard the
    //    rest. A checksum or parse failure is a worker fault — resubmit —
    //    never a driver crash.
    for (const std::string& name : util::list_files(results_dir, ".results")) {
      std::optional<SpoolName> sn = parse_spool_name(name);
      std::string path = results_dir + "/" + name;
      if (!sn || sn->id >= shard_count) {
        util::remove_file(path);
        continue;
      }
      ShardState& st = state[sn->id];
      if (sn->token != st.token) {
        // Zombie publish from a reclaimed attempt: fenced out by token.
        util::remove_file(path);
        c_fenced.inc();
        continue;
      }
      if (st.done || st.quarantined) continue;  // the accepted artifact itself
      try {
        ShardResults parsed = parse_shard_results(util::read_file(path));
        if (parsed.id != sn->id) {
          // Checksum-valid but mislabeled: deterministic logic error, not
          // an I/O fault — retrying cannot fix it.
          fail(strings::format("results file for shard %llu carries id %llu",
                               static_cast<unsigned long long>(sn->id),
                               static_cast<unsigned long long>(parsed.id)));
        }
        for (const CellRecord& record : parsed.records) {
          if (record.index >= cells.size()) {
            fail(strings::format("record index %llu outside the %zu-cell grid",
                                 static_cast<unsigned long long>(record.index),
                                 cells.size()));
          }
          // The merge fence: re-fingerprint the *parsed* result. Any serde
          // infidelity or worker/driver skew diverges here, loudly.
          std::uint64_t digest = core::fingerprint(record.result);
          if (digest != record.fingerprint) {
            fail(strings::format(
                "cell %llu fingerprint mismatch: worker %016llx, driver %016llx "
                "(serde infidelity or version skew)",
                static_cast<unsigned long long>(record.index),
                static_cast<unsigned long long>(record.fingerprint),
                static_cast<unsigned long long>(digest)));
          }
        }
        st.done = true;
        st.results = std::move(parsed);
        // The holder normally clears its own claim; sweep leftovers in
        // case it died right after publishing.
        for (const std::string& claim : util::list_files(claimed_dir)) {
          std::optional<SpoolName> cn = parse_spool_name(claim);
          if (cn && cn->id == sn->id) util::remove_file(claimed_dir + "/" + claim);
        }
        PS_LOG(Info) << "dist: shard " << sn->id << " done ("
                     << shard_count - unfinished() << "/" << shard_count
                     << " shards complete)";
        progress = true;
        progress_since_spawn = true;
      } catch (const SerdeError& error) {
        c_corrupt.inc();
        util::remove_file(path);
        resubmit(sn->id);
        progress = true;
      }
    }

    // 3. Leases: every current-token claim must show heartbeat movement
    //    within the lease window. Dead local holders are reclaimed
    //    immediately; hung ones are killed at lease expiry — *mid-wave*,
    //    not at wave end. Stale-token files are zombie litter.
    Clock::time_point now = Clock::now();
    for (const std::string& name : util::list_files(claimed_dir)) {
      std::optional<SpoolName> sn = parse_spool_name(name);
      if (!sn || sn->id >= shard_count) continue;
      ShardState& st = state[sn->id];
      if (st.done || st.quarantined || sn->token != st.token) {
        util::remove_file(claimed_dir + "/" + name);
        continue;
      }
      if (ends_with(name, ".hb")) continue;  // read via its claim below
      std::optional<std::int64_t> pid = parse_claim_pid(name);

      std::uint64_t seq = 0;
      std::string hb_path =
          claimed_dir + "/" + heartbeat_file_name(sn->id, sn->token);
      if (util::path_exists(hb_path)) {
        try {
          if (auto hb = parse_heartbeat(util::read_file(hb_path))) seq = hb->seq;
        } catch (const std::exception&) {
          // A vanished or garbled heartbeat counts as "not renewed".
        }
      }
      if (!st.lease_tracked || seq != st.hb_seq) {
        st.lease_tracked = true;
        st.hb_seq = seq;
        st.last_progress = now;
        progress_since_spawn = true;  // a claim exists: workers do run
        continue;
      }
      bool holder_is_dead_local =
          pid && exited_pids.count(static_cast<long long>(*pid)) > 0;
      bool lease_expired = now - st.last_progress >= lease_timeout;
      if (!holder_is_dead_local && !lease_expired) continue;
      if (lease_expired && !holder_is_dead_local) {
        c_reclaimed.inc();
        PS_LOG(Warn) << "dist: shard " << sn->id
                     << " lease expired — reclaiming from a hung holder";
        // A hung *local* holder is killed before its shard is re-issued;
        // a remote one is fenced out by the token bump alone.
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (pid && static_cast<std::int64_t>(pool[i].pid()) == *pid) {
            pool[i].kill();
            pool[i].wait_for(2000);
            exited_pids.insert(static_cast<long long>(pool[i].pid()));
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      }
      util::remove_file(claimed_dir + "/" + name);
      resubmit(sn->id);
      progress = true;
    }

    if (unfinished() == 0) break;

    // 4. Pending shards with no live workers and no progress since the
    //    last spawn mean the workers themselves cannot run (bad binary,
    //    unclaimable spool): account a barren wave against every pending
    //    shard so exhaustion stays bounded instead of respawning forever.
    std::size_t claimed_now = 0;
    for (const std::string& name : util::list_files(claimed_dir)) {
      if (!ends_with(name, ".hb")) ++claimed_now;
    }
    if (spawned_any && pool.empty() && !progress_since_spawn) {
      for (std::uint64_t id = 0; id < shard_count; ++id) {
        ShardState& st = state[id];
        if (st.done || st.quarantined) continue;
        if (exhaust_or_continue(id)) {
          ++st.attempts;
        } else {
          util::remove_file(cells_dir + "/" + shard_file_name(id, st.token));
        }
      }
      if (unfinished() == 0) break;
    }

    // 5. Top the pool back up: enough workers for the unclaimed backlog,
    //    never more than the configured fleet size.
    std::size_t pending = unfinished();
    std::size_t want = std::min(options.workers,
                                pending > claimed_now ? pending - claimed_now : 0);
    if (pool.size() < want) {
      for (std::size_t i = pool.size(); i < want; ++i) {
        pool.push_back(util::Subprocess::spawn(worker_argv));
        c_spawned.inc();
      }
      spawned_any = true;
      progress_since_spawn = false;
      PS_LOG(Info) << "dist: wave — " << pool.size() << " workers live, "
                   << pending << " shards pending (" << claimed_now
                   << " claimed)";
    }

    if (!progress) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.poll_interval_ms));
    }
  }

  // Fenced zombies may still be hanging; they hold no current claims and
  // their publishes are discarded, so ending them is pure cleanup.
  for (util::Subprocess& worker : pool) {
    worker.kill();
    worker.wait();
  }

  // --- index-ordered, fingerprint-verified merge -----------------------------
  PS_TRACE_SPAN("dist.merge");
  std::vector<core::ScenarioResult> results(cells.size());
  std::vector<std::uint64_t> fingerprints(cells.size(), 0);
  std::vector<bool> seen(cells.size(), false);
  for (std::uint64_t id = 0; id < shard_count; ++id) {
    if (state[id].quarantined) continue;
    ShardResults& shard_results = state[id].results;
    if (shard_results.id != id) {
      fail(strings::format("results for shard %llu carry id %llu",
                           static_cast<unsigned long long>(id),
                           static_cast<unsigned long long>(shard_results.id)));
    }
    for (CellRecord& record : shard_results.records) {
      if (seen[record.index]) {
        fail(strings::format("cell %llu reported twice",
                             static_cast<unsigned long long>(record.index)));
      }
      std::uint64_t digest = record.fingerprint;  // re-verified at accept time
      if (!options.golden.empty() && digest != options.golden[record.index]) {
        fail(strings::format(
            "cell %llu diverged from the golden manifest: got %016llx, "
            "expected %016llx",
            static_cast<unsigned long long>(record.index),
            static_cast<unsigned long long>(digest),
            static_cast<unsigned long long>(options.golden[record.index])));
      }
      seen[record.index] = true;
      fingerprints[record.index] = digest;
      results[record.index] = std::move(record.result);
    }
  }
  std::sort(report.quarantined_cells.begin(), report.quarantined_cells.end());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bool quarantined =
        std::binary_search(report.quarantined_cells.begin(),
                           report.quarantined_cells.end(),
                           static_cast<std::uint64_t>(i));
    if (!seen[i] && !quarantined) {
      fail(strings::format("cell %zu missing after merge", i));
    }
  }

  if (private_spool && !options.keep_spool && report.complete) {
    util::remove_tree(spool);
  }
  report.results = std::move(results);
  report.fingerprints = std::move(fingerprints);
  finalize_report_counters();
  return report;
}

}  // namespace ps::dist
