// Deterministic fault injection for the distributed sweep and the live
// serve tier — the chaos harness behind the soak tests and the CI chaos
// steps.
//
// A FaultPlan names *sites* (well-defined points in the sweep worker's
// claim/run/publish cycle, or in ps-serve's ingest/checkpoint cycle) and
// decides, purely from (seed, site, shard, attempt), whether the fault
// fires there. No wall clock, no RNG state:
// the same plan over the same spool produces the same fault schedule on
// every run, so a chaos soak is reproducible and its golden-fingerprint
// assertion is meaningful. Faults are *bounded by construction*: a site
// never fires once a shard's attempt number exceeds `max_attempt`, so a
// retrying driver always converges (provided its max_attempts allows
// max_attempt + 1 tries).
//
// Sites and the real failure each emulates:
//   * die_before_publish — worker computes the shard, then SIGKILLs itself
//     before publishing (crash/OOM-kill mid-shard; stranded claim).
//   * hang_after_claim   — worker freezes right after claiming, heartbeat
//     included (swap death, NFS stall, livelock; only a lease timeout can
//     detect it).
//   * stall_heartbeat    — work continues but heartbeat renewal stops (a
//     stalled hb path); the driver reclaims and the old holder becomes a
//     fencing-token zombie.
//   * torn_publish       — a truncated results file appears under the
//     final name (torn write on a non-atomic filesystem); the checksum
//     rejects it as a worker failure.
//   * corrupt_result     — a published results file has a byte flipped
//     (bitrot, partial sector); same checksum path.
//
// The plan is parsed from a spec string (the PS_SWEEP_FAULTS environment
// variable or the worker's --faults flag):
//
//   seed=7,rate=0.3,sites=die_before_publish+torn_publish,max_attempt=2
//   seed=7,rate=1,sites=all,shards=0+2,max_attempt=1
//
// `sites=all` enables every site; `shards=` restricts the plan to the
// listed shard ids (empty = all shards).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ps::dist {

enum class FaultSite {
  // Distributed-sweep worker sites (shard_id = sweep shard, attempt =
  // fencing-token attempt number).
  DieBeforePublish,
  HangAfterClaim,
  StallHeartbeat,
  TornPublish,
  CorruptResult,
  // Serve-tier sites (src/serve/server.cc). For the ingest sites
  // (DieAfterClaim, StallIngest) shard_id is the daemon-lifetime claim
  // ordinal; for the checkpoint sites it is the checkpoint sequence number.
  // `attempt` is the daemon generation (the epoch counter bumped on every
  // start), so max_attempt bounds kills across recoveries exactly like it
  // bounds sweep retries — a storming chaos plan always lets some
  // generation finish. The dist worker never evaluates these sites and the
  // serve daemon never evaluates the sweep sites, so one $PS_SWEEP_FAULTS
  // spec can drive both tiers.
  DieAfterClaim,        // SIGKILL right after journaling a claimed doc
  DieBeforeCheckpoint,  // SIGKILL before the checkpoint document is written
  TornCheckpoint,       // truncated checkpoint under the final name, then die
  DieAfterCheckpoint,   // SIGKILL after checkpoint + journal prune
  StallIngest,          // ingest thread naps (slow disk / NFS stall)
  // Hostile-client sites (src/serve/load_gen.cc, driven by ps-load
  // --faults): shard_id is the submission sequence number the client is
  // about to publish, attempt is the client's fleet index — so one spec
  // shared by a whole `ps-load --clients N` fleet still draws independent
  // faults per (client, document). These emulate the client-side failure
  // modes a multi-tenant server must absorb without losing well-formed
  // work (the hostile-client storm in CI):
  CorruptSubmission,    // corrupted bytes under the real name, then the
                        // good document republished once the server claims
                        // the poison (bitrot / torn client write + retry)
  FloodBurst,           // a burst published with the backpressure gate and
                        // pacing ignored (greedy or buggy client)
  StallClient,          // client naps mid-stream (GC pause, swapped host)
  DupPublish,           // the same document published twice (lost-ack retry)
  LieWatermark,         // watermark inflated far past the truth (a lying
                        // client trying to drag the sim clock forward)
  // Serve-tier site appended after the client sites so their draws keep
  // their values: shard_id is the serve-loop iteration, attempt the daemon
  // generation.
  StallDrain,           // serve loop naps (CPU-starved or swapped daemon)
};

inline constexpr std::size_t kFaultSiteCount = 16;

struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability, per enabled (site, shard, attempt), that the site fires.
  double rate = 0.0;
  /// Sites never fire when a shard's attempt number exceeds this — the
  /// bound that guarantees a retrying driver converges.
  std::uint64_t max_attempt = 2;
  bool sites[kFaultSiteCount] = {};
  /// Empty = every shard; else only the listed shard ids can fault.
  std::vector<std::uint64_t> shards;

  /// Deterministic trigger: FNV-mixed (seed, site, shard, attempt) mapped
  /// to [0,1) and compared against `rate`. Independent draws per site.
  bool fires(FaultSite site, std::uint64_t shard_id,
             std::uint64_t attempt) const;

  /// Parses a spec string (format above). Throws std::runtime_error on a
  /// malformed spec — a chaos schedule must never be silently partial.
  static FaultPlan parse(std::string_view spec);

  /// The plan in $PS_SWEEP_FAULTS, or an inert plan when unset/empty.
  static FaultPlan from_env();
};

}  // namespace ps::dist
