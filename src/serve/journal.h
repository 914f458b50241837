// Durability layer of the live service (ps-serve): the write-ahead journal,
// sealed checkpoints, and the deterministic recovery scan.
//
// Invariant: every submission document the daemon has *claimed* exists in
// exactly one of three places — the inbox (unclaimed), the journal
// (claimed, not yet compacted), or a checkpoint's segment document
// (compacted). The ingest path retires a claimed document into
// `<spool>/journal/` with one atomic rename *before* its jobs can enter
// the pipeline, so SIGKILL at any instruction boundary loses nothing: the
// admitted history is always reconstructible from
// checkpoint + segments + journal suffix + inbox.
//
// Spool layout added to serve/protocol.h's:
//   <spool>/journal/<client>.hello        journaled hello (kept until shutdown)
//   <spool>/journal/<client>-<seq08>.sub  journaled submission (pruned by ckpt)
//   <spool>/checkpoints/ckpt-<seq06>.ckpt sealed checkpoint document
//   <spool>/checkpoints/seg-<seq06>.seg   sealed segment: the submissions the
//                                         checkpoint compacted out of the journal
//   <spool>/control/epoch                 daemon generation counter
//
// Checkpoint write order (the crash-window argument, fenced by
// tests/serve_recovery_test.cc):
//   1. segment (durable)   — crash after: stray seg-k, overwritten next time
//   2. checkpoint (durable)— crash after: ckpt valid, journal not yet pruned;
//                            recovery prunes the sub-floor entries itself
//   3. journal prune       — crash mid-prune: same as 2
// A *torn* checkpoint (fault site torn_checkpoint) fails its seal at parse
// time and is skipped backward — and because its prune never ran, the
// previous checkpoint still has its full journal suffix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.h"
#include "sim/time.h"
#include "util/stats.h"

namespace ps::serve {

// --- spool layout ------------------------------------------------------------

std::string journal_dir(const std::string& spool);
std::string checkpoints_dir(const std::string& spool);
std::string epoch_path(const std::string& spool);

std::string checkpoint_file_name(std::uint64_t seq);
std::string segment_file_name(std::uint64_t seq);
/// Sequence embedded in a `ckpt-<seq06>.ckpt` name; nullopt for foreign files.
std::optional<std::uint64_t> parse_checkpoint_name(std::string_view name);

// --- daemon generations ------------------------------------------------------

/// The generation counter in `<spool>/control/epoch`. Missing or garbled
/// reads as 0 (a fresh spool, or one whose control file predates this
/// format) — recovery must start, not refuse, on a legacy spool.
std::uint64_t read_epoch(const std::string& spool);

/// Returns the current generation and durably writes generation + 1, so
/// the *next* start observes a higher number. The generation is the
/// `attempt` fed to the serve-tier fault sites: a storm plan with
/// max_attempt=N kills at most N+1 generations, then must let one finish.
std::uint64_t bump_epoch(const std::string& spool);

// --- admitted-history fingerprint -------------------------------------------

/// Chains one applied submission document into a client's running history
/// fingerprint (order-sensitive FNV over every admission-relevant field).
/// A recovered daemon replays the compacted history and must reproduce the
/// checkpointed fingerprint exactly — serde drift, reordering or a lost
/// document fails loudly instead of diverging silently.
std::uint64_t chain_submission(std::uint64_t fp, const Submission& doc);

// --- checkpoint / segment documents ------------------------------------------

/// Per-client recovery state at checkpoint time.
struct CheckpointClient {
  std::string name;
  // Hello echo, cross-checked against the journaled hello at recovery.
  std::uint64_t hello_jobs = 0;
  sim::Time hello_last_submit = 0;
  /// First not-yet-applied seq: every document with seq < next_seq has been
  /// applied and compacted into segment documents <= this checkpoint.
  std::uint64_t next_seq = 0;
  sim::Time watermark = -1;
  bool eof = false;
  std::uint64_t admitted_jobs = 0;
  std::uint64_t history_fp = 0;  ///< chain_submission over docs [0, next_seq)
};

struct Checkpoint {
  std::uint64_t seq = 0;
  /// Global committed watermark the det serve loop last advanced to.
  sim::Time committed = -1;
  std::uint64_t admitted = 0;  ///< jobs pushed into the pipeline
  std::uint64_t docs = 0;      ///< submission documents applied
  std::uint64_t clamped = 0;   ///< wall-mode late-arrival clamps (forensic)
  /// fnv1a_bytes over the serialized scenario config: a recovery with
  /// different scenario flags would deterministically diverge, so it is
  /// rejected up front.
  std::uint64_t scenario_checksum = 0;
  std::vector<CheckpointClient> clients;  ///< sorted by name (strictly)
  util::QuantileSketch sketch{0.01};  ///< the admission-latency sketch
};

std::string serialize_checkpoint(const Checkpoint& ckpt);
Checkpoint parse_checkpoint(std::string_view text);

/// The submissions checkpoint `seq` compacted out of the journal, in
/// (client, seq) order — replayed before the journal suffix at recovery.
struct Segment {
  std::uint64_t seq = 0;
  std::vector<Submission> docs;
};

std::string serialize_segment(const Segment& segment);
Segment parse_segment(std::string_view text);

// --- recovery scan -----------------------------------------------------------

/// Newest well-formed checkpoint in `dir`, scanning backward from the
/// highest sequence. A checkpoint that fails to parse (torn write, bit
/// rot) or whose embedded seq disagrees with its file name is counted in
/// `*skipped` and the scan falls back to the previous one — PR 6's
/// corrupt-document handling, applied to recovery state. nullopt when no
/// valid checkpoint exists (recover from the journal alone).
std::optional<Checkpoint> load_newest_checkpoint(const std::string& dir,
                                                 std::uint64_t* skipped);

}  // namespace ps::serve
