// The spool documents exchanged between the distributed-sweep driver and
// its workers, built from the scenario walks (dist/serde.h):
//
//   * **cell grid** — a whole sweep as one document (the driver CLI input):
//     index-implicit list of scenario_config blocks.
//   * **shard** — the unit of work a worker claims: a subset of cells, each
//     carrying its *global* grid index so the merge is index-ordered no
//     matter how the grid was partitioned.
//   * **shard results** — what a worker publishes: one (index, fingerprint,
//     result) record per cell. The fingerprint is computed by the worker
//     over its in-memory result *before* serialization; the driver
//     recomputes it after parsing, so any serde infidelity, truncation or
//     version skew is caught at merge time.
//   * **manifest** — index-ordered fingerprints only; the golden artifact a
//     driver can verify a re-run against (e.g. the committed Fig-8 grid).
//   * **grid meta** — pinned at the spool root by the driver: shard count
//     and a checksum of the serialized grid, so `--resume` can only ever
//     continue the grid the spool was created for, with the partition it
//     was created with.
//
// All documents inherit the serde guarantees: versioned blocks, strict
// field order, deterministic bytes — and every one is *sealed*: a trailing
// `checksum <fnv1a-64>` line over the body (util::fnv1a_bytes, the same
// hash family as the result fingerprints) makes a torn, truncated or
// bit-flipped file a loud parse failure the driver treats as a retriable
// worker fault, never as driver state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/serde.h"

namespace ps::dist {

/// A cell with its position in the full sweep grid.
struct IndexedCell {
  std::uint64_t index = 0;
  core::ScenarioConfig config;
};

/// One completed cell: the worker's fingerprint over `result` plus the
/// result itself.
struct CellRecord {
  std::uint64_t index = 0;
  std::uint64_t fingerprint = 0;
  core::ScenarioResult result;
};

struct Shard {
  std::uint64_t id = 0;
  std::vector<IndexedCell> cells;
};

struct ShardResults {
  std::uint64_t id = 0;
  std::vector<CellRecord> records;
};

std::string serialize_cell_grid(const std::vector<core::ScenarioConfig>& cells);
std::vector<core::ScenarioConfig> parse_cell_grid(std::string_view text);

std::string serialize_shard(const Shard& shard);
Shard parse_shard(std::string_view text);

std::string serialize_shard_results(const ShardResults& results);
ShardResults parse_shard_results(std::string_view text);

std::string serialize_manifest(const std::vector<std::uint64_t>& fingerprints);
std::vector<std::uint64_t> parse_manifest(std::string_view text);

/// Spool-root pin for `--resume`: the partition geometry plus a checksum
/// of the serialized cell grid the spool was created for.
struct GridMeta {
  std::uint64_t cells = 0;
  std::uint64_t shards = 0;
  std::uint64_t grid_checksum = 0;  ///< util::fnv1a_bytes over the grid doc
};

std::string serialize_grid_meta(const GridMeta& meta);
GridMeta parse_grid_meta(std::string_view text);

/// Field walk of one completed cell, shared by the shard-results document
/// and `ps-sweep drive`'s output (util/wire.h explains the walk idiom).
template <class Io, class T>
void cell_record(Io& io, T& record);

// --- spool layout ------------------------------------------------------------
//
// Every per-shard file name carries the shard's *fencing token* — the
// attempt number, bumped by the driver each time the shard is reclaimed.
// A worker publishes under the token baked into the claim it won, so a
// zombie holder of a reclaimed shard can only ever produce a stale-token
// file the driver discards; it can never race the current attempt.
//
// <spool>/grid.meta                            partition pin (resume)
// <spool>/cells/shard-<id>.t<token>.shard      pending work, claimable
// <spool>/claimed/<shard file>.<pid>           claimed by one worker
// <spool>/claimed/shard-<id>.t<token>.hb       heartbeat, renewed by holder
// <spool>/results/shard-<id>.t<token>.results  published results

std::string spool_cells_dir(const std::string& spool);
std::string spool_claimed_dir(const std::string& spool);
std::string spool_results_dir(const std::string& spool);
std::string spool_grid_meta_path(const std::string& spool);
std::string shard_file_name(std::uint64_t shard_id, std::uint64_t token);
std::string results_file_name(std::uint64_t shard_id, std::uint64_t token);
std::string heartbeat_file_name(std::uint64_t shard_id, std::uint64_t token);

/// (shard id, fencing token) decoded from any of the spool file names
/// above — claim names may carry a trailing `.<pid>`, retrieved via
/// parse_claim_pid. nullopt for foreign files (tmp litter etc.).
struct SpoolName {
  std::uint64_t id = 0;
  std::uint64_t token = 0;
};
std::optional<SpoolName> parse_spool_name(std::string_view name);

/// The `<pid>` suffix of a claim file name, or nullopt when malformed.
std::optional<std::int64_t> parse_claim_pid(std::string_view name);

// --- heartbeat lease ---------------------------------------------------------
//
// The single-line heartbeat document: `hb <seq> <pid>`. The sequence is
// monotonic per claim; the driver watches for *change*, not absolute time,
// so worker and driver clocks never need to agree.

struct Heartbeat {
  std::uint64_t seq = 0;
  std::int64_t pid = 0;
};

std::string serialize_heartbeat(std::uint64_t seq, std::int64_t pid);

/// Lenient parse: nullopt on any malformation (a garbled heartbeat simply
/// counts as "not renewed", which is the conservative reading).
std::optional<Heartbeat> parse_heartbeat(std::string_view text);

}  // namespace ps::dist
