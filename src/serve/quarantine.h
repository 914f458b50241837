// Poison-document quarantine for the live service (serve/server.h).
//
// A submission (or hello) that fails seal/parse/sequence validation — or
// any document from a tenant that crossed its poison threshold — must not
// wedge the ingest thread (the pre-quarantine behavior: the parse
// exception killed ingestion and the daemon with it) and must not be
// silently deleted (an operator debugging a hostile or buggy client needs
// the evidence). Instead the document is *moved atomically* into
//
//   <spool>/quarantine/q<generation>-<ordinal06>-<original-name>
//
// with a sealed reason record next to it (`<same-name>.reason`), and
// counted. The rename is the same single-filesystem atomic move every
// other spool transition uses, so a SIGKILL mid-quarantine leaves either
// the original file or the quarantined one — never neither, never both.
//
// Reason records double as **tombstones** for crash recovery: a record
// with `consumed 1` marks a sequence number the server consumed without
// chaining into the client's history fingerprint (e.g. a late-jobs
// document whose payload was rejected but whose watermark/eof metadata
// applied). Recovery replays the journal *around* those gaps by consuming
// tombstoned seqs instead of deadlocking on them — the "recovery replays
// cleanly around quarantined entries" contract.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace ps::serve {

std::string quarantine_dir(const std::string& spool);

/// Machine-readable reason taxonomy (single tokens; they travel through
/// telemetry labels and shell greps). The free-text detail rides in
/// `detail`.
///   parse_failure      — seal/serde rejected the document bytes
///   duplicate          — seq (or hello) already journaled/applied
///   seq_replayed       — submission seq below the client's next_seq
///   doc_after_eof      — submission after the client's eof document
///   watermark_regressed— watermark below the client's previous one
///   late_jobs          — det-mode payload at/below the committed clock
///                        (a lie_watermark victim); metadata applied,
///                        payload rejected, seq consumed
///   tenant_poisoned    — tenant crossed the poison threshold; the
///                        document was abandoned with its tenant
struct QuarantineReason {
  std::string client;          ///< spool client name ("?" when unparsable)
  std::int64_t seq = -1;       ///< submission seq; -1 for hello/unknown
  std::string kind = "submission";  ///< hello | submission | unknown
  std::string reason;          ///< taxonomy token above
  std::string detail;          ///< free text (exception message etc.)
  bool consumed = false;       ///< tombstone: seq consumed without chaining
  std::uint64_t generation = 0;///< daemon epoch that quarantined it
  std::uint64_t jobs = 0;      ///< payload jobs (0 when unparsable)
  std::int64_t wall_ns = 0;    ///< CLOCK_MONOTONIC at quarantine time
};

std::string serialize_quarantine_reason(const QuarantineReason& reason);
QuarantineReason parse_quarantine_reason(std::string_view text);

/// File name a quarantined document lands under. The (generation,
/// ordinal) prefix keeps repeat offenders distinct: a client can publish
/// poison under the same inbox name any number of times and every
/// instance is preserved.
std::string quarantine_file_name(std::uint64_t generation,
                                 std::uint64_t ordinal,
                                 std::string_view original_name);

/// Recovery sweep: parses every sealed `.reason` record in the quarantine
/// directory and returns the consumed-submission tombstones as
/// client -> set of consumed seqs. Unsealed/corrupt reason records fail
/// loudly — quarantine metadata is written durably by the server itself,
/// so damage there is real corruption, not hostile input.
std::map<std::string, std::set<std::uint64_t>> load_quarantine_tombstones(
    const std::string& spool);

}  // namespace ps::serve
