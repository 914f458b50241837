// Pull-based workload sources for streaming trace replay.
//
// A JobSource hands the replay engine jobs in bounded, clock-keyed chunks:
// `next_chunk(until)` yields every job submitted up to `until` that has not
// been yielded yet, so the engine's resident footprint is O(largest chunk)
// instead of O(trace) — the difference between replaying the 400-job
// curie_mini slice and a multi-month SWF (ROADMAP "real-trace replay at
// scale"). core::run_scenario drives every replay through this interface
// (an in-memory vector is just a source whose first chunk is everything),
// so streamed and materialized replays share one submission path and are
// bit-identical by construction (docs/ARCHITECTURE.md, "Streaming replay").
//
// Contract:
//   * next_chunk(until) appends, in source order, every remaining job with
//     submit_time <= until. Consecutive calls must use nondecreasing
//     `until`. Jobs inside one chunk MAY be locally unsorted — the consumer
//     stable-sorts, so replay order is always (submit time, source order).
//     What a source must never do is emit a job at or before a previous
//     chunk's `until`: that submission time has already been replayed.
//   * last_submit_hint() bounds the replay horizon without consuming the
//     source; rewind() makes the source reusable (a ScenarioConfig holding
//     one can run again — but never share one source object across
//     concurrently running scenarios; it is stateful).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"
#include "workload/job_request.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

namespace ps::workload {

class JobSource {
 public:
  virtual ~JobSource() = default;

  /// Appends every not-yet-emitted job with submit_time <= until to `out`
  /// (see the ordering contract above). Returns true while jobs may remain
  /// past `until`, false once the source is exhausted.
  virtual bool next_chunk(sim::Time until, std::vector<JobRequest>& out) = 0;

  /// Greatest submit time the source will emit (or a tight upper bound),
  /// without consuming it; < 0 when unknowable. The replay engine derives
  /// the horizon from this instead of materializing the trace.
  virtual sim::Time last_submit_hint() = 0;

  /// Restarts the source from its first job.
  virtual void rewind() = 0;
};

/// Drains a source completely (testing / tooling convenience; this is the
/// O(trace) operation streaming exists to avoid — do not use in replays).
std::vector<JobRequest> materialize(JobSource& source);

/// In-memory jobs behind the JobSource interface: keeps trace_jobs,
/// generate() and every existing vector-shaped workload on the single
/// streaming submission path. The vector need not be sorted by submit time;
/// a stable sort by submit time is applied once at construction (preserving
/// vector order among ties — the replay order the materialized path always
/// used).
class VectorJobSource final : public JobSource {
 public:
  explicit VectorJobSource(std::vector<JobRequest> jobs);

  bool next_chunk(sim::Time until, std::vector<JobRequest>& out) override;
  sim::Time last_submit_hint() override;
  void rewind() override { cursor_ = 0; }

 private:
  std::vector<JobRequest> jobs_;  // stably sorted by submit_time
  std::size_t cursor_ = 0;
};

/// Streaming SWF reader: one buffered file handle, one line parsed at a
/// time (workload::swf::parse_line), one job of lookahead — resident memory
/// is independent of trace length. Submit times are rebased so the first
/// job lands at t=0 (matching the swf::rebase_submit_times prelude of the
/// materialized path, which for a submit-sorted trace subtracts exactly the
/// first job's submit time). A trace whose submit times regress below an
/// already-replayed chunk boundary cannot be streamed and throws; SWF
/// traces are submit-sorted in practice (the archive's cleaned traces are).
///
/// last_submit_hint() comes from the "; MaxSubmitTime: <s>" header when
/// present (our writer emits it) AND no option truncates the job set;
/// otherwise from a one-pass O(1)-memory pre-scan of the file, which
/// honors max_jobs and the filters and also fixes the rebase offset
/// exactly, so an unsorted-head trace still rebases like the materialized
/// path. The common replay setup (skip_zero_runtime on, to match the
/// golden-fenced materialized configs) therefore pays one extra read-only
/// pass per replay — measured ~12 ms on a 50k-line trace, cached across
/// rewind() — which is the price of the hint being *exactly* the
/// materialized horizon rather than a whole-file bound. A trusted header
/// that OVER-reports acts as the contract's "tight upper bound": legal,
/// but bit-parity with a materialized load of the same file then needs an
/// exact header (files from swf::write) or an active filter forcing the
/// scan. A header that UNDER-reports past the drain margin loses jobs —
/// run_scenario detects that after the replay and fails loudly.
class SwfStreamSource final : public JobSource {
 public:
  struct Options {
    swf::ParseOptions parse;  ///< same filters as the batch parser
    bool rebase = true;       ///< shift submit times so the trace starts at 0
  };

  explicit SwfStreamSource(std::string path) : SwfStreamSource(std::move(path), Options{}) {}
  SwfStreamSource(std::string path, Options options);

  bool next_chunk(sim::Time until, std::vector<JobRequest>& out) override;
  sim::Time last_submit_hint() override;
  void rewind() override;

 private:
  void ensure_open();
  /// Reads forward to the next job passing the filters; false at EOF (or
  /// once max_jobs have been read).
  bool read_next(JobRequest& out);
  /// Loads the raw (unrebased) lookahead slot; false once exhausted. Does
  /// not commit the rebase offset, so last_submit_hint can still anchor it
  /// at the pre-scanned minimum.
  bool load_raw();
  /// load_raw plus rebase-offset commitment and the monotonicity check.
  bool fill_pending();
  /// Rebased submit time of the lookahead job (requires a loaded slot).
  sim::Time pending_submit() const;
  void prescan();  // fills hint_ (and base_ if unset) in one exact pass

  std::string path_;
  Options options_;

  std::ifstream in_;
  bool open_ = false;
  std::string line_;
  std::size_t line_number_ = 0;
  std::int64_t read_count_ = 0;              // jobs read (max_jobs accounting)
  std::optional<JobRequest> raw_pending_;    // lookahead, submit still raw
  bool exhausted_ = false;
  sim::Time floor_ = -1;                     // previous chunk's `until`
  std::optional<sim::Time> base_;            // rebase offset (raw ms)
  std::optional<sim::Time> header_hint_s_;   // raw MaxSubmitTime header [s]
  std::optional<sim::Time> hint_;            // resolved, rebased hint [ms]
};

/// Synthetic workload as a stream: generates jobs window by window (a
/// fixed internal generation window, independent of the chunk sizes the
/// consumer asks for), so arbitrarily long synthetic traces replay in
/// O(window) memory. Deterministic: each window draws from an Rng seeded by
/// (seed, window index), so the job stream is a pure function of
/// (params, seed, gen_window) — the `make_curie_month` tool relies on this
/// to regenerate byte-identical SWF files.
///
/// Note this is a different (streamable) draw sequence from generate();
/// the two are separate deterministic workload families.
class ChunkedSyntheticSource final : public JobSource {
 public:
  ChunkedSyntheticSource(GeneratorParams params, std::uint64_t seed,
                         sim::Duration gen_window = sim::hours(1));

  bool next_chunk(sim::Time until, std::vector<JobRequest>& out) override;
  /// Upper bound: arrivals are drawn in [0, span).
  sim::Time last_submit_hint() override { return params_.span; }
  void rewind() override;

 private:
  /// Jobs of window k (submit times in [k*w, min((k+1)*w, span))), sorted
  /// by submit time, ids globally consecutive.
  void generate_window(std::int64_t k, std::vector<JobRequest>& out) const;
  std::int64_t window_count() const;
  /// Cumulative arrival count strictly before window k (excludes backlog).
  std::int64_t arrivals_before(std::int64_t k) const;

  GeneratorParams params_;
  std::uint64_t seed_;
  sim::Duration gen_window_;
  std::int64_t backlog_ = 0;
  std::int64_t arrivals_ = 0;
  util::WeightedIndex classes_;
  util::WeightedIndex users_;
  double mu_ = 0.0;

  std::int64_t next_window_ = 0;
  std::vector<JobRequest> carry_;  // generated but beyond the last `until`
  std::size_t carry_cursor_ = 0;
};

}  // namespace ps::workload
