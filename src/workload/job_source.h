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

/// Streaming SWF reader: one file read in 64 KiB blocks through
/// swf::RecordReader, one job of lookahead, so resident memory is
/// independent of trace length.
///
/// Before the first job or hint it makes one O(1)-memory pre-scan of the
/// file through the same reader. The scan sets the rebase offset to the
/// minimum kept submit time and the hint to the maximum minus the minimum:
/// exactly what swf::rebase_submit_times does and returns for the
/// materialized path, under the same filters and max_jobs. So a streamed
/// replay equals the materialized one on any trace, whether or not its
/// first line is its earliest submission. The scan is kept across
/// rewind(), so a config that runs again pays it once. Header comments
/// are never read for either value.
///
/// A trace whose submit times regress below an already-replayed chunk
/// boundary cannot be streamed and throws; SWF traces are submit-sorted in
/// practice (the archive's cleaned traces are).
class SwfStreamSource final : public JobSource {
 public:
  struct Options {
    swf::ParseOptions parse;  ///< same filters as the batch parser
  };

  explicit SwfStreamSource(std::string path) : SwfStreamSource(std::move(path), Options{}) {}
  SwfStreamSource(std::string path, Options options);
  // The record reader points at in_.
  SwfStreamSource(const SwfStreamSource&) = delete;
  SwfStreamSource& operator=(const SwfStreamSource&) = delete;

  bool next_chunk(sim::Time until, std::vector<JobRequest>& out) override;
  sim::Time last_submit_hint() override;
  void rewind() override;

 private:
  void scan();  // sets base_ and hint_ once, in one exact pass
  /// Reads the next kept job, rebased, into the lookahead slot (clears
  /// has_pending_ at the end). Throws when it falls at or below the
  /// previous chunk's `until`.
  void advance();

  std::string path_;
  Options options_;

  bool scanned_ = false;
  sim::Time base_ = 0;  // rebase offset: the minimum kept submit time
  sim::Time hint_ = 0;  // the maximum kept submit time minus base_

  std::ifstream in_;
  std::optional<swf::RecordReader> records_;  // engaged while in_ is open
  swf::Record pending_;                       // lookahead, valid when has_pending_
  bool has_pending_ = false;
  sim::Time floor_ = -1;                      // previous chunk's `until`
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
