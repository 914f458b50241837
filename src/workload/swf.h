// Standard Workload Format (SWF v2.2) reader/writer.
//
// The paper replays the public Curie trace from the Parallel Workloads
// Archive, which is distributed in SWF. This parser lets the harness run on
// the real trace when available; the synthetic generator (synthetic.h)
// replaces it offline. SWF reference: Feitelson et al., "Parallel workloads
// archive: standard workload format".
//
// Fields used (1-based SWF columns):
//   1 job number, 2 submit [s], 4 run time [s], 5 allocated processors,
//   8 requested processors, 9 requested time [s], 11 status, 12 user id.
// Missing values (-1) fall back sensibly (requested := allocated, runtime 0).
//
// Every SWF consumer reads through the same two pieces. LineReader splits a
// stream into lines from 64 KiB blocks with memchr, with no per-line
// std::getline or std::string. parse_line tokenizes one line in place,
// eight bytes at a time where the line allows, and decodes each used field
// that is a plain `[-]digits` token (at most 18 digits) in the same scan.
// Any other token (fractions, exponents, '+', overlong digit runs) goes
// through std::from_chars, so its value and its error are those of the
// general path. parse(), for_each_record and the streaming
// SwfStreamSource (job_source.h) share both, so a trace parses identically
// whether it is materialized, pre-scanned or streamed.
#pragma once

#include <cstddef>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "workload/job_request.h"

namespace ps::workload::swf {

struct ParseOptions {
  bool skip_zero_runtime = false;   ///< drop jobs that ran 0 s
  bool skip_failed_status = false;  ///< drop status 0 (failed) / 5 (cancelled)
  std::int64_t max_jobs = 0;        ///< 0 = unlimited
};

/// One decoded SWF data line, before ParseOptions filtering.
struct Record {
  JobRequest job;
  std::int64_t status = 1;  ///< SWF field 11 (-1 when absent)
};

/// Splits a stream into lines. Reads 64 KiB blocks and finds line ends
/// with memchr; a line longer than the buffer grows it. A line is the
/// bytes before its '\n' (a '\r' before it stays, parse_line treats it as
/// whitespace); a last line without '\n' still counts, and input ending in
/// '\n' has no empty last line -- exactly the lines std::getline yields.
class LineReader {
 public:
  explicit LineReader(std::istream& in);

  /// The next line, valid until the following call; false at end of input.
  bool next(std::string_view& line);
  /// 1-based number of the line next() returned last.
  std::size_t line_number() const { return line_number_; }

 private:
  /// Moves the unfinished line to the front of the buffer (growing it when
  /// the line fills it) and reads the next block behind it.
  void refill();

  std::istream* in_;
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_;
  std::size_t pos_ = 0;  // start of the unread bytes
  std::size_t end_ = 0;  // end of the bytes read so far
  bool eof_ = false;
  std::size_t line_number_ = 0;
};

/// Opens a trace file; throws std::runtime_error when unreadable.
std::ifstream open(const std::string& path);

/// Decodes one line. Returns false for comment (';') and blank lines.
/// Malformed lines throw std::runtime_error naming `line_number`; a value
/// that overflows int64, or a time field whose milliseconds would, reports
/// "out of range" (also with the line), it is never silently truncated.
bool parse_line(std::string_view line, std::size_t line_number, Record& out);

/// True when `record` passes the ParseOptions filters.
bool keep_record(const Record& record, const ParseOptions& options);

/// Streams every record that passes `options` to `fn`, stopping after
/// max_jobs kept records — the single definition of the filter/truncation
/// semantics, shared by parse() and SwfStreamSource's pre-scan so the two
/// can never disagree about which jobs a trace contains. A template (not
/// std::function): the callback must inline — parse() is a gated kernel
/// and an opaque call per line costs ~30 % on it.
template <typename Fn>
void for_each_record(std::istream& in, const ParseOptions& options, Fn&& fn) {
  LineReader lines(in);
  std::string_view line;
  std::int64_t kept = 0;
  Record record;
  while (lines.next(line)) {
    if (!parse_line(line, lines.line_number(), record)) continue;
    if (!keep_record(record, options)) continue;
    fn(record);
    ++kept;
    if (options.max_jobs > 0 && kept >= options.max_jobs) break;
  }
}

/// Parses SWF text. Comment/header lines start with ';'. Malformed data
/// lines throw std::runtime_error with the line number.
std::vector<JobRequest> parse(std::istream& in, const ParseOptions& options = {});

/// Convenience: parse from a string.
std::vector<JobRequest> parse_string(const std::string& text,
                                     const ParseOptions& options = {});

/// Loads a trace file; throws std::runtime_error when unreadable.
std::vector<JobRequest> load_file(const std::string& path,
                                  const ParseOptions& options = {});

/// Shifts submit times so the earliest becomes 0 (SWF does not require
/// submit-time order, so the minimum is taken over all jobs). Returns the
/// largest rebased submit time — the natural replay-horizon anchor. The
/// standard prelude between load_file and ScenarioConfig::trace_jobs.
sim::Time rebase_submit_times(std::vector<JobRequest>& jobs);

/// Header comment carrying the trace's largest submit time in seconds
/// ("; MaxSubmitTime: <s>"). write() emits it so SwfStreamSource can bound
/// a replay horizon without a pre-scan; foreign traces without it fall back
/// to a one-pass scan (see JobSource::last_submit_hint).
inline constexpr std::string_view kMaxSubmitHeader = "MaxSubmitTime:";

/// Writes jobs back out as SWF (fields we do not model are -1), prefixed
/// with a MaxSubmitTime header.
void write(std::ostream& out, const std::vector<JobRequest>& jobs);

}  // namespace ps::workload::swf
