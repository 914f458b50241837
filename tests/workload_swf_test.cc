#include "workload/swf.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "swf_reference.h"
#include "workload/job_source.h"

namespace ps::workload::swf {
namespace {

// job# submit wait run alloc avgcpu mem reqproc reqtime reqmem status uid
// gid exe queue part prec think
constexpr const char* kSample = R"(; SWF header comment
; MaxProcs: 80640
1 0 5 120 32 -1 -1 32 3600 -1 1 101 -1 -1 -1 -1 -1 -1
2 60 -1 30 16 -1 -1 -1 600 -1 1 102 -1 -1 -1 -1 -1 -1
3 120 -1 0 8 -1 -1 8 300 -1 0 103 -1 -1 -1 -1 -1 -1
4 180 -1 45 64 -1 -1 64 -1 -1 5 104 -1 -1 -1 -1 -1 -1
)";

TEST(Swf, ParsesFields) {
  auto jobs = parse_string(kSample);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].id, 1);
  EXPECT_EQ(jobs[0].submit_time, sim::seconds(0));
  EXPECT_EQ(jobs[0].base_runtime, sim::seconds(120));
  EXPECT_EQ(jobs[0].requested_cores, 32);
  EXPECT_EQ(jobs[0].requested_walltime, sim::seconds(3600));
  EXPECT_EQ(jobs[0].user, 101);
}

TEST(Swf, RequestedCoresFallsBackToAllocated) {
  auto jobs = parse_string(kSample);
  EXPECT_EQ(jobs[1].requested_cores, 16);  // field 8 is -1, field 5 is 16
}

TEST(Swf, MissingRequestedTimeFallsBackToRuntime) {
  auto jobs = parse_string(kSample);
  EXPECT_EQ(jobs[3].requested_walltime, sim::seconds(45));
}

TEST(Swf, SkipFilters) {
  ParseOptions opts;
  opts.skip_zero_runtime = true;
  EXPECT_EQ(parse_string(kSample, opts).size(), 3u);  // job 3 dropped

  opts = {};
  opts.skip_failed_status = true;
  EXPECT_EQ(parse_string(kSample, opts).size(), 2u);  // jobs 3 (0) and 4 (5)

  opts = {};
  opts.max_jobs = 2;
  EXPECT_EQ(parse_string(kSample, opts).size(), 2u);
}

TEST(Swf, MalformedLineThrowsWithLineNumber) {
  EXPECT_THROW((void)parse_string("1 2 3\n"), std::runtime_error);
  EXPECT_THROW((void)parse_string("a b c d e f g h i j k l m n o p q r\n"),
               std::runtime_error);
}

TEST(Swf, OverflowReportsFieldAndLineInsteadOfTruncating) {
  // An int64-overflowing submit time must be an error naming field and
  // line — the old path silently routed it through a double.
  const char* line2_overflow =
      "1 10 -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"
      "2 99999999999999999999 -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n";
  try {
    (void)parse_string(line2_overflow);
    FAIL() << "overflow accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("field 2 out of range"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  // Exponent-form beyond int64 range is equally rejected, and so is NaN
  // (which would otherwise slip past both range bounds into a UB cast).
  EXPECT_THROW(
      (void)parse_string("1 1e200 -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse_string("1 nan -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"),
      std::runtime_error);
}

TEST(Swf, FractionalTimesAccepted) {
  auto jobs = parse_string(
      "1 10.5 -1 120.9 8 -1 -1 8 600 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].submit_time, sim::seconds(10));
  EXPECT_EQ(jobs[0].base_runtime, sim::seconds(120));
}

TEST(Swf, EmptyAndCommentOnlyInputs) {
  EXPECT_TRUE(parse_string("").empty());
  EXPECT_TRUE(parse_string("; nothing here\n\n").empty());
}

TEST(Swf, WriteReadRoundTrip) {
  auto jobs = parse_string(kSample);
  std::ostringstream out;
  write(out, jobs);
  auto reparsed = parse_string(out.str());
  ASSERT_EQ(reparsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(reparsed[i].id, jobs[i].id);
    EXPECT_EQ(reparsed[i].submit_time, jobs[i].submit_time);
    EXPECT_EQ(reparsed[i].base_runtime, jobs[i].base_runtime);
    EXPECT_EQ(reparsed[i].requested_cores, jobs[i].requested_cores);
    EXPECT_EQ(reparsed[i].requested_walltime, jobs[i].requested_walltime);
    EXPECT_EQ(reparsed[i].user, jobs[i].user);
  }
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW((void)load_file("/nonexistent/trace.swf"), std::runtime_error);
}

/// The message parse_string throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)parse_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Swf, TimeFieldsWhoseMillisecondsOverflowAreOutOfRange) {
  // 9999999999999999 s fits int64 but not as milliseconds: submit (2),
  // run time (4) and requested time (9) each report their own field.
  const std::string big = "9999999999999999";
  EXPECT_EQ(parse_error("1 " + big + " -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"),
            "swf: numeric field 2 out of range at line 1");
  EXPECT_EQ(parse_error("; header\n1 0 -1 " + big + " 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"),
            "swf: numeric field 4 out of range at line 2");
  EXPECT_EQ(parse_error("1 0 -1 60 8 -1 -1 8 " + big + " -1 1 1 -1 -1 -1 -1 -1 -1\n"),
            "swf: numeric field 9 out of range at line 1");
  // The same through the fallback decoder (a fractional token).
  EXPECT_EQ(parse_error("1 " + big + ".5 -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"),
            "swf: numeric field 2 out of range at line 1");
  // The largest representable second still parses; a negative time is
  // clamped to 0 as before, however large.
  const std::int64_t max_s = sim::kTimeMax / 1000;
  auto jobs = parse_string("1 " + std::to_string(max_s) + " -1 " + std::to_string(max_s) +
                           " 8 -1 -1 8 " + std::to_string(max_s) +
                           " -1 1 1 -1 -1 -1 -1 -1 -1\n"
                           "2 -" + big + " -1 -" + big + " 8 -1 -1 8 -" + big +
                           " -1 1 1 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].submit_time, sim::seconds(max_s));
  EXPECT_EQ(jobs[0].base_runtime, sim::seconds(max_s));
  EXPECT_EQ(jobs[0].requested_walltime, sim::seconds(max_s));
  EXPECT_EQ(jobs[1].submit_time, 0);
  EXPECT_EQ(jobs[1].base_runtime, 0);
  EXPECT_EQ(jobs[1].requested_walltime, sim::seconds(1));
  EXPECT_EQ(parse_error("1 " + std::to_string(max_s + 1) +
                        " -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"),
            "swf: numeric field 2 out of range at line 1");
}

// --- LineReader ----------------------------------------------------------------

std::string data_line(std::int64_t id, std::int64_t submit_s, char sep = ' ') {
  std::string line;
  const std::int64_t fields[18] = {id, submit_s, -1, 60 + id, 8, -1, -1, 8, 600,
                                   -1, 1,        id % 7, -1, -1, -1, -1, -1, -1};
  for (std::size_t k = 0; k < 18; ++k) {
    if (k > 0) line += sep;
    line += std::to_string(fields[k]);
  }
  return line;
}

std::vector<std::string> getline_lines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> reader_lines(const std::string& text, std::size_t* last_number) {
  std::istringstream in(text);
  LineReader reader(in);
  std::vector<std::string> lines;
  std::string_view line;
  while (reader.next(line)) lines.emplace_back(line);
  *last_number = reader.line_number();
  return lines;
}

/// A temporary file removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& contents) {
    path_ = ::testing::TempDir() + "swf_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".swf";
    std::ofstream out(path_, std::ios::binary);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_same_jobs(const std::vector<JobRequest>& actual,
                      const std::vector<JobRequest>& expected, const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << what << " job " << i;
    EXPECT_EQ(actual[i].submit_time, expected[i].submit_time) << what << " job " << i;
    EXPECT_EQ(actual[i].user, expected[i].user) << what << " job " << i;
    EXPECT_EQ(actual[i].requested_cores, expected[i].requested_cores) << what << " job " << i;
    EXPECT_EQ(actual[i].requested_walltime, expected[i].requested_walltime)
        << what << " job " << i;
    EXPECT_EQ(actual[i].base_runtime, expected[i].base_runtime) << what << " job " << i;
  }
}

struct EdgeCase {
  std::string name;
  std::string text;
  std::size_t jobs;
};

std::vector<EdgeCase> edge_cases() {
  std::vector<EdgeCase> cases;
  cases.push_back({"crlf", data_line(1, 0) + "\r\n" + data_line(2, 5) + "\r\n", 2});
  cases.push_back({"no trailing newline", data_line(1, 0) + "\n" + data_line(2, 5), 2});
  // One data line of ~150 KB (trailing extra fields are ignored), then a
  // comment line of 200 KB, each longer than a 64 KiB block.
  std::string wide = data_line(2, 5);
  for (int k = 0; k < 50000; ++k) wide += " -1";
  cases.push_back({"line longer than a block",
                   data_line(1, 0) + "\n" + wide + "\n; " + std::string(200000, 'x') + "\n" +
                       data_line(3, 9) + "\n",
                   3});
  cases.push_back({"blank and whitespace-only lines",
                   "\n" + data_line(1, 0) + "\n \t \n\r\n\v\f\n\n" + data_line(2, 5) + "\n\n",
                   2});
  cases.push_back({"vertical tab and form feed separators",
                   data_line(1, 0, '\v') + "\n" + data_line(2, 5, '\f') + "\n" +
                       "\f" + data_line(3, 9, '\t') + "\v\n",
                   3});
  cases.push_back({"header as the last line",
                   data_line(1, 0) + "\n" + data_line(2, 5) + "\n; MaxSubmitTime: 5", 2});
  cases.push_back({"empty input", "", 0});
  // Thousands of lines: many line ends fall across block boundaries.
  std::string many;
  for (int id = 1; id <= 3000; ++id) many += data_line(id, id / 3) + "\n";
  cases.push_back({"lines across block boundaries", many, 3000});
  return cases;
}

TEST(SwfLineReader, YieldsExactlyTheLinesGetlineYields) {
  for (const EdgeCase& c : edge_cases()) {
    std::size_t last_number = 0;
    const std::vector<std::string> lines = reader_lines(c.text, &last_number);
    EXPECT_EQ(lines, getline_lines(c.text)) << c.name;
    EXPECT_EQ(last_number, lines.size()) << c.name;
  }
}

TEST(SwfLineReader, EveryReaderDecodesTheSameRecords) {
  for (const EdgeCase& c : edge_cases()) {
    const std::vector<JobRequest> batch = parse_string(c.text);
    EXPECT_EQ(batch.size(), c.jobs) << c.name;
    TempFile file(c.text);
    expect_same_jobs(load_file(file.path()), batch, c.name + ": load_file");

    // The stream rebases, so it yields what rebase_submit_times makes of
    // the batch.
    std::vector<JobRequest> rebased = batch;
    rebase_submit_times(rebased);
    SwfStreamSource source(file.path());
    std::vector<JobRequest> streamed;
    sim::Time until = 0;
    while (source.next_chunk(until, streamed)) until += sim::seconds(2);
    expect_same_jobs(streamed, rebased, c.name + ": streamed");
    expect_same_jobs(materialize(source), rebased, c.name + ": rewound");
  }
}

// --- parse_line against the reference tokenizer ---------------------------------

/// A token for a used field: mostly plain integers, sometimes one of the
/// forms only the fallback decoder accepts (or rejects).
std::string random_token(std::mt19937_64& rng) {
  static const char* const kOdd[] = {
      "+5",    "-",     "--1",   "1.5",   "-2.75", "1e3",    "1E3",   "-1e2",
      "nan",   "NaN",   "inf",   "-inf",  "1e400", "0x10",   "1.",    ".5",
      "-0",    "00",    "1-",    "5a",    "a5",    "1,000",  "",      "9223372036854775807",
      "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
      "9223372036854775", "9223372036854776", "999999999999999999", "-999999999999999999",
      "1000000000000000000", "0000000000000000000000012", "9223372036854775.9",
      "1e18", "9.3e18", "-9.3e18", "1e-5"};
  std::uniform_int_distribution<int> kind(0, 9);
  switch (kind(rng)) {
    case 0:
      return kOdd[std::uniform_int_distribution<std::size_t>(0, std::size(kOdd) - 1)(rng)];
    case 1: {  // 17 to 25 digits
      std::string token = std::uniform_int_distribution<int>(0, 1)(rng) ? "-" : "";
      const int digits = std::uniform_int_distribution<int>(17, 25)(rng);
      for (int d = 0; d < digits; ++d) {
        token += static_cast<char>('0' + std::uniform_int_distribution<int>(d == 0, 9)(rng));
      }
      return token;
    }
    case 2:
      return "-1";
    default:
      return std::to_string(std::uniform_int_distribution<std::int64_t>(-50, 1'000'000)(rng));
  }
}

std::string random_line(std::mt19937_64& rng) {
  static const char kSeparators[] = {' ', ' ', ' ', '\t', '\v', '\f', '\r'};
  static const char kControl[] = {'\0', '\x01', '\x1f', '\x7f', '\x80', '\xff', '\n', ';'};
  std::uniform_int_distribution<int> percent(0, 99);
  int fields = 18;
  const int shape = percent(rng);
  if (shape < 5) fields = 17;
  else if (shape < 10) fields = 25;
  else if (shape < 12) fields = std::uniform_int_distribution<int>(0, 30)(rng);
  std::string line;
  if (percent(rng) < 10) line += kSeparators[percent(rng) % std::size(kSeparators)];
  if (percent(rng) < 3) line += ';';
  for (int k = 0; k < fields; ++k) {
    if (k > 0) {
      const int width = percent(rng) < 10 ? 2 : 1;
      for (int w = 0; w < width; ++w) {
        line += kSeparators[percent(rng) % std::size(kSeparators)];
      }
    }
    line += percent(rng) < 25 ? random_token(rng)
                              : std::to_string(std::uniform_int_distribution<int>(-1, 100000)(rng));
  }
  if (percent(rng) < 10) line += kSeparators[percent(rng) % std::size(kSeparators)];
  if (!line.empty() && percent(rng) < 5) {  // a control byte anywhere
    const auto at = std::uniform_int_distribution<std::size_t>(0, line.size() - 1)(rng);
    line[at] = kControl[percent(rng) % std::size(kControl)];
  }
  return line;
}

struct Outcome {
  bool data = false;
  Record record;
  std::string error;
};

template <typename Parse>
Outcome outcome(Parse parse, const std::string& line, std::size_t line_number) {
  Outcome out;
  out.record.job.app = "stale";
  try {
    out.data = parse(line, line_number, out.record);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

TEST(SwfParseLine, AgreesWithTheReferenceTokenizer) {
  std::mt19937_64 rng(20261019);
  std::size_t data_lines = 0;
  std::size_t errors = 0;
  for (std::size_t i = 1; i <= 40000; ++i) {
    const std::string line = random_line(rng);
    const Outcome fast = outcome(parse_line, line, i);
    const Outcome ref = outcome(reference::parse_line, line, i);
    ASSERT_EQ(fast.error, ref.error) << "line: " << line;
    ASSERT_EQ(fast.data, ref.data) << "line: " << line;
    if (!fast.error.empty()) {
      ++errors;
      continue;
    }
    if (!fast.data) continue;
    ++data_lines;
    const JobRequest& a = fast.record.job;
    const JobRequest& b = ref.record.job;
    ASSERT_EQ(a.id, b.id) << "line: " << line;
    ASSERT_EQ(a.submit_time, b.submit_time) << "line: " << line;
    ASSERT_EQ(a.user, b.user) << "line: " << line;
    ASSERT_EQ(a.requested_cores, b.requested_cores) << "line: " << line;
    ASSERT_EQ(a.requested_walltime, b.requested_walltime) << "line: " << line;
    ASSERT_EQ(a.base_runtime, b.base_runtime) << "line: " << line;
    ASSERT_EQ(a.app, b.app) << "line: " << line;
    ASSERT_EQ(fast.record.status, ref.record.status) << "line: " << line;
  }
  // The generator must exercise both outcomes in bulk.
  EXPECT_GT(data_lines, 10000u);
  EXPECT_GT(errors, 5000u);
}

}  // namespace
}  // namespace ps::workload::swf
