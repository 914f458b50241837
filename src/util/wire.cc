#include "util/wire.h"

#include <bit>
#include <cinttypes>

#include "util/strings.h"

namespace ps::util {

namespace {

/// `v<kSerdeVersion>`, the last token of every `begin` line.
const std::string& version_token() {
  static const std::string token = strings::format("v%d", kSerdeVersion);
  return token;
}

bool consume(std::string_view& text, std::string_view prefix) {
  if (text.substr(0, prefix.size()) != prefix) return false;
  text.remove_prefix(prefix.size());
  return true;
}

}  // namespace

std::string hex64_token(std::uint64_t value) {
  return strings::format("%016" PRIx64, value);
}

// --- Writer ------------------------------------------------------------------

void Writer::open_block(std::string_view type) {
  out_ += "begin ";
  out_ += type;
  out_ += ' ';
  out_ += version_token();
  out_ += '\n';
}

void Writer::close_block(std::string_view type) {
  out_ += "end ";
  out_ += type;
  out_ += '\n';
}

void Writer::put(std::string_view key, std::string_view token) {
  if (!in_row_) out_ += key;
  out_ += ' ';
  out_ += token;
  if (!in_row_) out_ += '\n';
}

void Writer::f64(std::string_view key, double value) {
  // IEEE-754 bit pattern: the only text encoding that round-trips every
  // double (including -0.0, denormals, NaN payloads) bit-exactly.
  hex64(key, std::bit_cast<std::uint64_t>(value));
}

void Writer::boolean(std::string_view key, bool value) {
  put(key, value ? "1" : "0");
}

void Writer::text(std::string_view key, std::string_view value) {
  if (value.find('\n') != std::string_view::npos) {
    fail("string field contains a newline");
  }
  if (in_row_ && (value.empty() || value.find(' ') != std::string_view::npos)) {
    fail("row token is empty or contains a space");
  }
  put(key, value);
}

void Writer::hex64(std::string_view key, std::uint64_t value) {
  put(key, hex64_token(value));
}

void Writer::line(std::string_view text) {
  out_ += text;
  out_ += '\n';
}

void Writer::fail(const std::string& message) const {
  throw SerdeError("serde: " + message);
}

// --- Reader ------------------------------------------------------------------

std::string_view Reader::next_line() {
  if (pos_ >= text_.size()) fail("unexpected end of document");
  std::size_t eol = text_.find('\n', pos_);
  if (eol == std::string_view::npos) eol = text_.size();
  std::string_view line = text_.substr(pos_, eol - pos_);
  pos_ = eol < text_.size() ? eol + 1 : eol;
  ++line_number_;
  return line;
}

void Reader::fail(const std::string& message) const {
  throw SerdeError(strings::format("serde: line %zu: %s", line_number_,
                                   message.c_str()));
}

std::string_view Reader::take_field(std::string_view key) {
  std::string_view line = next_line();
  if (line.size() < key.size() || line.substr(0, key.size()) != key ||
      (line.size() > key.size() && line[key.size()] != ' ')) {
    fail("expected field '" + std::string(key) + "', found '" +
         std::string(line.substr(0, 40)) + "'");
  }
  return line.size() > key.size() ? line.substr(key.size() + 1) : std::string_view{};
}

std::string_view Reader::take(std::string_view key) {
  if (!in_row_) return take_field(key);
  while (!row_.empty() && row_.front() == ' ') row_.remove_prefix(1);
  if (row_.empty()) fail("row is missing field '" + std::string(key) + "'");
  std::size_t end = std::min(row_.find(' '), row_.size());
  std::string_view token = row_.substr(0, end);
  row_.remove_prefix(end);
  return token;
}

void Reader::end_row(std::string_view key) {
  if (row_.find_first_not_of(' ') != std::string_view::npos) {
    fail("row '" + std::string(key) + "' has trailing tokens");
  }
}

void Reader::open_block(std::string_view type) {
  std::string_view rest = next_line();
  if (!consume(rest, "begin ") || !consume(rest, type) || !consume(rest, " ")) {
    fail("expected 'begin " + std::string(type) + " " + version_token() + "'");
  }
  if (rest != version_token()) {
    fail("version skew: block '" + std::string(type) + "' is " +
         std::string(rest) + ", this binary speaks " + version_token());
  }
}

void Reader::close_block(std::string_view type) {
  std::string_view rest = next_line();
  if (!consume(rest, "end ") || rest != type) {
    fail("expected 'end " + std::string(type) +
         "' (unknown or out-of-order field?)");
  }
}

std::uint64_t Reader::take_u64(std::string_view key) {
  std::string_view token = take(key);
  std::optional<std::uint64_t> value = strings::parse_u64(token);
  if (!value) fail("malformed unsigned integer '" + std::string(token) + "'");
  return *value;
}

std::int64_t Reader::take_i64(std::string_view key) {
  std::string_view token = take(key);
  std::optional<std::int64_t> value = strings::parse_i64(token);
  if (!value) fail("malformed integer '" + std::string(token) + "'");
  return *value;
}

std::uint64_t Reader::take_count(std::string_view key) {
  std::uint64_t count = take_u64(key);
  if (count > remaining()) {
    fail(strings::format("'%.*s' count %" PRIu64
                         " exceeds the %zu bytes left in the document",
                         static_cast<int>(key.size()), key.data(), count,
                         remaining()));
  }
  return count;
}

void Reader::out_of_range(std::string_view key) const {
  fail("value of '" + std::string(key) + "' is out of range for its type");
}

void Reader::f64(std::string_view key, double& value) {
  std::uint64_t bits = 0;
  hex64(key, bits);
  value = std::bit_cast<double>(bits);
}

void Reader::boolean(std::string_view key, bool& value) {
  std::string_view token = take(key);
  if (token != "0" && token != "1") fail("malformed bool (want 0 or 1)");
  value = token == "1";
}

void Reader::text(std::string_view key, std::string& value) {
  value.assign(take(key));
}

void Reader::hex64(std::string_view key, std::uint64_t& value) {
  std::string_view token = take(key);
  if (token.size() != 16 || token.find_first_not_of("0123456789abcdef") !=
                                std::string_view::npos) {
    fail("malformed hex64 (want 16 lowercase hex digits)");
  }
  value = *strings::parse_u64(token, 16);
}

bool Reader::at_end() {
  // Skip a trailing run of blank lines (files often end with one newline).
  while (pos_ < text_.size()) {
    std::size_t eol = text_.find('\n', pos_);
    if (eol == std::string_view::npos) eol = text_.size();
    if (!strings::trim(text_.substr(pos_, eol - pos_)).empty()) return false;
    pos_ = eol < text_.size() ? eol + 1 : eol;
    ++line_number_;
  }
  return true;
}

void Reader::expect_end() {
  if (!at_end()) fail("trailing content after the document");
}

void require(bool valid, const char* what) {
  if (!valid) throw SerdeError(std::string("serde: ") + what);
}

}  // namespace ps::util
