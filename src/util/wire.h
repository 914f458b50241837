// Versioned, deterministic text serialization — the wire format of every
// record that crosses a process boundary or sits in a spool: the
// distributed sweep's cells and results (dist/), the live service's hellos,
// submissions, status, checkpoints, segments, quarantine reasons and epoch
// file (serve/), telemetry snapshots (obs/) and the latency sketch a
// checkpoint nests (util/stats.h).
//
// Each record's format is written down exactly once, as a *field walk*:
//
//   template <class Io, class T>
//   void grid_meta(Io& io, T& meta) {
//     io.block("grid_meta", [&] {
//       io.u64("cells", meta.cells);
//       io.hex64("grid_checksum", meta.grid_checksum);
//     });
//   }
//
// Run with a Writer, `T` is deduced as `const GridMeta` and the walk emits
// the fields; run with a Reader, `T` is `GridMeta` and the same walk parses
// them back. Adding, removing or reordering a field means editing that one
// function and bumping kSerdeVersion. Safety checks that are not format
// (name validation, ordering invariants) stay in the serialize_*/parse_*
// entry points, around the walk.
//
// Design constraints, in order:
//   * **Bit-exact round-trips.** A parsed ScenarioResult must be
//     bit-identical to the one the worker computed, or the index-ordered
//     merge loses its byte-identity guarantee. Doubles are therefore
//     written as their IEEE-754 bit pattern in hex, never as decimal.
//   * **Deterministic output.** Every field is emitted, in a fixed order,
//     with no timestamps, hostnames or map-order dependence.
//   * **Loud failure on skew.** Every block carries a format version
//     (`begin <type> v<N>`), and the Reader demands the exact field
//     sequence the Writer emits — an unknown, missing, reordered or
//     duplicated field is a SerdeError with a line number, never a silent
//     default.
//   * **Hostile input is a SerdeError.** A list count larger than the bytes
//     left in the document, or an integer outside its field's own type, is
//     rejected before anything is allocated for it, so a parse allocates at
//     most in proportion to the document's size.
//
// The grammar is line-oriented: `begin <type> v<N>` ... `end <type>`
// around a block, `key <token>` per scalar, `key <rest of line>` per text
// field (whitespace significant), and `key <token> <token>...` per row —
// one small record packed onto one line, e.g. `window <f64> <start> ...`.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/seal.h"

namespace ps::util {

/// Parse/format failure: carries the 1-based line number and what was
/// expected vs found. Thrown on any version or field skew, on any hostile
/// count or out-of-range value, and by open_document on a bad seal — the
/// one error type for a bad document.
class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

/// Format version stamped on every block this revision emits. Bump when a
/// field is added, removed or reordered; parsers reject any other version.
/// v2: scenario_config grew submit_chunk (streamed-submission chunk).
/// v3: powercap_config dropped the offline-planner audit flag (the planner
///     has one selection path, checked by tests instead of a runtime knob).
/// v4: controller_stats dropped the batch-drain count (submit-time
///     attempts run inside Controller::submit, with no batch to count).
/// v5: serve_checkpoint nests the latency sketch as a qsketch block (it
///     was an opaque string), and telemetry is a block of its own.
inline constexpr int kSerdeVersion = 5;

/// Enums travel as lowercase tokens, not integers, so a renumbered enum in
/// a skewed binary is a parse error rather than a silently different value.
template <typename Enum>
struct EnumEntry {
  Enum value;
  const char* token;
};

/// 16-lowercase-hex-digit encoding of a uint64 — the wire form of both
/// IEEE-754 double bit patterns and fingerprints.
std::string hex64_token(std::uint64_t value);

/// The encoding half of every field walk: appends lines to a string.
class Writer {
 public:
  /// `begin <type> v<N>`, the fields `body` writes, `end <type>`.
  template <class Body>
  void block(std::string_view type, Body&& body) {
    open_block(type);
    body();
    close_block(type);
  }
  /// `key <token> <token>...`: the fields `body` writes become bare tokens
  /// on this one line (their keys name them in the walk only).
  template <class Body>
  void row(std::string_view key, Body&& body) {
    out_ += key;
    in_row_ = true;
    body();
    in_row_ = false;
    out_ += '\n';
  }

  template <class Int>
  void u64(std::string_view key, Int value) {
    static_assert(std::is_unsigned_v<Int> && !std::is_same_v<Int, bool>);
    put_decimal(key, value);
  }
  template <class Int>
  void i64(std::string_view key, Int value) {
    static_assert(std::is_signed_v<Int> && std::is_integral_v<Int>);
    put_decimal(key, value);
  }
  /// IEEE-754 bit pattern in hex (bit-exact round-trip).
  void f64(std::string_view key, double value);
  void boolean(std::string_view key, bool value);
  /// Rest of the line (may contain spaces, never a newline); a bare token
  /// inside a row.
  void text(std::string_view key, std::string_view value);
  void hex64(std::string_view key, std::uint64_t value);
  template <class Enum, std::size_t N>
  void enumeration(std::string_view key, Enum value,
                   const EnumEntry<Enum> (&table)[N]) {
    for (const EnumEntry<Enum>& entry : table) {
      if (entry.value == value) return put(key, entry.token);
    }
    fail("enum value outside the wire table");
  }
  /// `key 0|1`, then `item(*value)` when present.
  template <class T, class Item>
  void optional(std::string_view key, const std::optional<T>& value,
                Item&& item) {
    boolean(key, value.has_value());
    if (value) item(*value);
  }
  /// `key <count>`, then `item(element)` for each element.
  template <class Vec, class Item>
  void list(std::string_view key, const Vec& items, Item&& item) {
    u64(key, items.size());
    for (const auto& element : items) item(element);
  }

  /// Raw line: only for the per-job rows and the selection run-length row,
  /// which keep their own token codecs (dist/serde.cc).
  void line(std::string_view text);

  [[noreturn]] void fail(const std::string& message) const;
  std::string take() noexcept { return std::move(out_); }

 private:
  void open_block(std::string_view type);
  void close_block(std::string_view type);
  void put(std::string_view key, std::string_view token);
  template <class Int>
  void put_decimal(std::string_view key, Int value) {
    char digits[24];
    char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
    put(key, std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }

  std::string out_;
  bool in_row_ = false;
};

/// The decoding half of every field walk: a strict sequential reader over
/// one document. Every accessor names the field it expects; mismatches
/// throw SerdeError with the line number.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  template <class Body>
  void block(std::string_view type, Body&& body) {
    open_block(type);
    body();
    close_block(type);
  }
  template <class Body>
  void row(std::string_view key, Body&& body) {
    row_ = take(key);
    in_row_ = true;
    body();
    in_row_ = false;
    end_row(key);
  }

  template <class Int>
  void u64(std::string_view key, Int& value) {
    static_assert(std::is_unsigned_v<Int> && !std::is_same_v<Int, bool>);
    std::uint64_t wide = take_u64(key);
    if (!std::in_range<Int>(wide)) out_of_range(key);
    value = static_cast<Int>(wide);
  }
  template <class Int>
  void i64(std::string_view key, Int& value) {
    static_assert(std::is_signed_v<Int> && std::is_integral_v<Int>);
    std::int64_t wide = take_i64(key);
    if (!std::in_range<Int>(wide)) out_of_range(key);
    value = static_cast<Int>(wide);
  }
  void f64(std::string_view key, double& value);
  void boolean(std::string_view key, bool& value);
  void text(std::string_view key, std::string& value);
  void hex64(std::string_view key, std::uint64_t& value);
  template <class Enum, std::size_t N>
  void enumeration(std::string_view key, Enum& value,
                   const EnumEntry<Enum> (&table)[N]) {
    std::string_view token = take(key);
    for (const EnumEntry<Enum>& entry : table) {
      if (entry.token == token) {
        value = entry.value;
        return;
      }
    }
    fail("unknown enum token '" + std::string(token) + "'");
  }
  template <class T, class Item>
  void optional(std::string_view key, std::optional<T>& value, Item&& item) {
    bool present = false;
    boolean(key, present);
    value.reset();
    if (present) item(value.emplace());
  }
  template <class Vec, class Item>
  void list(std::string_view key, Vec& items, Item&& item) {
    std::uint64_t count = take_count(key);
    items.clear();
    // Reserve at most the bytes the document has left plus one page; a
    // longer list grows only as its items actually parse. A container
    // without reserve (a chunked store, a small inline buffer) just grows.
    if constexpr (requires { items.reserve(count); }) {
      items.reserve(std::min<std::uint64_t>(
          count, (remaining() + 4096) / sizeof(typename Vec::value_type)));
    }
    for (std::uint64_t i = 0; i < count; ++i) item(items.emplace_back());
  }

  /// Unparsed payload of `key ...` (the selection run-length row).
  std::string_view payload(std::string_view key) { return take_field(key); }

  /// True once only blank lines remain.
  bool at_end();
  /// Throws unless at_end(): a document is one record and nothing after.
  void expect_end();

  [[noreturn]] void fail(const std::string& message) const;

 private:
  void open_block(std::string_view type);
  void close_block(std::string_view type);
  void end_row(std::string_view key);
  std::string_view next_line();                       ///< throws at EOF
  std::string_view take_field(std::string_view key);  ///< payload after key
  std::string_view take(std::string_view key);  ///< field payload or row token
  std::uint64_t take_u64(std::string_view key);
  std::int64_t take_i64(std::string_view key);
  /// A list count, rejected when larger than the bytes left (every item
  /// takes at least one line).
  std::uint64_t take_count(std::string_view key);
  /// Unread bytes of the current row, or of the document outside a row.
  std::size_t remaining() const noexcept {
    return in_row_ ? row_.size() : text_.size() - pos_;
  }
  [[noreturn]] void out_of_range(std::string_view key) const;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_number_ = 0;
  bool in_row_ = false;
  std::string_view row_;  ///< unread tokens of the current row
};

// --- documents ---------------------------------------------------------------

/// Throws SerdeError unless `valid`: the safety checks an entry point runs
/// around a walk (names, ordering) fail like the walk itself.
void require(bool valid, const char* what);

/// One document is one walk over one value, sealed (util/seal.h) unless
/// told otherwise.
template <class T>
std::string encode(const T& value, void (*walk)(Writer&, const T&),
                   bool sealed = true) {
  Writer w;
  walk(w, value);
  return sealed ? seal_document(w.take()) : w.take();
}

template <class T>
T decode(std::string_view text, void (*walk)(Reader&, T&), bool sealed = true) {
  Reader r(sealed ? open_document(text) : text);
  T value{};
  walk(r, value);
  r.expect_end();
  return value;
}

}  // namespace ps::util
