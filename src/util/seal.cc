#include "util/seal.h"

#include <cinttypes>

#include "util/strings.h"
#include "util/wire.h"

namespace ps::util {

namespace {

constexpr std::string_view kChecksumKey = "checksum ";

}  // namespace

std::string seal_document(std::string body) {
  std::uint64_t digest = fnv1a_bytes(body);
  body.append(kChecksumKey);
  body.append(hex64_token(digest));
  body.push_back('\n');
  return body;
}

std::string_view open_document(std::string_view text) {
  // The seal is the final line: `checksum <16 hex digits>\n`.
  constexpr std::size_t kSealLength = 9 + 16 + 1;  // key + digest + newline
  if (text.size() < kSealLength || text.back() != '\n') {
    throw SerdeError("document is unsealed or truncated (no checksum line)");
  }
  std::size_t seal_start = text.size() - kSealLength;
  if (text.substr(seal_start, kChecksumKey.size()) != kChecksumKey ||
      (seal_start > 0 && text[seal_start - 1] != '\n')) {
    throw SerdeError("document is unsealed or truncated (no checksum line)");
  }
  std::string_view body = text.substr(0, seal_start);
  std::string_view digest_token = text.substr(seal_start + kChecksumKey.size(), 16);
  std::uint64_t expected = 0;
  for (char c : digest_token) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else throw SerdeError("document checksum line is malformed");
    expected = expected << 4 | static_cast<std::uint64_t>(digit);
  }
  std::uint64_t actual = fnv1a_bytes(body);
  if (actual != expected) {
    throw SerdeError(strings::format(
        "document checksum mismatch: body %016" PRIx64 ", sealed %016" PRIx64
        " (torn write or bit rot)",
        actual, expected));
  }
  return body;
}

}  // namespace ps::util
