// FNV-1a hashing and the sealed-document convention — the one checksum
// family of the whole system. Every spool tier shares this single
// implementation: the distributed-sweep documents (dist/protocol), the
// live-service wire documents, the ps-serve write-ahead journal /
// checkpoint documents (serve/journal) and the telemetry snapshots
// (obs/registry) are all sealed and verified by exactly this code.
//
// A *sealed* document is its body plus one trailing line:
//
//   checksum <16 lowercase hex digits>\n
//
// where the digest is FNV-1a over every byte of the body. Sealing turns a
// torn write, truncation or bit flip into a loud parse failure — callers
// map that to whatever "corrupt input" means in their tier (a retriable
// worker fault in dist, a skipped-backward checkpoint in serve recovery) —
// never into silently adopted state.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace ps::util {

/// Byte-wise FNV-1a over a buffer — the hash family behind the result
/// fingerprints (core/fingerprint.h), the fault injector's deterministic
/// draws (util/fault.cc) and every document seal.
inline std::uint64_t fnv1a_bytes(std::string_view bytes,
                                 std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

inline std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

inline std::uint64_t fnv1a(std::uint64_t hash, double value) {
  return fnv1a(hash, std::bit_cast<std::uint64_t>(value));
}

/// Appends the trailing `checksum <hex64>` line (FNV-1a over every byte of
/// `body`). Every spool document is sealed before it is written.
std::string seal_document(std::string body);

/// Verifies and strips the trailing checksum line, returning the body.
/// Throws util::SerdeError (util/wire.h) when the line is missing
/// (torn/truncated file) or the digest does not match (bit flip); serve
/// recovery catches it to skip a corrupt checkpoint backward.
std::string_view open_document(std::string_view text);

}  // namespace ps::util
