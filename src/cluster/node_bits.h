// One bit per node, in node-id order: node n is bit n % 64 of word n / 64.
//
// Node ids are dense and contiguous per chassis (cluster/topology.h), so
// chassis c is bits [c·npc, (c+1)·npc) for npc nodes per chassis, and a
// chassis of any width reads as ceil(npc / 64) windows of `window()`. The
// cluster's idle nodes and a BlockedSet's reserved nodes share this
// layout, so a selector asks "which nodes of this chassis are free for the
// span?" as one `idle & ~blocked` per window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "util/check.h"

namespace ps::cluster {

class NodeBits {
 public:
  /// Sizes the set to `nodes` nodes, every bit equal to `value`. The words
  /// are reused when the size stays.
  void assign(std::int32_t nodes, bool value) {
    PS_CHECK(nodes >= 0);
    nodes_ = nodes;
    // One zero word past the last keeps window() to two loads, no branch
    // on the end of the array.
    words_.assign((static_cast<std::size_t>(nodes) + 63) / 64 + 1, 0);
    if (!value) return;
    for (std::size_t w = 0; w < static_cast<std::size_t>(nodes) / 64; ++w) words_[w] = ~0ULL;
    if (nodes % 64 != 0) {
      words_[static_cast<std::size_t>(nodes) / 64] = (1ULL << (nodes % 64)) - 1;
    }
  }

  std::int32_t size() const noexcept { return nodes_; }

  /// False for ids outside [0, size()).
  bool test(NodeId node) const noexcept {
    if (node < 0 || node >= nodes_) return false;
    auto n = static_cast<std::size_t>(node);
    return (words_[n / 64] >> (n % 64)) & 1;
  }

  /// Sets the bit of an id in [0, size()).
  void set(NodeId node) noexcept {
    auto n = static_cast<std::size_t>(node);
    words_[n / 64] |= 1ULL << (n % 64);
  }

  /// Flips the bit of an id in [0, size()).
  void flip(NodeId node) noexcept {
    auto n = static_cast<std::size_t>(node);
    words_[n / 64] ^= 1ULL << (n % 64);
  }

  /// Bits of nodes [first, first + len) with node `first` at bit 0, for
  /// 1 <= len <= 64 and first + len <= size().
  std::uint64_t window(NodeId first, std::int32_t len) const noexcept {
    auto bit = static_cast<std::size_t>(first);
    std::size_t w = bit / 64;
    unsigned shift = bit % 64;
    std::uint64_t v = words_[w] >> shift;
    if (shift != 0) v |= words_[w + 1] << (64 - shift);
    return len >= 64 ? v : v & ((1ULL << len) - 1);
  }

 private:
  std::int32_t nodes_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ps::cluster
