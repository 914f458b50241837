// Process-wide count of operator-new calls. alloc_count.cc replaces the
// global allocation functions of whatever binary links it; the count is a
// relaxed atomic, so reading it around a call gives that call's allocations
// when no other thread allocates meanwhile.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t alloc_count() noexcept;

}  // namespace perfbench
