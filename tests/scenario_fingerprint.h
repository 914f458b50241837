// Test-side alias of the shared scenario fingerprint. The implementation
// moved to src/core/fingerprint.h when the distributed sweep layer started
// fingerprinting cell results in production code; the committed golden
// constants are unchanged because the digest itself is unchanged.
#pragma once

#include "core/fingerprint.h"

namespace ps::core::testing {

using ps::core::fingerprint;

}  // namespace ps::core::testing
