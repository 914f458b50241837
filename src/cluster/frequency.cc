#include "cluster/frequency.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace ps::cluster {

FrequencyTable::FrequencyTable(std::vector<FrequencyLevel> levels)
    : levels_(std::move(levels)) {
  PS_CHECK_MSG(!levels_.empty(), "frequency table must not be empty");
  std::sort(levels_.begin(), levels_.end(),
            [](const FrequencyLevel& a, const FrequencyLevel& b) { return a.ghz < b.ghz; });
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    PS_CHECK_MSG(levels_[i].ghz > 0.0, "frequency must be positive");
    PS_CHECK_MSG(levels_[i].watts > 0.0, "frequency watts must be positive");
    if (i > 0) {
      PS_CHECK_MSG(levels_[i].ghz - levels_[i - 1].ghz > 1e-9,
                   "duplicate frequency level");
    }
  }
}

const FrequencyLevel& FrequencyTable::level(FreqIndex i) const {
  PS_CHECK_MSG(i < levels_.size(), "frequency index out of range");
  return levels_[i];
}

std::optional<FreqIndex> FrequencyTable::lowest_at_or_above(double ghz) const noexcept {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].ghz >= ghz - 1e-9) return i;
  }
  return std::nullopt;
}

std::string FrequencyTable::name(FreqIndex i) const {
  return strings::format("%.1f GHz", level(i).ghz);
}

}  // namespace ps::cluster
