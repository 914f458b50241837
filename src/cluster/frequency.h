// DVFS frequency levels and their node power draw.
//
// Mirrors the paper's Fig. 4: each available CPU frequency maps to the
// maximum power a node consumes while computing at that frequency
// (the "CpuFreqXWatts" parameters of the SLURM implementation).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace ps::cluster {

/// Index into a FrequencyTable; 0 is the *lowest* frequency.
using FreqIndex = std::size_t;

struct FrequencyLevel {
  double ghz = 0.0;    ///< nominal frequency in GHz
  double watts = 0.0;  ///< max node power at this frequency (busy), W
};

/// Immutable ascending table of DVFS levels.
class FrequencyTable {
 public:
  /// Builds from levels in any order; sorts ascending by GHz.
  /// Throws ps::CheckError on duplicates, empty input, or non-positive values.
  explicit FrequencyTable(std::vector<FrequencyLevel> levels);

  std::size_t size() const noexcept { return levels_.size(); }
  const FrequencyLevel& level(FreqIndex i) const;
  const FrequencyLevel& min() const { return levels_.front(); }
  const FrequencyLevel& max() const { return levels_.back(); }
  FreqIndex min_index() const noexcept { return 0; }
  FreqIndex max_index() const noexcept { return levels_.size() - 1; }

  /// Lowest index whose frequency is >= ghz; nullopt if all are below.
  std::optional<FreqIndex> lowest_at_or_above(double ghz) const noexcept;

  /// Watts at a level; convenience for level(i).watts.
  double watts(FreqIndex i) const { return level(i).watts; }
  double ghz(FreqIndex i) const { return level(i).ghz; }

  /// "2.4 GHz" display string.
  std::string name(FreqIndex i) const;

 private:
  std::vector<FrequencyLevel> levels_;
};

}  // namespace ps::cluster
