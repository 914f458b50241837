// Terminal rendering of stacked step time series.
//
// The paper's Figures 6 and 7 are stacked area charts (cores-by-state and
// watts-by-state over time). Benches reproduce them as ASCII stacked charts:
// each layer gets a fill character and the chart stacks layers bottom-up,
// exactly like the paper's grey-shade stacking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ps::util::ascii {

/// One stacked layer: a display name, a single fill character and the layer
/// value at each sample point (not cumulative; the chart stacks).
struct Layer {
  std::string name;
  char fill = '#';
  std::vector<double> values;
};

struct ChartOptions {
  std::size_t width = 100;   ///< plot columns (excluding axis gutter)
  std::size_t height = 20;   ///< plot rows
  double y_max = 0.0;        ///< 0 = auto (max stacked sum)
  std::string y_label;       ///< printed above the axis
  std::string x_label;       ///< printed below the axis
};

/// Renders layers[i].values sampled at `times` (ms, ascending, same length
/// as every layer) into a stacked area chart. Columns average the samples
/// that fall into their time bucket. Returns a multi-line string including
/// a legend. Throws ps::CheckError on inconsistent input sizes.
std::string stacked_chart(const std::vector<std::int64_t>& times_ms,
                          const std::vector<Layer>& layers, const ChartOptions& options);

}  // namespace ps::util::ascii
