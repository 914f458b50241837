#include "util/ascii_chart.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/strings.h"

namespace ps::util::ascii {

namespace {

/// Averages the samples of `values` whose times fall into bucket
/// [t0, t1); falls back to nearest sample when the bucket is empty.
double bucket_average(const std::vector<std::int64_t>& times, const std::vector<double>& values,
                      std::int64_t t0, std::int64_t t1) {
  double sum = 0.0;
  std::size_t n = 0;
  // times is ascending; linear scan bounded by bucket (callers sweep left to
  // right so total work stays linear across all buckets).
  auto lo = std::lower_bound(times.begin(), times.end(), t0);
  auto hi = std::lower_bound(times.begin(), times.end(), t1);
  for (auto it = lo; it != hi; ++it) {
    sum += values[static_cast<std::size_t>(it - times.begin())];
    ++n;
  }
  if (n > 0) return sum / static_cast<double>(n);
  // Empty bucket: use the most recent sample at or before t0 (step series
  // hold their value between samples).
  if (lo == times.begin()) return values.front();
  return values[static_cast<std::size_t>(lo - times.begin()) - 1];
}

}  // namespace

std::string stacked_chart(const std::vector<std::int64_t>& times_ms,
                          const std::vector<Layer>& layers, const ChartOptions& options) {
  PS_CHECK_MSG(!times_ms.empty(), "stacked_chart: empty time axis");
  PS_CHECK_MSG(!layers.empty(), "stacked_chart: no layers");
  for (const auto& layer : layers) {
    PS_CHECK_MSG(layer.values.size() == times_ms.size(),
                 "stacked_chart: layer '" + layer.name + "' size mismatch");
  }
  PS_CHECK_MSG(std::is_sorted(times_ms.begin(), times_ms.end()),
               "stacked_chart: time axis not ascending");

  const std::size_t width = std::max<std::size_t>(options.width, 10);
  const std::size_t height = std::max<std::size_t>(options.height, 4);
  const std::int64_t t_begin = times_ms.front();
  const std::int64_t t_end = std::max(times_ms.back(), t_begin + 1);

  // Column-resampled layer values.
  std::vector<std::vector<double>> cols(layers.size(), std::vector<double>(width, 0.0));
  for (std::size_t c = 0; c < width; ++c) {
    std::int64_t t0 = t_begin + (t_end - t_begin) * static_cast<std::int64_t>(c) /
                                    static_cast<std::int64_t>(width);
    std::int64_t t1 = t_begin + (t_end - t_begin) * static_cast<std::int64_t>(c + 1) /
                                    static_cast<std::int64_t>(width);
    if (t1 <= t0) t1 = t0 + 1;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      cols[l][c] = bucket_average(times_ms, layers[l].values, t0, t1);
    }
  }

  double y_max = options.y_max;
  if (y_max <= 0.0) {
    for (std::size_t c = 0; c < width; ++c) {
      double total = 0.0;
      for (std::size_t l = 0; l < layers.size(); ++l) total += cols[l][c];
      y_max = std::max(y_max, total);
    }
    if (y_max <= 0.0) y_max = 1.0;
  }

  // Paint the grid: for each column compute cumulative layer heights and
  // fill rows bottom-up with the layer characters.
  std::vector<std::string> grid(height, std::string(width, ' '));
  for (std::size_t c = 0; c < width; ++c) {
    double cumulative = 0.0;
    std::size_t painted = 0;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      cumulative += cols[l][c];
      auto target = static_cast<std::size_t>(
          std::lround(cumulative / y_max * static_cast<double>(height)));
      target = std::min(target, height);
      for (std::size_t r = painted; r < target; ++r) {
        grid[height - 1 - r][c] = layers[l].fill;
      }
      painted = std::max(painted, target);
    }
  }

  std::string out;
  if (!options.y_label.empty()) out += options.y_label + "\n";
  out += strings::format("%12.4g +", y_max);
  out.append(width, '-');
  out += "+\n";
  for (std::size_t r = 0; r < height; ++r) {
    out += "             |";
    out += grid[r];
    out += "|\n";
  }
  out += strings::format("%12.4g +", 0.0);
  out.append(width, '-');
  out += "+\n";
  out += "              " + strings::human_duration_ms(t_begin);
  std::string end_label = strings::human_duration_ms(t_end);
  std::size_t pad = width > end_label.size() + 2 ? width - end_label.size() - 2 : 1;
  out.append(pad, ' ');
  out += end_label + "\n";
  if (!options.x_label.empty()) out += "              " + options.x_label + "\n";
  out += "  legend:";
  for (const auto& layer : layers) {
    out += strings::format(" [%c]=%s", layer.fill, layer.name.c_str());
  }
  out += "\n";
  return out;
}

}  // namespace ps::util::ascii
