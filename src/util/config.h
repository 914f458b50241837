// INI-style configuration.
//
// The paper's SLURM implementation reads node power characteristics
// (IdleWatts, MaxWatts, DownWatts, CpuFreqXWatts) and the scheduler policy
// from slurm.conf. We mirror that with a small INI reader so examples can
// describe a cluster in a text file:
//
//   [cluster]
//   racks = 56
//   chassis_per_rack = 5
//   nodes_per_chassis = 18
//
//   [power]
//   down_watts = 14
//   idle_watts = 117
//   freq_watts = 1.2:193, 1.4:213, ...
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace ps::util {

/// Parsed INI document: section -> key -> raw value. Keys are
/// case-insensitive (stored lowercased); values keep their case.
class Config {
 public:
  /// Parses INI text. Throws std::runtime_error with line info on syntax
  /// errors (unterminated section header, line without '=').
  static Config parse(std::string_view text);

  /// Loads and parses a file. Throws std::runtime_error if unreadable.
  static Config load_file(const std::string& path);

  /// Raw string lookup; nullopt when absent.
  std::optional<std::string> get(std::string_view section, std::string_view key) const;

  /// Typed lookups; throw std::runtime_error when present but malformed.
  std::optional<std::int64_t> get_i64(std::string_view section, std::string_view key) const;
  std::optional<double> get_f64(std::string_view section, std::string_view key) const;

  /// Typed lookups with defaults.
  std::int64_t get_i64_or(std::string_view section, std::string_view key,
                          std::int64_t fallback) const;
  double get_f64_or(std::string_view section, std::string_view key, double fallback) const;
  std::string get_or(std::string_view section, std::string_view key,
                     std::string_view fallback) const;

 private:
  std::map<std::string, std::map<std::string, std::string>> sections_;
};

}  // namespace ps::util
