#include "util/config.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace ps::util {

namespace {
std::string section_key(std::string_view name) { return strings::to_lower(strings::trim(name)); }
}  // namespace

Config Config::parse(std::string_view text) {
  Config config;
  std::string current_section;  // top-level keys live in section "".
  config.sections_[current_section];
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view raw_line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_number;

    std::string_view line = strings::trim(raw_line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;

    if (line.front() == '[') {
      std::size_t close = line.find(']');
      if (close == std::string_view::npos) {
        throw std::runtime_error("config: unterminated section header at line " +
                                 std::to_string(line_number));
      }
      current_section = section_key(line.substr(1, close - 1));
      config.sections_[current_section];
      continue;
    }

    std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("config: expected key=value at line " +
                               std::to_string(line_number));
    }
    std::string key = strings::to_lower(strings::trim(line.substr(0, eq)));
    std::string value{strings::trim(line.substr(eq + 1))};
    if (key.empty()) {
      throw std::runtime_error("config: empty key at line " + std::to_string(line_number));
    }
    config.sections_[current_section][key] = value;
  }
  return config;
}

Config Config::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::optional<std::string> Config::get(std::string_view section, std::string_view key) const {
  auto sit = sections_.find(section_key(section));
  if (sit == sections_.end()) return std::nullopt;
  auto kit = sit->second.find(strings::to_lower(strings::trim(key)));
  if (kit == sit->second.end()) return std::nullopt;
  return kit->second;
}

std::optional<std::int64_t> Config::get_i64(std::string_view section,
                                            std::string_view key) const {
  auto raw = get(section, key);
  if (!raw) return std::nullopt;
  auto parsed = strings::parse_i64(*raw);
  if (!parsed) {
    throw std::runtime_error("config: key '" + std::string(key) + "' is not an integer: " + *raw);
  }
  return parsed;
}

std::optional<double> Config::get_f64(std::string_view section, std::string_view key) const {
  auto raw = get(section, key);
  if (!raw) return std::nullopt;
  auto parsed = strings::parse_f64(*raw);
  if (!parsed) {
    throw std::runtime_error("config: key '" + std::string(key) + "' is not a number: " + *raw);
  }
  return parsed;
}

std::int64_t Config::get_i64_or(std::string_view section, std::string_view key,
                                std::int64_t fallback) const {
  return get_i64(section, key).value_or(fallback);
}

double Config::get_f64_or(std::string_view section, std::string_view key,
                          double fallback) const {
  return get_f64(section, key).value_or(fallback);
}

std::string Config::get_or(std::string_view section, std::string_view key,
                           std::string_view fallback) const {
  auto raw = get(section, key);
  return raw ? *raw : std::string(fallback);
}

}  // namespace ps::util
