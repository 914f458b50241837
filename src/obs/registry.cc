#include "obs/registry.h"

#include <cinttypes>
#include <ctime>

#include "util/check.h"
#include "util/seal.h"
#include "util/strings.h"

namespace ps::obs {

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Metric names travel inside line-oriented documents and Prometheus
/// exposition: printable, no whitespace.
void check_name(std::string_view name) {
  PS_CHECK_MSG(!name.empty(), "obs: metric name must not be empty");
  for (char c : name) {
    PS_CHECK_MSG(c > ' ' && c <= '~',
                 "obs: metric name must be printable without whitespace");
  }
}

double parse_double_token(const std::string& token, const char* what) {
  auto value = strings::parse_f64(token);
  if (!value) {
    throw std::runtime_error(std::string("telemetry: bad ") + what +
                             " token: " + token);
  }
  return *value;
}

std::uint64_t parse_u64_token(const std::string& token, const char* what) {
  auto value = strings::parse_u64(token);
  if (!value) {
    throw std::runtime_error(std::string("telemetry: bad ") + what +
                             " token: " + token);
  }
  return *value;
}

std::int64_t parse_i64_token(const std::string& token, const char* what) {
  auto value = strings::parse_i64(token);
  if (!value) {
    throw std::runtime_error(std::string("telemetry: bad ") + what +
                             " token: " + token);
  }
  return *value;
}

}  // namespace

Registry& Registry::global() {
  static Registry* instance = new Registry();  // immortal: never destructed
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  PS_CHECK_MSG(gauges_.find(name) == gauges_.end() &&
                   histograms_.find(name) == histograms_.end(),
               "obs: metric name already registered with a different kind");
  auto [inserted, ok] = counters_.emplace(
      std::string(name), std::unique_ptr<Counter>(new Counter(&enabled_)));
  (void)ok;
  return *inserted->second;
}

Gauge& Registry::gauge(std::string_view name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  PS_CHECK_MSG(counters_.find(name) == counters_.end() &&
                   histograms_.find(name) == histograms_.end(),
               "obs: metric name already registered with a different kind");
  auto [inserted, ok] = gauges_.emplace(
      std::string(name), std::unique_ptr<Gauge>(new Gauge(&enabled_)));
  (void)ok;
  return *inserted->second;
}

Histogram& Registry::histogram(std::string_view name, double relative_error,
                               double min_value, double max_value) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  PS_CHECK_MSG(counters_.find(name) == counters_.end() &&
                   gauges_.find(name) == gauges_.end(),
               "obs: metric name already registered with a different kind");
  auto [inserted, ok] = histograms_.emplace(
      std::string(name), std::unique_ptr<Histogram>(new Histogram(
                             &enabled_, relative_error, min_value, max_value)));
  (void)ok;
  return *inserted->second;
}

CounterBaseline::CounterBaseline(Registry& registry) : registry_(registry) {
  for (const Snapshot::CounterValue& c : registry.snapshot().counters) {
    base_.emplace(c.name, c.value);
  }
}

std::uint64_t CounterBaseline::delta(std::string_view name) const {
  auto base = base_.find(name);
  return registry_.counter(name).value() -
         (base == base_.end() ? 0 : base->second);
}

Snapshot Registry::snapshot(std::int64_t sim_time_ms) const {
  Snapshot snap;
  snap.wall_ns = clock_ns(CLOCK_REALTIME);
  snap.mono_ns = clock_ns(CLOCK_MONOTONIC);
  snap.sim_time_ms = sim_time_ms;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    util::QuantileSketch sketch = histogram->sketch_copy();
    Snapshot::HistogramValue value;
    value.name = name;
    value.count = sketch.count();
    value.sum = sketch.sum();
    value.min = sketch.min();
    value.p50 = sketch.quantile(0.5);
    value.p95 = sketch.quantile(0.95);
    value.p99 = sketch.quantile(0.99);
    value.max = sketch.max();
    snap.histograms.push_back(value);
  }
  return snap;
}

std::string serialize_snapshot(const Snapshot& snapshot) {
  std::string body;
  body += "telemetry v1\n";
  body += strings::format("seq %" PRIu64 "\n", snapshot.seq);
  body += strings::format("wall_ns %lld\n",
                          static_cast<long long>(snapshot.wall_ns));
  body += strings::format("mono_ns %lld\n",
                          static_cast<long long>(snapshot.mono_ns));
  body += strings::format("sim_time_ms %lld\n",
                          static_cast<long long>(snapshot.sim_time_ms));
  for (const Snapshot::CounterValue& c : snapshot.counters) {
    body += strings::format("counter %s %" PRIu64 "\n", c.name.c_str(), c.value);
  }
  for (const Snapshot::GaugeValue& g : snapshot.gauges) {
    body += strings::format("gauge %s %.17g\n", g.name.c_str(), g.value);
  }
  for (const Snapshot::HistogramValue& h : snapshot.histograms) {
    body += strings::format(
        "hist %s %" PRIu64 " %.17g %.17g %.17g %.17g %.17g %.17g\n",
        h.name.c_str(), h.count, h.sum, h.min, h.p50, h.p95, h.p99, h.max);
  }
  return util::seal_document(std::move(body));
}

Snapshot parse_snapshot(std::string_view text) {
  std::string_view body = util::open_document(text);
  Snapshot snap;
  bool saw_header = false;
  for (std::string_view line_view : strings::split(body, '\n')) {
    std::vector<std::string> tokens = strings::split_ws(line_view);
    if (tokens.empty()) continue;
    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "telemetry" || tokens[1] != "v1") {
        throw std::runtime_error("telemetry: missing `telemetry v1` header");
      }
      saw_header = true;
      continue;
    }
    const std::string& key = tokens[0];
    if (key == "seq" && tokens.size() == 2) {
      snap.seq = parse_u64_token(tokens[1], "seq");
    } else if (key == "wall_ns" && tokens.size() == 2) {
      snap.wall_ns = parse_i64_token(tokens[1], "wall_ns");
    } else if (key == "mono_ns" && tokens.size() == 2) {
      snap.mono_ns = parse_i64_token(tokens[1], "mono_ns");
    } else if (key == "sim_time_ms" && tokens.size() == 2) {
      snap.sim_time_ms = parse_i64_token(tokens[1], "sim_time_ms");
    } else if (key == "counter" && tokens.size() == 3) {
      snap.counters.push_back({tokens[1], parse_u64_token(tokens[2], "counter")});
    } else if (key == "gauge" && tokens.size() == 3) {
      snap.gauges.push_back({tokens[1], parse_double_token(tokens[2], "gauge")});
    } else if (key == "hist" && tokens.size() == 9) {
      Snapshot::HistogramValue h;
      h.name = tokens[1];
      h.count = parse_u64_token(tokens[2], "hist count");
      h.sum = parse_double_token(tokens[3], "hist sum");
      h.min = parse_double_token(tokens[4], "hist min");
      h.p50 = parse_double_token(tokens[5], "hist p50");
      h.p95 = parse_double_token(tokens[6], "hist p95");
      h.p99 = parse_double_token(tokens[7], "hist p99");
      h.max = parse_double_token(tokens[8], "hist max");
      snap.histograms.push_back(std::move(h));
    } else {
      throw std::runtime_error("telemetry: unrecognized line: " +
                               std::string(line_view));
    }
  }
  if (!saw_header) throw std::runtime_error("telemetry: empty document");
  return snap;
}

namespace {

/// Prometheus metric name: `ps_` prefix, [a-zA-Z0-9_] only.
std::string prometheus_name(std::string_view name) {
  std::string out = "ps_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string prometheus_exposition(const Snapshot& snapshot) {
  std::string out;
  for (const Snapshot::CounterValue& c : snapshot.counters) {
    std::string name = prometheus_name(c.name);
    out += strings::format("# TYPE %s counter\n", name.c_str());
    out += strings::format("%s %" PRIu64 "\n", name.c_str(), c.value);
  }
  for (const Snapshot::GaugeValue& g : snapshot.gauges) {
    std::string name = prometheus_name(g.name);
    out += strings::format("# TYPE %s gauge\n", name.c_str());
    out += strings::format("%s %.17g\n", name.c_str(), g.value);
  }
  for (const Snapshot::HistogramValue& h : snapshot.histograms) {
    std::string name = prometheus_name(h.name);
    out += strings::format("# TYPE %s summary\n", name.c_str());
    out += strings::format("%s{quantile=\"0.5\"} %.17g\n", name.c_str(), h.p50);
    out += strings::format("%s{quantile=\"0.95\"} %.17g\n", name.c_str(), h.p95);
    out += strings::format("%s{quantile=\"0.99\"} %.17g\n", name.c_str(), h.p99);
    out += strings::format("%s_sum %.17g\n", name.c_str(), h.sum);
    out += strings::format("%s_count %" PRIu64 "\n", name.c_str(), h.count);
  }
  if (snapshot.sim_time_ms >= 0) {
    out += "# TYPE ps_sim_time_ms gauge\n";
    out += strings::format("ps_sim_time_ms %lld\n",
                           static_cast<long long>(snapshot.sim_time_ms));
  }
  return out;
}

}  // namespace ps::obs
