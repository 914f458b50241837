#include "obs/registry.h"

#include <algorithm>
#include <cinttypes>
#include <ctime>

#include "util/check.h"
#include "util/strings.h"
#include "util/wire.h"

namespace ps::obs {

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Metric names travel as row tokens of telemetry documents and in
/// Prometheus exposition: printable, no whitespace.
bool valid_name(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
    return c > ' ' && c <= '~';
  });
}

void check_name(std::string_view name) {
  PS_CHECK_MSG(valid_name(name),
               "obs: metric name must be non-empty, printable, no whitespace");
}

template <class Io, class T>
void telemetry(Io& io, T& snap) {
  io.block("telemetry", [&] {
    io.u64("seq", snap.seq);
    io.i64("wall_ns", snap.wall_ns);
    io.i64("mono_ns", snap.mono_ns);
    io.i64("sim_time_ms", snap.sim_time_ms);
    io.list("counters", snap.counters, [&](auto& c) {
      io.row("counter", [&] {
        io.text("name", c.name);
        io.u64("value", c.value);
      });
    });
    io.list("gauges", snap.gauges, [&](auto& g) {
      io.row("gauge", [&] {
        io.text("name", g.name);
        io.f64("value", g.value);
      });
    });
    io.list("histograms", snap.histograms, [&](auto& h) {
      io.row("hist", [&] {
        io.text("name", h.name);
        io.u64("count", h.count);
        io.f64("sum", h.sum);
        io.f64("min", h.min);
        io.f64("p50", h.p50);
        io.f64("p95", h.p95);
        io.f64("p99", h.p99);
        io.f64("max", h.max);
      });
    });
  });
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
  return util::encode(snapshot, telemetry<util::Writer, const Snapshot>);
}

Snapshot parse_snapshot(std::string_view text) {
  Snapshot snap = util::decode(text, telemetry<util::Reader, Snapshot>);
  auto require_names = [](const auto& metrics) {
    for (const auto& metric : metrics) {
      util::require(valid_name(metric.name), "telemetry: invalid metric name");
    }
  };
  require_names(snap.counters);
  require_names(snap.gauges);
  require_names(snap.histograms);
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
