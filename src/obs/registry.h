// Process-wide metrics registry — the measurement substrate of the system
// (docs/ARCHITECTURE.md, "Observability").
//
// Three metric kinds, one naming contract:
//   * **Counter** — named monotonic counter. Increments are a single
//     relaxed fetch_add (lock-free, a few nanoseconds; the gated
//     BM_ObsCounterInc kernel pins it), registration is mutex-guarded and
//     returns a stable reference callers cache once.
//   * **Gauge** — last-write-wins double (atomic store/load).
//   * **Histogram** — a util::QuantileSketch behind a small mutex;
//     observe() is for paths that tolerate a lock (latency measurements,
//     post-run merges), never per-event hot loops.
//
// Hot-path philosophy: the gated simulator kernels (event queue, admission,
// selection) keep their *plain* per-object counters — single-threaded
// increments the optimizer can fold — and the scenario/serve layers publish
// those totals into the registry at run end or telemetry-tick time. The
// registry therefore never perturbs a fenced kernel (the <2 % CI fence on
// BM_ServeIngest / BM_AdmissionBurstSubmit), while every number still has
// exactly one exported home. Report structs (ServeReport, DriverReport)
// are *windowed snapshot views*: their fields are deltas against one
// CounterBaseline captured at run start.
//
// Snapshots are consistent by construction: snapshot() holds the
// registration mutex, so the metric *set* cannot change mid-walk, and each
// value is one atomic load — a counter can never appear to decrease across
// snapshots (the fence of tests/obs_registry_test.cc under a hammering
// util::ThreadPool).
//
// Determinism: nothing in the registry feeds a result fingerprint — wall
// clock stamps exist only in exported telemetry documents, so running with
// the registry (or tracing) enabled cannot move a golden digest.
//
// The kill switch: set_enabled(false) turns every increment into a relaxed
// load + branch (the gated BM_ObsCounterIncDisabled path) for
// overhead-paranoid deployments. Derived report counters then read as
// zero — it is a measurement kill switch, not a correctness mode; tests
// and CI always run enabled (the default).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace ps::obs {

class Registry;

/// Named monotonic counter. inc() is lock-free; value() is a relaxed load.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) noexcept
      : enabled_(enabled) {}
  std::atomic<std::uint64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Last-write-wins double gauge (atomic store/load, no read-modify-write).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) noexcept
      : enabled_(enabled) {}
  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// QuantileSketch-backed histogram. observe() takes a mutex — fine for
/// latency measurements and post-run merges, not for per-event hot loops.
class Histogram {
 public:
  void observe(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    sketch_.add(v);
  }
  /// Folds a whole sketch in (identical geometry required) — how a run's
  /// private latency sketch joins the process-wide histogram at run end.
  void merge(const util::QuantileSketch& sketch) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    sketch_.merge(sketch);
  }
  /// Consistent copy of the backing sketch.
  util::QuantileSketch sketch_copy() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sketch_;
  }

 private:
  friend class Registry;
  Histogram(const std::atomic<bool>* enabled, double relative_error,
            double min_value, double max_value)
      : sketch_(relative_error, min_value, max_value), enabled_(enabled) {}
  mutable std::mutex mutex_;
  util::QuantileSketch sketch_;
  const std::atomic<bool>* enabled_;
};

/// One consistent export of every registered metric, name-sorted (the maps
/// iterate in key order), plus the stamps a telemetry document carries.
/// Counters across successive snapshots of one registry never decrease.
struct Snapshot {
  std::uint64_t seq = 0;         ///< publisher-assigned document sequence
  std::int64_t wall_ns = 0;      ///< CLOCK_REALTIME at snapshot
  std::int64_t mono_ns = 0;      ///< CLOCK_MONOTONIC at snapshot
  std::int64_t sim_time_ms = -1; ///< publisher's simulation clock; -1 = none

  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// The registry. Instantiable (tests isolate with their own); production
/// code shares global().
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every subsystem publishes into.
  static Registry& global();

  /// Returns the counter registered under `name`, creating it on first
  /// use. Registering an existing name with a different metric kind is a
  /// contract violation and throws (util::CheckError).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Histogram geometry is fixed by the first registration; later lookups
  /// ignore the parameters (same-name, same-kind returns the same object).
  Histogram& histogram(std::string_view name, double relative_error = 0.01,
                       double min_value = 1e-3, double max_value = 1e12);

  /// Measurement kill switch (see the header comment). Default: enabled.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Consistent, name-sorted export with fresh wall/monotonic stamps.
  Snapshot snapshot(std::int64_t sim_time_ms = -1) const;

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{true};
  // Node-stable containers: references handed out must survive rehashing,
  // and key-sorted iteration makes snapshots deterministic in order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// A run's window onto the registry's counters: construction captures one
/// baseline of every registered counter, delta(name) reads how far that
/// counter moved since. Report structs (ServeReport, DriverReport) derive
/// every counter field this way. Under set_enabled(false) nothing
/// increments and every delta reads 0 — so control flow must never branch
/// on a delta, only report it.
class CounterBaseline {
 public:
  explicit CounterBaseline(Registry& registry = Registry::global());

  /// Increments of `name` since construction; 0 for a name never
  /// incremented (a counter registered later started from 0).
  std::uint64_t delta(std::string_view name) const;

 private:
  Registry& registry_;
  std::map<std::string, std::uint64_t, std::less<>> base_;
};

/// The telemetry wire format, a util/wire.h field walk: one `telemetry`
/// block with the four stamps as scalars, then `counters`, `gauges` and
/// `histograms` lists of one row per metric (`counter <name> <value>`,
/// `gauge <name> <f64>`, `hist <name> <count> <sum> <min> <p50> <p95> <p99>
/// <max>`), doubles as IEEE-754 bit patterns in hex. Sealed with the
/// trailing FNV-1a checksum line like every other spool document.
std::string serialize_snapshot(const Snapshot& snapshot);
/// Inverse (expects a *sealed* document). Throws util::SerdeError on a
/// torn or corrupt document, a malformed body, or a metric name that
/// registration would refuse (empty, whitespace, control characters).
Snapshot parse_snapshot(std::string_view text);

/// Prometheus text exposition of a snapshot (`ps_` prefix, dots and
/// dashes mangled to underscores; histograms expose _count/_sum plus
/// quantile-labelled gauge lines).
std::string prometheus_exposition(const Snapshot& snapshot);

}  // namespace ps::obs
