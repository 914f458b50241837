#include "dist/serde.h"

#include <cinttypes>
#include <limits>

#include "util/strings.h"

namespace ps::dist {

using util::EnumEntry;
using util::Reader;
using util::Writer;

namespace {

// --- enum <-> token tables ---------------------------------------------------
//
// Local to the serde so the wire format is fixed here, in one place,
// independent of any to_string used for human-facing reports.

constexpr EnumEntry<workload::Profile> kProfiles[] = {
    {workload::Profile::MedianJob, "medianjob"},
    {workload::Profile::SmallJob, "smalljob"},
    {workload::Profile::BigJob, "bigjob"},
    {workload::Profile::Day24h, "day24h"},
};

constexpr EnumEntry<core::Policy> kPolicies[] = {
    {core::Policy::None, "none"}, {core::Policy::Shut, "shut"},
    {core::Policy::Dvfs, "dvfs"}, {core::Policy::Mix, "mix"},
    {core::Policy::Idle, "idle"}, {core::Policy::Auto, "auto"},
};

constexpr EnumEntry<core::RhoConvention> kRhoConventions[] = {
    {core::RhoConvention::Published, "published"},
    {core::RhoConvention::Exact, "exact"},
};

constexpr EnumEntry<core::OfflineSelection> kOfflineSelections[] = {
    {core::OfflineSelection::BonusGrouped, "bonus_grouped"},
    {core::OfflineSelection::Scattered, "scattered"},
};

constexpr EnumEntry<core::AdmissionMode> kAdmissionModes[] = {
    {core::AdmissionMode::PaperLive, "paper_live"},
    {core::AdmissionMode::PaperLiveStrict, "paper_live_strict"},
    {core::AdmissionMode::Projection, "projection"},
};

constexpr EnumEntry<rjms::SelectorKind> kSelectorKinds[] = {
    {rjms::SelectorKind::Packing, "packing"},
    {rjms::SelectorKind::Linear, "linear"},
    {rjms::SelectorKind::Spread, "spread"},
};

constexpr EnumEntry<core::model::Mechanism> kMechanisms[] = {
    {core::model::Mechanism::None, "none"},
    {core::model::Mechanism::SwitchOffOnly, "switch_off_only"},
    {core::model::Mechanism::DvfsOnly, "dvfs_only"},
    {core::model::Mechanism::Both, "both"},
    {core::model::Mechanism::Infeasible, "infeasible"},
};

/// A selection names at most this many nodes (over 3,000 Curie machines).
/// Its run-length row is compressive by design, so the bound on what a
/// hostile row can make the parser allocate is this constant, not the
/// document's size.
constexpr std::uint64_t kMaxSelectionNodes = std::uint64_t{1} << 24;

}  // namespace

// --- job rows ----------------------------------------------------------------
//
// One row per job in every trace cell and submission: the hottest row on
// the wire, so it keeps a single-format writer.

void job_list(Writer& w, const std::vector<workload::JobRequest>& jobs) {
  w.list("jobs", jobs, [&](const workload::JobRequest& job) {
    // The app name rides as a bare token; "-" marks the empty default.
    if (job.app.find_first_of(" \t\n") != std::string::npos || job.app == "-") {
      w.fail("job app name not token-safe: '" + job.app + "'");
    }
    w.line(strings::format(
        "job %" PRId64 " %" PRId64 " %" PRId32 " %" PRId64 " %" PRId64
        " %" PRId64 " %s",
        job.id, job.submit_time, job.user, job.requested_cores,
        job.requested_walltime, job.base_runtime,
        job.app.empty() ? "-" : job.app.c_str()));
  });
}

void job_list(Reader& r, std::vector<workload::JobRequest>& jobs) {
  r.list("jobs", jobs, [&](workload::JobRequest& job) {
    r.row("job", [&] {
      r.i64("id", job.id);
      r.i64("submit_time", job.submit_time);
      r.i64("user", job.user);
      r.i64("requested_cores", job.requested_cores);
      r.i64("requested_walltime", job.requested_walltime);
      r.i64("base_runtime", job.base_runtime);
      r.text("app", job.app);
    });
    if (job.app == "-") job.app.clear();
  });
}

// --- selection run-length row ------------------------------------------------
//
// Node ids as ascending run-length spans `start+len`: grouped selections
// are top contiguous blocks by construction, so this is typically one token
// for thousands of nodes.

namespace {

void node_runs(Writer& w, const std::vector<cluster::NodeId>& nodes) {
  std::string runs = strings::format("nodes %zu", nodes.size());
  std::size_t i = 0;
  while (i < nodes.size()) {
    std::size_t j = i + 1;
    while (j < nodes.size() && nodes[j] == nodes[j - 1] + 1) ++j;
    runs += strings::format(" %" PRId32 "+%zu", nodes[i], j - i);
    i = j;
  }
  w.line(runs);
}

void node_runs(Reader& r, std::vector<cluster::NodeId>& nodes) {
  std::vector<std::string> tokens = strings::split_ws(r.payload("nodes"));
  std::optional<std::uint64_t> count =
      tokens.empty() ? std::nullopt : strings::parse_u64(tokens[0]);
  if (!count || *count > kMaxSelectionNodes) {
    r.fail("nodes row wants a count of at most 2^24");
  }
  nodes.clear();
  nodes.reserve(*count);
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    std::string_view run = tokens[t];
    std::size_t plus = run.find('+');
    std::optional<std::int64_t> start = strings::parse_i64(run.substr(0, plus));
    std::optional<std::uint64_t> len = plus == std::string_view::npos
                                           ? std::nullopt
                                           : strings::parse_u64(run.substr(plus + 1));
    constexpr std::int64_t kIdLimit =
        std::int64_t{std::numeric_limits<cluster::NodeId>::max()} + 1;
    if (!start || !len || *start < 0 || *start >= kIdLimit ||
        *len > *count - nodes.size() ||
        *start + static_cast<std::int64_t>(*len) > kIdLimit) {
      r.fail("node run '" + tokens[t] + "' is malformed or out of range");
    }
    for (std::uint64_t k = 0; k < *len; ++k) {
      nodes.push_back(static_cast<cluster::NodeId>(*start + static_cast<std::int64_t>(k)));
    }
  }
  if (nodes.size() != *count) r.fail("node run lengths disagree with count");
}

// --- record walks ------------------------------------------------------------

template <class Io, class T>
void generator_params(Io& io, T& p) {
  io.block("generator_params", [&] {
    io.text("name", p.name);
    io.i64("span", p.span);
    io.u64("job_count", p.job_count);
    io.f64("backlog_fraction", p.backlog_fraction);
    io.f64("w_tiny", p.w_tiny);
    io.f64("w_medium", p.w_medium);
    io.f64("w_large", p.w_large);
    io.f64("w_huge", p.w_huge);
    io.f64("overestimate_median", p.overestimate_median);
    io.f64("overestimate_sigma", p.overestimate_sigma);
    io.i64("max_walltime", p.max_walltime);
    io.i64("user_count", p.user_count);
    io.boolean("heterogeneous_apps", p.heterogeneous_apps);
  });
}

template <class Io, class T>
void powercap_config(Io& io, T& p) {
  io.block("powercap_config", [&] {
    io.enumeration("policy", p.policy, kPolicies);
    io.f64("default_degmin", p.default_degmin);
    io.boolean("use_app_degmin", p.use_app_degmin);
    io.f64("mix_min_ghz", p.mix_min_ghz);
    io.enumeration("rho", p.rho, kRhoConventions);
    io.enumeration("selection", p.selection, kOfflineSelections);
    io.enumeration("admission", p.admission, kAdmissionModes);
    io.boolean("offline_enabled", p.offline_enabled);
    io.boolean("strict_reservation_blocking", p.strict_reservation_blocking);
    io.boolean("kill_on_overcap", p.kill_on_overcap);
    io.boolean("audit_admission_cache", p.audit_admission_cache);
    io.boolean("dynamic_dvfs", p.dynamic_dvfs);
  });
}

template <class Io, class T>
void controller_config(Io& io, T& c) {
  io.block("controller_config", [&] {
    io.f64("priority_age", c.priority.age);
    io.f64("priority_size", c.priority.size);
    io.f64("priority_fair_share", c.priority.fair_share);
    io.i64("priority_age_saturation", c.priority.age_saturation);
    io.u64("backfill_depth", c.backfill_depth);
    io.enumeration("selector", c.selector, kSelectorKinds);
    io.boolean("fairshare_enabled", c.fairshare_enabled);
    io.i64("fairshare_half_life", c.fairshare_half_life);
    io.i64("shutdown_delay", c.shutdown_delay);
    io.i64("boot_delay", c.boot_delay);
  });
}

template <class Io, class T>
void offline_plan(Io& io, T& p) {
  io.block("offline_plan", [&] {
    io.enumeration("mechanism", p.split.mechanism, kMechanisms);
    io.f64("n_off", p.split.n_off);
    io.f64("n_dvfs", p.split.n_dvfs);
    io.f64("work", p.split.work);
    io.block("selection", [&] {
      node_runs(io, p.selection.nodes);
      io.i64("whole_racks", p.selection.whole_racks);
      io.i64("whole_chassis", p.selection.whole_chassis);
      io.i64("singles", p.selection.singles);
      io.f64("saving_vs_busy_watts", p.selection.saving_vs_busy_watts);
      io.f64("saving_vs_idle_watts", p.selection.saving_vs_idle_watts);
    });
    io.f64("cap_watts", p.cap_watts);
    io.f64("node_budget_watts", p.node_budget_watts);
    io.f64("required_saving_watts", p.required_saving_watts);
    io.i64("reservation_id", p.reservation_id);
  });
}

}  // namespace

template <class Io, class T>
void scenario_config(Io& io, T& config) {
  if (config.job_source) {
    // A live stream has no value representation; distributed cells ship
    // trace_jobs or a generator profile. Refusing beats silently sending a
    // config that would replay a *different* (absent) workload remotely.
    io.fail("scenario_config with a live job_source is not serializable");
  }
  io.block("scenario_config", [&] {
    io.enumeration("profile", config.profile, kProfiles);
    io.optional("has_custom_workload", config.custom_workload,
                [&](auto& params) { generator_params(io, params); });
    io.optional("has_trace_jobs", config.trace_jobs,
                [&](auto& jobs) { job_list(io, jobs); });
    io.u64("seed", config.seed);
    io.i64("racks", config.racks);
    powercap_config(io, config.powercap);
    io.f64("cap_lambda", config.cap_lambda);
    io.i64("cap_start", config.cap_start);
    io.i64("cap_duration", config.cap_duration);
    io.list("cap_windows", config.cap_windows, [&](auto& window) {
      io.row("window", [&] {
        io.f64("lambda", window.lambda);
        io.i64("start", window.start);
        io.i64("duration", window.duration);
        io.i64("announce", window.announce);
      });
    });
    controller_config(io, config.controller);
    io.i64("horizon", config.horizon);
    io.i64("submit_chunk", config.submit_chunk);
  });
}

template <class Io, class T>
void scenario_result(Io& io, T& result) {
  io.block("scenario_result", [&] {
    auto& s = result.summary;
    io.block("run_summary", [&] {
      io.i64("from", s.from);
      io.i64("to", s.to);
      io.f64("energy_joules", s.energy_joules);
      io.f64("work_core_seconds", s.work_core_seconds);
      io.f64("effective_work_core_seconds", s.effective_work_core_seconds);
      io.f64("max_possible_work", s.max_possible_work);
      io.u64("launched_jobs", s.launched_jobs);
      io.u64("completed_jobs", s.completed_jobs);
      io.u64("killed_jobs", s.killed_jobs);
      io.u64("submitted_jobs", s.submitted_jobs);
      io.f64("mean_wait_seconds", s.mean_wait_seconds);
      io.f64("utilization", s.utilization);
      io.f64("mean_watts", s.mean_watts);
      io.f64("max_watts", s.max_watts);
      io.f64("cap_violation_seconds", s.cap_violation_seconds);
    });
    auto& st = result.stats;
    io.block("controller_stats", [&] {
      io.u64("submitted", st.submitted);
      io.u64("started", st.started);
      io.u64("completed", st.completed);
      io.u64("killed", st.killed);
      io.u64("rejected", st.rejected);
      io.u64("full_passes", st.full_passes);
      io.u64("backfill_starts", st.backfill_starts);
      io.u64("quick_attempts", st.quick_attempts);
      io.u64("selector_fast_fails", st.selector_fast_fails);
      io.u64("admission_fast_fails", st.admission_fast_fails);
    });
    io.list("samples", result.samples, [&](auto& sample) {
      io.row("sample", [&] {
        io.i64("t", sample.t);
        io.f64("watts", sample.watts);
        io.i64("idle_nodes", sample.idle_nodes);
        io.i64("off_nodes", sample.off_nodes);
        io.i64("transitioning_nodes", sample.transitioning_nodes);
        io.list("busy_by_freq", sample.busy_by_freq,
                [&](auto& busy) { io.i64("busy", busy); });
      });
    });
    io.f64("cap_watts", result.cap_watts);
    io.i64("cap_start", result.cap_start);
    io.i64("cap_end", result.cap_end);
    io.boolean("has_plan", result.has_plan);
    offline_plan(io, result.plan);
    io.list("windows", result.windows, [&](auto& window) {
      io.row("window", [&] {
        io.i64("start", window.start);
        io.i64("end", window.end);
        io.f64("watts", window.watts);
      });
    });
    io.list("plans", result.plans, [&](auto& plan) { offline_plan(io, plan); });
    io.f64("max_cluster_watts", result.max_cluster_watts);
    io.i64("total_cores", result.total_cores);
  });
}

template void scenario_config(Writer&, const core::ScenarioConfig&);
template void scenario_config(Reader&, core::ScenarioConfig&);
template void scenario_result(Writer&, const core::ScenarioResult&);
template void scenario_result(Reader&, core::ScenarioResult&);

std::string serialize(const core::ScenarioConfig& config) {
  return util::encode(config,
                      scenario_config<Writer, const core::ScenarioConfig>,
                      /*sealed=*/false);
}

std::string serialize(const core::ScenarioResult& result) {
  return util::encode(result,
                      scenario_result<Writer, const core::ScenarioResult>,
                      /*sealed=*/false);
}

core::ScenarioConfig parse_scenario_config(std::string_view text) {
  return util::decode(text, scenario_config<Reader, core::ScenarioConfig>,
                      /*sealed=*/false);
}

core::ScenarioResult parse_scenario_result(std::string_view text) {
  return util::decode(text, scenario_result<Reader, core::ScenarioResult>,
                      /*sealed=*/false);
}

}  // namespace ps::dist
