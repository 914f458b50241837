// The scenario records on the wire: the field walks of ScenarioConfig and
// ScenarioResult (composed into the sweep's shard and record documents,
// dist/protocol.h) and the per-job rows every trace cell and live-service
// submission carries. The codec itself, its grammar and its guarantees are
// util/wire.h; this file only says which fields a scenario has.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "util/wire.h"

namespace ps::dist {

// --- scenario walks (composed into the shard and record documents) -----------

template <class Io, class T>
void scenario_config(Io& io, T& config);
template <class Io, class T>
void scenario_result(Io& io, T& result);

std::string serialize(const core::ScenarioConfig& config);
std::string serialize(const core::ScenarioResult& result);
core::ScenarioConfig parse_scenario_config(std::string_view text);
core::ScenarioResult parse_scenario_result(std::string_view text);

/// Job-record rows (`jobs <n>` then one `job ...` row per request) — the
/// payload of ScenarioConfig::trace_jobs, reused verbatim by the live
/// service's submission documents (serve/protocol.h): one wire format for
/// job records everywhere.
void job_list(util::Writer& w, const std::vector<workload::JobRequest>& jobs);
void job_list(util::Reader& r, std::vector<workload::JobRequest>& jobs);

}  // namespace ps::dist
