// Quickstart: build a small cluster, submit a handful of jobs, impose a
// powercap window with the MIX policy and inspect what the scheduler did.
//
//   ./build/examples/quickstart
//
// This walks the public API at its lowest level (simulator + controller +
// powercap manager). For trace-scale experiments prefer core::run_scenario
// (see curie_day.cpp).
#include <cstdio>
#include <utility>
#include <vector>

#include "cluster/curie.h"
#include "core/powercap_manager.h"
#include "core/submission_pump.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"
#include "util/strings.h"

int main() {
  using namespace ps;

  // 1. A cluster: 2 racks of the Curie shape (2 x 5 chassis x 18 nodes =
  //    180 nodes, 2 880 cores) with the measured Fig 4 power table.
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(2);
  std::printf("cluster: %d nodes, max draw %.0f W, idle %.0f W\n",
              cl.topology().total_nodes(), cl.power_model().max_cluster_watts(),
              cl.power_model().idle_cluster_watts());

  // 2. The RJMS controller on a discrete-event simulator.
  sim::Simulator sim;
  rjms::Controller controller(sim, cl, rjms::ControllerConfig{});

  // 3. Powercap management with the MIX policy (shutdown + high-range DVFS).
  core::PowercapConfig powercap;
  powercap.policy = core::Policy::Mix;
  core::PowercapManager manager(controller, powercap);

  // 4. Metrics: record every state change for exact energy/work integrals.
  metrics::Recorder recorder(controller);

  // 5. A powercap reservation: 50% of max power for one hour starting at
  //    t = 30 min. The offline algorithm immediately plans grouped node
  //    shutdowns for the window.
  double cap = manager.lambda_to_watts(0.50);
  manager.add_powercap(sim::minutes(30), sim::minutes(90), cap);
  const core::OfflinePlan& plan = manager.plans().front();
  std::printf("cap: %.0f W; offline plan: %s (switching off %zu nodes: %d racks, "
              "%d chassis, %d singles)\n",
              cap, core::model::describe(plan.split).c_str(),
              plan.selection.nodes.size(), plan.selection.whole_racks,
              plan.selection.whole_chassis, plan.selection.singles);

  // 6. Submit work: a stream of 36-node jobs, one every 5 minutes, each
  //    running 25 min (requesting 1 h). The submission pump hands each job
  //    to the controller at its submit time.
  std::vector<workload::JobRequest> jobs;
  for (int i = 0; i < 24; ++i) {
    workload::JobRequest job;
    job.id = i + 1;
    job.submit_time = sim::minutes(5) * i;
    job.requested_cores = 36 * 16;
    job.base_runtime = sim::minutes(25);
    job.requested_walltime = sim::hours(1);
    job.user = i % 3;
    jobs.push_back(job);
  }
  workload::VectorJobSource source(std::move(jobs));
  core::SubmissionPump pump(sim, controller, source, /*horizon=*/sim::hours(3),
                            /*chunk=*/0, /*width_scale=*/1.0);
  pump.prime();
  // Events scheduled from here on are the run's own: at equal timestamps
  // they follow the submissions.
  sim.set_default_band(sim::EventBand::kNormal);

  // 7. Run three simulated hours and summarize.
  sim.run_until(sim::hours(3));
  recorder.sample(sim.now());
  metrics::RunSummary summary = metrics::summarize(recorder, controller, 0, sim::hours(3));
  std::printf("\n%s\n", summary.describe().c_str());

  // 8. Inspect individual decisions: which frequency did each job get?
  std::printf("\njob decisions (the online algorithm picks the highest frequency "
              "fitting every overlapped cap window):\n");
  controller.for_each_job([&cl](const rjms::Job& job) {
    if (job.start_time < 0) {
      std::printf("  job %2lld: never started (pending at horizon)\n",
                  static_cast<long long>(job.id()));
      return;
    }
    std::printf("  job %2lld: start %-7s freq %s  state %s\n",
                static_cast<long long>(job.id()),
                strings::human_duration_ms(job.start_time).c_str(),
                cl.frequencies().name(job.freq).c_str(), rjms::to_string(job.state));
  });
  return 0;
}
