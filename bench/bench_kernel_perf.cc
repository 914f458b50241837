// google-benchmark microbenchmarks of the simulation substrates: event
// queue throughput (bulk, interleaved, cancellation), incremental power
// accounting and the idle-node index, blocked-set construction, node
// selection and an end-to-end scenario. These back the claim that the
// discrete-event reproduction runs a full-scale 5 040-node, 5 h Curie
// replay in roughly a second.
//
// Unless the caller passes its own --benchmark_out, results are also
// written to BENCH_kernel.json (google-benchmark JSON schema; see
// bench/README.md) so the perf trajectory is machine-readable PR to PR.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/curie.h"
#include "core/experiment.h"
#include "core/fingerprint.h"
#include "core/offline.h"
#include "core/online.h"
#include "core/powercap_manager.h"
#include "core/submission_pump.h"
#include "core/sweep.h"
#include "dist/protocol.h"
#include "metrics/timeseries.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rjms/controller.h"
#include "serve/fair.h"
#include "serve/protocol.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/spool.h"
#include "workload/job_source.h"
#include "workload/swf.h"

// --- allocation counter ------------------------------------------------------
//
// Replaced global new/delete counting every (unaligned) heap allocation in
// the process: the replay kernels report allocations *per job* so the
// "allocation-free submission path" claim is measured, not asserted. A
// relaxed atomic increment is noise next to malloc itself.
static std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ps;

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// The event-queue kernels time the queue alone: nothing handles their
/// events.
struct InertHandler final : sim::EventHandler {
  void on_event(const sim::Event&) override {}
};

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<sim::Time> times;
  times.reserve(n);
  for (std::size_t i = 0; i < n; ++i) times.push_back(rng.uniform_int(0, 1 << 20));
  InertHandler handler;
  for (auto _ : state) {
    sim::EventQueue queue;
    std::int64_t arg = 0;
    for (sim::Time t : times) queue.push(t, sim::EventBand::kNormal, handler, 1, ++arg);
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

// Steady-state simulator shape: a standing population of events where each
// pop triggers a fresh push (job end schedules the next pass, etc.). This is
// the shape a replay drives; BM_EventQueuePushPop's push-everything-then-
// drain shape is one no replay produces since submissions are pumped.
void BM_EventQueueInterleaved(benchmark::State& state) {
  const auto standing = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  InertHandler handler;
  sim::EventQueue queue;
  sim::Time now = 0;
  for (std::size_t i = 0; i < standing; ++i) {
    queue.push(rng.uniform_int(0, 1 << 16), sim::EventBand::kNormal, handler, 1,
               static_cast<std::int64_t>(i));
  }
  for (auto _ : state) {
    const sim::Event fired = queue.pop();
    now = fired.time;
    queue.push(now + 1 + rng.uniform_int(0, 1 << 16), sim::EventBand::kNormal, handler, 1,
               fired.arg);
    benchmark::DoNotOptimize(fired.time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueInterleaved)->Arg(1024)->Arg(16384);

void BM_ClusterSetState(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  util::Rng rng(2);
  std::int32_t total = cl.topology().total_nodes();
  for (auto _ : state) {
    auto node = static_cast<cluster::NodeId>(rng.uniform_int(0, total - 1));
    bool busy = rng.chance(0.5);
    cl.set_state(node, busy ? cluster::NodeState::Busy : cluster::NodeState::Idle,
                 busy ? 7 : 0);
    benchmark::DoNotOptimize(cl.watts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterSetState);

void BM_ClusterAuditWatts(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  for (cluster::NodeId n = 0; n < cl.topology().total_nodes(); n += 3) {
    cl.set_state(n, cluster::NodeState::Busy, 7);
  }
  for (auto _ : state) benchmark::DoNotOptimize(cl.audit_watts());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cl.topology().total_nodes());
}
BENCHMARK(BM_ClusterAuditWatts);

// Consuming the idle index the way PackingSelector does: walk buckets in
// (idle asc, id asc) order over a fragmented full-scale machine.
void BM_IdleIndexWalk(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  util::Rng rng(11);
  for (cluster::NodeId n = 0; n < cl.topology().total_nodes(); ++n) {
    if (rng.chance(0.6)) cl.set_state(n, cluster::NodeState::Busy, 7);
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (std::int32_t idle = 1; idle <= cl.topology().nodes_per_chassis(); ++idle) {
      cl.visit_idle_bucket(idle, [&sum](cluster::ChassisId c) {
        sum += c;
        return false;
      });
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IdleIndexWalk);

// A job's node changes the way the controller makes them: a packed list of
// N consecutive nodes (chassis-aligned, as the packing selector takes them
// from an empty machine) set Busy at start, then Idle at the end, on a
// full-scale machine. Items are node changes.
void BM_ClusterJobStartEnd(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  std::vector<cluster::NodeId> nodes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = static_cast<cluster::NodeId>(i);
  for (auto _ : state) {
    cl.set_state(nodes, cluster::NodeState::Busy, 7);
    cl.set_state(nodes, cluster::NodeState::Idle);
    benchmark::DoNotOptimize(cl.watts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK(BM_ClusterJobStartEnd)->Arg(1)->Arg(18)->Arg(180);

// A realistic reservation book at Curie scale: a cap window plus two
// switch-off and two maintenance windows of ~256 random nodes each,
// starting at 0, 10, 20 and 30 minutes.
rjms::ReservationBook make_blocking_book(const cluster::Cluster& cl) {
  rjms::ReservationBook book;
  {
    rjms::Reservation cap;
    cap.kind = rjms::ReservationKind::Powercap;
    cap.start = 0;
    cap.end = sim::hours(2);
    cap.watts = 1e6;
    book.add(std::move(cap));
  }
  util::Rng rng(13);
  for (int r = 0; r < 4; ++r) {
    rjms::Reservation res;
    res.kind = r % 2 == 0 ? rjms::ReservationKind::SwitchOff
                          : rjms::ReservationKind::Maintenance;
    res.start = sim::minutes(10 * r);
    res.end = sim::hours(1 + r);
    for (int i = 0; i < 256; ++i) {
      res.nodes.push_back(static_cast<cluster::NodeId>(
          rng.uniform_int(0, cl.topology().total_nodes() - 1)));
    }
    std::sort(res.nodes.begin(), res.nodes.end());
    res.nodes.erase(std::unique(res.nodes.begin(), res.nodes.end()), res.nodes.end());
    book.add(std::move(res));
  }
  return book;
}

// Blocked-set queries the way a pass makes them: each job brings its own
// horizon, here always past every window start, so every query blocks the
// same reservations and the set answers from its horizon interval.
void BM_BlockedSetBuild(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  rjms::ReservationBook book = make_blocking_book(cl);
  rjms::BlockedSet blocked;
  sim::Time horizon = sim::minutes(30);
  for (auto _ : state) {
    horizon += 1;  // a new horizon each iteration, the same blocking set
    blocked.ensure(book, 0, horizon, cl.topology().total_nodes());
    benchmark::DoNotOptimize(blocked.window(0, 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockedSetBuild);

// The rewrite path: horizons alternate between 15 and 45 minutes, so the
// blocking set alternates between two and four windows and every query
// walks the book and rewrites the words.
void BM_BlockedSetRebuild(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  rjms::ReservationBook book = make_blocking_book(cl);
  rjms::BlockedSet blocked;
  bool late = false;
  for (auto _ : state) {
    late = !late;
    blocked.ensure(book, 0, late ? sim::minutes(45) : sim::minutes(15),
                   cl.topology().total_nodes());
    benchmark::DoNotOptimize(blocked.window(0, 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockedSetRebuild);

template <rjms::SelectorKind kKind>
void BM_NodeSelection(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  // Fragment the machine: every third node busy.
  for (cluster::NodeId n = 0; n < cl.topology().total_nodes(); n += 3) {
    cl.set_state(n, cluster::NodeState::Busy, 7);
  }
  rjms::ReservationBook book;
  rjms::BlockedSet blocked;
  blocked.ensure(book, 0, sim::hours(1), cl.topology().total_nodes());
  auto selector = rjms::make_selector(kKind);
  rjms::SelectionContext ctx{cl, blocked};
  std::vector<cluster::NodeId> nodes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        selector->select(ctx, static_cast<std::int32_t>(state.range(0)), nodes));
    benchmark::DoNotOptimize(nodes.data());
  }
}
void BM_NodeSelectionPacking(benchmark::State& state) {
  BM_NodeSelection<rjms::SelectorKind::Packing>(state);
}
BENCHMARK(BM_NodeSelectionPacking)->Arg(1)->Arg(32)->Arg(512);
void BM_NodeSelectionLinear(benchmark::State& state) {
  BM_NodeSelection<rjms::SelectorKind::Linear>(state);
}
BENCHMARK(BM_NodeSelectionLinear)->Arg(512);
void BM_NodeSelectionSpread(benchmark::State& state) {
  BM_NodeSelection<rjms::SelectorKind::Spread>(state);
}
BENCHMARK(BM_NodeSelectionSpread)->Arg(512);

// --- admission-path benchmarks (512-node config) ---------------------------
//
// A 512-node machine (4 racks x 8 chassis x 16 nodes, Curie power values)
// under unsatisfiable future powercap windows: every pending job is priced
// by the governor on every pass and stays pending. This is the worst case
// the admission path (submit-time quick attempts, epoch-keyed admission
// cache, interval-indexed reservation book) is built for.

cluster::Cluster make_512_node_cluster() {
  cluster::Topology topo(4, 8, 16, cluster::curie::kCoresPerNode);
  cluster::PowerModelSpec spec{cluster::curie::kDownWatts,
                               cluster::curie::kIdleWatts,
                               cluster::curie::kIdleWatts,
                               cluster::curie::kIdleWatts,
                               cluster::curie::kChassisInfraWatts,
                               cluster::curie::kRackInfraWatts,
                               cluster::curie::frequency_table()};
  return cluster::Cluster(cluster::PowerModel(std::move(topo), std::move(spec)));
}

struct AdmissionBenchRig {
  explicit AdmissionBenchRig(std::size_t backfill_depth)
      : AdmissionBenchRig(config_for(backfill_depth)) {}
  explicit AdmissionBenchRig(const rjms::ControllerConfig& config)
      : cl(make_512_node_cluster()), controller(sim, cl, config),
        governor(controller, powercap_config()) {
    controller.set_governor(&governor);
    controller.add_observer(&governor);
    // Four future cap windows no frequency can satisfy (PaperLiveStrict
    // keeps overlapping jobs pending) plus six switch-off reservations the
    // window pricing must aggregate — the per-admission work repeated for
    // every pending job.
    for (int w = 0; w < 4; ++w) {
      controller.add_powercap_reservation(sim::hours(1 + w), sim::hours(2 + w), 1000.0);
    }
    for (int c = 0; c < 6; ++c) {
      controller.add_switch_off_reservation(sim::hours(1), sim::hours(5),
                                            cl.topology().nodes_of_chassis(c), 6692.0,
                                            /*permissive=*/true);
    }
  }

  static ps::rjms::ControllerConfig config_for(std::size_t backfill_depth) {
    rjms::ControllerConfig config;
    config.priority.age = 0.0;
    config.priority.size = 0.0;
    config.priority.fair_share = 0.0;
    config.fairshare_enabled = false;
    config.backfill_depth = backfill_depth;
    return config;
  }

  static core::PowercapConfig powercap_config() {
    core::PowercapConfig pc;
    pc.policy = core::Policy::Mix;
    pc.admission = core::AdmissionMode::PaperLiveStrict;
    return pc;
  }

  workload::JobRequest request(std::int64_t id, std::int64_t cores,
                               sim::Duration walltime) {
    workload::JobRequest req;
    req.id = id;
    req.submit_time = sim.now();
    req.user = static_cast<std::int32_t>(id % 16);
    req.requested_cores = cores;
    req.base_runtime = sim::hours(1);
    req.requested_walltime = walltime;
    return req;
  }

  sim::Simulator sim;
  cluster::Cluster cl;
  rjms::Controller controller;
  core::OnlineGovernor governor;
};

// One forced full pass per iteration over the queue `make_rig` builds. A
// far-future maintenance reservation bumps the controller epoch and the
// book version and triggers a coalesced pass without otherwise affecting
// admission. The book only grows, so a fresh rig replaces the rig every
// kPassesPerRig passes, outside timing: the book and the pending count
// stay bounded whatever the iteration count.
constexpr int kPassesPerRig = 16;

template <typename MakeRig>
void run_forced_passes(benchmark::State& state, MakeRig make_rig) {
  std::unique_ptr<AdmissionBenchRig> rig = make_rig();
  int passes = 0;
  for (auto _ : state) {
    if (passes++ == kPassesPerRig) {
      state.PauseTiming();
      rig = make_rig();
      passes = 1;
      state.ResumeTiming();
    }
    rig->controller.add_maintenance_reservation(sim::hours(24), sim::hours(25), {0});
    rig->sim.run_until(rig->sim.now());
    benchmark::DoNotOptimize(rig->controller.pending_count());
  }
}

// Full-pass cost over a deep pending queue: N jobs of 8 distinct
// (width, walltime) classes, all power-blocked by the future windows. Every
// pass re-prices the whole queue but orders only the prefix it visits; the
// 4096 shape matches the 112-day streamed replay's peak queue. One
// iteration = one forced full pass over the queue.
void BM_AdmissionDeepPendingPass(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  run_forced_passes(state, [pending] {
    auto rig = std::make_unique<AdmissionBenchRig>(pending);
    for (std::size_t i = 0; i < pending; ++i) {
      auto klass = static_cast<std::int64_t>(i % 8);
      rig->controller.submit(rig->request(static_cast<std::int64_t>(i + 1),
                                          (klass + 1) * 16,
                                          sim::hours(2) + sim::minutes(klass)));
    }
    rig->sim.run_until(rig->sim.now());  // initial pass prices the whole queue
    return rig;
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pending));
}
BENCHMARK(BM_AdmissionDeepPendingPass)->Arg(256)->Arg(1024)->Arg(4096);

// The same forced pass over the queue shape of the Fig-8 replays: default
// priority weights, fair share on, the default backfill depth, and N jobs
// of 200 users with distinct submit times and sizes (the gated kernel
// above has 16 users whose jobs each share one (submit, cores) class). A
// pass prices each user's band head and the ~50 jobs it visits. Ungated.
void BM_AdmissionDeepPendingPassFig8Shape(benchmark::State& state) {
  const auto pending = static_cast<std::int64_t>(state.range(0));
  run_forced_passes(state, [pending] {
    auto rig = std::make_unique<AdmissionBenchRig>(rjms::ControllerConfig{});
    const sim::Time opened = sim::minutes(10);
    rig->sim.run_until(opened);
    for (std::int64_t i = 0; i < pending; ++i) {
      workload::JobRequest req = rig->request(i + 1, 1 + (i * 37) % 256,
                                              sim::hours(2) + sim::minutes(i % 8));
      req.submit_time = opened * i / pending;
      req.user = static_cast<std::int32_t>(i % 200);
      rig->controller.submit(req);
    }
    rig->sim.run_until(rig->sim.now());
    return rig;
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * pending);
}
BENCHMARK(BM_AdmissionDeepPendingPassFig8Shape)->Arg(1024)->Arg(4096);

// Submit-burst cost with a cached EASY shadow: each iteration submits a
// same-millisecond burst of one job class; every attempt fails governor
// admission and stays pending. Fixed iteration count keeps the job table
// bounded and runs comparable across versions.
void BM_AdmissionBurstSubmit(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  AdmissionBenchRig rig(50);
  // Full-width head: fails admission, leaves a cached shadow for the burst.
  rig.controller.submit(rig.request(1, 512 * 16, sim::hours(2)));
  rig.sim.run_until(rig.sim.now());
  std::int64_t next_id = 2;
  for (auto _ : state) {
    for (std::size_t b = 0; b < burst; ++b) {
      rig.controller.submit(rig.request(next_id++, 64, sim::hours(2)));
    }
    rig.sim.run_until(rig.sim.now());  // no-op: each attempt ran inside submit()
    benchmark::DoNotOptimize(rig.controller.pending_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_AdmissionBurstSubmit)->Arg(64)->Iterations(256);

// One job's life in the controller, capless: N jobs submitted one per
// second by the submission pump, each 4 nodes for 30 s, so every
// submission starts at once on the 90-node rack and ~30 run at a time.
// One iteration = a fresh controller running all N to their end, so
// job-table growth is in the count. allocs_per_job counts heap allocations
// from the first submission to the last end (the pump's buffer is filled
// before); the node list is the one a job cannot avoid. Ungated.
void BM_ControllerJobLifecycle(benchmark::State& state) {
  const std::int64_t jobs = state.range(0);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    cluster::Cluster cl = cluster::curie::make_scaled_cluster(1);
    rjms::Controller controller(sim, cl, rjms::ControllerConfig{});
    std::vector<workload::JobRequest> requests;
    for (std::int64_t id = 1; id <= jobs; ++id) {
      workload::JobRequest req;
      req.id = id;
      req.submit_time = sim::seconds(id);
      req.user = static_cast<std::int32_t>(id % 16);
      req.requested_cores = 64;
      req.base_runtime = sim::seconds(30);
      req.requested_walltime = sim::seconds(60);
      requests.push_back(req);
    }
    workload::VectorJobSource source(std::move(requests));
    core::SubmissionPump pump(sim, controller, source, sim::seconds(jobs), /*chunk=*/0,
                              /*width_scale=*/1.0);
    pump.prime();
    sim.set_default_band(sim::EventBand::kNormal);
    std::uint64_t before = allocations();
    while (sim.step()) {}
    allocs += allocations() - before;
    benchmark::DoNotOptimize(controller.stats().completed);
  }
  state.counters["allocs_per_job"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations() * jobs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * jobs);
}
BENCHMARK(BM_ControllerJobLifecycle)->Arg(1024)->Arg(16384);

// One recorded event: a node changes state, then Recorder::sample runs at
// a new instant, so every iteration appends a sample to the series. The
// iteration count is fixed near the 276k samples of a quarter_daily
// replay, which bounds the series' memory. allocs_per_sample counts heap
// blocks per appended sample. Ungated.
void BM_RecorderSample(benchmark::State& state) {
  sim::Simulator sim;
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(1);
  rjms::Controller controller(sim, cl, rjms::ControllerConfig{});
  metrics::Recorder recorder(controller);
  const cluster::FreqIndex top = cl.frequencies().max_index();
  sim::Time now = 0;
  const std::uint64_t before = allocations();
  for (auto _ : state) {
    ++now;
    cl.set_state(0, now % 2 == 1 ? cluster::NodeState::Busy : cluster::NodeState::Idle,
                 top);
    recorder.sample(now);
  }
  benchmark::DoNotOptimize(recorder.samples().back().watts);
  state.counters["allocs_per_sample"] =
      static_cast<double>(allocations() - before) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RecorderSample)->Iterations(1 << 18);

// Random-interval query throughput: one scan of the book, from a handful
// of reservations (/8) to thousands of single-node ones (/4096). No replay
// builds a book that large (quarter_daily holds 224 reservations and asks
// 112 interval queries), so /4096 prices a shape the scan was not sized
// for.
void BM_ReservationOverlapQuery(benchmark::State& state) {
  const auto count = static_cast<std::int32_t>(state.range(0));
  rjms::ReservationBook book;
  util::Rng rng(17);
  for (std::int32_t i = 0; i < count; ++i) {
    rjms::Reservation res;
    res.kind = i % 3 == 0 ? rjms::ReservationKind::SwitchOff
                          : rjms::ReservationKind::Maintenance;
    res.start = rng.uniform_int(0, sim::hours(48));
    res.end = res.start + sim::minutes(10) + rng.uniform_int(0, sim::hours(2));
    res.nodes.push_back(i % 512);
    book.add(std::move(res));
  }
  std::int64_t hits = 0;
  for (auto _ : state) {
    sim::Time from = rng.uniform_int(0, sim::hours(48));
    std::int32_t n = 0;
    book.for_each_overlapping(rjms::ReservationKind::Maintenance, from,
                              from + sim::minutes(30),
                              [&n](const rjms::Reservation&) { ++n; });
    hits += n;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReservationOverlapQuery)->Arg(8)->Arg(256)->Arg(4096);

// The regime of a streamed replay's questions about `now`: 112 daily cap
// windows (08:00-20:00) with a switch-off plan over each, asked about a
// clock that only moves forward, 10 s a step, wrapping after the last day.
// Each iteration makes the recorder's cap_at and release_node's switch-off
// lookup, both answered off the book's memo of the active set. Ungated;
// the random-interval kernel above prices the scan a memo miss refills by.
void BM_ReservationActiveAtNow(benchmark::State& state) {
  rjms::ReservationBook book;
  for (int day = 0; day < 112; ++day) {
    rjms::Reservation cap;
    cap.kind = rjms::ReservationKind::Powercap;
    cap.start = sim::hours(24 * day + 8);
    cap.end = cap.start + sim::hours(12);
    cap.watts = 100000.0;
    rjms::Reservation off = cap;
    off.kind = rjms::ReservationKind::SwitchOff;
    for (cluster::NodeId n = 0; n < 64; ++n) off.nodes.push_back(8 * n + day % 8);
    off.permissive = true;
    book.add(std::move(cap));
    book.add(std::move(off));
  }
  const sim::Time lap = sim::hours(24 * 112);
  sim::Time now = 0;
  std::int64_t hits = 0;
  for (auto _ : state) {
    now += sim::seconds(10);
    if (now >= lap) now = 0;
    bool switch_off = false;
    book.for_each_active(rjms::ReservationKind::SwitchOff, now,
                         [&switch_off](const rjms::Reservation& res) {
                           switch_off = switch_off || std::binary_search(res.nodes.begin(),
                                                                         res.nodes.end(), 7);
                         });
    hits += (book.cap_at(now) < 1e9 ? 1 : 0) + (switch_off ? 1 : 0);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReservationActiveAtNow);

// Algorithm 2 pricing alone, in the regime of the 112-day streamed replay:
// 112 daily cap windows (08:00-20:00 at 60 % of the 512-node machine's
// peak) plus the switch-off plans the offline phase made for them, and
// jobs whose multi-day walltimes overlap several future windows. Each
// iteration advances the clock one millisecond, so the verdict cache
// clears and the admission is priced afresh. Ungated.
void BM_AdmitAcrossDailyWindows(benchmark::State& state) {
  sim::Simulator sim;
  cluster::Cluster cl = make_512_node_cluster();
  rjms::Controller controller(sim, cl, AdmissionBenchRig::config_for(50));
  core::PowercapConfig pc;
  pc.policy = core::Policy::Mix;
  core::PowercapManager manager(controller, pc);
  std::vector<core::PlanWindow> windows;
  double cap = 0.6 * cl.power_model().max_cluster_watts();
  for (int day = 0; day < 112; ++day) {
    sim::Time start = sim::hours(24 * day + 8);
    windows.push_back(core::PlanWindow{start, start + sim::hours(12), cap});
  }
  manager.add_powercap_schedule(windows);
  sim.run_until(sim::hours(1));  // all setup passes and boundaries settled

  const std::int32_t widths[] = {16, 64, 256, 512};
  std::vector<cluster::NodeId> nodes;
  rjms::Job job;
  job.request.requested_walltime = sim::hours(72);
  job.request.base_runtime = sim::hours(48);
  std::int64_t admitted = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    nodes.resize(static_cast<std::size_t>(widths[i++ % 4]));
    sim.run_until(sim.now() + 1);
    admitted += manager.governor().admit(job, nodes).has_value() ? 1 : 0;
    benchmark::DoNotOptimize(admitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AdmitAcrossDailyWindows);

// --- sweep & multi-window kernels ------------------------------------------

// The Fig-8 grid shape at test scale (9 cells, 1 rack) through the sweep
// engine; Arg = thread count. BENCH_kernel.json then records the wall-clock
// at threads=1 next to threads=4, making the sweep speedup machine-readable
// PR to PR (on a 1-vCPU CI box the two coincide — the gate pins /1).
void BM_SweepFig8Grid(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "sweep-kernel";
  params.span = sim::minutes(20);
  params.job_count = 150;
  params.w_huge = 0.0;
  const std::vector<std::pair<double, core::Policy>> scenarios = {
      {0.40, core::Policy::Mix},  {0.40, core::Policy::Dvfs}, {0.40, core::Policy::Shut},
      {0.60, core::Policy::Mix},  {0.60, core::Policy::Dvfs}, {0.60, core::Policy::Shut},
      {0.80, core::Policy::Shut}, {0.80, core::Policy::Dvfs}, {1.00, core::Policy::None}};
  std::vector<core::ScenarioConfig> cells;
  for (const auto& [lambda, policy] : scenarios) {
    core::ScenarioConfig config;
    config.custom_workload = params;
    config.racks = 1;
    config.seed = 20150525;
    config.powercap.policy = policy;
    config.cap_lambda = lambda;
    cells.push_back(config);
  }
  core::SweepEngine engine(threads);
  for (auto _ : state) {
    auto results = engine.run(cells);
    benchmark::DoNotOptimize(results.front().summary.energy_joules);
  }
  state.counters["threads"] = static_cast<double>(engine.thread_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_SweepFig8Grid)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Multi-window offline planning at full Curie scale: a 24 h day of 12
// windows cycling 3 cap depths (selections of thousands of nodes each).
// One planner prices the schedule — 3 distinct caps planned, 9 reused from
// the plan cache, each selection materialized as a top-of-id-space block.
// Reservation registration is excluded, so the kernel isolates the
// planning work.
void multi_window_day(std::vector<core::PlanWindow>& windows, double max_watts) {
  const double lambdas[] = {0.5, 0.4, 0.6};
  for (int w = 0; w < 12; ++w) {
    windows.push_back({sim::hours(2 * w), sim::hours(2 * w + 2),
                       lambdas[w % 3] * max_watts});
  }
}

void BM_OfflineMultiWindow(benchmark::State& state) {
  cluster::Cluster cl = cluster::curie::make_cluster();
  sim::Simulator sim;
  rjms::Controller controller(sim, cl, {});
  core::PowercapConfig config;
  config.policy = core::Policy::Mix;
  std::vector<core::PlanWindow> windows;
  multi_window_day(windows, cl.power_model().max_cluster_watts());
  for (auto _ : state) {
    core::OfflinePlanner planner(controller, config);  // plan cache cold per schedule
    std::size_t nodes = 0;
    for (const core::PlanWindow& window : windows) {
      nodes += planner.compute_plan(window.cap_watts).selection.nodes.size();
    }
    benchmark::DoNotOptimize(nodes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_OfflineMultiWindow);

// --- distributed sweep serde/spool kernel -----------------------------------

// The per-cell overhead a distributed sweep pays over an in-process one:
// serialize a fully-populated cell record (result with samples, plans and
// a node selection), publish it through the spool's atomic write-rename,
// claim it back by rename, read and parse it, and re-verify the
// fingerprint — the worker-side publish plus the driver-side merge for
// one cell. Publication runs durable=false (no fsync): this kernel is
// gated in CI, and sync latency on shared runners varies far more than
// the 10% threshold while being uncorrelated with the CPU-bound
// calibration kernel.
void BM_DistSweepSpool(benchmark::State& state) {
  core::ScenarioConfig config;
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "spool-kernel";
  params.span = sim::minutes(10);
  params.job_count = 80;
  params.w_huge = 0.0;
  config.custom_workload = params;
  config.racks = 1;
  config.seed = 20150525;
  config.powercap.policy = core::Policy::Mix;
  config.cap_lambda = 0.5;

  dist::ShardResults results;
  results.id = 0;
  dist::CellRecord record;
  record.index = 7;
  record.result = core::run_scenario(config);
  record.fingerprint = core::fingerprint(record.result);
  results.records.push_back(std::move(record));

  std::string spool = util::make_temp_dir("ps-bench-spool-");
  std::string published = spool + "/" + dist::results_file_name(0, 1);
  std::string claimed = published + ".claimed";
  for (auto _ : state) {
    util::write_file_atomic(published, dist::serialize_shard_results(results),
                            /*durable=*/false);
    if (!util::claim_file(published, claimed, /*durable=*/false)) std::abort();
    dist::ShardResults parsed = dist::parse_shard_results(util::read_file(claimed));
    if (core::fingerprint(parsed.records[0].result) != parsed.records[0].fingerprint) {
      std::abort();
    }
    util::remove_file(claimed);
    benchmark::DoNotOptimize(parsed.records[0].index);
  }
  util::remove_tree(spool);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DistSweepSpool);

// The pure CPU cost of the spool integrity layer: seal a shard_results
// document (FNV-1a over the body + checksum line) and open it back
// (checksum verify). No filesystem — this isolates the price every spool
// read/write now pays for torn-write detection, which is why it is gated
// separately from the I/O-bound BM_DistSweepSpool.
void BM_SpoolChecksum(benchmark::State& state) {
  core::ScenarioConfig config;
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "checksum-kernel";
  params.span = sim::minutes(10);
  params.job_count = 80;
  params.w_huge = 0.0;
  config.custom_workload = params;
  config.racks = 1;
  config.seed = 20150525;
  config.powercap.policy = core::Policy::Mix;
  config.cap_lambda = 0.5;

  dist::ShardResults results;
  results.id = 0;
  dist::CellRecord record;
  record.index = 7;
  record.result = core::run_scenario(config);
  record.fingerprint = core::fingerprint(record.result);
  results.records.push_back(std::move(record));
  // serialize_shard_results seals internally; strip the seal to isolate
  // seal+open as the measured unit over a realistic document body.
  std::string sealed = dist::serialize_shard_results(results);
  std::string body(util::open_document(sealed));

  std::uint64_t sink = 0;
  for (auto _ : state) {
    std::string doc = util::seal_document(body);
    sink ^= util::open_document(doc).size();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_SpoolChecksum);

// One full live-service ingest cycle for a 64-job submission batch: the
// client side serializes and publishes the sealed document into the inbox,
// the server side claims it, parses it back and removes the claim — the
// per-document price of the ps-serve spool protocol (src/serve/), measured
// end to end including the job-list serde and both filesystem renames.
// items_processed counts *jobs*, so the rate reads directly against the
// sustained-throughput target (~1M submissions/hour ≈ 280 jobs/s is three
// orders of magnitude below what this kernel sustains).
void BM_ServeIngest(benchmark::State& state) {
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "serve-kernel";
  params.span = sim::minutes(10);
  params.job_count = 64;
  params.w_huge = 0.0;
  workload::ChunkedSyntheticSource source(params, 20150525);

  serve::Submission submission;
  submission.client = "bench";
  submission.seq = 0;
  submission.jobs = workload::materialize(source);
  submission.watermark = submission.jobs.back().submit_time;
  submission.eof = true;

  std::string spool = util::make_temp_dir("ps-bench-serve-");
  util::ensure_dir(serve::inbox_dir(spool));
  util::ensure_dir(serve::accepted_dir(spool));
  std::string published =
      serve::inbox_dir(spool) + "/" + serve::submission_file_name("bench", 0);
  std::string claimed =
      serve::accepted_dir(spool) + "/" + serve::submission_file_name("bench", 0);
  for (auto _ : state) {
    submission.publish_ns = serve::monotonic_ns();
    util::write_file_atomic(published, serve::serialize_submission(submission),
                            /*durable=*/false);
    if (!util::claim_file(published, claimed, /*durable=*/false)) std::abort();
    serve::Submission parsed = serve::parse_submission(util::read_file(claimed));
    if (parsed.jobs.size() != submission.jobs.size()) std::abort();
    util::remove_file(claimed);
    benchmark::DoNotOptimize(parsed.seq);
  }
  util::remove_tree(spool);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(submission.jobs.size()));
}
BENCHMARK(BM_ServeIngest);

// Deficit-weighted round-robin admission bookkeeping (serve/fair.h) in
// isolation: one admit cycle over 8 backlogged tenants with weights 1..4,
// draining each tenant's deficit with mixed-cost documents until every
// tenant defers. This is pure map arithmetic — no I/O, no clock reads —
// and it runs once per serve-loop iteration, so its price bounds how much
// the fairness layer can add to ingest latency. items_processed counts
// try_admit calls.
void BM_ServeFairAdmit(benchmark::State& state) {
  serve::TenantQuotaOptions options;
  options.quantum_jobs = 64;
  options.window_ms = 100;
  options.window_jobs = 4096;
  serve::FairAdmitter admitter(options);
  std::vector<std::string> tenants;
  for (int t = 0; t < 8; ++t) {
    tenants.push_back("tenant" + std::to_string(t));
    admitter.add_tenant(tenants.back(), static_cast<std::uint64_t>(t % 4 + 1));
  }
  const std::uint64_t costs[4] = {16, 64, 33, 7};
  std::int64_t now_ms = 0;
  std::int64_t admits = 0;
  for (auto _ : state) {
    admitter.begin_cycle(now_ms, tenants);
    bool progressed = true;
    std::size_t round = 0;
    while (progressed) {
      progressed = false;
      for (const std::string& tenant : tenants) {
        if (admitter.try_admit(tenant, costs[round % 4])) progressed = true;
        ++admits;
      }
      ++round;
    }
    now_ms += options.window_ms;  // fresh window each iteration
    benchmark::DoNotOptimize(admitter.window_deferrals());
  }
  state.SetItemsProcessed(admits);
}
BENCHMARK(BM_ServeFairAdmit);

// --- observability overhead ---------------------------------------------------
//
// The obs substrate (src/obs/) ships enabled in every binary, so its
// per-call price is fenced directly: a Counter::inc is one relaxed load
// plus one relaxed fetch_add, a disabled inc is the load + branch alone
// (the kill-switch floor), and a span outside a trace session is one
// relaxed load. Setting PS_OBS_DISABLED=1 in the environment flips the
// global registry off for whole-suite A/B runs — CI compares
// BM_ServeIngest / BM_AdmissionBurstSubmit across the two within 2%
// (tools/check_bench_regression.py --kernels ... --threshold 0.02).
void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter& counter = obs::Registry::global().counter("bench.obs.inc");
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterIncDisabled(benchmark::State& state) {
  // A private registry so the global kill switch stays untouched.
  obs::Registry registry;
  registry.set_enabled(false);
  obs::Counter& counter = registry.counter("bench.obs.disabled");
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterIncDisabled);

void BM_TraceSpan(benchmark::State& state) {
  // Tracing off (the shipping default): what PS_TRACE_SPAN costs when left
  // in production code.
  for (auto _ : state) {
    PS_TRACE_SPAN("bench.span");
  }
}
BENCHMARK(BM_TraceSpan);

// --- streaming trace pipeline kernels ----------------------------------------
//
// Fixture: the default curie_month trace (50k jobs over 4 weeks, the
// make_curie_month tool's output) written once next to the CWD. The replay
// kernels drive it through core::run_scenario both ways — materialized
// (trace loaded up front) and streamed (SwfStreamSource + 6 h submission
// chunks) — at the scaled 2-rack machine of the trace-golden tests, and
// report heap allocations per replayed job from the counting operator new
// above. Streamed wall-clock is gated; the materialized twin rides along
// in BENCH_kernel.json so the stream-vs-materialize cost stays readable
// PR to PR.

const std::string& replay_trace_path() {
  static const std::string path = [] {
    workload::ChunkedSyntheticSource source(workload::curie_month_params(), 20111001);
    std::vector<workload::JobRequest> jobs = workload::materialize(source);
    std::string p = "bench_curie_month.swf";
    std::ofstream out(p);
    workload::swf::write(out, jobs);
    out.flush();
    if (!out) {
      // A silently empty fixture would make the replay kernels report
      // NaN counters against the gated baseline; fail the setup instead.
      std::fprintf(stderr, "cannot write %s in the CWD\n", p.c_str());
      std::abort();
    }
    return p;
  }();
  return path;
}

core::ScenarioConfig replay_config() {
  core::ScenarioConfig config;
  config.racks = 2;
  config.powercap.policy = core::Policy::Mix;
  config.cap_lambda = 0.5;
  return config;
}

void BM_TraceReplayStream(benchmark::State& state) {
  const std::string& path = replay_trace_path();
  std::uint64_t jobs_replayed = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    workload::SwfStreamSource::Options options;
    options.parse.skip_zero_runtime = true;
    core::ScenarioConfig config = replay_config();
    config.job_source = std::make_shared<workload::SwfStreamSource>(path, options);
    config.submit_chunk = sim::hours(6);
    std::uint64_t before = allocations();
    core::ScenarioResult result = core::run_scenario(config);
    allocs += allocations() - before;
    jobs_replayed += result.stats.submitted;
    benchmark::DoNotOptimize(result.summary.energy_joules);
  }
  state.counters["allocs_per_job"] =
      static_cast<double>(allocs) / static_cast<double>(jobs_replayed);
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs_replayed));
}
BENCHMARK(BM_TraceReplayStream)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_TraceReplayMaterialized(benchmark::State& state) {
  const std::string& path = replay_trace_path();
  std::uint64_t jobs_replayed = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    workload::swf::ParseOptions options;
    options.skip_zero_runtime = true;
    std::uint64_t before = allocations();
    std::vector<workload::JobRequest> jobs = workload::swf::load_file(path, options);
    workload::swf::rebase_submit_times(jobs);
    core::ScenarioConfig config = replay_config();
    config.trace_jobs = std::move(jobs);
    core::ScenarioResult result = core::run_scenario(config);
    allocs += allocations() - before;
    jobs_replayed += result.stats.submitted;
    benchmark::DoNotOptimize(result.summary.energy_joules);
  }
  state.counters["allocs_per_job"] =
      static_cast<double>(allocs) / static_cast<double>(jobs_replayed);
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs_replayed));
}
BENCHMARK(BM_TraceReplayMaterialized)->Unit(benchmark::kMillisecond)->Iterations(3);

// The SWF line parser alone: the 50k-line curie_month buffer decoded from
// memory (getline + in-place from_chars tokenizer; the pre-PR-5 path built
// a vector<string> per line and ran stoll-style parses per field).
void BM_SwfParse(benchmark::State& state) {
  static const std::string text = [] {
    std::ifstream in(replay_trace_path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }();
  const auto lines = static_cast<std::int64_t>(
      std::count(text.begin(), text.end(), '\n'));
  std::size_t parsed = 0;
  for (auto _ : state) {
    std::vector<workload::JobRequest> jobs = workload::swf::parse_string(text);
    parsed = jobs.size();
    benchmark::DoNotOptimize(jobs.data());
  }
  state.counters["jobs"] = static_cast<double>(parsed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * lines);
}
BENCHMARK(BM_SwfParse)->Unit(benchmark::kMillisecond);

void BM_FullScenarioSmall(benchmark::State& state) {
  for (auto _ : state) {
    workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
    params.span = sim::hours(1);
    params.job_count = 400;
    core::ScenarioConfig config;
    config.custom_workload = params;
    config.racks = 4;
    config.powercap.policy = core::Policy::Mix;
    config.cap_lambda = 0.6;
    benchmark::DoNotOptimize(core::run_scenario(config).summary.energy_joules);
  }
}
BENCHMARK(BM_FullScenarioSmall)->Unit(benchmark::kMillisecond);

void BM_FullScenarioCurie5h(benchmark::State& state) {
  for (auto _ : state) {
    core::ScenarioConfig config;
    config.profile = workload::Profile::MedianJob;
    config.racks = cluster::curie::kRacks;
    config.powercap.policy = core::Policy::Shut;
    config.cap_lambda = 0.6;
    benchmark::DoNotOptimize(core::run_scenario(config).summary.energy_joules);
  }
}
BENCHMARK(BM_FullScenarioCurie5h)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

// Custom main: default a JSON dump to BENCH_kernel.json next to the CWD so
// every run leaves a machine-readable record, while still honouring any
// --benchmark_* flags the caller passes (their --benchmark_out wins).
int main(int argc, char** argv) {
  // PS_OBS_DISABLED=1: run the whole suite with the metrics registry off —
  // the A/B leg of the obs overhead fence (<2% on the ingest/admission
  // kernels, .github/workflows/ci.yml).
  if (const char* disabled = std::getenv("PS_OBS_DISABLED");
      disabled != nullptr && disabled[0] == '1') {
    ps::obs::Registry::global().set_enabled(false);
  }
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
        std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  static std::string out_flag = "--benchmark_out=BENCH_kernel.json";
  static std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
