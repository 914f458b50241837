#!/usr/bin/env python3
"""Gate bench_kernel_perf results against the committed baseline.

Compares a fresh BENCH_kernel.json emit (google-benchmark JSON schema, see
bench/README.md) to the baseline committed at the repository root and fails
when any gated kernel regressed by more than --threshold (default 10%).

Because absolute timings differ across machines, pass --calibrate to divide
every ratio by the ratio of a calibration kernel (a steady, allocation-free
benchmark): the gate then measures regressions *relative to machine speed*
rather than wall time. On identical hardware the calibration is ~1.0 and
changes nothing.

Usage:
  tools/check_bench_regression.py --baseline BENCH_kernel.json \
      --fresh build/BENCH_kernel.json [--threshold 0.10] \
      [--calibrate BM_ClusterAuditWatts]

Exit code 1 on regression or missing gated kernels.
"""

import argparse
import json
import sys

# Kernels under the gate: one per hot subsystem, preferring long-running,
# low-variance shapes. Keep names in sync with bench/bench_kernel_perf.cc.
GATED_KERNELS = [
    "BM_EventQueuePushPop/16384",
    "BM_NodeSelectionPacking/512",
    "BM_AdmissionDeepPendingPass/1024",
    # A queue as deep as the 112-day streamed replay's peak (~4k pending):
    # a pass must order only the prefix it visits, not the whole queue.
    "BM_AdmissionDeepPendingPass/4096",
    "BM_AdmissionBurstSubmit/64/iterations:256",
    "BM_ReservationOverlapQuery/4096",
    "BM_FullScenarioSmall",
    # Gate the single-thread sweep (wall-clock comparable on any core
    # count); the threads=4 record next to it in BENCH_kernel.json carries
    # the measured sweep speedup PR to PR.
    "BM_SweepFig8Grid/1",
    "BM_OfflineMultiWindow",
    # Distributed-sweep wire format + spool cycle: serialize/publish/claim/
    # parse/fingerprint one cell record (the per-cell dist overhead).
    "BM_DistSweepSpool",
    # Spool document integrity layer in isolation: FNV-1a seal + checksum
    # verify over a realistic shard_results body — the pure CPU price of
    # torn-write detection, gated so it cannot silently creep.
    "BM_SpoolChecksum",
    # Streaming trace pipeline: the 50k-job curie_month replay streamed off
    # the SWF file in O(chunk) memory (the materialized twin rides ungated
    # next to it in BENCH_kernel.json for comparison), and the from_chars
    # SWF line parser on the same 50k-line buffer.
    "BM_TraceReplayStream/iterations:3",
    "BM_SwfParse",
    # Live-service ingest cycle: serialize/publish/claim/parse/remove one
    # 64-job submission document through the serve spool protocol — the
    # per-document overhead bounding ps-serve sustained throughput.
    "BM_ServeIngest",
    # Fairness bookkeeping (serve/fair.h): one DRR admit cycle over 8
    # weighted tenants, drained to deferral. Runs every serve-loop
    # iteration, so it is gated to keep the multi-tenant layer from
    # growing into ingest latency.
    "BM_ServeFairAdmit",
    # Observability substrate (src/obs/): the per-call price of a counter
    # increment, of the kill-switch floor, and of an untraced span. These
    # are single-digit-nanosecond kernels; the gate keeps them from quietly
    # growing a lock or a syscall.
    "BM_ObsCounterInc",
    "BM_ObsCounterIncDisabled",
    "BM_TraceSpan",
]

TIME_UNITS_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """name -> real_time in nanoseconds.

    `path` may be a comma-separated list of records, in which case the
    per-kernel *minimum* across them is used — best-of-N is the standard
    way to strip scheduler noise from short kernels, and it is what the
    tight A/B fences pass (three alternating rounds per leg).
    """
    times = {}
    for part in path.split(","):
        with open(part) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type") != "iteration":
                continue
            unit = TIME_UNITS_NS.get(bench.get("time_unit", "ns"), 1.0)
            ns = bench["real_time"] * unit
            name = bench["name"]
            times[name] = min(times[name], ns) if name in times else ns
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_kernel.json")
    parser.add_argument("--fresh", required=True, help="freshly emitted BENCH_kernel.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--calibrate", default=None,
                        help="kernel whose fresh/baseline ratio normalizes machine speed")
    parser.add_argument("--kernels", nargs="+", default=None,
                        help="override the gated kernel list — used for same-machine "
                             "A/B fences (e.g. obs enabled vs PS_OBS_DISABLED=1 at "
                             "--threshold 0.02), where both records come from one "
                             "host and no calibration is needed")
    args = parser.parse_args()

    baseline = load_times(args.baseline)
    fresh = load_times(args.fresh)

    scale = 1.0
    if args.calibrate:
        if args.calibrate not in baseline or args.calibrate not in fresh:
            print(f"FAIL: calibration kernel {args.calibrate!r} missing from a record")
            return 1
        scale = fresh[args.calibrate] / baseline[args.calibrate]
        print(f"calibration {args.calibrate}: machine-speed ratio {scale:.3f}")

    failed = []
    for name in (args.kernels if args.kernels else GATED_KERNELS):
        if name not in baseline:
            print(f"WARN: {name} not in baseline (new kernel?) — skipping")
            continue
        if name not in fresh:
            print(f"FAIL: gated kernel {name} missing from fresh emit")
            failed.append(name)
            continue
        ratio = fresh[name] / baseline[name] / scale
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = f"REGRESSION (> +{args.threshold:.0%})"
            failed.append(name)
        print(f"{name}: baseline {baseline[name]:.0f} ns, fresh {fresh[name]:.0f} ns, "
              f"normalized ratio {ratio:.3f} — {verdict}")

    if failed:
        print(f"\nFAIL: {len(failed)} gated kernel(s) regressed: {', '.join(failed)}")
        print("If intentional, regenerate the baseline: run bench_kernel_perf and "
              "commit the new BENCH_kernel.json with the justification in CHANGES.md.")
        return 1
    print("\nbench regression gate: all gated kernels within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
