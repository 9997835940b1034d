#!/usr/bin/env python3
"""The repository benchmark: builds arvis_perfbench from source, runs one
workload for a fixed wall-time budget, checks every repetition's outputs and
prints every metric by name and unit.

    python3 perfbench/run.py --workload chaos_handover --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all          # every workload, untraced + traced
    python3 perfbench/run.py --selftest     # harness self-tests

Run from the repository root. Build output, traces and result files go to
.bench_build/ in that root. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ["dense_steady", "churn_diurnal", "chaos_handover", "wide_parallel"]
DEFAULT_SEED = 1
HELDOUT_SEED = 9001

# Scenarios per run: each is its own seed derived from --seed, so a run's
# figures average over that many draws of arrivals, channels and faults.
SCENARIOS = 3
# Repetitions of each scenario, at least (the per-slot minimum needs a few).
MIN_REPS = 3
# Hard wall-time cap on the measuring loop (the run must end within 180 s).
MAX_MEASURE_S = 140.0
REP_TIMEOUT_S = 120

END_TO_END = [
    ("ns_per_session_slot", "ns"),
    ("slot_p50_us", "us"),
    ("slot_p99_us", "us"),
    ("setup_s", "s"),
    ("finish_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_quality", "score"),
    ("mean_backlog_kb", "KB"),
    ("served_frac", "ratio"),
]

PER_LAYER = [
    ("driver.self_us_per_slot", "us"),
    ("driver.source_us_per_slot", "us"),
    ("driver.snapshot_us", "us"),
    ("driver.snapshot_us_per_slot", "us"),
    ("driver.events", "count"),
    ("driver.slots_executed", "count"),
    ("driver.retries_scheduled", "count"),
    ("driver.retries_abandoned", "count"),
    ("cluster.step_us_p50", "us"),
    ("cluster.step_us_p99", "us"),
    ("cluster.self_us_per_slot", "us"),
    ("cluster.api_us_per_slot", "us"),
    ("cluster.place_us_per_slot", "us"),
    ("cluster.fault_apply_us", "us"),
    ("cluster.fault_apply_us_per_slot", "us"),
    ("cluster.placed", "count"),
    ("cluster.rejects", "count"),
    ("cluster.spills", "count"),
    ("cluster.migrations_requested", "count"),
    ("cluster.migrations_completed", "count"),
    ("cluster.migration_success", "ratio"),
    ("cluster.failover_displaced", "count"),
    ("cluster.failover_replaced", "count"),
    ("session_manager.begin_us_per_slot", "us"),
    ("session_manager.decide_us_per_slot", "us"),
    ("session_manager.finish_us_per_slot", "us"),
    ("session_manager.schedule_us_per_slot", "us"),
    ("session_manager.drain_us_per_slot", "us"),
    ("session_manager.admitted", "count"),
    ("session_manager.rejected.best_effort", "count"),
    ("session_manager.rejected.standard", "count"),
    ("session_manager.rejected.premium", "count"),
    ("session_manager.brownout_transitions", "count"),
    ("session_store.decide_groups_per_slot", "count"),
    ("session_store.decide_keys_per_session", "ratio"),
    ("session_store.decide_reuse_ratio", "ratio"),
    ("session_store.bytes_per_session_slot", "B"),
    ("scheduler.us_per_slot", "us"),
    ("scheduler.fast_path_ratio", "ratio"),
    ("executor.speedup", "ratio"),
    ("executor.decide_us_per_slot", "us"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.spans_dropped", "count"),
    ("telemetry.slot_wall_us", "us"),
    ("telemetry.unattributed_us_per_slot", "us"),
    ("setup.cache_build_s", "s"),
    ("setup.runtime_build_s", "s"),
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
TRACES_DIR = os.path.join(BUILD_ROOT, "traces")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ------------------------------------------------------------------ build --


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_DIR, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(CMAKE_DIR, "arvis_perfbench")


# ------------------------------------------------------------- provenance --


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        return proc.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def provenance(build_info, seed):
    return {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "compiler": build_info.get("compiler", ""),
        "flags": build_info.get("flags", "").strip(),
        "build_type": build_info.get("build_type", ""),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


# ------------------------------------------------------------ repetitions --


def run_rep(binary, workload, seed, trace, threads=None, busy_wait_us=None,
            chrome_prefix=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if busy_wait_us is not None:
        cmd += ["--busy-wait-us", "%.3f" % busy_wait_us]
    if chrome_prefix is not None:
        cmd += ["--chrome-trace-prefix", chrome_prefix]
    env = dict(os.environ, ARVIS_LOG_LEVEL="error")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: repetition timed out" % workload)
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        raise BenchError("%s: repetition exited %d without a result"
                         % (workload, proc.returncode))
    if proc.returncode != 0 or not rep.get("correct"):
        raise BenchError("%s: correctness check failed: %s"
                         % (workload, "; ".join(rep.get("failures", []))))
    return rep


def check_same_outputs(reps, workload):
    """Every repetition of a workload (traced, untraced, any thread count)
    must produce the same deterministic outputs."""
    first = reps[0]
    for rep in reps[1:]:
        for key in ("digest", "mean_quality", "mean_backlog_kb", "offered",
                    "failed"):
            if rep[key] != first[key]:
                raise BenchError("%s: %s differs between repetitions (%r vs %r)"
                                 % (workload, key, first[key], rep[key]))


def nearest_rank(n, p):
    # Same rule as perfbench::percentile (harness.cpp).
    return min(max(int(math.ceil(p / 100.0 * n - 1e-9)), 1), n)


def percentile(samples, p):
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), p) - 1]


def scenario_seed(seed, index):
    """Seed of the run's index-th scenario. Injective over (seed, index), so
    two runs with different --seed share no scenario."""
    return seed * SCENARIOS + index


def slotwise_min(reps, key):
    """Per-slot minimum over repetitions of one scenario. They share the
    seed, so slot i does the same work in each; the fastest of its timings
    is its cost with other tenants' interference taken out."""
    return [min(values) for values in zip(*(r[key] for r in reps))]


def end_to_end(groups):
    """End-to-end metrics of a run from its repetitions, grouped by
    scenario: slot costs are filtered within a scenario, then pooled."""
    slot_cost, window_us, session_slots = [], 0.0, 0.0
    timed = 0
    for reps in groups:
        first = reps[0]
        slots = len(first["slot_us"])
        for rep in reps:
            if (len(rep["slot_us"]) != slots or len(rep["window_us"]) != slots
                    or rep["session_slots"] != first["session_slots"]):
                raise BenchError("repetitions of one seed differ in their slots")
        slot_cost += slotwise_min(reps, "slot_us")
        window_us += sum(slotwise_min(reps, "window_us"))
        session_slots += first["session_slots"]
        timed += slots * len(reps)
    if timed - nearest_rank(timed, 99.0) < 10:
        raise BenchError("only %d timed slots: fewer than 10 beyond p99" % timed)
    firsts = [reps[0] for reps in groups]
    all_reps = [r for reps in groups for r in reps]
    med = statistics.median
    values = {
        "ns_per_session_slot": window_us * 1e3 / session_slots,
        "slot_p50_us": percentile(slot_cost, 50.0),
        "slot_p99_us": percentile(slot_cost, 99.0),
        "setup_s": med(r["setup_s"] for r in all_reps),
        "finish_s": sum(min(r["finish_s"] for r in reps)
                        for reps in groups) / len(groups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in all_reps),
        "mean_quality": statistics.fmean(r["mean_quality"] for r in firsts),
        "mean_backlog_kb": statistics.fmean(r["mean_backlog_kb"]
                                            for r in firsts),
        "served_frac": 1.0 - (sum(r["failed"] for r in firsts)
                              / sum(r["offered"] for r in firsts)),
    }
    offered = sum(r["offered"] for r in firsts)
    samples = {
        "ns_per_session_slot": timed, "slot_p50_us": timed,
        "slot_p99_us": timed, "setup_s": len(all_reps),
        "finish_s": len(all_reps), "peak_rss_mb": len(all_reps),
        "mean_quality": offered, "mean_backlog_kb": offered,
        "served_frac": offered,
    }
    return values, samples, timed


def measure_untraced(binary, workload, seed, seconds):
    """Repetitions of the run's scenarios in turn until `seconds` have
    passed and every scenario has MIN_REPS of them."""
    groups = [[] for _ in range(SCENARIOS)]
    start = time.monotonic()
    turn = 0
    while True:
        index = turn % SCENARIOS
        groups[index].append(run_rep(binary, workload,
                                     scenario_seed(seed, index), trace=False))
        turn += 1
        elapsed = time.monotonic() - start
        done = (elapsed >= seconds
                and min(len(reps) for reps in groups) >= MIN_REPS)
        if done or elapsed >= MAX_MEASURE_S:
            break
    for reps in groups:
        check_same_outputs(reps, workload)
    values, samples, n = end_to_end(groups)
    return values, samples, n, [r for reps in groups for r in reps]


def measure_traced(binary, workload, seed, seconds):
    """Interleaved pairs of untraced and traced repetitions (plus, on
    wide_parallel, a 1-thread repetition for the executor speed-up)."""
    os.makedirs(TRACES_DIR, exist_ok=True)
    plain, traced, serial = [], [], []
    start = time.monotonic()
    pair = 0
    while True:
        prefix = None
        if not traced:
            prefix = os.path.join(TRACES_DIR, "%s-seed%d-" % (workload, seed))
        order = [False, True] if pair % 2 == 0 else [True, False]
        for trace in order:
            rep = run_rep(binary, workload, seed, trace,
                          chrome_prefix=prefix if trace else None)
            (traced if trace else plain).append(rep)
        if workload == "wide_parallel":
            serial.append(run_rep(binary, workload, seed, False, threads=1))
        pair += 1
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and pair >= 2) or elapsed >= MAX_MEASURE_S:
            break
    check_same_outputs(plain + traced + serial, workload)
    values = {}
    for name, _ in PER_LAYER:
        vals = [r["layers"][name] for r in traced if name in r["layers"]]
        values[name] = statistics.median(vals) if vals else 0.0
    if values["telemetry.spans_dropped"] != 0:
        raise BenchError("%s: the tracer ring dropped spans" % workload)
    plain_ns = statistics.median(r["ns_per_session_slot"] for r in plain)
    traced_ns = statistics.median(r["ns_per_session_slot"] for r in traced)
    values["telemetry.trace_overhead_pct"] = (traced_ns / plain_ns - 1.0) * 100.0
    if serial:
        serial_ns = statistics.median(r["ns_per_session_slot"] for r in serial)
        values["executor.speedup"] = serial_ns / plain_ns
    samples = {name: len(traced) for name, _ in PER_LAYER}
    samples["telemetry.trace_overhead_pct"] = min(len(plain), len(traced))
    samples["executor.speedup"] = len(serial)
    return values, samples, plain + traced + serial


# ---------------------------------------------------------------- output --


def fmt(value):
    return "%.6g" % value


def report(workload, seed, trace, values, samples, units, reps, attempted):
    prov = provenance(reps[0].get("build", {}), seed)
    prov["threads"] = reps[0].get("threads")
    prov["repetitions"] = len(reps)
    scenarios = SCENARIOS if not trace else 1
    prov["scenario_seeds"] = [scenario_seed(seed, i) for i in range(scenarios)]
    log("PROVENANCE " + json.dumps(prov, sort_keys=True))
    log("%s seed=%d trace=%d: %d repetitions of %d scenario(s), digest %s"
        % (workload, seed, int(trace), len(reps), scenarios,
           reps[0]["digest"]))
    for name, unit in units:
        log("  %-40s %14s %-6s (n=%d)"
            % (name, fmt(values[name]), unit, samples[name]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                        % (workload, seed, int(trace)))
    with open(path, "w") as f:
        json.dump({"workload": workload, "provenance": prov,
                   "metrics": metrics, "samples": samples,
                   "digest": reps[0]["digest"]}, f, indent=1, sort_keys=True)
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": metrics}


def run_one(binary, workload, seed, seconds, trace):
    if trace:
        values, samples, reps = measure_traced(
            binary, workload, scenario_seed(seed, 0), seconds)
        attempted = sum(len(r["slot_us"]) for r in reps)
        return report(workload, seed, True, values, samples, PER_LAYER, reps,
                      attempted)
    values, samples, n, reps = measure_untraced(binary, workload, seed, seconds)
    return report(workload, seed, False, values, samples, END_TO_END, reps, n)


# -------------------------------------------------------------- self-test --


def bounds_from_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def selftest(binary):
    failures = 0
    proc = subprocess.run([os.path.join(CMAKE_DIR, "perfbench_selftest")],
                          cwd=ROOT, env=dict(os.environ, ARVIS_LOG_LEVEL="error"),
                          timeout=600)
    failures += proc.returncode != 0
    # Sensitivity: a fixed busy-wait inside the benchmark's own step_slot
    # wrapper must move slot_p50_us on churn_diurnal past its bound, so the
    # gate can fail.
    bound = bounds_from_benchmark_json()["slot_p50_us"]
    base = [run_rep(binary, "churn_diurnal", DEFAULT_SEED, False)
            for _ in range(2)]
    p50 = percentile(slotwise_min(base, "slot_us"), 50.0)
    wait_us = 3.0 * bound * p50
    slow = [run_rep(binary, "churn_diurnal", DEFAULT_SEED, False,
                    busy_wait_us=wait_us) for _ in range(2)]
    slow_p50 = percentile(slotwise_min(slow, "slot_us"), 50.0)
    moved = slow_p50 / p50 - 1.0
    ok = moved > bound and slow[0]["digest"] == base[0]["digest"]
    log("%s sensitivity: +%.1f us busy-wait moves slot_p50_us %.1f -> %.1f us "
        "(+%.1f%%, bound %.0f%%), outputs unchanged"
        % ("ok  " if ok else "FAIL", wait_us, p50, slow_p50, 100 * moved,
           100 * bound))
    failures += not ok
    log("perfbench selftest OK" if failures == 0
        else "perfbench selftest FAILED")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------- main --


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness self-tests")
    args = parser.parse_args()
    if not (args.all or args.selftest or args.workload):
        parser.error("one of --workload, --all or --selftest is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        if args.all:
            summary = {}
            for workload in WORKLOADS:
                for trace in (False, True):
                    result = run_one(binary, workload, args.seed, args.seconds,
                                     trace)
                    summary.setdefault(workload, {}).update(result["metrics"])
            path = os.path.join(RESULTS_DIR, "summary-seed%d.json" % args.seed)
            with open(path, "w") as f:
                json.dump(summary, f, indent=1, sort_keys=True)
            log("wrote " + os.path.relpath(path, ROOT))
            return 0
        result = run_one(binary, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
