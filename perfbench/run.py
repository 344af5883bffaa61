#!/usr/bin/env python3
"""Stage-by-stage benchmark of the kernelhc clustering pipeline.

Run from the root of a checkout; the library is imported from its `src/`:

    python3 perfbench/run.py --workload analog-3k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Load is a closed loop with one client: jobs run back to back in this
process until `--seconds` have passed (the last job may overrun). Every
job's output is checked. `--trace 0` reports the end-to-end metrics,
`--trace 1` alternates untraced and traced jobs and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import os

# BLAS and OpenMP pools read these once, when numpy loads; threadpoolctl is
# not available to change them later.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, kernelhc; "
                "print(time.perf_counter() - t)")

_t0 = time.perf_counter()
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import scipy

    import kernelhc
    from kernelhc import dendro
except ImportError as e:
    sys.exit(f"error: cannot import kernelhc from {SRC}: {e}")
if not Path(kernelhc.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: kernelhc was imported from {kernelhc.__file__}, not {SRC}")
from tracer import Tracer, stage_mismatches  # noqa: E402
from workloads import WORKLOADS, bar, check_output, run_variant  # noqa: E402

IMPORT_S = time.perf_counter() - _t0
SETUP_REPEATS = 3  # imports (fresh interpreters) and input generation

END_TO_END = [
    ("setup_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"), ("cpu_s_p50", "s"),
    ("points_per_s", "1/s"), ("peak_rss_mb", "MiB"), ("purity", "1"), ("tsc_local", "1"),
]
PER_LAYER = [
    ("ikernel.transform.busy_s", "s"), ("ikernel.transform.points", "count"),
    ("ikernel.transform.distance_evals", "count"),
    ("ikernel.transform.bytes_computed", "B"), ("ikernel.transform.coverage", "1"),
    ("ikernel.fit_isolation_model.busy_s", "s"),
    ("ikernel.point_to_state.calls", "count"), ("ikernel.point_to_state.busy_s", "s"),
    ("ikernel.point_to_state.rows_scored", "count"),
    ("ikernel.group_state.calls", "count"), ("ikernel.group_state.busy_s", "s"),
    ("ikernel.point_row.calls", "count"), ("ikernel.point_row.busy_s", "s"),
    ("ikernel.set_similarity.calls", "count"), ("ikernel.set_similarity.busy_s", "s"),
    ("ikernel.pairwise.busy_s", "s"),
    ("corecluster.kpskc.busy_s", "s"), ("corecluster.kpskc.growth_steps", "count"),
    ("corecluster.kpskc.clusters_found_ratio", "1"),
    ("corecluster.select_subset.busy_s", "s"), ("corecluster.kmeans_cores.busy_s", "s"),
    ("corecluster.ik_dbscan_cores.busy_s", "s"),
    ("hier.build_tree.busy_s", "s"), ("hier.assign_points.busy_s", "s"),
    ("hier.assign_points.orphans", "count"), ("hier.refine.busy_s", "s"),
    ("hier.refine.iterations", "count"), ("hier.assignment_tsc_local.calls", "count"),
    ("hier.assignment_tsc_local.busy_s", "s"),
    ("hier.run.fit_s", "s"), ("hier.run.cores_s", "s"), ("hier.run.tree_s", "s"),
    ("hier.run.assign_s", "s"), ("hier.run.refine_s", "s"),
    ("dendro.annotate_alphas.busy_s", "s"), ("dendro.dendrogram_purity.busy_s", "s"),
    ("dendro.ahc_build.busy_s", "s"), ("metrics.nmi_ari.busy_s", "s"),
    ("trace.overhead_s", "s"),
]
RATIOS = {"coverage": ("covered", "pairs"),
          "clusters_found_ratio": ("clusters_found", "clusters_requested")}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    try:
        with open("/proc/self/maps") as f:
            paths = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    except OSError:
        return {}
    out = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def import_seconds() -> float:
    """Import time of numpy and kernelhc in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def run_job(ds, wl, ref, expected):
    """Run every variant of the workload once; returns (wall, cpu, errors, outputs).

    The timed region holds only the pipeline and its scoring; the checks
    run after it.
    """
    outputs, errors = {}, []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for name, (config, _) in wl.variants.items():
        try:
            outputs[name] = run_variant(ds, config)
        except Exception:  # a job that raises is a failed job, not a crash
            errors.append(f"{name}: raised\n{traceback.format_exc()}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for name, (res, purity) in outputs.items():
        check = wl.variants[name][1]
        errors += [f"{name}: {msg}" for msg in
                   check_output(res, purity, ds, check, ref, expected.get(name))]
    return wall, cpu, errors, outputs


def counts(stats: dict) -> dict:
    """Every exact count in one traced job's stats (times left out)."""
    return {f"{name}.{key}": val for name, rec in stats.items() if name != "hier.run"
            for key, val in rec.items() if key != "busy_s"}


def layer_metrics(traced: list, overhead: float) -> dict:
    first = traced[0]
    out = {}
    for metric, _ in PER_LAYER:
        layer, key = metric.rsplit(".", 1)
        if metric == "trace.overhead_s":
            out[metric] = overhead
        elif key in RATIOS:
            num, den = (first.get(layer, {}).get(k, 0) for k in RATIOS[key])
            out[metric] = num / den if den else 0.0
        elif key == "busy_s" or layer == "hier.run":
            out[metric] = statistics.median(s.get(layer, {}).get(key, 0.0) for s in traced)
        else:
            out[metric] = first.get(layer, {}).get(key, 0)
    return out


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    imports = [IMPORT_S] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    gens, ds = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        again = wl.make(args.seed)
        gens.append(time.perf_counter() - t0)
        if ds is None:
            ds = again
        elif not (np.array_equal(ds.points, again.points)
                  and np.array_equal(ds.labels, again.labels)):
            sys.exit("error: the same seed generated different inputs")
    if (ds.n, ds.d) != (wl.n, wl.d):
        sys.exit(f"error: generated n={ds.n}, d={ds.d}; expected n={wl.n}, d={wl.d}")

    attempted = failed = 0
    problems = []  # failures of the benchmark's own self-checks

    def record(errors):
        nonlocal attempted, failed
        attempted += 1
        failed += bool(errors)
        for msg in errors:
            print(f"job {attempted} failed: {msg}", file=sys.stderr)

    # Warm-up: the first job in a process runs slower than later ones. Its
    # outputs (and the reference run's purity) are what later jobs must match.
    t0 = time.perf_counter()
    ref = None
    if wl.reference is not None:
        try:
            res, ref = run_variant(ds, wl.reference)
            errors = check_output(res, ref, ds, bar(wl.k), ref, None)
        except Exception:
            ref, errors = float("nan"), [f"raised\n{traceback.format_exc()}"]
        record([f"reference: {m}" for m in errors])
    _, _, errors, warm = run_job(ds, wl, ref, {})
    warmup_s = time.perf_counter() - t0
    record(errors)
    expected = {name: res.assignments for name, (res, _) in warm.items()}
    setup_s = statistics.median(imports) + statistics.median(gens) + warmup_s

    tracer = Tracer() if args.trace else None
    walls, cpus, traced_walls, traced = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not walls
           or (tracer is not None and len(traced) < 2)):
        if tracer is not None and len(walls) > len(traced):
            with tracer.installed():
                wall, _, errors, _ = run_job(ds, wl, ref, expected)
            stats = tracer.take()
            errors += [f"stage time mismatch: {m}" for m in stage_mismatches(stats)]
            traced_walls.append(wall)
            traced.append(stats)
        else:
            wall, cpu, errors, _ = run_job(ds, wl, ref, expected)
            walls.append(wall)
            cpus.append(cpu)
        record(errors)
    if any(counts(s) != counts(traced[0]) for s in traced[1:]):
        problems.append("traced jobs on the same input disagree on a count")

    p50 = statistics.median(walls)
    ranked = sorted(walls)
    # the highest percentile with at least ten samples beyond it, never below p50
    tail = max(p50, ranked[-11]) if len(ranked) >= 11 else p50
    if tracer is not None:
        metrics = layer_metrics(traced, statistics.median(traced_walls) - p50)
        units = dict(PER_LAYER)
    else:
        purities = [purity for _, purity in warm.values()]
        tscs = [dendro.tsc_local(res.tree, res.feats)
                for res, _ in warm.values() if res.feats is not None]
        metrics = {
            "setup_s": setup_s,
            "job_s_p50": p50,
            "job_s_tail": tail,
            "cpu_s_p50": statistics.median(cpus),
            "points_per_s": wl.n / p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "purity": statistics.fmean(purities or [0.0]),  # empty only if warm-up failed
            "tsc_local": statistics.fmean(tscs or [0.0]),
        }
        units = dict(END_TO_END)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}: n={wl.n} d={wl.d} k={wl.k} seed={args.seed} "
          f"variants={','.join(wl.variants)}")
    print(f"setup: imports {statistics.median(imports):.3f}s, inputs "
          f"{statistics.median(gens):.4f}s (median of {SETUP_REPEATS}), warm-up {warmup_s:.3f}s")
    tail_note = "p50, fewer than 11 jobs" if len(ranked) < 11 else f"{len(ranked) - 10}th of {len(ranked)}"
    print(f"jobs timed: {len(walls)} untraced, {len(traced)} traced; "
          f"job_s_tail = {tail_note}; failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    print("job_s: " + " ".join(f"{w:.4f}" for w in walls))
    if traced_walls:
        print("traced job_s: " + " ".join(f"{w:.4f}" for w in traced_walls))
    for msg in problems:
        print(f"self-check failed: {msg}", file=sys.stderr)
    for name, val in metrics.items():
        shown = f"{val:>16}" if isinstance(val, int) else f"{val:>16.6f}"
        print(f"  {name:<40} {shown} {units[name]}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process (peak memory is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = val
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
