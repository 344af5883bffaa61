"""Command-line frontend.

Subcommands: generate (synthetic datasets), cluster (run a clustering
algorithm and write tree/assignment artifacts plus a manifest), eval
(score a saved tree) and bench (scaleup timing harness). Exit codes:
0 success, 2 usage or validation error, 1 internal error. Every run is
reproducible from its manifest: same input and seed give byte-identical
numeric outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import baseline, datasets, dendro, hier, ikernel, metrics
from .ikernel import IdkOps, IsolationModel

MANIFEST_FORMAT = "kernelhc-run-manifest"
MANIFEST_VERSION = 1
DEFAULT_OUT_ENV = "KERNELHC_OUT_DIR"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, config, seed, input_path, outputs,
                    timings, metric_values, warnings, extra=None):
    doc = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "input": {"path": str(input_path), "sha256": _sha256(input_path)}
        if input_path else None,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "timings": timings,
        "metrics": metric_values,
        "warnings": warnings,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(DEFAULT_OUT_ENV) or "kernelhc-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.spec_file:
        with open(args.spec_file) as f:
            spec = json.load(f)
        components = datasets.components_from_spec(spec)
        name = Path(args.spec_file).stem
    else:
        if args.preset != "paper-analog":
            raise ValueError(f"unknown preset {args.preset!r}")
        components = datasets.PAPER_ANALOG_COMPONENTS
        name = args.preset
    ds = datasets.generate_mixture(components, args.seed, name=name)
    datasets.save_csv(args.out, ds)
    print(f"wrote {ds.n} points, {ds.d} columns, "
          f"{len(np.unique(ds.labels))} classes -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

# each RunConfig field that only some runs read: its flag, and the --algo, --kernel and
# --clusterer values that read it (--algo bisect-kmeans runs no kernel and no clusterer)
_PIPELINE = {"hkc", "ahc"}
_READ_BY = dict(psi=("--psi", {"idk"}), t=("--t", {"idk"}), bandwidth=("--bandwidth", {"gdk"}),
                tau=("--tau", {"kpskc"}), rho=("--rho", {"kpskc"}), restarts=("--restarts", {"kmeans", "bisect-kmeans"}),
                eps_sim=("--eps-sim", {"ik-dbscan"}), min_pts=("--min-pts", {"ik-dbscan"}), s=("--subset-size", _PIPELINE),
                kernel=("--kernel", _PIPELINE), clusterer=("--clusterer", _PIPELINE), refine=("--no-refine", _PIPELINE))


def _run_config(args) -> hier.RunConfig:
    """The RunConfig the cluster flags set: one flag per field, except
    tree_method, which --algo ahc sets. A flag that sets a field away from its
    default when the run's algo, kernel and clusterer do not read it (_READ_BY)
    is rejected rather than ignored; the first such flag is named."""
    config = hier.RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(hier.RunConfig)})
    default = hier.RunConfig(k=config.k)
    run = {"--algo": args.algo} if args.algo == "bisect-kmeans" else {
        "--algo": args.algo, "--kernel": config.kernel, "--clusterer": config.clusterer}
    ignored = [flag for name, (flag, readers) in _READ_BY.items()
               if getattr(config, name) != getattr(default, name) and not readers & set(run.values())]
    if ignored:
        raise ValueError(f"{ignored[0]} does not apply to {' '.join(map(' '.join, run.items()))}")
    return dataclasses.replace(config, tree_method="ahc") if args.algo == "ahc" else config


def _load_input(path, label_col):
    """The dataset CSV at path. A label_col given must be in the header and
    holds the labels; without one, a "label" column does when the header has
    it. The rest are features, so unlabeled input is read whole."""
    if label_col is None:
        with open(path, newline="") as f:
            label_col = "label" if "label" in next(csv.reader(f), []) else None
    return datasets.load_csv(path, label_column=label_col)


def cmd_cluster(args) -> int:
    config = _run_config(args)
    ds = _load_input(args.infile, args.label_col)
    out = _out_dir(args)
    warnings = []
    timings = {}
    metric_values = {}
    outputs = {}

    t0 = time.perf_counter()
    if args.algo == "bisect-kmeans":
        tree = baseline.bisect_kmeans(ds.points, config)
        warnings.extend(tree.warnings)
        assignments = dendro.leaf_labels(tree)
        model = None
        extra = {"k_effective": tree.k, "iterations": 0}
    else:
        result = hier.run(ds.points, config)
        tree = result.tree
        assignments = result.assignments
        warnings.extend(result.warnings)
        timings.update(result.timings)
        model = result.model
        extra = {"k_effective": result.k, "iterations": result.iterations, "refine": result.refine_trace,
                 "zero_ties": [{"node": rec["node"], "zero_ties": rec["zero_ties"]}
                               for rec in tree.split_records]}
        dendro.annotate_alphas(tree, result.ops)
        if isinstance(result.ops, IdkOps):
            extra["transform_workers"] = ikernel.WORKERS
            phi = result.ops.onehot
            extra["kernel_coverage"] = phi.nnz / (result.ops.n * result.ops.t)
            extra["phi_bytes"] = phi.data.nbytes + phi.indices.nbytes + phi.indptr.nbytes
        if config.clusterer == "kpskc":
            meta = result.cores.meta
            extra["kpskc"] = {"growth_steps": [len(g) for g in meta["gamma_traces"]],
                              "scored_sets": meta["scored_sets"],
                              "members": result.cores.sizes().tolist()}
        metric_values["tsc_local_before_refine"] = result.tsc_trace[0]
        metric_values["tsc_local_after_refine"] = result.tsc_trace[1]
    timings["total"] = time.perf_counter() - t0

    outputs["tree_json"] = out / "tree.json"
    outputs["newick"] = out / "tree.newick"
    outputs["assignments"] = out / "assignments.csv"
    with open(outputs["tree_json"], "w") as f:
        f.write(tree.to_json())
    with open(outputs["newick"], "w") as f:
        f.write(tree.to_newick() + "\n")
    datasets.save_assignments(outputs["assignments"], assignments)
    if model is not None:
        outputs["model"] = out / "model.npz"
        model.save(outputs["model"])

    if ds.labels is not None:
        metric_values["purity"] = dendro.dendrogram_purity(tree, ds.labels)
        flat = dendro.leaf_labels(tree)
        metric_values["nmi"] = metrics.nmi(flat, ds.labels)
        metric_values["ari"] = metrics.ari(flat, ds.labels)

    manifest = out / "manifest.json"
    _write_manifest(manifest, "cluster", {"algo": args.algo, **dataclasses.asdict(config)},
                    args.seed, args.infile, outputs, timings, metric_values,
                    warnings, extra)
    for key, val in metric_values.items():
        print(f"{key}: {val:.4f}")
    print(f"artifacts in {out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    with open(args.tree) as f:
        tree = dendro.Dendrogram.from_json(f.read())
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not wanted:
        raise ValueError("no metrics requested")
    unknown = set(wanted) - {"purity", "nmi", "ari", "tsc"}
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")

    labels = None
    if {"purity", "nmi", "ari"} & set(wanted):
        if not args.labels:
            raise ValueError("--labels is required for purity/nmi/ari")
        labels = datasets.load_csv(args.labels, label_column=args.label_col or "label").labels

    report = {}
    if "purity" in wanted:
        report["purity"] = dendro.dendrogram_purity(tree, labels)
    if "nmi" in wanted or "ari" in wanted:
        flat = dendro.leaf_labels(tree)
        if "nmi" in wanted:
            report["nmi"] = metrics.nmi(flat, labels)
        if "ari" in wanted:
            report["ari"] = metrics.ari(flat, labels)
    if "tsc" in wanted:
        if not (args.infile and args.model):
            raise ValueError("--in and --model are required for tsc")
        ds = _load_input(args.infile, args.label_col)  # unlabeled input is the usual case
        model = IsolationModel.load(args.model)
        ops = IdkOps.fit(model, ds.points)
        report["tsc"] = dendro.tsc(tree, ops)
        report["tsc_local"] = report["tsc"] / tree.n_points  # dendro.tsc_local, from the one sum

    width = max(len(k) for k in report)
    for key, val in report.items():
        print(f"{key:<{width}}  {val:.6f}")
    print(json.dumps(report, sort_keys=True))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def fit_linear_vs_quadratic(ns, ts):
    """Least-squares fit of t = a + b*n against t = a + c*n^2.

    Returns (sse_linear, sse_quadratic); the model with the smaller
    residual explains the scaling better.
    """
    ns = np.asarray(ns, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    sses = []
    for powered in (ns, ns**2):
        A = np.column_stack([np.ones_like(powered), powered])
        coef, *_ = np.linalg.lstsq(A, ts, rcond=None)
        sses.append(float(((A @ coef - ts) ** 2).sum()))
    return sses[0], sses[1]


def prefers_linear(ns, ts) -> bool | None:
    """Whether the linear fit explains the timings at least as well as the
    quadratic one; None with fewer than 3 distinct sizes, where both lines pass
    through every point and their residuals are rounding error."""
    if len(set(ns)) < 3:
        return None
    sse_lin, sse_quad = fit_linear_vs_quadratic(ns, ts)
    return sse_lin <= sse_quad


def _parse_sizes(text: str):
    factors = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        factor = float(part.removesuffix("x"))
        if not (factor > 0 and np.isfinite(factor)):
            raise ValueError(f"--sizes factors must be finite and > 0, got {part!r}")
        factors.append(factor)
    if not factors:
        raise ValueError("--sizes must list at least one size factor")
    return factors


def run_scaleup(factors, repeats, seed, config: hier.RunConfig):
    """Time the kernel pipeline under config, and bisecting k-means with its
    k, restarts and seed, on copies of the analog dataset scaled by each
    factor and generated from seed. The subset size is capped at each copy's
    n. One untimed run of both at the smallest size goes first, so no timing
    carries the process's start-up costs; then each repeat times every size
    in turn, so a slow stretch of the machine touches one repeat of several
    sizes rather than all repeats of one. Returns a list of row dicts (min
    over repeats)."""
    runs = []
    for factor in factors:
        comps = [dataclasses.replace(c, size=max(1, int(round(c.size * factor))))
                 for c in datasets.PAPER_ANALOG_COMPONENTS]
        ds = datasets.generate_mixture(comps, seed, name=f"analog-{factor}x")
        runs.append((ds.points, dataclasses.replace(config, s=min(config.subset_size(ds.n), ds.n))))
    points, sized = min(runs, key=lambda run: len(run[0]))  # the untimed warm-up
    hier.run(points, sized)
    baseline.bisect_kmeans(points, sized)
    hkc_times, bkm_times = [[] for _ in runs], [[] for _ in runs]
    for _ in range(repeats):
        for (points, sized), hkc, bkm in zip(runs, hkc_times, bkm_times):
            t0 = time.perf_counter()
            hier.run(points, sized)
            hkc.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            baseline.bisect_kmeans(points, sized)
            bkm.append(time.perf_counter() - t0)
    return [{"factor": factor, "n": len(points), "hkc_seconds": min(hkc), "bisect_seconds": min(bkm)}
            for factor, (points, _), hkc, bkm in zip(factors, runs, hkc_times, bkm_times)]


def cmd_bench(args) -> int:
    factors = _parse_sizes(args.sizes)
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    out = _out_dir(args)
    config = hier.RunConfig(**datasets.PAPER_ANALOG_TUNED)
    print(f"config: {config}")
    rows = run_scaleup(factors, args.repeats, args.seed, config)
    csv_path = out / "scaleup.csv"
    with open(csv_path, "w") as f:
        f.write("factor,n,hkc_seconds,bisect_seconds\n")
        for r in rows:
            f.write(f"{r['factor']},{r['n']},{r['hkc_seconds']:.6f},{r['bisect_seconds']:.6f}\n")
    ns = [r["n"] for r in rows]
    summary = {
        "config": dataclasses.asdict(config),
        "rows": rows,
        "hkc_prefers_linear": prefers_linear(ns, [r["hkc_seconds"] for r in rows]),
        "bisect_prefers_linear": prefers_linear(ns, [r["bisect_seconds"] for r in rows]),
    }
    with open(out / "scaleup.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{'n':>8} {'hkc_s':>10} {'bisect_s':>10}")
    for r in rows:
        print(f"{r['n']:>8} {r['hkc_seconds']:>10.3f} {r['bisect_seconds']:>10.3f}")
    for algo in ("hkc", "bisect"):
        verdict = summary[f"{algo}_prefers_linear"]
        print(f"{algo} prefers linear fit: " + (f"null, a verdict needs >= 3 sizes, got {len(set(ns))}"
                                                if verdict is None else str(verdict)))
    print(f"results in {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelhc",
        description="Divisive hierarchical clustering with distributional kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset CSV")
    g.add_argument("--preset", default="paper-analog")
    g.add_argument("--spec-file", default=None, help="JSON list of mixture components")
    g.add_argument("--seed", type=int, default=datasets.PAPER_ANALOG_SEED)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("cluster", help="cluster a CSV dataset")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--label-col", default=None,
                   help="label column, left out of the features; default: label, if present")
    c.add_argument("--algo", choices=["hkc", "bisect-kmeans", "ahc"], default="hkc")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--psi", type=int)
    c.add_argument("--t", type=int)
    c.add_argument("--tau", type=float)
    c.add_argument("--rho", type=float)
    c.add_argument("--subset-size", dest="s", type=int)
    c.add_argument("--kernel", choices=hier.KERNELS)
    c.add_argument("--bandwidth", type=float)
    c.add_argument("--clusterer", choices=hier.CLUSTERERS)
    c.add_argument("--eps-sim", type=float)
    c.add_argument("--min-pts", type=int)
    c.add_argument("--restarts", type=int)
    c.add_argument("--no-refine", dest="refine", action="store_false")
    c.add_argument("--seed", type=int)
    c.add_argument("--out-dir", default=None)
    # every RunConfig field defaults to RunConfig's own default
    c.set_defaults(func=cmd_cluster, **{f.name: f.default for f in dataclasses.fields(hier.RunConfig)
                                        if f.default is not dataclasses.MISSING})

    e = sub.add_parser("eval", help="score a saved dendrogram")
    e.add_argument("--tree", required=True)
    e.add_argument("--labels", default=None, help="CSV holding the label column")
    e.add_argument("--label-col", default=None)
    e.add_argument("--metrics", default="purity")
    e.add_argument("--in", dest="infile", default=None)
    e.add_argument("--model", default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="scaleup timing of the two algorithms")
    b.add_argument("--sizes", default="1x,2x,4x,8x")
    b.add_argument("--repeats", type=int, default=2)
    b.add_argument("--seed", type=int, default=0, help="seed of the generated data")
    b.add_argument("--out-dir", default=None)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - last-resort guard for exit code 1
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
