"""Per-layer tracing by wrapping kernelhc's public functions from outside.

While installed, each wrapped function adds one to its `calls`, its
inclusive wall time to `busy_s`, and any counts its counter derives from
the arguments and the result. Calls made inside another wrapped function
are counted too, so busy times of nested layers overlap. Counts depend only
on the input and the config, so they must repeat exactly between jobs.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from kernelhc import corecluster, dendro, hier, ikernel, metrics


def _transform(args, kwargs, out):
    model = args[0]
    n = out.shape[0]
    return {
        "points": n,
        "distance_evals": n * model.t * model.psi,
        "bytes_computed": 8 * n * model.psi * model.t,  # one float64 distance each
        "covered": int(np.count_nonzero(out >= 0)),
        "pairs": out.size,
    }


def _kpskc(args, kwargs, out):
    k = inspect.signature(corecluster.kpskc).bind(*args, **kwargs).arguments["k"]
    return {
        "growth_steps": sum(len(tr) for tr in out.meta["gamma_traces"]),
        "clusters_found": out.k,
        "clusters_requested": k,
    }


def _timings(args, kwargs, out):
    return {f"{stage}_s": sec for stage, sec in out.timings.items()}


# (owner, attribute, stat name, counter). Functions that hier.run imported
# by name are patched in hier's namespace, where it looks them up.
TARGETS = [
    (hier, "run", "hier.run", _timings),
    (hier, "fit_isolation_model", "ikernel.fit_isolation_model", None),
    (ikernel.IsolationModel, "transform", "ikernel.transform", _transform),
    (corecluster, "select_subset", "corecluster.select_subset", None),
    (corecluster, "kpskc", "corecluster.kpskc", _kpskc),
    (corecluster, "kmeans_cores", "corecluster.kmeans_cores", None),
    (corecluster, "ik_dbscan_cores", "corecluster.ik_dbscan_cores", None),
    (hier, "build_tree", "hier.build_tree", None),
    (dendro, "ahc_build", "dendro.ahc_build", None),
    (hier, "assign_points", "hier.assign_points", lambda a, kw, out: {"orphans": out[1]}),
    (hier, "refine", "hier.refine", lambda a, kw, out: {"iterations": out[1]}),
    (hier, "assignment_tsc_local", "hier.assignment_tsc_local", None),
    (dendro, "annotate_alphas", "dendro.annotate_alphas", None),
    (dendro, "dendrogram_purity", "dendro.dendrogram_purity", None),
    (metrics, "nmi", "metrics.nmi_ari", None),
    (metrics, "ari", "metrics.nmi_ari", None),
]
for _ops in (ikernel.IdkOps, ikernel.GdkOps):
    TARGETS += [
        (_ops, "point_to_state", "ikernel.point_to_state",
         lambda a, kw, out: {"rows_scored": len(out)}),
        (_ops, "group_state", "ikernel.group_state", None),
        (_ops, "point_row", "ikernel.point_row", None),
        (_ops, "set_similarity", "ikernel.set_similarity", None),
        (_ops, "pairwise", "ikernel.pairwise", None),
    ]

# Which wrapped functions make up each hier.run stage (RunResult.timings).
STAGES = {
    "fit": ["ikernel.fit_isolation_model", "ikernel.transform"],
    "cores": ["corecluster.select_subset", "corecluster.kpskc",
              "corecluster.kmeans_cores", "corecluster.ik_dbscan_cores"],
    "tree": ["hier.build_tree", "dendro.ahc_build"],
    "assign": ["hier.assign_points"],
    "refine": ["hier.refine", "hier.assignment_tsc_local"],
}


class Tracer:
    """Collects per-function stats while `installed()` is active."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(int))

    def _wrap(self, name, fn, counter):
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            busy = time.perf_counter() - t0
            rec = stats[name]
            rec["calls"] += 1
            rec["busy_s"] += busy
            if counter is not None:
                for key, val in counter(args, kwargs, out).items():
                    rec[key] += val
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, counter in TARGETS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, counter))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def take(self) -> dict:
        """Return the stats gathered so far as plain dicts and start afresh."""
        out = {name: dict(rec) for name, rec in self.stats.items()}
        self.stats.clear()
        return out


def stage_mismatches(stats: dict, abs_tol: float = 0.05, rel_tol: float = 0.05) -> list:
    """Stages whose wrapped time disagrees with hier.run's own timings.

    The wrapped functions run inside the stage, so their sum may not exceed
    the stage time, and may fall short of it only by the stage's unwrapped
    glue (backend construction, subset slicing).
    """
    timings = stats.get("hier.run", {})
    bad = []
    for stage, names in STAGES.items():
        total = timings.get(f"{stage}_s", 0.0)
        wrapped = sum(stats.get(nm, {}).get("busy_s", 0.0) for nm in names)
        if wrapped > total + 1e-3 or total - wrapped > abs_tol + rel_tol * total:
            bad.append(f"{stage}: hier.run {total:.4f}s vs wrapped {wrapped:.4f}s")
    return bad
