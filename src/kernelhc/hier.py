"""End-to-end divisive hierarchical clustering.

The pipeline runs in five stages: fit the kernel over the full dataset,
find core clusters on a seeded subset, build a binary tree over the core
clusters (divisively by default, agglomeratively on request), assign every
point to its most similar core cluster, and optionally refine those
assignments until they stop moving. The finalized tree's leaves then hold
all points, not just the subset.

Splits never cut a core cluster: each multi-cluster leaf is divided by
pulling every cluster toward the more similar of the leaf's two largest
clusters, so cluster IDs stay whole all the way down to the leaves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import corecluster, dendro
from .ikernel import (
    GdkOps,
    IdkOps,
    IsolationModel,
    fit_isolation_model,
    median_heuristic_bandwidth,
)

CLUSTERERS = ("kpskc", "kmeans", "ik-dbscan")
KERNELS = ("idk", "gdk")
TREE_METHODS = ("divisive", "ahc")
REFINE_PASSES = 100  # most passes of refine


@dataclass
class RunConfig:
    """Knobs for one clustering run; defaults follow the robust sweep values."""

    k: int
    psi: int = 16
    t: int = 200
    tau: float = 0.01
    rho: float = 0.1
    s: int | None = None  # subset size; None = min(n, 2000)
    seed: int = 0
    clusterer: str = "kpskc"
    refine: bool = True
    kernel: str = "idk"
    bandwidth: float | None = None  # gdk only; median heuristic when None
    eps_sim: float = 0.15  # ik-dbscan neighborhood similarity
    min_pts: int = 5
    restarts: int = 10  # kmeans clusterer
    tree_method: str = "divisive"

    def validate(self, n: int) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.clusterer not in CLUSTERERS:
            raise ValueError(f"unknown clusterer {self.clusterer!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.tree_method not in TREE_METHODS:
            raise ValueError(f"unknown tree method {self.tree_method!r}")
        if self.s is not None and not 2 <= self.s <= n:
            raise ValueError(f"subset size must be in [2, {n}], got {self.s}")
        if not 0 < self.eps_sim < np.inf:  # at 0 every pair would be a neighbour: one cluster, from an s x s graph
            raise ValueError(f"eps_sim must be positive and finite, got {self.eps_sim}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")

    def subset_size(self, n: int) -> int:
        return min(n, 2000) if self.s is None else self.s


@dataclass
class RunResult:
    """Finalized tree plus everything needed to audit the run."""

    tree: dendro.Dendrogram
    assignments: np.ndarray  # per-point core-cluster ID
    cores: corecluster.CoreClusterSet
    k: int  # effective leaf count (may be below the requested k)
    iterations: int
    tsc_trace: tuple  # (tsc_local before refinement, after)
    refine_trace: dict  # refine's tsc_local per labeling, points moved per pass, stop reason
    orphans: int  # points with zero similarity to every cluster
    warnings: list
    timings: dict
    ops: IdkOps | GdkOps  # kernel backend over the full data
    model: IsolationModel | None = None  # isolation kernel only

    @property
    def feats(self) -> IdkOps | None:
        # read by perfbench/run.py and perfbench/workloads.py, which treat it
        # as the isolation-kernel backend; it goes when the benchmark reads ops
        return self.ops if isinstance(self.ops, IdkOps) else None


def build_tree(cores: corecluster.CoreClusterSet, ops) -> dendro.Dendrogram:
    """Divisive tree over core clusters (unfinalized).

    Every multi-cluster leaf is split by its two largest clusters (by point
    count, ties to the smaller ID): each remaining cluster joins the anchor
    it is more similar to under the set kernel (one ``ops.gram`` of the
    clusters), anchors stay on their own side, and similarity ties go to the
    first anchor. Splitting continues until every leaf holds one cluster.

    The returned tree carries a ``split_records`` attribute listing, per
    split, the anchors, each non-anchor cluster's similarity to both, and
    ``zero_ties``: how many non-anchor clusters have similarity exactly 0.0 to
    both anchors, and so join the first one by the tie rule alone.
    """
    if cores.k < 2:
        raise ValueError(f"need at least 2 core clusters, got {cores.k}")
    sizes = cores.sizes()
    G = ops.gram(cores.clusters)
    tree = dendro.Dendrogram.seed(range(cores.k))
    while True:
        multi = [leaf for leaf in tree.leaves() if len(leaf.cluster_ids) > 1]
        if not multi:
            break
        for leaf in multi:
            ids = sorted(leaf.cluster_ids, key=lambda c: (-sizes[c], c))
            a1, a2 = ids[0], ids[1]
            left, right = [a1], [a2]
            sims = {c: (float(G[c, a1]), float(G[c, a2])) for c in ids[2:]}
            for c in ids[2:]:
                (left if sims[c][0] >= sims[c][1] else right).append(c)
            tree.split(leaf.id, left, right)
            tree.split_records.append({"node": leaf.id, "anchors": (a1, a2), "sims": sims,
                                       "zero_ties": sum(pair == (0.0, 0.0) for pair in sims.values())})
    return tree


def assign_points(ops, cores: corecluster.CoreClusterSet):
    """Assign every point to the core cluster it is most similar to.

    Ties go to the smallest cluster index. Points with zero similarity to
    every cluster land in cluster 0 and are counted as orphans.
    """
    scores = np.column_stack(
        [ops.point_to_state(ops.group_state(cores.full_rows(j)))
         for j in range(cores.k)]
    )
    labels = scores.argmax(axis=1)
    orphans = int((scores.max(axis=1) == 0.0).sum())
    return labels.astype(np.int64), orphans


def refine(ops, cores: corecluster.CoreClusterSet, labels: np.ndarray):
    """Iteratively recompute cluster distributions and reassign all points.

    Stops after ``REFINE_PASSES`` passes or as soon as fewer points moved than
    one percent of the dataset (or none at all). A cluster that loses all
    members keeps its previous distribution so the leaf count stays fixed.

    Returns the labels, the passes run, and a trace: ``tsc_local`` of every
    labeling a pass scored, read off that pass's states and scores
    (``ops.self_similarity``), then of the final labeling (empty when no pass
    ran); the points each pass ``moved``; and why refine ``stop``ped.
    """
    n = ops.n
    k = cores.k
    delta = math.floor(n * 0.01)
    prev = np.full(n, -1, dtype=np.int64)
    for j in range(k):
        prev[cores.full_rows(j)] = j
    states = [ops.group_state(cores.full_rows(j)) for j in range(k)]
    labels = np.asarray(labels, dtype=np.int64)
    iterations, tsc, moved = 0, [], []
    while True:
        changed = int((labels != prev).sum())
        if iterations:
            moved.append(changed)
        stop = ("moved < 1% of n" if changed < delta
                else "fixed point" if changed == 0 and iterations  # a full pass moved nothing
                else "pass cap" if iterations == REFINE_PASSES else None)
        if stop:
            break
        prev = labels
        groups = [np.nonzero(prev == j)[0] for j in range(k)]
        for j, rows in enumerate(groups):
            if len(rows):
                states[j] = ops.group_state(rows)
        scores = np.column_stack([ops.point_to_state(st) for st in states])
        sims = [ops.self_similarity(st, scores[:, j]) for j, st in enumerate(states)]
        tsc.append(dendro.total_similarity(ops, groups, sims) / n)
        labels = scores.argmax(axis=1).astype(np.int64)
        iterations += 1
    if iterations:  # the final labeling: the last pass's states, with the moved rows regrouped
        rows = np.nonzero(labels != prev)[0]
        for j in np.union1d(prev[rows], labels[rows]):
            old, groups[j] = groups[j], np.nonzero(labels == j)[0]
            if len(groups[j]):  # a group empty before has only a stale state: build it afresh
                rows_in, rows_out = rows[labels[rows] == j], rows[prev[rows] == j]
                st = ops.regroup(states[j], rows_in, rows_out) if len(old) else ops.group_state(rows_in)
                sims[j] = ops.self_similarity(st)
        tsc.append(dendro.total_similarity(ops, groups, sims) / n)
    return labels, iterations, {"tsc_local": tsc, "moved": moved, "stop": stop}


def assignment_tsc_local(ops, labels: np.ndarray, k: int) -> float:
    """Mean similarity of points to their own cluster's distribution."""
    labels = np.asarray(labels)
    groups = [np.nonzero(labels == j)[0] for j in range(k)]
    return dendro.total_similarity(ops, groups) / len(labels)


def make_ops(data: np.ndarray, config: RunConfig, model_seed: int):
    """Build the kernel backend for a dataset; returns (model, ops)."""
    if config.kernel == "idk":
        model = fit_isolation_model(data, config.psi, config.t, model_seed)
        return model, IdkOps.fit(model, data)
    bw = config.bandwidth
    if bw is None:
        bw = median_heuristic_bandwidth(data, seed=model_seed)
    return None, GdkOps(data, bw)


def run(data: np.ndarray, config: RunConfig) -> RunResult:
    """Full pipeline; deterministic given (data, config.seed)."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    config.validate(n)
    s = config.subset_size(n)
    seeds = np.random.default_rng(config.seed).integers(2**31 - 1, size=3)
    timings = {}
    warnings = []

    t0 = time.perf_counter()
    model, ops = make_ops(data, config, int(seeds[0]))
    timings["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    subset, idx = corecluster.select_subset(data, s, int(seeds[1]))
    ops_sub = ops.take(idx)
    if config.clusterer == "kpskc":
        cores = corecluster.kpskc(ops_sub, config.k, config.tau, config.rho)
    elif config.clusterer == "kmeans":
        cores = corecluster.kmeans_cores(subset, config.k, config.restarts, int(seeds[2]))
    else:
        cores = corecluster.ik_dbscan_cores(ops_sub, config.eps_sim, config.min_pts, config.k)
    cores.subset_indices = idx
    warnings.extend(cores.warnings)
    timings["cores"] = time.perf_counter() - t0

    if cores.k == 0:
        raise ValueError("no core clusters found; relax tau/eps or enlarge the subset")
    if cores.k < config.k:
        warnings.append(f"proceeding with {cores.k} clusters instead of {config.k}")

    t0 = time.perf_counter()
    if cores.k == 1:
        tree = dendro.Dendrogram.seed([0])
    elif config.tree_method == "ahc":
        tree = dendro.ahc_build(cores, ops_sub)
    else:
        tree = build_tree(cores, ops_sub)
    timings["tree"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    labels, orphans = assign_points(ops, cores)
    if orphans:
        warnings.append(f"{orphans} points had zero similarity to every cluster")
    timings["assign"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.refine:
        labels, iterations, trace = refine(ops, cores, labels)
    else:
        iterations, trace = 0, {"tsc_local": [], "moved": [], "stop": None}
    if not trace["tsc_local"]:  # refine scored nothing: the labeling is assign's
        trace["tsc_local"].append(assignment_tsc_local(ops, labels, cores.k))
    timings["refine"] = time.perf_counter() - t0

    tree.finalize(labels)
    tree.validate()
    return RunResult(
        tree=tree,
        assignments=labels,
        cores=cores,
        k=cores.k,
        iterations=iterations,
        tsc_trace=(trace["tsc_local"][0], trace["tsc_local"][-1]),
        refine_trace=trace,
        orphans=orphans,
        warnings=warnings,
        timings=timings,
        ops=ops,
        model=model,
    )
