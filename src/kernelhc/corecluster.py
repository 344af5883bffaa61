"""Core-cluster extraction from a data subset.

A core cluster is the dense backbone of one cluster: enough points to pin
down its shape, size, and density, found on a small seeded subset of the
full dataset before any tree is built. The default finder grows clusters
one at a time from a kernel-density seed under a geometrically decaying
similarity threshold; k-means and a kernel-neighborhood DBSCAN are provided
as drop-in alternatives for ablations.

All finders work in subset-local row indices and return ``subset_indices``
as ``np.arange(m)``; ``hier.run`` sets it to the subset's full-dataset rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .ikernel import _check_matrix


@dataclass
class CoreClusterSet:
    """Disjoint core clusters plus leftovers, over a subset of the data."""

    clusters: list  # list of np.ndarray, subset-local row indices
    noise: np.ndarray
    subset_indices: np.ndarray
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)  # diagnostics

    @property
    def k(self) -> int:
        return len(self.clusters)

    def full_rows(self, j: int) -> np.ndarray:
        """Full-dataset row indices of cluster j."""
        return self.subset_indices[self.clusters[j]]

    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.clusters], dtype=np.int64)


def select_subset(data: np.ndarray, s: int, seed: int):
    """Seeded uniform sample of s rows without replacement.

    Returns (subset, indices). s == n returns the full set in original
    order so that a "no subsampling" run is exactly the identity.
    """
    data = np.asarray(data)
    n = data.shape[0]
    if not 2 <= s <= n:
        raise ValueError(f"subset size must be in [2, {n}], got {s}")
    if s == n:
        idx = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=s, replace=False)
    return data[idx], idx


def kpskc(ops, k: int, tau: float, rho: float) -> CoreClusterSet:
    """Grow up to k core clusters from kernel-density seeds.

    ``ops`` is a kernel backend over the subset (see ikernel.IdkOps /
    GdkOps). Each round seeds at the point most similar to the residual
    set's distribution, pairs it with its most similar companion, then
    repeatedly admits every residual point whose similarity to the current
    members exceeds a threshold that decays by factor (1 - rho) per step,
    stopping once the threshold hits tau. Grown members leave the residual
    set; whatever remains at the end is noise.

    Seeding stops early (with a warning recorded) when the decayed seed
    similarity is already below tau, so fewer than k clusters may return.

    Each round works on ``ops.take(remaining)`` and scores a member set only
    when it differs, as a set, from the last one scored (``meta["scored_sets"]``
    counts them per cluster), from a group state kept by difference:
    ``ops.regroup`` reads only the rows that joined or left since. The savings
    are exact. A row's score reads only that row (a CSR matvec sums the row's
    own entries in order, a Gaussian row mean reduces the row's own values),
    so dropping removed rows changes no remaining row's bits. Isolation-kernel
    cell counts are integers, which add and subtract exactly, and a Gaussian
    state is the sorted member array, as group_state of the grown set is.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = ops.n
    if m == 0:
        raise ValueError("cannot cluster an empty subset")

    remaining = np.arange(m)
    clusters: list = []
    warnings: list = []
    gamma_traces: list = []
    scored_sets: list = []

    while len(remaining) > 1 and len(clusters) < k:
        rest = ops if len(remaining) == m else ops.take(remaining)
        local = np.arange(len(remaining))
        sims_d = rest.point_to_state(rest.group_state(local))
        p = int(np.argmax(sims_d))
        row_p = rest.point_row(p)
        cand = local[local != p]
        q = cand[int(np.argmax(row_p[cand]))]
        gamma = (1.0 - rho) * float(row_p[q])
        if gamma <= tau:
            warnings.append(
                f"seeding stopped at {len(clusters)} of {k} clusters: "
                f"decayed seed similarity {gamma:.6g} <= tau {tau:.6g}"
            )
            break

        grown = np.isin(local, [p, q])  # the members, as a mask over rest's rows
        state = rest.group_state(np.array([p, q]))  # scored now, for the first step (gamma > tau)
        scored, sims_g, n_scored = grown, rest.point_to_state(state), 1  # the members sims_g is for
        trace = []
        while gamma > tau:
            trace.append(gamma)
            if not np.array_equal(grown, scored):
                state = rest.regroup(state, np.flatnonzero(grown & ~scored), np.flatnonzero(scored & ~grown))
                sims_g = rest.point_to_state(state)
                scored = grown
                n_scored += 1
            new = sims_g > gamma
            gamma *= 1.0 - rho
            if not new.any():
                # a fully collapsed growth step would leave nothing to embed
                warnings.append(
                    f"cluster {len(clusters)}: growth step emptied the member "
                    "set; kept the previous members"
                )
                break
            grown = new

        clusters.append(remaining[grown])
        gamma_traces.append(np.asarray(trace))
        scored_sets.append(n_scored)
        remaining = remaining[~grown]

    if len(clusters) < k and not warnings:
        warnings.append(f"terminated with {len(clusters)} of {k} requested clusters")

    return CoreClusterSet(
        clusters=clusters,
        noise=remaining,
        subset_indices=np.arange(m),
        warnings=warnings,
        meta={"gamma_traces": gamma_traces, "scored_sets": scored_sets},
    )


# ---------------------------------------------------------------------------
# Alternative finders for the line-1 ablation
# ---------------------------------------------------------------------------

def _revive_empty(X, centers, labels, own, k):
    """Re-seat each empty cluster at the current worst-fit point."""
    for j in range(k):
        if not np.any(labels == j):
            far = int(np.argmax(own))
            centers[j] = X[far]
            labels[far] = j
            own[far] = 0.0


def _lloyd(X: np.ndarray, k: int, init_rows: np.ndarray, max_iter: int = 300):
    """One Lloyd run from given initial rows; returns (labels, centers, sse)."""
    centers = X[init_rows].copy()
    labels = np.full(X.shape[0], -1, dtype=np.int64)
    for _ in range(max_iter):
        d = cdist(X, centers, "sqeuclidean")
        new_labels = d.argmin(axis=1)
        own = d[np.arange(len(X)), new_labels]
        _revive_empty(X, centers, new_labels, own, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = X[labels == j]
            if len(members):  # reviving may have emptied another cluster
                centers[j] = members.mean(axis=0)
    d = cdist(X, centers, "sqeuclidean")
    labels = d.argmin(axis=1)
    own = d[np.arange(len(X)), labels]
    _revive_empty(X, centers, labels, own, k)
    sse = float(own.sum())
    return labels, centers, sse


def best_lloyd(X: np.ndarray, k: int, restarts: int, draw):
    """Best-of-restarts Lloyd from ``draw()``'s initial rows; returns (labels,
    lowest sse, every restart's sse), or None as soon as ``draw()`` does."""
    best, sses = None, []
    for _ in range(restarts):
        init = draw()
        if init is None:
            return None
        labels, _, sse = _lloyd(X, k, init)
        sses.append(sse)
        if best is None or sse < best[1]:
            best = (labels, sse)
    return best[0], best[1], sses


def kmeans_cores(subset: np.ndarray, k: int, restarts: int, seed: int) -> CoreClusterSet:
    """Best-of-restarts Lloyd k-means; every point is assigned (no noise)."""
    X = _check_matrix(subset, "subset")
    m = X.shape[0]
    if k > m:
        raise ValueError(f"k ({k}) cannot exceed the subset size ({m})")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")

    rng = np.random.default_rng(seed)
    labels, sse, _ = best_lloyd(X, k, restarts, lambda: rng.choice(m, size=k, replace=False))
    return CoreClusterSet(
        clusters=[np.nonzero(labels == j)[0] for j in range(k)],
        noise=np.empty(0, dtype=np.int64),
        subset_indices=np.arange(m),
        meta={"sse": sse},
    )


def ik_dbscan_cores(ops, eps_sim: float, min_pts: int, k: int) -> CoreClusterSet:
    """DBSCAN with kernel-similarity neighborhoods.

    The neighborhood of x is every point whose point-kernel similarity to x
    is at least ``eps_sim`` (x itself included): a row of ``ops.neighbors``.
    Clusters are ranked by size and only the k largest kept; the rest joins
    the noise set. The search expands each popped core point's unlabelled
    neighbours in ascending row order. Memory is O(s + ε-pairs) for s points,
    plus one row block of the graph per worker thread: no s × s array.
    """
    if eps_sim <= 0:
        raise ValueError(f"eps_sim must be positive, got {eps_sim}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    m = ops.n
    if m == 0:
        raise ValueError("cannot cluster an empty subset")
    graph = ops.neighbors(eps_sim)
    indptr, indices = graph.indptr, graph.indices
    is_core = np.diff(indptr) >= min_pts
    if not np.any(is_core):
        return CoreClusterSet(
            clusters=[],
            noise=np.arange(m),
            subset_indices=np.arange(m),
            warnings=["no core point found"],
        )

    labels = np.full(m, -1, dtype=np.int64)
    cid = 0
    for i in range(m):
        if labels[i] != -1 or not is_core[i]:
            continue
        queue = [i]
        labels[i] = cid
        while queue:
            p = queue.pop()
            if not is_core[p]:
                continue
            near = indices[indptr[p]:indptr[p + 1]]
            near = near[labels[near] == -1]
            labels[near] = cid
            queue += near.tolist()
        cid += 1

    clusters = [np.nonzero(labels == j)[0] for j in range(cid)]
    order = sorted(range(cid), key=lambda j: (-len(clusters[j]), j))
    kept = [clusters[j] for j in order[:k]]
    dropped = [clusters[j] for j in order[k:]]
    noise = np.nonzero(labels == -1)[0]
    if dropped:
        noise = np.sort(np.concatenate([noise] + dropped))
    warnings = []
    if cid < k:
        warnings.append(f"found {cid} density clusters, fewer than the requested {k}")
    return CoreClusterSet(
        clusters=kept,
        noise=noise,
        subset_indices=np.arange(m),
        warnings=warnings,
    )
