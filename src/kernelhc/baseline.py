"""Bisecting k-means: the set-oriented divisive contender.

Starts with every point in one leaf and repeatedly splits a chosen leaf
with 2-means, keeping the best of several seeded restarts by sum of
squared errors, until the target leaf count is reached. Unlike the
kernel-driven pipeline there are no core clusters: nodes hold raw point
sets and leaves get sequential pseudo cluster IDs at the end.
"""

from __future__ import annotations

import numpy as np

from .corecluster import best_lloyd
from .dendro import Dendrogram, Node
from .hier import RunConfig
from .ikernel import _check_matrix


def leaf_sse(X: np.ndarray) -> float:
    return float(((X - X.mean(axis=0)) ** 2).sum())


def _distinct_pair(X: np.ndarray, rng) -> np.ndarray | None:
    """Seeded random pair of rows with different coordinates, or None."""
    m = len(X)
    for _ in range(32):
        pair = rng.choice(m, size=2, replace=False)
        if not np.array_equal(X[pair[0]], X[pair[1]]):
            return pair
    # fall back to a scan so near-duplicate-heavy leaves stay splittable
    other = np.flatnonzero((X != X[0]).any(axis=1))
    return np.array([0, other[0]]) if len(other) else None


def bisect_kmeans(data: np.ndarray, config: RunConfig) -> Dendrogram:
    """Build a k-leaf dendrogram by repeated 2-means splits; of the config,
    only k, restarts and seed apply.

    The next leaf to split is the one with the largest SSE (ties to the
    smaller node ID); unsplittable leaves are skipped. Stops early with a
    warning on the returned tree when nothing splittable remains. The
    result is already finalized: leaves carry their point sets.
    """
    if config.k < 2:
        raise ValueError(f"k must be >= 2, got {config.k}")
    if config.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {config.restarts}")
    X = _check_matrix(data)
    n = X.shape[0]
    if n < config.k:
        raise ValueError(f"need at least k={config.k} points, got {n}")

    rng = np.random.default_rng(config.seed)
    leaves = {0: np.arange(n)}  # leaf id -> its points
    sse = {0: leaf_sse(X)}  # every node's SSE, so len(sse) is the next id
    children, split_order = {}, []
    while len(leaves) < config.k:
        for nid in sorted(leaves, key=lambda c: (-sse[c], c)):
            if len(leaves[nid]) < 2:
                continue
            sub = X[leaves[nid]]
            result = best_lloyd(sub, 2, config.restarts, lambda: _distinct_pair(sub, rng))
            if result is None:
                continue
            pts = leaves.pop(nid)
            children[nid] = ids = (len(sse), len(sse) + 1)
            for cid, side in zip(ids, (pts[result[0] == 0], pts[result[0] == 1])):
                leaves[cid] = side
                sse[cid] = leaf_sse(X[side])
            split_order.append(nid)
            break
        else:  # nothing splittable
            break

    tree = _to_dendrogram(leaves, children, split_order)
    if len(leaves) < config.k:
        tree.warnings.append(f"no splittable leaf left; stopped at {len(leaves)} of {config.k} leaves")
    tree.validate()
    return tree


def _to_dendrogram(leaves: dict, children: dict, split_order: list) -> Dendrogram:
    """Tree from each leaf's points and each split node's (left, right) ids:
    leaves get cluster IDs in left-to-right order, inner nodes the union."""
    nodes = {}

    def build(nid: int, first: int) -> tuple:  # first: the subtree's first cluster ID
        if nid in leaves:
            nodes[nid] = Node(id=nid, cluster_ids=(first,), points=np.sort(leaves[nid]))
            return (first,)
        left, right = children[nid]
        ids = build(left, first)
        ids += build(right, first + len(ids))
        nodes[nid] = Node(id=nid, cluster_ids=ids, left=left, right=right)
        return ids

    build(0, 0)
    return Dendrogram(nodes=nodes, root=0, split_order=split_order)
