"""Bisecting k-means: the set-oriented divisive contender.

Starts with every point in one leaf and repeatedly splits a chosen leaf
with 2-means, keeping the best of several seeded restarts by sum of
squared errors, until the target leaf count is reached. Unlike the
kernel-driven pipeline there are no core clusters: nodes hold raw point
sets and leaves get sequential pseudo cluster IDs at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corecluster import _lloyd
from .dendro import Dendrogram, Node


@dataclass
class BisectConfig:
    k: int
    restarts: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


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
    first = X[0]
    other = np.nonzero(~(X == first).all(axis=1))[0]
    if len(other) == 0:
        return None
    return np.array([0, other[0]])


def best_two_means(X: np.ndarray, restarts: int, rng):
    """Best-of-restarts 2-means; returns (labels, sse, all_sses) or None
    when the leaf has no two distinct points to seed from."""
    best = None
    sses = []
    for _ in range(restarts):
        init = _distinct_pair(X, rng)
        if init is None:
            return None
        labels, _, sse = _lloyd(X, 2, init)
        sses.append(sse)
        if best is None or sse < best[1]:
            best = (labels, sse)
    return best[0], best[1], sses


def bisect_kmeans(data: np.ndarray, config: BisectConfig) -> Dendrogram:
    """Build a k-leaf dendrogram by repeated 2-means splits.

    The next leaf to split is the one with the largest SSE (ties to the
    smaller node ID); unsplittable leaves are skipped. Stops early with a
    warning on the returned tree when nothing splittable remains. The
    result is already finalized: leaves carry their point sets.
    """
    config.validate()
    X = np.asarray(data, dtype=np.float64)
    n = X.shape[0]
    if n < config.k:
        raise ValueError(f"need at least k={config.k} points, got {n}")

    rng = np.random.default_rng(config.seed)
    rec = {0: {"points": np.arange(n), "children": None}}
    sse_cache = {0: leaf_sse(X)}
    split_order = []
    warnings = []
    next_id = 1

    leaves = [0]
    while len(leaves) < config.k:
        candidates = [nid for nid in leaves if len(rec[nid]["points"]) >= 2]
        split_done = False
        for nid in sorted(candidates, key=lambda c: (sse_cache[c], -c), reverse=True):
            pts = rec[nid]["points"]
            result = best_two_means(X[pts], config.restarts, rng)
            if result is None:
                continue
            labels, _, _ = result
            left_pts, right_pts = pts[labels == 0], pts[labels == 1]
            ids = (next_id, next_id + 1)
            for cid, cpts in zip(ids, (left_pts, right_pts)):
                rec[cid] = {"points": cpts, "children": None}
                sse_cache[cid] = leaf_sse(X[cpts])
            rec[nid]["children"] = ids
            split_order.append(nid)
            leaves.remove(nid)
            leaves.extend(ids)
            next_id += 2
            split_done = True
            break
        if not split_done:
            warnings.append(
                f"no splittable leaf left; stopped at {len(leaves)} of {config.k} leaves"
            )
            break

    tree = _to_dendrogram(rec, split_order)
    tree.warnings = warnings
    tree.validate()
    return tree


def _to_dendrogram(rec: dict, split_order: list) -> Dendrogram:
    """Assign leaf IDs in left-to-right order and propagate unions upward."""
    leaf_counter = [0]
    nodes = {}

    def build(nid: int) -> tuple:
        entry = rec[nid]
        if entry["children"] is None:
            cid = leaf_counter[0]
            leaf_counter[0] += 1
            nodes[nid] = Node(id=nid, cluster_ids=(cid,), points=np.sort(entry["points"]))
            return (cid,)
        left, right = entry["children"]
        ids = build(left) + build(right)
        nodes[nid] = Node(id=nid, cluster_ids=tuple(sorted(ids)), left=left, right=right)
        nodes[left].parent = nid
        nodes[right].parent = nid
        return ids

    build(0)
    return Dendrogram(nodes=nodes, root=0, split_order=split_order)
