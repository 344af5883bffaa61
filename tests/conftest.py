"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately re-derive everything from first principles
with plain Python loops (no reuse of the library's vectorized paths), so
that agreement between the two is meaningful.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from kernelhc.dendro import Dendrogram, Node


def rng_data(seed, n=40, d=2, spread=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, spread, size=(n, d))


def two_blobs(seed=0, n_per=30, sep=50.0, std=0.1):
    """Two tight, far-apart blobs plus their labels."""
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], std, size=(n_per, 2))
    b = rng.normal([sep, sep], std, size=(n_per, 2))
    X = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return X, labels


# ---------------------------------------------------------------------------
# Isolation-kernel oracles
# ---------------------------------------------------------------------------

def oracle_cells(model, X):
    """Exhaustive nearest-center + radius scan, one point at a time."""
    X = np.atleast_2d(X)
    out = np.full((len(X), model.t), -1, dtype=int)
    for pi in range(model.t):
        centers = model.centers[pi]
        radii = model.radii[pi]
        for i, x in enumerate(X):
            best, bestd = -1, math.inf
            for j in range(len(centers)):
                dist = math.sqrt(float(((x - centers[j]) ** 2).sum()))
                if dist < bestd:
                    best, bestd = j, dist
            if bestd <= radii[best]:
                out[i, pi] = best
    return out


def oracle_point_vector(model, x):
    """Dense feature map of one point via the exhaustive scan."""
    cells = oracle_cells(model, x[None, :])[0]
    v = np.zeros(model.t * model.psi)
    for pi, c in enumerate(cells):
        if c >= 0:
            v[pi * model.psi + c] = 1.0 / math.sqrt(model.t)
    return v


def oracle_point_kernel(model, x, y):
    """Fraction of partitionings where both points share a cell."""
    cx = oracle_cells(model, x[None, :])[0]
    cy = oracle_cells(model, y[None, :])[0]
    hits = sum(1 for a, b in zip(cx, cy) if a >= 0 and a == b)
    return hits / model.t


def oracle_mean_pairwise(model, X, Y):
    """Mean pairwise point-kernel value over the two sets."""
    total = 0.0
    for x in X:
        for y in Y:
            total += oracle_point_kernel(model, x, y)
    return total / (len(X) * len(Y))


def oracle_gram(model, X, groups):
    """K(P_a, P_b) for every pair of groups (lists of rows of X): the exact
    fraction (cells shared over all point pairs) / (|a| |b| t), rounded once."""
    cells = oracle_cells(model, X)

    def shared(i, j):
        return sum(1 for a, b in zip(cells[i], cells[j]) if a >= 0 and a == b)

    return np.array([[float(Fraction(sum(shared(i, j) for i in ga for j in gb),
                                     len(ga) * len(gb) * model.t))
                      for gb in groups] for ga in groups])


def oracle_gdk(X, Y, bandwidth):
    total = 0.0
    for x in X:
        for y in Y:
            sq = float(((x - y) ** 2).sum())
            total += math.exp(-sq / (2.0 * bandwidth**2))
    return total / (len(X) * len(Y))


def oracle_ik_dbscan(K, eps_sim, min_pts, k):
    """Kernel-neighbourhood DBSCAN on the dense point-kernel matrix K: the
    neighbours of p are the q with K[p, q] >= eps_sim, tested pair by pair.
    Returns (the k largest clusters, noise, clusters found), as lists of rows."""
    m = len(K)
    neigh = [[q for q in range(m) if K[p][q] >= eps_sim] for p in range(m)]
    is_core = [len(neigh[p]) >= min_pts for p in range(m)]
    labels = [-1] * m
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
            for q in neigh[p]:  # ascending
                if labels[q] == -1:
                    labels[q] = cid
                    queue.append(q)
        cid += 1
    clusters = [[i for i in range(m) if labels[i] == j] for j in range(cid)]
    order = sorted(range(cid), key=lambda j: (-len(clusters[j]), j))
    kept = {j for j in order[:k]}
    noise = [i for i in range(m) if labels[i] not in kept]
    return [clusters[j] for j in order[:k]], noise, cid


# ---------------------------------------------------------------------------
# Dendrogram purity oracle
# ---------------------------------------------------------------------------

def oracle_purity(tree, labels):
    """O(n^2) pair enumeration with explicit LCA walks."""
    labels = np.asarray(labels)
    leaf_of = {}
    for leaf in tree.leaves():
        for p in leaf.points:
            leaf_of[int(p)] = leaf.id

    def ancestors(nid):
        path = []
        while nid is not None:
            path.append(nid)
            nid = tree.nodes[nid].parent
        return path

    def descend_points(nid):
        node = tree.nodes[nid]
        if node.is_leaf:
            return list(node.points)
        return descend_points(node.left) + descend_points(node.right)

    n = len(labels)
    total = 0
    acc = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] != labels[j]:
                continue
            anc_i = ancestors(leaf_of[i])
            anc_j = set(ancestors(leaf_of[j]))
            lca = next(a for a in anc_i if a in anc_j)
            pts = descend_points(lca)
            frac = sum(1 for p in pts if labels[p] == labels[i]) / len(pts)
            acc += frac
            total += 1
    if total == 0:
        raise ValueError("no same-label pair")
    return acc / total


# ---------------------------------------------------------------------------
# Tree-contraction oracle
# ---------------------------------------------------------------------------

def contract(tree: Dendrogram, leaf_a: int, leaf_b: int) -> Dendrogram:
    """Merge two sibling leaves into their parent; returns a new tree."""
    a, b = tree.nodes[leaf_a], tree.nodes[leaf_b]
    if not (a.is_leaf and b.is_leaf):
        raise ValueError("both arguments must be leaves")
    if a.parent is None or a.parent != b.parent:
        raise ValueError("leaves must share a parent")
    new_nodes = {}
    for nid, node in tree.nodes.items():
        if nid in (leaf_a, leaf_b):
            continue
        new_nodes[nid] = Node(
            id=node.id,
            cluster_ids=node.cluster_ids,
            left=node.left,
            right=node.right,
            parent=node.parent,
            points=node.points,
            alpha=node.alpha,
        )
    parent = new_nodes[a.parent]
    parent.left = parent.right = None
    parent.alpha = None
    if a.points is not None and b.points is not None:
        parent.points = np.sort(np.concatenate([a.points, b.points]))
    return Dendrogram(
        nodes=new_nodes,
        root=tree.root,
        split_order=[nid for nid in tree.split_order if nid != a.parent],
    )


@pytest.fixture
def small_model():
    from kernelhc import fit_isolation_model

    return fit_isolation_model(rng_data(1, n=30), psi=6, t=25, seed=42)
