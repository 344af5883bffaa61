"""Binary dendrograms over core clusters, and everything evaluated on them.

A tree node holds a set of core-cluster IDs; after finalization each leaf
additionally holds the full-dataset point indices that ended up in its
clusters. The quality objective is the total similarity of all clusters:
the sum over leaves of each member point's similarity to its own leaf's
distribution. Contracting sibling leaves of m1 and m2 points lowers it, per
point, by exactly m1 m2 / ((m1 + m2) n) times their embeddings' squared
distance (Ward's merge cost in feature space), so by at most that distance:
the test suite checks both. Both need only the k x k Gram K(P_a, P_b) of
the leaves (``ops.gram``), as does agglomeration over core clusters.

Trees remember the order their internal nodes were created in; replaying
that order backwards yields the canonical contraction sequence used by the
windowed objective and the bound checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TREE_FORMAT = "kernelhc-dendrogram"
TREE_VERSION = 1


@dataclass
class Node:
    id: int
    cluster_ids: tuple
    left: int | None = None
    right: int | None = None
    parent: int | None = None
    points: np.ndarray | None = None
    alpha: float | None = None  # sibling embedding gap of this split

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class Dendrogram:
    """Binary tree over core-cluster IDs with an explicit split order."""

    def __init__(self, nodes: dict, root: int, split_order: list):
        self.nodes = nodes
        self.root = root
        self.split_order = list(split_order)
        self.split_records = []  # per split, filled by hier.build_tree
        self.warnings = []  # filled by baseline.bisect_kmeans

    # -- construction ------------------------------------------------------

    @classmethod
    def seed(cls, cluster_ids) -> "Dendrogram":
        """A single-leaf tree holding every cluster ID."""
        root = Node(id=0, cluster_ids=tuple(sorted(cluster_ids)))
        return cls(nodes={0: root}, root=0, split_order=[])

    def split(self, node_id: int, left_ids, right_ids):
        """Split a multi-cluster leaf into two children; returns their ids."""
        node = self.nodes[node_id]
        if not node.is_leaf:
            raise ValueError(f"node {node_id} is not a leaf")
        left_ids = tuple(sorted(left_ids))
        right_ids = tuple(sorted(right_ids))
        if set(left_ids) | set(right_ids) != set(node.cluster_ids) or set(left_ids) & set(right_ids):
            raise ValueError("children must partition the parent's cluster IDs")
        if not left_ids or not right_ids:
            raise ValueError("both sides of a split must be nonempty")
        nid = max(self.nodes) + 1
        self.nodes[nid] = Node(id=nid, cluster_ids=left_ids, parent=node_id)
        self.nodes[nid + 1] = Node(id=nid + 1, cluster_ids=right_ids, parent=node_id)
        node.left, node.right = nid, nid + 1
        self.split_order.append(node_id)
        return nid, nid + 1

    # -- basic queries -----------------------------------------------------

    def leaves(self) -> list:
        """Leaves in left-to-right order."""
        out = []
        stack = [self.root]
        while stack:
            node = self.nodes[stack.pop()]
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend([node.right, node.left])
        return out

    @property
    def k(self) -> int:
        return len(self.leaves())

    @property
    def is_finalized(self) -> bool:
        return all(leaf.points is not None for leaf in self.leaves())

    @property
    def n_points(self) -> int:
        return sum(len(leaf.points) for leaf in self.leaves())

    def contraction_order(self) -> list:
        """Internal-node ids in the order they should be contracted."""
        return list(reversed(self.split_order))

    def validate(self) -> None:
        root = self.nodes[self.root]
        for node in self.nodes.values():
            if not node.is_leaf:
                left, right = self.nodes[node.left], self.nodes[node.right]
                ids = set(left.cluster_ids) | set(right.cluster_ids)
                if set(left.cluster_ids) & set(right.cluster_ids):
                    raise AssertionError(f"node {node.id}: overlapping children")
                if ids != set(node.cluster_ids):
                    raise AssertionError(f"node {node.id}: children do not partition it")
            if not node.cluster_ids:
                raise AssertionError(f"node {node.id} holds no cluster IDs")
        all_leaf_ids = [cid for leaf in self.leaves() for cid in leaf.cluster_ids]
        if sorted(all_leaf_ids) != sorted(root.cluster_ids) or len(set(all_leaf_ids)) != len(all_leaf_ids):
            raise AssertionError("leaves do not partition the root's cluster IDs")
        internal = {nid for nid, node in self.nodes.items() if not node.is_leaf}
        if set(self.split_order) != internal or len(self.split_order) != len(internal):
            raise AssertionError("split order does not cover the internal nodes")
        if self.is_finalized:
            pts = np.concatenate([leaf.points for leaf in self.leaves()])
            if not np.array_equal(np.sort(pts), np.arange(len(pts))):
                raise AssertionError("finalized leaves do not hold points 0..n-1 once each")

    # -- finalization ------------------------------------------------------

    def finalize(self, labels: np.ndarray) -> "Dendrogram":
        """Attach per-leaf point sets from a point -> cluster-ID assignment."""
        if self.is_finalized:
            raise ValueError("tree is already finalized")
        labels = np.asarray(labels)
        for leaf in self.leaves():
            member = np.isin(labels, leaf.cluster_ids)
            leaf.points = np.nonzero(member)[0]
        return self

    # -- serialization -----------------------------------------------------

    def to_newick(self) -> str:
        def name(node: Node) -> str:
            ids = "-".join(f"c{c}" for c in node.cluster_ids)
            if node.points is not None:
                return f"{ids}_{len(node.points)}"
            return ids

        def walk(nid: int) -> str:
            node = self.nodes[nid]
            if node.is_leaf:
                return name(node)
            return f"({walk(node.left)},{walk(node.right)})"

        return walk(self.root) + ";"

    def to_json(self) -> str:
        nodes = []
        for node in sorted(self.nodes.values(), key=lambda n: n.id):
            nodes.append(
                {
                    "id": node.id,
                    "cluster_ids": list(node.cluster_ids),
                    "children": None if node.is_leaf else [node.left, node.right],
                    "points": None if node.points is None else node.points.tolist(),
                    "alpha": node.alpha,
                }
            )
        return json.dumps(
            {
                "format": TREE_FORMAT,
                "version": TREE_VERSION,
                "root": self.root,
                "split_order": self.split_order,
                "nodes": nodes,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Dendrogram":
        obj = json.loads(text)
        if not isinstance(obj, dict) or obj.get("format") != TREE_FORMAT:
            raise ValueError("not a dendrogram JSON document")
        if obj.get("version") != TREE_VERSION:
            raise ValueError(f"unsupported dendrogram version {obj.get('version')!r}")
        try:
            nodes = {}
            for rec in obj["nodes"]:
                node = Node(
                    id=rec["id"],
                    cluster_ids=tuple(rec["cluster_ids"]),
                    points=None if rec["points"] is None else np.asarray(rec["points"], dtype=np.int64),
                    alpha=rec.get("alpha"),
                )
                if rec["children"] is not None:
                    node.left, node.right = rec["children"]
                nodes[node.id] = node
            tree = cls(nodes=nodes, root=obj["root"], split_order=obj["split_order"])
            for node in nodes.values():
                if not node.is_leaf:
                    nodes[node.left].parent = nodes[node.right].parent = node.id
            tree.validate()
        except (KeyError, TypeError, AssertionError) as e:
            raise ValueError(f"malformed dendrogram: {e!r}") from e
        return tree


def leaf_labels(tree: Dendrogram) -> np.ndarray:
    """Flat clustering readout: per-point index of its leaf, numbered
    left to right."""
    labels = np.empty(tree.n_points, dtype=np.int64)
    for i, leaf in enumerate(tree.leaves()):
        labels[leaf.points] = i
    return labels


def topology_equal(a: Dendrogram, b: Dendrogram) -> bool:
    """True when both trees have exactly the same clades of cluster IDs."""
    clades_a = {frozenset(n.cluster_ids) for n in a.nodes.values()}
    clades_b = {frozenset(n.cluster_ids) for n in b.nodes.values()}
    return clades_a == clades_b


# ---------------------------------------------------------------------------
# Total similarity of all clusters
# ---------------------------------------------------------------------------

def total_similarity(ops, groups) -> float:
    """Total similarity of all clusters: sum over the groups S of
    |S| * K(P_S, P_S), which equals the sum over every member x of its
    similarity to its own group's distribution. ``ops`` is a kernel backend
    (ikernel.IdkOps / GdkOps) and ``groups`` lists row-index arrays; empty
    groups contribute nothing."""
    return sum(len(g) * ops.set_similarity(g, g) for g in groups if len(g))


def _check_rows(tree: Dendrogram, ops) -> None:
    if not tree.is_finalized:
        raise ValueError("tree must be finalized before computing the objective")
    if ops.n != tree.n_points:
        raise ValueError(f"the kernel covers {ops.n} points but the tree holds {tree.n_points}")


def tsc(tree: Dendrogram, ops) -> float:
    """Sum over leaves of each point's similarity to its own leaf."""
    _check_rows(tree, ops)
    return total_similarity(ops, [leaf.points for leaf in tree.leaves()])


def tsc_local(tree: Dendrogram, ops) -> float:
    """Size-normalized objective: tsc divided by the number of points."""
    return tsc(tree, ops) / tree.n_points


@dataclass
class ContractionStep:
    node_id: int
    leaves_after: int
    alpha: float  # embedding distance between the two merged leaves
    tsc_local_before: float
    tsc_local_after: float


def contraction_trace(tree: Dendrogram, ops, stop_at: int = 1) -> list:
    """Replay the canonical contraction sequence down to ``stop_at`` leaves.

    Returns one ContractionStep per contraction, carrying the sibling
    embedding gap and the objective on both sides of the merge. It reads
    one ``ops.gram`` of the leaves; the rest is k x k algebra on
    W[a, b] = |a| |b| K(P_a, P_b), which adds up over merges. A node a of m
    points has mean map mu_a with |mu_a|^2 = W[a, a] / m^2 and adds
    m |mu_a|^2 to the objective; an empty leaf's mean map is taken as 0.
    """
    _check_rows(tree, ops)
    n = tree.n_points
    leaves = tree.leaves()
    row = {leaf.id: i for i, leaf in enumerate(leaves)}  # node id -> its row of W
    m = np.array([len(leaf.points) for leaf in leaves], dtype=np.float64)
    full = np.nonzero(m)[0]
    W = np.zeros((len(leaves), len(leaves)))
    W[np.ix_(full, full)] = ops.gram([leaves[i].points for i in full]) * np.outer(m[full], m[full])

    def inner(a, b):  # <mu_a, mu_b>
        return W[a, b] / (m[a] * m[b]) if m[a] and m[b] else 0.0

    steps = []
    tsc_sum = sum(m[a] * inner(a, a) for a in range(len(leaves)))
    q = len(leaves)
    for nid in tree.contraction_order():
        if q <= stop_at:
            break
        node = tree.nodes[nid]
        a, b = row.pop(node.left), row.pop(node.right)
        alpha = float(np.sqrt(max(inner(a, a) + inner(b, b) - 2 * inner(a, b), 0.0)))
        before = tsc_sum / n
        tsc_sum -= m[a] * inner(a, a) + m[b] * inner(b, b)
        W[a] += W[b]
        W[:, a] += W[:, b]
        m[a] += m[b]
        tsc_sum += m[a] * inner(a, a)
        row[nid] = a
        q -= 1
        steps.append(ContractionStep(node_id=nid, leaves_after=q, alpha=alpha,
                                     tsc_local_before=before, tsc_local_after=tsc_sum / n))
    return steps


def tsc_global_p(tree: Dendrogram, p: int, ops) -> float:
    """Average of the size-normalized objective over the sub-trees with
    p..k leaves obtained by replaying the contraction sequence."""
    k = tree.k
    if not 1 <= p <= k:
        raise ValueError(f"p must be in [1, {k}], got {p}")
    steps = contraction_trace(tree, ops, stop_at=p)
    values = [tsc_local(tree, ops)] + [s.tsc_local_after for s in steps]
    return float(np.mean(values))


def annotate_alphas(tree: Dendrogram, ops) -> Dendrogram:
    """Store each split's sibling embedding gap on its internal node."""
    for step in contraction_trace(tree, ops):
        tree.nodes[step.node_id].alpha = step.alpha
    return tree


# ---------------------------------------------------------------------------
# Dendrogram purity
# ---------------------------------------------------------------------------

def dendrogram_purity(tree: Dendrogram, labels: np.ndarray) -> float:
    """Average ground-truth label fraction at the lowest common ancestor,
    taken over all pairs of distinct same-label points.

    Runs in O(#nodes * #classes) by grouping pairs per LCA node: pairs
    inside one leaf meet at the leaf, pairs from different leaves meet at
    the node whose two subtrees separate them.
    """
    if not tree.is_finalized:
        raise ValueError("tree must be finalized")
    labels = np.asarray(labels)
    leaves = tree.leaves()
    n = sum(len(leaf.points) for leaf in leaves)
    if n != len(labels):
        raise ValueError(f"labels cover {len(labels)} points but the tree holds {n}")
    classes, enc = np.unique(labels, return_inverse=True)
    c = len(classes)

    counts = {}  # node id -> class-count vector over descendant points
    for leaf in leaves:
        counts[leaf.id] = np.bincount(enc[leaf.points], minlength=c).astype(np.float64)
    # the contraction order visits every node's children before the node
    for nid in tree.contraction_order():
        node = tree.nodes[nid]
        counts[nid] = counts[node.left] + counts[node.right]

    total_pairs = sum(m * (m - 1) / 2 for m in counts[tree.root])
    if total_pairs == 0:
        raise ValueError("no pair of points shares a label")

    acc = 0.0
    for leaf in leaves:
        m = counts[leaf.id]
        size = m.sum()
        if size == 0:
            continue
        frac = m / size
        acc += float((m * (m - 1) / 2 * frac).sum())
    for nid, node in tree.nodes.items():
        if node.is_leaf:
            continue
        m = counts[nid]
        cross = counts[node.left] * counts[node.right]
        frac = m / m.sum()
        acc += float((cross * frac).sum())
    return acc / total_pairs


# ---------------------------------------------------------------------------
# Agglomerative construction
# ---------------------------------------------------------------------------

def single_linkage_tree(M: np.ndarray) -> Dendrogram:
    """Agglomerate k singleton leaves by repeatedly merging the pair of
    nodes with the highest single-linkage similarity.

    ``M`` is the symmetric base similarity matrix between the k units; the
    linkage between two merged nodes is the max over their members. Ties
    are broken toward the pair with the smallest member ids. The returned
    tree's contraction order replays the merges first-to-last.
    """
    link = np.array(M, dtype=np.float64)  # rows and columns indexed by rep
    k = link.shape[0]
    if k < 2:
        raise ValueError("need at least 2 units to agglomerate")
    np.fill_diagonal(link, -np.inf)

    # A node's rep is its smallest member id; the merged node keeps the
    # smaller rep and retired reps get -inf links. The matrix is symmetric,
    # so its first maximum in row-major order is the tied pair with the
    # smallest rep, then the smallest partner.
    nodes = {i: Node(id=i, cluster_ids=(i,)) for i in range(k)}
    node_of = list(range(k))  # rep -> node id
    merge_order = []
    for nid in range(k, 2 * k - 1):
        ra, rb = divmod(int(np.argmax(link)), k)
        na, nb = node_of[ra], node_of[rb]
        nodes[nid] = Node(
            id=nid,
            cluster_ids=tuple(sorted(nodes[na].cluster_ids + nodes[nb].cluster_ids)),
            left=na,
            right=nb,
        )
        nodes[na].parent = nodes[nb].parent = nid
        merge_order.append(nid)
        link[ra] = np.maximum(link[ra], link[rb])
        link[:, ra] = link[ra]
        link[ra, ra] = -np.inf
        link[rb] = link[:, rb] = -np.inf
        node_of[ra] = nid

    return Dendrogram(
        nodes=nodes,
        root=merge_order[-1],
        split_order=list(reversed(merge_order)),
    )


def ahc_build(cores, ops) -> Dendrogram:
    """Single-linkage agglomeration of core clusters under the set kernel."""
    if cores.k < 2:
        raise ValueError(f"need at least 2 core clusters, got {cores.k}")
    return single_linkage_tree(ops.gram(cores.clusters))
