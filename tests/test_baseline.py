import numpy as np
import pytest

from kernelhc import RunConfig, bisect_kmeans
from kernelhc.baseline import best_two_means, leaf_sse
from kernelhc.dendro import leaf_labels

from conftest import two_blobs


def exhaustive_best_bipartition(X):
    """Minimum-SSE 2-partition by enumerating every assignment."""
    n = len(X)
    best, best_sse = None, np.inf
    for mask in range(1, 2**n - 1):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        sse = 0.0
        for side in (sel, ~sel):
            pts = X[side]
            sse += float(((pts - pts.mean(axis=0)) ** 2).sum())
        if sse < best_sse:
            best, best_sse = sel, sse
    return best, best_sse


class TestBisectKmeans:
    def test_two_blobs_match_exhaustive_split(self):
        X, _ = two_blobs(seed=50, n_per=6)
        tree = bisect_kmeans(X, RunConfig(k=2, restarts=8, seed=1))
        best, _ = exhaustive_best_bipartition(X)
        flat = leaf_labels(tree)
        sel = flat == flat[0]
        assert np.array_equal(sel, best) or np.array_equal(~sel, best)

    def test_k_equals_n_every_point_a_leaf(self):
        rng = np.random.default_rng(51)
        X = rng.uniform(0, 1, (7, 2))
        tree = bisect_kmeans(X, RunConfig(k=7, restarts=3, seed=2))
        assert tree.k == 7
        assert sorted(len(leaf.points) for leaf in tree.leaves()) == [1] * 7

    def test_every_split_nonempty_strict_partition(self):
        rng = np.random.default_rng(52)
        X = rng.normal(0, 1, (40, 3))
        tree = bisect_kmeans(X, RunConfig(k=6, restarts=4, seed=3))
        tree.validate()
        for node in tree.nodes.values():
            if node.is_leaf:
                continue
            left, right = tree.nodes[node.left], tree.nodes[node.right]
            l_pts = set(_points_of(tree, node.left))
            r_pts = set(_points_of(tree, node.right))
            assert l_pts and r_pts
            assert not l_pts & r_pts

    def test_chosen_split_never_worse_than_any_restart(self):
        rng = np.random.default_rng(53)
        X = rng.normal(0, 2, (30, 2))
        labels, sse, sses = best_two_means(X, restarts=6, rng=np.random.default_rng(4))
        assert sse == min(sses)
        assert len(sses) == 6

    def test_duplicates_stop_early_with_warning(self):
        X = np.zeros((5, 2))  # nothing splittable
        tree = bisect_kmeans(X, RunConfig(k=3, restarts=2, seed=5))
        assert tree.k == 1
        assert tree.warnings

    def test_largest_sse_leaf_splits_first(self):
        rng = np.random.default_rng(54)
        wide = rng.normal([0, 0], 4.0, (30, 2))
        tight = rng.normal([60, 0], 0.05, (30, 2))
        X = np.vstack([wide, tight])
        tree = bisect_kmeans(X, RunConfig(k=3, restarts=6, seed=6))
        # first split separates the blobs; the second must re-split the wide one
        second = tree.split_order[1]
        pts = _points_of(tree, second)
        assert set(pts) <= set(range(30))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bisect_kmeans(np.zeros((5, 2)), RunConfig(k=1))
        with pytest.raises(ValueError):
            bisect_kmeans(np.zeros((5, 2)), RunConfig(k=2, restarts=0))
        with pytest.raises(ValueError, match="at least"):
            bisect_kmeans(np.zeros((3, 2)), RunConfig(k=4))

    def test_deterministic(self):
        rng = np.random.default_rng(55)
        X = rng.normal(0, 1, (25, 2))
        t1 = bisect_kmeans(X, RunConfig(k=4, restarts=3, seed=7))
        t2 = bisect_kmeans(X, RunConfig(k=4, restarts=3, seed=7))
        assert t1.to_json() == t2.to_json()


def _points_of(tree, nid):
    node = tree.nodes[nid]
    if node.is_leaf:
        return list(node.points)
    return _points_of(tree, node.left) + _points_of(tree, node.right)
