"""Behavioral checks on the bundled analog dataset.

These pin the qualitative outcomes the dataset was designed to exhibit:
the growth clusterer beats plain k-means core clusters, the kernel-DBSCAN
alternative matches it, divisive splits stay under the linkage threshold
(which is what makes the agglomerative construction agree), and bisecting
k-means divides the elongated cluster while it still shares a node with
other clusters.
"""

import numpy as np
import pytest

from kernelhc import (
    RunConfig,
    bisect_kmeans,
    dendrogram_purity,
    run,
    topology_equal,
)
from kernelhc.datasets import PAPER_ANALOG_TUNED, paper_analog
from kernelhc.dendro import ahc_build


@pytest.fixture(scope="module")
def analog():
    return paper_analog()


@pytest.fixture(scope="module")
def tuned_run(analog):
    return run(analog.points, RunConfig(**PAPER_ANALOG_TUNED))


class TestClustererChoice:
    def test_growth_clusterer_beats_plain_kmeans_cores(self, analog, tuned_run):
        p_growth = dendrogram_purity(tuned_run.tree, analog.labels)
        res_km = run(analog.points,
                     RunConfig(**PAPER_ANALOG_TUNED, clusterer="kmeans"))
        p_km = dendrogram_purity(res_km.tree, analog.labels)
        assert p_growth > p_km

    def test_kernel_dbscan_cores_match_growth_clusterer(self, analog, tuned_run):
        p_growth = dendrogram_purity(tuned_run.tree, analog.labels)
        res_db = run(analog.points,
                     RunConfig(**PAPER_ANALOG_TUNED, clusterer="ik-dbscan",
                               eps_sim=0.3, min_pts=8))
        p_db = dendrogram_purity(res_db.tree, analog.labels)
        assert res_db.k == 6
        assert p_db >= 0.95
        assert abs(p_growth - p_db) <= 0.02


class TestLinkageThreshold:
    def test_splits_stay_under_tau_and_agglomeration_agrees(self, analog, tuned_run):
        # rebuild the subset kernel backend from the run's own artifacts
        cores = tuned_run.cores
        ops_sub = tuned_run.feats.take(cores.subset_indices)
        tau = PAPER_ANALOG_TUNED["tau"]
        M = ops_sub.gram(cores.clusters)
        for node in tuned_run.tree.nodes.values():
            if node.is_leaf:
                continue
            left = tuned_run.tree.nodes[node.left].cluster_ids
            right = tuned_run.tree.nodes[node.right].cluster_ids
            cross = max(M[i, j] for i in left for j in right)
            assert cross <= tau
        agg = ahc_build(cores, ops_sub)
        assert topology_equal(tuned_run.tree, agg)


class TestBisectNarrative:
    def test_tree_pinned(self, analog):
        tree = bisect_kmeans(analog.points, RunConfig(k=6, restarts=10, seed=1))
        assert tree.split_order == [0, 2, 1, 3, 6]
        assert [len(leaf.points) for leaf in tree.leaves()] == [505, 488, 507, 380, 239, 881]
        assert dendrogram_purity(tree, analog.labels) == pytest.approx(0.8273, abs=5e-5)
        assert tree.warnings == []

    def test_elongated_cluster_divided_before_it_is_alone(self, analog):
        tree = bisect_kmeans(analog.points, RunConfig(k=6, restarts=10, seed=1))
        lshape = set(np.nonzero(analog.labels == 0)[0].tolist())
        holding = [leaf for leaf in tree.leaves()
                   if lshape & set(leaf.points.tolist())]
        assert len(holding) >= 2  # the cluster ends up split across leaves

        # the smallest node containing the whole cluster also holds others,
        # so the division happened while it was not alone
        def points_under(nid):
            node = tree.nodes[nid]
            if node.is_leaf:
                return set(node.points.tolist())
            return points_under(node.left) | points_under(node.right)

        nid = tree.root
        while True:
            node = tree.nodes[nid]
            if node.is_leaf:
                break
            left_pts = points_under(node.left)
            if lshape <= left_pts:
                nid = node.left
            elif lshape <= points_under(node.right):
                nid = node.right
            else:
                break  # nid is the lowest common ancestor
        lca_points = points_under(nid)
        assert lshape < lca_points  # strictly more than the cluster itself
