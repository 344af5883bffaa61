import numpy as np
import pytest

from kernelhc import (
    CoreClusterSet,
    IdkOps,
    RunConfig,
    dendrogram_purity,
    fit_isolation_model,
    kpskc,
    run,
    topology_equal,
)
from kernelhc.dendro import ahc_build
from kernelhc.hier import assign_points, assignment_tsc_local, build_tree, refine

from conftest import oracle_mean_pairwise, two_blobs


def fitted_ops(X, psi=4, t=60, seed=5):
    model = fit_isolation_model(X, psi=psi, t=t, seed=seed)
    return model, IdkOps.fit(model, X)


def cores_from_lists(lists, n):
    return CoreClusterSet(
        clusters=[np.asarray(c) for c in lists],
        noise=np.setdiff1d(np.arange(n), np.concatenate(lists)),
        subset_indices=np.arange(n),
    )


def three_blob_data(seed=21):
    """Two large anchor blobs plus a small blob adjacent to the first."""
    rng = np.random.default_rng(seed)
    g1 = rng.normal([0, 0], 0.3, (30, 2))
    g2 = rng.normal([40, 0], 0.3, (25, 2))
    g3 = rng.normal([4, 0], 0.3, (10, 2))
    return np.vstack([g1, g2, g3])


class TestBuildTree:
    def test_two_clusters_trivial_split(self):
        X, _ = two_blobs(seed=20, n_per=20)
        _, ops = fitted_ops(X)
        cores = cores_from_lists([range(20), range(20, 40)], 40)
        tree = build_tree(cores, ops)
        assert tree.k == 2
        ids = sorted(leaf.cluster_ids for leaf in tree.leaves())
        assert ids == [(0,), (1,)]

    def test_third_cluster_joins_more_similar_anchor(self):
        X = three_blob_data()
        model, ops = fitted_ops(X, psi=8, t=80)
        cores = cores_from_lists([range(30), range(30, 55), range(55, 65)], 65)
        # brute-force the two set kernels the split decides on
        k_to_g1 = oracle_mean_pairwise(model, X[55:65], X[:30])
        k_to_g2 = oracle_mean_pairwise(model, X[55:65], X[30:55])
        assert k_to_g1 > k_to_g2  # construction sanity
        tree = build_tree(cores, ops)
        first = tree.nodes[tree.split_order[0]]
        sides = {tree.nodes[first.left].cluster_ids, tree.nodes[first.right].cluster_ids}
        assert sides == {(0, 2), (1,)}

    def test_no_cluster_is_ever_divided(self):
        rng = np.random.default_rng(22)
        X = np.vstack([rng.normal([i * 15, 0], 0.4, (12, 2)) for i in range(5)])
        _, ops = fitted_ops(X, psi=6)
        cores = cores_from_lists([range(12 * i, 12 * (i + 1)) for i in range(5)], 60)
        tree = build_tree(cores, ops)
        tree.validate()  # internal nodes partition children exactly
        assert tree.k == 5
        for leaf in tree.leaves():
            assert len(leaf.cluster_ids) == 1

    def test_split_records_expose_anchor_choice(self):
        X = three_blob_data()
        _, ops = fitted_ops(X, psi=8, t=80)
        cores = cores_from_lists([range(30), range(30, 55), range(55, 65)], 65)
        tree = build_tree(cores, ops)
        rec = tree.split_records[0]
        assert rec["anchors"] == (0, 1)  # two largest by point count
        s1, s2 = rec["sims"][2]
        assert s1 >= s2

    def test_split_records_count_zero_ties(self):
        # four blobs far apart share no cell: at the root split the two
        # smaller clusters have similarity 0.0 to both anchors and join the
        # first anchor by the tie rule; each later split holds one such tie
        rng = np.random.default_rng(31)
        sizes = [40, 30, 20, 10]
        X = np.vstack([rng.normal([i * 40, 0], 0.5, (size, 2)) for i, size in enumerate(sizes)])
        _, ops = fitted_ops(X, psi=32, t=50)
        bounds = np.cumsum([0] + sizes)
        cores = cores_from_lists([range(a, b) for a, b in zip(bounds, bounds[1:])], len(X))
        tree = build_tree(cores, ops)
        root = tree.split_records[0]
        assert root["anchors"] == (0, 1) and root["sims"] == {2: (0.0, 0.0), 3: (0.0, 0.0)}
        assert root["zero_ties"] == 2
        assert [rec["zero_ties"] for rec in tree.split_records] == [2, 1, 0]
        first = tree.nodes[tree.split_order[0]]
        assert tree.nodes[first.left].cluster_ids == (0, 2, 3)

    @pytest.mark.parametrize("builder", [build_tree, ahc_build])
    def test_reads_one_gram(self, builder, monkeypatch):
        rng = np.random.default_rng(22)
        X = np.vstack([rng.normal([i * 15, 0], 0.4, (12, 2)) for i in range(5)])
        _, ops = fitted_ops(X, psi=6)
        cores = cores_from_lists([range(12 * i, 12 * (i + 1)) for i in range(5)], 60)
        grams, gram = [], IdkOps.gram
        monkeypatch.setattr(IdkOps, "gram", lambda self, g: grams.append(len(g)) or gram(self, g))
        monkeypatch.setattr(IdkOps, "set_similarity", None)
        assert builder(cores, ops).k == 5
        assert grams == [5]

    def test_single_cluster_rejected(self):
        X, _ = two_blobs(seed=23, n_per=10)
        _, ops = fitted_ops(X)
        with pytest.raises(ValueError, match="at least 2"):
            build_tree(cores_from_lists([range(20)], 20), ops)


class TestAssignPoints:
    def test_core_point_goes_home_when_orthogonal(self):
        X, _ = two_blobs(seed=24, n_per=15)
        _, ops = fitted_ops(X)
        cores = cores_from_lists([range(15), range(15, 30)], 30)
        labels, orphans = assign_points(ops, cores)
        assert np.array_equal(labels[:15], np.zeros(15))
        assert np.array_equal(labels[15:], np.ones(15))

    def test_exact_tie_takes_smallest_index(self):
        # duplicated coordinates make both cluster embeddings identical
        base = np.random.default_rng(25).uniform(0, 1, (10, 2))
        X = np.vstack([base, base])
        _, ops = fitted_ops(X, psi=3, t=20)
        cores = cores_from_lists([range(10), range(10, 20)], 20)
        labels, _ = assign_points(ops, cores)
        assert np.all(labels == 0)

    def test_matches_bruteforce_argmax(self):
        rng = np.random.default_rng(26)
        X = rng.uniform(0, 4, (24, 2))
        model, ops = fitted_ops(X, psi=5, t=25)
        cores = cores_from_lists([range(8), range(8, 16), range(16, 24)], 24)
        labels, _ = assign_points(ops, cores)
        for i in range(24):
            sims = [oracle_mean_pairwise(model, X[i][None, :], X[list(c)])
                    for c in cores.clusters]
            assert labels[i] == int(np.argmax(sims))

    def test_orphans_counted_and_sent_to_cluster_zero(self):
        X, _ = two_blobs(seed=27, n_per=10)
        X = np.vstack([X, [[9e5, -9e5]]])
        model = fit_isolation_model(X[:20], psi=4, t=40, seed=1)
        ops = IdkOps.fit(model, X)
        cores = cores_from_lists([range(10), range(10, 20)], 21)
        labels, orphans = assign_points(ops, cores)
        assert orphans == 1
        assert labels[20] == 0


class TestRefine:
    def test_fixed_point_takes_one_pass(self):
        X, _ = two_blobs(seed=28, n_per=20)
        _, ops = fitted_ops(X)
        cores = cores_from_lists([range(20), range(20, 40)], 40)
        labels, _ = assign_points(ops, cores)
        refined, iterations = refine(ops, cores, labels)
        assert iterations == 1
        assert np.array_equal(refined, labels)

    def test_boundary_flip_corrected_in_first_pass(self):
        X, _ = two_blobs(seed=29, n_per=20)
        _, ops = fitted_ops(X)
        cores = cores_from_lists([range(20), range(20, 40)], 40)
        labels, _ = assign_points(ops, cores)
        wrong = labels.copy()
        wrong[5] = 1  # blob-0 point mislabeled into cluster 1
        own = ops.point_to_state(ops.group_state(np.nonzero(labels == 0)[0]))[5]
        other = ops.point_to_state(ops.group_state(np.nonzero(labels == 1)[0]))[5]
        assert own > other  # hand check: its kernel pulls it back
        refined, _ = refine(ops, cores, wrong)
        assert refined[5] == 0

    def test_reassignment_with_fixed_states_never_decreases_total(self):
        rng = np.random.default_rng(30)
        X = rng.uniform(0, 3, (50, 2))
        _, ops = fitted_ops(X, psi=6)
        labels = rng.integers(0, 3, 50)
        states = [ops.group_state(np.nonzero(labels == j)[0]) for j in range(3)]
        scores = np.column_stack([ops.point_to_state(s) for s in states])
        new_labels = scores.argmax(axis=1)
        old_total = scores[np.arange(50), labels].sum()
        new_total = scores[np.arange(50), new_labels].sum()
        assert new_total >= old_total - 1e-12

    def test_iteration_cap(self):
        X, _ = two_blobs(seed=31, n_per=20)
        _, ops = fitted_ops(X)
        cores = cores_from_lists([range(20), range(20, 40)], 40)
        labels, _ = assign_points(ops, cores)
        _, iterations = refine(ops, cores, labels, max_iter=100)
        assert iterations <= 100


class TestRun:
    def test_two_blob_end_to_end(self):
        X, labels = two_blobs(seed=32, n_per=40)
        cfg = RunConfig(k=2, psi=4, t=50, tau=0.01, rho=0.1, s=80, seed=9)
        res = run(X, cfg)
        assert res.k == 2
        assert dendrogram_purity(res.tree, labels) == pytest.approx(1.0)
        assert res.tree.is_finalized
        res.tree.validate()

    def test_large_scale_runs_and_overflowing_scale_is_rejected(self):
        X, labels = two_blobs(seed=32, n_per=40)
        cfg = RunConfig(k=2, psi=4, t=50, tau=0.01, rho=0.1, s=80, seed=9)
        res = run(X * 1e100, cfg)
        assert res.k == 2
        assert dendrogram_purity(res.tree, labels) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="rescale"):
            run(X * 1e300, cfg)

    def test_deterministic_given_seed(self):
        X, _ = two_blobs(seed=33, n_per=30)
        cfg = RunConfig(k=2, psi=4, t=30, s=50, seed=4)
        r1 = run(X, cfg)
        r2 = run(X, RunConfig(k=2, psi=4, t=30, s=50, seed=4))
        assert np.array_equal(r1.assignments, r2.assignments)
        assert r1.tree.to_json() == r2.tree.to_json()
        assert r1.tsc_trace == r2.tsc_trace

    def test_reduced_k_carries_warning(self):
        X, _ = two_blobs(seed=34, n_per=20)
        cfg = RunConfig(k=4, psi=4, t=40, tau=0.01, s=40, seed=2)
        res = run(X, cfg)
        assert res.k < 4
        assert any("instead of" in w for w in res.warnings)

    def test_refinement_does_not_hurt_objective(self):
        X, _ = two_blobs(seed=35, n_per=35)
        res = run(X, RunConfig(k=2, psi=4, t=40, s=70, seed=3))
        before, after = res.tsc_trace
        assert after >= before - 1e-9 or res.iterations >= 1

    def test_no_refine_path(self):
        X, _ = two_blobs(seed=36, n_per=25)
        res = run(X, RunConfig(k=2, psi=4, t=40, s=50, seed=3, refine=False))
        assert res.iterations == 0
        assert res.tsc_trace[0] == res.tsc_trace[1]

    def test_gdk_backend_runs(self):
        X, labels = two_blobs(seed=37, n_per=25)
        res = run(X, RunConfig(k=2, tau=0.01, s=50, seed=3, kernel="gdk",
                               bandwidth=1.0))
        assert res.k == 2
        assert dendrogram_purity(res.tree, labels) == pytest.approx(1.0)
        assert res.model is None

    def test_ahc_tree_method_matches_divisive_on_separable_data(self):
        X, _ = two_blobs(seed=38, n_per=25)
        div = run(X, RunConfig(k=2, psi=4, t=40, s=50, seed=3))
        agg = run(X, RunConfig(k=2, psi=4, t=40, s=50, seed=3, tree_method="ahc"))
        assert topology_equal(div.tree, agg.tree)

    def test_alternative_clusterers(self):
        X, labels = two_blobs(seed=39, n_per=25)
        for clusterer in ("kmeans", "ik-dbscan"):
            res = run(X, RunConfig(k=2, psi=4, t=40, s=50, seed=3,
                                   clusterer=clusterer, eps_sim=0.1, min_pts=3))
            assert res.k == 2
            assert dendrogram_purity(res.tree, labels) == pytest.approx(1.0)

    def test_timings_cover_all_stages(self):
        X, _ = two_blobs(seed=40, n_per=20)
        res = run(X, RunConfig(k=2, psi=4, t=30, s=40, seed=1))
        assert set(res.timings) == {"fit", "cores", "tree", "assign", "refine"}

    def test_config_validation(self):
        X, _ = two_blobs(seed=41, n_per=10)
        with pytest.raises(ValueError):
            run(X, RunConfig(k=1))
        with pytest.raises(ValueError):
            run(X, RunConfig(k=2, clusterer="nope"))
        with pytest.raises(ValueError):
            run(X, RunConfig(k=2, s=10**6))

    def test_property2_proxy_every_nonanchor_with_its_argmax(self):
        rng = np.random.default_rng(42)
        X = np.vstack([rng.normal([i * 12, (i % 2) * 9], 0.5, (20, 2))
                       for i in range(5)])
        res = run(X, RunConfig(k=5, psi=6, t=60, s=100, seed=7))
        for rec in res.tree.split_records:
            a1, a2 = rec["anchors"]
            node = res.tree.nodes[rec["node"]]
            left = set(res.tree.nodes[node.left].cluster_ids)
            for c, (s1, s2) in rec["sims"].items():
                side_of_c = left if c in left else set(res.tree.nodes[node.right].cluster_ids)
                anchor_here = a1 if a1 in side_of_c else a2
                other = a2 if anchor_here == a1 else a1
                mine = s1 if anchor_here == a1 else s2
                theirs = s2 if anchor_here == a1 else s1
                assert mine >= theirs
