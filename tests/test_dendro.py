import json

import numpy as np
import pytest

from kernelhc import (
    Dendrogram,
    IdkOps,
    RunConfig,
    ahc_build,
    dendrogram_purity,
    fit_isolation_model,
    kpskc,
    run,
    topology_equal,
    tsc,
    tsc_global_p,
    tsc_local,
)
from kernelhc.baseline import _to_dendrogram
from kernelhc.dendro import contraction_trace, leaf_labels, single_linkage_tree
from kernelhc.ikernel import GdkOps

from conftest import (
    contract,
    oracle_gdk,
    oracle_gram,
    oracle_mean_pairwise,
    oracle_point_kernel,
    oracle_point_vector,
    oracle_purity,
    rng_data,
    two_blobs,
)


def fitted_ops(X, psi=5, t=30, seed=2):
    model = fit_isolation_model(X, psi=psi, t=t, seed=seed)
    return model, IdkOps.fit(model, X)


def random_partition_tree(seed, n, k):
    """Random divisive split structure over n points with k leaves."""
    rng = np.random.default_rng(seed)
    leaves, children, split_order = {0: np.arange(n)}, {}, []
    while len(leaves) < k:
        splittable = [nid for nid in leaves if len(leaves[nid]) >= 2]
        nid = splittable[rng.integers(len(splittable))]
        pts = rng.permutation(leaves.pop(nid))
        cut = int(rng.integers(1, len(pts)))
        children[nid] = ids = (1 + 2 * len(split_order), 2 + 2 * len(split_order))
        leaves.update(zip(ids, (np.sort(pts[:cut]), np.sort(pts[cut:]))))
        split_order.append(nid)
    return _to_dendrogram(leaves, children, split_order)


class TestStructure:
    def test_seed_split_validate(self):
        tree = Dendrogram.seed([0, 1, 2])
        left, right = tree.split(tree.root, [0, 2], [1])
        tree.validate()
        assert tree.k == 2
        assert tree.nodes[left].cluster_ids == (0, 2)
        assert tree.nodes[right].cluster_ids == (1,)
        assert tree.split_order == [tree.root]

    def test_split_must_partition(self):
        tree = Dendrogram.seed([0, 1, 2])
        with pytest.raises(ValueError):
            tree.split(tree.root, [0], [1])  # loses cluster 2
        with pytest.raises(ValueError):
            tree.split(tree.root, [0, 1], [1, 2])  # overlap

    def test_finalize_assigns_leaf_points(self):
        tree = Dendrogram.seed([0, 1])
        tree.split(tree.root, [0], [1])
        labels = np.array([0, 1, 0, 1, 1])
        tree.finalize(labels)
        tree.validate()
        pts = {leaf.cluster_ids: leaf.points.tolist() for leaf in tree.leaves()}
        assert pts[(0,)] == [0, 2]
        assert pts[(1,)] == [1, 3, 4]

    def test_json_round_trip(self):
        tree = random_partition_tree(3, n=12, k=5)
        back = Dendrogram.from_json(tree.to_json())
        assert topology_equal(tree, back)
        assert back.split_order == tree.split_order
        for nid, node in tree.nodes.items():
            other = back.nodes[nid]
            assert node.cluster_ids == other.cluster_ids
            if node.points is not None:
                assert np.array_equal(node.points, other.points)
        assert back.split_records == [] and back.warnings == []  # declared on every tree

    def test_malformed_json_rejected(self):
        doc = json.loads(random_partition_tree(3, n=12, k=5).to_json())
        root = next(node for node in doc["nodes"] if node["id"] == doc["root"])

        def with_root_children(children):
            return {**doc, "nodes": [{**node, "children": children} if node is root else node
                                     for node in doc["nodes"]]}

        def with_leaf_point(p):  # out of range, or a second copy of point 0
            leaf = next(node for node in doc["nodes"] if node["points"] and 0 not in node["points"])
            return {**doc, "nodes": [{**node, "points": node["points"][:-1] + [p]}
                                     if node is leaf else node for node in doc["nodes"]]}

        for bad, match in ((with_root_children([99, 98]), "99"),
                           (with_root_children([root["children"][0]] * 2), "overlapping"),
                           ({**doc, "split_order": doc["split_order"][1:]}, "split order"),
                           (with_leaf_point(10**6), "0..n-1"), (with_leaf_point(0), "0..n-1")):
            with pytest.raises(ValueError, match=match):
                Dendrogram.from_json(json.dumps(bad))

    def test_newick_shape(self):
        tree = random_partition_tree(5, n=10, k=4)
        nwk = tree.to_newick()
        assert nwk.endswith(";")
        assert nwk.count("(") == nwk.count(")") == 3
        for leaf in tree.leaves():
            assert f"c{leaf.cluster_ids[0]}_{len(leaf.points)}" in nwk

    def test_leaf_labels_cover_everything(self):
        tree = random_partition_tree(7, n=15, k=6)
        flat = leaf_labels(tree)
        assert sorted(np.unique(flat)) == list(range(6))
        assert len(flat) == 15


class TestTsc:
    def test_singleton_leaves_attain_maximum(self):
        X = rng_data(1, n=8)
        model, ops = fitted_ops(X)
        fine = random_partition_tree(0, n=8, k=8)
        value = tsc(fine, ops)
        expected = sum(oracle_point_kernel(model, x, x) for x in X)
        assert value == pytest.approx(expected, abs=1e-12)
        for seed in range(4):
            coarser = random_partition_tree(seed, n=8, k=4)
            assert tsc(coarser, ops) <= value + 1e-12

    def test_merging_orthogonal_singletons_cannot_increase(self):
        X = np.array([[0.0, 0.0], [500.0, 500.0]])
        model, ops = fitted_ops(np.vstack([rng_data(2, n=10), X]))
        tree = random_partition_tree(1, n=12, k=12)
        node = tree.nodes[tree.contraction_order()[0]]
        merged = contract(tree, node.left, node.right)
        assert tsc(merged, ops) <= tsc(tree, ops) + 1e-12

    def test_single_leaf_matches_double_sum(self):
        X = rng_data(3, n=9)
        model, ops = fitted_ops(X)
        tree = Dendrogram.seed([0]).finalize(np.zeros(9, dtype=int))
        assert tsc_local(tree, ops) == pytest.approx(
            oracle_mean_pairwise(model, X, X), abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tsc_is_norms_less_kernel_kmeans_sse(self, seed):
        # TSC = sum_i |phi_i|^2 - sum_S sum_{i in S} |phi_i - mu_S|^2 on an explicit
        # dense Phi: at a fixed k, maximizing TSC is minimizing kernel k-means SSE
        X = np.vstack([rng_data(seed + i, n=60) + 3 * i for i in range(3)])
        res = run(X, RunConfig(k=3, psi=8, t=50, s=120, seed=seed))
        phi = res.ops.onehot.toarray() / np.sqrt(res.ops.t)
        sse = sum(((phi[leaf.points] - phi[leaf.points].mean(axis=0)) ** 2).sum()
                  for leaf in res.tree.leaves() if len(leaf.points))
        assert res.k == 3
        assert tsc(res.tree, res.ops) == pytest.approx((phi ** 2).sum() - sse, rel=1e-12, abs=0)

    def test_rows_must_match_the_tree(self):
        X = rng_data(4, n=12)
        tree = random_partition_tree(7, n=12, k=3)
        for rows in (np.tile(np.arange(12), 2), np.arange(8)):
            _, ops = fitted_ops(X[rows])
            for score in (tsc, tsc_local, contraction_trace):
                with pytest.raises(ValueError, match="12"):
                    score(tree, ops)

    def test_unfinalized_rejected(self):
        X = rng_data(4, n=5)
        _, ops = fitted_ops(X)
        tree = Dendrogram.seed([0, 1])
        tree.split(tree.root, [0], [1])
        with pytest.raises(ValueError, match="finalized"):
            tsc(tree, ops)


class TestContract:
    def test_twin_leaves_keep_embedding(self):
        # duplicated coordinates: the two leaves embed identically
        base = rng_data(6, n=5)
        X = np.vstack([base, base])
        model, _ = fitted_ops(X)
        tree = Dendrogram.seed([0, 1])
        tree.split(tree.root, [0], [1])
        labels = np.array([0] * 5 + [1] * 5)
        tree.finalize(labels)
        leaves = tree.leaves()
        vecs = np.array([oracle_point_vector(model, x) for x in X])
        e1 = vecs[leaves[0].points].mean(axis=0)
        merged = contract(tree, leaves[0].id, leaves[1].id)
        e_merged = vecs[merged.leaves()[0].points].mean(axis=0)
        assert np.allclose(e_merged, e1, atol=1e-15)

    def test_non_siblings_rejected(self):
        tree = random_partition_tree(8, n=10, k=4)
        leaves = tree.leaves()
        non_sib = [
            (a, b)
            for a in leaves
            for b in leaves
            if a.id != b.id and a.parent != b.parent
        ]
        a, b = non_sib[0]
        with pytest.raises(ValueError, match="parent"):
            contract(tree, a.id, b.id)

    def test_drop_bounded_by_embedding_gap(self):
        X = rng_data(9, n=30, spread=3.0)
        _, ops = fitted_ops(X, psi=6)
        tree = random_partition_tree(2, n=30, k=6)
        for step in contraction_trace(tree, ops):
            assert step.tsc_local_after >= step.tsc_local_before - step.alpha - 1e-9

    @pytest.mark.parametrize("backend", ["idk", "gdk"])
    def test_trace_replays_the_contract_oracle(self, backend):
        X = rng_data(21, n=18, spread=2.0)
        if backend == "idk":
            model, ops = fitted_ops(X, psi=6)

            def gap(a, b):
                K = oracle_gram(model, X, [a, b])
                return np.sqrt(K[0, 0] + K[1, 1] - 2 * K[0, 1])
        else:
            ops = GdkOps(X, bandwidth=0.5)

            def gap(a, b):
                return np.sqrt(oracle_gdk(X[a], X[a], 0.5) + oracle_gdk(X[b], X[b], 0.5)
                               - 2 * oracle_gdk(X[a], X[b], 0.5))
        tree = random_partition_tree(11, n=18, k=5)
        steps = contraction_trace(tree, ops)
        assert len(steps) == 4
        current = tree
        for step in steps:
            node = current.nodes[step.node_id]
            left, right = current.nodes[node.left], current.nodes[node.right]
            assert step.tsc_local_before == pytest.approx(tsc_local(current, ops), abs=1e-12)
            assert step.alpha == pytest.approx(gap(left.points, right.points), abs=1e-7)
            current = contract(current, left.id, right.id)
            assert step.leaves_after == current.k
            assert step.tsc_local_after == pytest.approx(tsc_local(current, ops), abs=1e-12)

    def test_trace_reads_one_gram(self, monkeypatch):
        _, ops = fitted_ops(rng_data(9, n=30, spread=3.0), psi=6)
        tree = random_partition_tree(2, n=30, k=6)
        grams, gram = [], IdkOps.gram
        monkeypatch.setattr(IdkOps, "gram", lambda self, g: grams.append(len(g)) or gram(self, g))
        monkeypatch.setattr(IdkOps, "set_similarity", None)
        assert len(contraction_trace(tree, ops)) == 5
        assert grams == [6]

    def test_empty_leaf_embeds_as_zero(self):
        X = rng_data(22, n=10)
        model, ops = fitted_ops(X)
        tree = Dendrogram.seed([0, 1, 2])
        left, _ = tree.split(tree.root, [0, 2], [1])
        tree.split(left, [0], [2])
        tree.finalize(np.array([0] * 6 + [1] * 4))  # no point in cluster 2
        steps = contraction_trace(tree, ops)
        K = oracle_gram(model, X, [np.arange(6), np.arange(6, 10), np.arange(10)])
        assert steps[0].alpha == pytest.approx(np.sqrt(K[0, 0]), abs=1e-12)
        assert steps[0].tsc_local_after == pytest.approx(steps[0].tsc_local_before, abs=1e-15)
        assert steps[1].tsc_local_after == pytest.approx(K[2, 2], abs=1e-12)

    def test_full_contraction_sequence_stays_valid(self):
        tree = random_partition_tree(10, n=20, k=7)
        current = tree
        while current.k > 1:
            nid = current.contraction_order()[0]
            node = current.nodes[nid]
            current = contract(current, node.left, node.right)
            current.validate()
        assert current.k == 1
        assert len(current.leaves()[0].points) == 20


class TestTscGlobal:
    def test_p_equals_k_is_tsc_local(self):
        X = rng_data(11, n=18)
        _, ops = fitted_ops(X)
        tree = random_partition_tree(3, n=18, k=5)
        assert tsc_global_p(tree, 5, ops) == tsc_local(tree, ops)

    def test_p_one_below_k_is_two_term_mean(self):
        X = rng_data(12, n=16)
        _, ops = fitted_ops(X)
        tree = random_partition_tree(4, n=16, k=4)
        nid = tree.contraction_order()[0]
        node = tree.nodes[nid]
        contracted = contract(tree, node.left, node.right)
        expected = 0.5 * (tsc_local(tree, ops) + tsc_local(contracted, ops))
        assert tsc_global_p(tree, 3, ops) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_rejected(self):
        X = rng_data(13, n=10)
        _, ops = fitted_ops(X)
        tree = random_partition_tree(5, n=10, k=3)
        for p in (0, 4):
            with pytest.raises(ValueError):
                tsc_global_p(tree, p, ops)

    def test_corollary_lower_bound(self):
        X = rng_data(14, n=24, spread=2.0)
        _, ops = fitted_ops(X, psi=6)
        tree = random_partition_tree(6, n=24, k=6)
        steps = contraction_trace(tree, ops)
        alpha_max = max(s.alpha for s in steps)
        base = tsc_local(tree, ops)
        k = tree.k
        for p in range(1, k + 1):
            assert tsc_global_p(tree, p, ops) >= base - (k - p) * alpha_max - 1e-9


class TestPurity:
    def test_perfect_leaves_score_one(self):
        tree = Dendrogram.seed([0, 1])
        tree.split(tree.root, [0], [1])
        labels = np.array([0, 0, 0, 1, 1])
        tree.finalize(labels)
        assert dendrogram_purity(tree, labels) == pytest.approx(1.0)

    def test_single_leaf_two_balanced_classes(self):
        tree = Dendrogram.seed([0]).finalize(np.zeros(10, dtype=int))
        labels = np.array([0] * 5 + [1] * 5)
        assert dendrogram_purity(tree, labels) == pytest.approx(0.5)

    def test_six_point_toy_matches_oracle(self):
        tree = random_partition_tree(15, n=6, k=3)
        labels = np.array([0, 0, 1, 1, 0, 1])
        assert dendrogram_purity(tree, labels) == pytest.approx(
            oracle_purity(tree, labels), abs=1e-12)

    def test_random_trees_match_pair_enumeration(self):
        rng = np.random.default_rng(16)
        for trial in range(20):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(2, n + 1))
            tree = random_partition_tree(100 + trial, n=n, k=k)
            labels = rng.integers(0, 3, size=n)
            if np.all(np.bincount(labels, minlength=3) <= 1):
                continue
            assert dendrogram_purity(tree, labels) == pytest.approx(
                oracle_purity(tree, labels), abs=1e-12)

    def test_all_distinct_labels_rejected(self):
        tree = random_partition_tree(17, n=5, k=2)
        with pytest.raises(ValueError, match="pair"):
            dendrogram_purity(tree, np.arange(5))


def oracle_merge_sequence(M):
    """Greedy max single-linkage merges found by exhaustive pair scans."""
    k = len(M)
    groups = [frozenset([i]) for i in range(k)]
    sequence = []
    while len(groups) > 1:
        best = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                val = max(M[i][j] for i in groups[a] for j in groups[b])
                key = (-val, min(groups[a]), min(groups[b]))
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        merged = groups[a] | groups[b]
        sequence.append(merged)
        groups = [g for i, g in enumerate(groups) if i not in (a, b)] + [merged]
        groups.sort(key=min)
    return sequence


class TestAhc:
    def test_two_units_single_merge(self):
        M = np.array([[0.0, 0.3], [0.3, 0.0]])
        tree = single_linkage_tree(M)
        assert tree.k == 2
        assert tree.nodes[tree.root].cluster_ids == (0, 1)

    def test_hand_set_matrix_matches_bruteforce(self):
        M = np.array([
            [0.0, 0.9, 0.1, 0.2],
            [0.9, 0.0, 0.15, 0.1],
            [0.1, 0.15, 0.0, 0.8],
            [0.2, 0.1, 0.8, 0.0],
        ])
        tree = single_linkage_tree(M)
        merges = oracle_merge_sequence(M)
        got = [frozenset(tree.nodes[nid].cluster_ids) for nid in tree.contraction_order()]
        assert got == merges

    def test_random_matrices_match_bruteforce(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            k = int(rng.integers(3, 8))
            M = rng.random((k, k))
            M = (M + M.T) / 2
            np.fill_diagonal(M, 0.0)
            tree = single_linkage_tree(M)
            got = [frozenset(tree.nodes[nid].cluster_ids)
                   for nid in tree.contraction_order()]
            assert got == oracle_merge_sequence(M)

    def test_tie_break_prefers_smallest_pair(self):
        M = np.full((3, 3), 0.5)
        np.fill_diagonal(M, 0.0)
        tree = single_linkage_tree(M)
        first = tree.nodes[tree.contraction_order()[0]]
        assert first.cluster_ids == (0, 1)

    def test_ahc_build_from_cores(self):
        X, _ = two_blobs(seed=19, n_per=15)
        model = fit_isolation_model(X, psi=4, t=40, seed=6)
        ops = IdkOps.fit(model, X)
        cores = kpskc(ops, k=2, tau=0.01, rho=0.1)
        tree = ahc_build(cores, ops)
        assert tree.k == 2
        with pytest.raises(ValueError, match="at least 2"):
            one = kpskc(ops, k=1, tau=0.01, rho=0.1)
            ahc_build(one, ops)
