from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelhc import (
    CoreClusterSet,
    GdkOps,
    IdkOps,
    RunConfig,
    datasets,
    dendrogram_purity,
    fit_isolation_model,
    hier,
    kpskc,
    run,
    select_subset,
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
        refined, iterations, trace = refine(ops, cores, labels)
        assert iterations == 1
        assert np.array_equal(refined, labels)
        assert trace["moved"] == [0] and trace["stop"] == "fixed point"  # n = 40: 1% of n is 0

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
        refined, _, _ = refine(ops, cores, wrong)
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

    def test_iteration_cap(self, monkeypatch):
        X, _ = two_blobs(seed=31, n_per=20)
        _, ops = fitted_ops(X)
        cores = cores_from_lists([range(20), range(20, 40)], 40)
        labels, _ = assign_points(ops, cores)
        _, iterations, _ = refine(ops, cores, labels)
        assert iterations <= hier.REFINE_PASSES == 100
        monkeypatch.setattr(hier, "REFINE_PASSES", 0)
        capped, iterations, trace = refine(ops, cores, labels)
        assert iterations == 0 and np.array_equal(capped, labels)
        assert trace == {"tsc_local": [], "moved": [], "stop": "pass cap"}


def refine_case(seed, kernel, k, drop):
    """Uniform points, k random disjoint cores over half the rows, and random
    starting labels; ``drop`` moves cluster 0's starting rows to cluster 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 300))
    X = rng.uniform(0, 1, (n, 2))
    ops = fitted_ops(X, psi=6, t=30, seed=seed)[1] if kernel == "idk" else GdkOps(X, 0.2)
    cuts = np.sort(rng.choice(np.arange(1, n // 2), k - 1, replace=False))
    cores = cores_from_lists(np.split(rng.permutation(n)[:n // 2], cuts), n)
    labels = rng.integers(0, k, n)
    if drop:
        labels[labels == 0] = 1
    return ops, cores, labels


def replay(ops, cores, labels, cap):
    """refine under a pass cap, and the labeling after each of its passes,
    rerun with a lower cap; each tsc_local it reports must be a fresh
    assignment_tsc_local of its labeling, bit for bit."""
    with mock.patch.object(hier, "REFINE_PASSES", cap):
        final, iterations, trace = refine(ops, cores, labels)
    labelings = []
    for p in range(iterations + 1):
        with mock.patch.object(hier, "REFINE_PASSES", p):
            labelings.append(refine(ops, cores, labels)[0])
    assert np.array_equal(labelings[-1], final)
    assert len(trace["moved"]) == iterations
    assert trace["tsc_local"] == ([assignment_tsc_local(ops, lab, cores.k) for lab in labelings]
                                  if iterations else [])
    assert trace["moved"] == [int((b != a).sum()) for a, b in zip(labelings, labelings[1:])]
    return trace, labelings


# (kernel, seed, k, cap, drop) of a refine_case that takes each named path, kept as
# examples of the property test. A cluster emptied in a scored labeling keeps its last
# state, which the final labeling's readout must not reuse when the cluster refills.
REFINE_PATHS = {
    "unchanged at exit": [("idk", 0, 2, 100, False), ("gdk", 0, 4, 100, False)],
    "changed at exit": [("idk", 0, 2, 100, True), ("gdk", 0, 2, 100, False)],
    "emptied mid-refine": [("idk", 2, 6, 100, False), ("gdk", 3, 5, 100, False)],
    "refilled at exit": [("idk", 0, 2, 1, True), ("gdk", 0, 2, 1, True)],
    "pass cap 0": [("idk", 5, 3, 0, False), ("gdk", 5, 3, 0, False)],
}


RUN_PATHS = ("refine=False", "REFINE_PASSES = 0", "s == n, no pass", "passes")


def with_examples(*cases):
    def wrap(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return wrap


class TestRefineTrace:
    """refine reads each labeling's objective off its own group states and
    scores (ops.self_similarity), and the final one's off them with the moved
    rows regrouped; every value equals a fresh readout."""

    @settings(max_examples=60, deadline=None)
    @with_examples(*(dict(zip(("kernel", "seed", "k", "cap", "drop"), case))
                     for cases in REFINE_PATHS.values() for case in cases))
    @given(kernel=st.sampled_from(["idk", "gdk"]), seed=st.integers(0, 2**20), k=st.integers(2, 6),
           cap=st.sampled_from([0, 1, 2, 3, 100]), drop=st.booleans())
    def test_every_objective_is_a_fresh_readout(self, kernel, seed, k, cap, drop):
        replay(*refine_case(seed, kernel, k, drop), cap)

    @pytest.mark.parametrize("path,case", [pytest.param(p, c, id=f"{p}-{c[0]}")
                                           for p, cs in REFINE_PATHS.items() for c in cs])
    def test_examples_reach_their_path(self, path, case):
        kernel, seed, k, cap, drop = case
        ops, cores, labels = refine_case(seed, kernel, k, drop)
        trace, labelings = replay(ops, cores, labels, cap)
        counts = [np.bincount(lab, minlength=k) for lab in labelings]
        reached = {
            "unchanged at exit": len(labelings) > 1 and trace["moved"][-1] == 0,
            "changed at exit": len(labelings) > 1 and trace["moved"][-1] > 0,
            "emptied mid-refine": any(((a > 0) & (b == 0)).any() for a, b in zip(counts, counts[1:-1])),
            "refilled at exit": len(counts) > 1 and ((counts[-2] == 0) & (counts[-1] > 0)).any(),
            "pass cap 0": trace == {"tsc_local": [], "moved": [], "stop": "pass cap"},
        }
        assert reached[path]

    @settings(max_examples=16, deadline=None)
    @with_examples(*(dict(kernel=kernel, seed=40, how=how) for kernel in ("idk", "gdk") for how in RUN_PATHS))
    @given(kernel=st.sampled_from(["idk", "gdk"]), seed=st.integers(0, 2**20),
           how=st.sampled_from(RUN_PATHS))
    def test_run_reads_before_and_after_off_the_trace(self, kernel, seed, how):
        X, _ = two_blobs(seed=seed, n_per=60)
        cfg = RunConfig(k=2, psi=4, t=40, s=60, seed=3, kernel=kernel, bandwidth=1.0)
        if how == "refine=False":
            cfg.refine = False
        elif how == "s == n, no pass":
            cfg.s, cfg.clusterer = len(X), "kmeans"  # k-means cores cover every row
        with mock.patch.object(hier, "REFINE_PASSES", 0 if how == "REFINE_PASSES = 0" else 100):
            res = run(X, cfg)
        trace = res.refine_trace
        assigned, _ = assign_points(res.ops, res.cores)
        assert trace["tsc_local"][0] == assignment_tsc_local(res.ops, assigned, res.k) == res.tsc_trace[0]
        assert trace["tsc_local"][-1] == assignment_tsc_local(res.ops, res.assignments, res.k) == res.tsc_trace[1]
        assert len(trace["tsc_local"]) == res.iterations + 1 == len(trace["moved"]) + 1
        assert (res.iterations == 0) == (how != "passes")
        assert trace["stop"] == {"refine=False": None, "REFINE_PASSES = 0": "pass cap"}.get(how, "moved < 1% of n")

    def test_found_a_pass_can_lower_tsc(self):
        # FOUND (ROADMAP item 16): refine moves a point to argmax <phi_i, mu_j>, not to the
        # kernel k-means argmax 2 <phi_i, mu_j> - |mu_j|^2, so a pass can lower TSC. Here, on
        # 200 uniform points in [0, 1], both passes do, and the run ends below where it began.
        X = np.random.default_rng(2).uniform(0, 1, (200, 1))
        res = run(X, RunConfig(k=4, psi=10, t=50, s=100, seed=2))
        tsc = res.refine_trace["tsc_local"]
        assert res.k == 2 and res.refine_trace["moved"] == [2, 2, 0]
        assert tsc[2] < tsc[1] < tsc[0] and res.tsc_trace == (tsc[0], tsc[3])


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
        # the tuned analog runs move points: 0.0853259 -> 0.0853313,
        # 0.0810809 -> 0.0810961 and 0.0852511 -> 0.0853893 at seeds 1-3
        X = datasets.paper_analog().points
        for seed in (1, 2, 3):
            res = run(X, RunConfig(**{**datasets.PAPER_ANALOG_TUNED, "seed": seed}))
            before, after = res.tsc_trace
            assert res.iterations >= 1, seed
            assert after > before, seed

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

    @pytest.mark.parametrize("clusterer", ["kpskc", "kmeans", "ik-dbscan"])
    def test_core_rows_lie_in_the_subset(self, clusterer):
        X, _ = two_blobs(seed=39, n_per=25)
        cfg = RunConfig(k=2, psi=4, t=40, s=30, seed=3, clusterer=clusterer,
                        eps_sim=0.1, min_pts=3)
        res = run(X, cfg)
        seeds = np.random.default_rng(cfg.seed).integers(2**31 - 1, size=3)
        _, idx = select_subset(X, cfg.s, int(seeds[1]))
        assert np.array_equal(res.cores.subset_indices, idx)
        assert res.cores.k == 2
        for j in range(res.cores.k):
            assert np.isin(res.cores.full_rows(j), idx).all()

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
        for bad in ({"eps_sim": 0.0}, {"eps_sim": -0.1}, {"eps_sim": np.nan}, {"eps_sim": np.inf}, {"min_pts": 0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                run(X, RunConfig(k=2, clusterer="ik-dbscan", **bad))

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
