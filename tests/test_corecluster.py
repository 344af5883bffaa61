import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelhc import (
    CoreClusterSet,
    IdkOps,
    datasets,
    fit_isolation_model,
    ik_dbscan_cores,
    ikernel,
    kmeans_cores,
    kpskc,
    select_subset,
)
from kernelhc.corecluster import _lloyd
from kernelhc.hier import assign_points
from kernelhc.ikernel import GdkOps

from conftest import oracle_ik_dbscan, oracle_point_vector, rng_data, two_blobs


def blob_ops(X, psi=4, t=60, seed=5):
    model = fit_isolation_model(X, psi=psi, t=t, seed=seed)
    return model, IdkOps.fit(model, X)


def oracle_growth(model, X, k, tau, rho):
    """Independent replay of the seeded growth procedure using dense
    brute-force feature maps and plain-python loops."""
    vec = [oracle_point_vector(model, x) for x in X]
    remaining = list(range(len(X)))
    clusters = []
    while len(remaining) > 1 and len(clusters) < k:
        mean_d = np.mean([vec[i] for i in remaining], axis=0)
        sims = [float(vec[i] @ mean_d) for i in remaining]
        p = remaining[int(np.argmax(sims))]
        cand = [i for i in remaining if i != p]
        q = cand[int(np.argmax([float(vec[i] @ vec[p]) for i in cand]))]
        gamma = (1.0 - rho) * float(vec[q] @ vec[p])
        if gamma <= tau:
            break
        grown = [p, q]
        while gamma > tau:
            mean_g = np.mean([vec[i] for i in grown], axis=0)
            new = [i for i in remaining if float(vec[i] @ mean_g) > gamma]
            gamma *= 1.0 - rho
            if not new:
                break
            grown = new
        clusters.append(sorted(grown))
        remaining = [i for i in remaining if i not in grown]
    return clusters, remaining


def full_rescore_kpskc(ops, k, tau, rho):
    """The growth loop as it was before it skipped work: every round scores
    every row of ``ops``, and every growth step queries its member set anew.
    Also returns the seeding rounds run and, per cluster, the member sets a
    step scored that differ, as sets, from the set the step before it scored:
    [p, q] and the sorted [q, p] are one set."""
    m = ops.n
    remaining = np.arange(m)
    clusters, warnings, gamma_traces, distinct_sets = [], [], [], []
    rounds = 0
    while len(remaining) > 1 and len(clusters) < k:
        rounds += 1
        sims_d = ops.point_to_state(ops.group_state(remaining))
        p = remaining[int(np.argmax(sims_d[remaining]))]
        row_p = ops.point_row(p)
        cand = remaining[remaining != p]
        q = cand[int(np.argmax(row_p[cand]))]
        gamma = (1.0 - rho) * float(row_p[q])
        if gamma <= tau:
            warnings.append(
                f"seeding stopped at {len(clusters)} of {k} clusters: "
                f"decayed seed similarity {gamma:.6g} <= tau {tau:.6g}"
            )
            break
        grown = np.array([p, q], dtype=np.int64)
        trace, scored = [], []
        while gamma > tau:
            trace.append(gamma)
            if not scored or not np.array_equal(np.sort(scored[-1]), np.sort(grown)):
                scored.append(grown)
            sims_g = ops.point_to_state(ops.group_state(grown))
            new = remaining[sims_g[remaining] > gamma]
            gamma *= 1.0 - rho
            if len(new) == 0:
                warnings.append(
                    f"cluster {len(clusters)}: growth step emptied the member "
                    "set; kept the previous members"
                )
                break
            grown = new
        clusters.append(np.sort(grown))
        gamma_traces.append(np.asarray(trace))
        distinct_sets.append(len(scored))
        remaining = remaining[~np.isin(remaining, grown)]
    if len(clusters) < k and not warnings:
        warnings.append(f"terminated with {len(clusters)} of {k} requested clusters")
    return clusters, remaining, warnings, gamma_traces, rounds, distinct_sets


def assert_matches_full_rescore(ops, k, tau, rho):
    """kpskc's outputs equal the full-rescore loop's, bit for bit."""
    cores = kpskc(ops, k=k, tau=tau, rho=rho)
    clusters, noise, warnings, traces, rounds, distinct = full_rescore_kpskc(ops, k, tau, rho)
    assert len(cores.clusters) == len(clusters)
    for got, want in zip(cores.clusters, clusters):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(cores.noise, noise)
    assert cores.warnings == warnings
    assert len(cores.meta["gamma_traces"]) == len(traces)
    for got, want in zip(cores.meta["gamma_traces"], traces):
        assert np.array_equal(got, want)
    assert cores.meta["scored_sets"] == distinct
    return cores, rounds


def collapsed_gdk():
    """Gaussian backend whose bandwidth dwarfs the data's spread, so the
    first cluster takes every point and then stops changing while gamma
    decays to tau (the Gaussian ablation's collapse, in miniature)."""
    return GdkOps(rng_data(21, n=60), bandwidth=100.0)


class TestSelectSubset:
    def test_full_size_is_identity(self):
        X = rng_data(0, n=10)
        sub, idx = select_subset(X, 10, seed=3)
        assert np.array_equal(idx, np.arange(10))
        assert np.array_equal(sub, X)

    def test_seeded_and_without_replacement(self):
        X = rng_data(1, n=50)
        _, idx1 = select_subset(X, 20, seed=7)
        _, idx2 = select_subset(X, 20, seed=7)
        assert np.array_equal(idx1, idx2)
        assert len(np.unique(idx1)) == 20

    @pytest.mark.parametrize("s", [0, 1, 51])
    def test_out_of_range_rejected(self, s):
        with pytest.raises(ValueError):
            select_subset(rng_data(1, n=50), s, seed=0)


class TestKpskc:
    def test_two_blobs_match_growth_oracle(self):
        X, labels = two_blobs(seed=2, n_per=25)
        model, ops = blob_ops(X)
        # precondition of the construction: no kernel mass across blobs
        K = ops.pairwise()
        assert K[:25, 25:].max() == 0.0

        cores = kpskc(ops, k=2, tau=0.01, rho=0.1)
        expected_clusters, expected_noise = oracle_growth(model, X, 2, 0.01, 0.1)
        got = [c.tolist() for c in cores.clusters]
        assert got == expected_clusters
        assert cores.noise.tolist() == expected_noise
        # each blob is one core cluster with nothing left over
        assert len(cores.clusters) == 2
        assert cores.noise.size == 0
        for c in cores.clusters:
            assert len(set(labels[c])) == 1

    def test_k_one_returns_densest_region(self):
        X, _ = two_blobs(seed=3, n_per=20)
        _, ops = blob_ops(X)
        cores = kpskc(ops, k=1, tau=0.01, rho=0.1)
        assert cores.k == 1
        assert len(cores.clusters[0]) + len(cores.noise) == 40

    def test_high_tau_stops_with_warning(self):
        X, _ = two_blobs(seed=4, n_per=15)
        _, ops = blob_ops(X)
        cores = kpskc(ops, k=5, tau=0.999, rho=0.1)
        assert cores.k < 5
        assert any("tau" in w or "clusters" in w for w in cores.warnings)

    def test_gamma_decays_geometrically(self):
        X, _ = two_blobs(seed=5, n_per=20)
        _, ops = blob_ops(X)
        rho = 0.2
        cores = kpskc(ops, k=2, tau=0.005, rho=rho)
        for trace in cores.meta["gamma_traces"]:
            assert len(trace) >= 1
            ratios = trace[1:] / trace[:-1]
            assert np.allclose(ratios, 1.0 - rho, atol=1e-12)
            assert np.all(np.diff(trace) < 0)

    def test_partition_invariant(self):
        X = rng_data(8, n=60, spread=4.0)
        _, ops = blob_ops(X, psi=6)
        cores = kpskc(ops, k=3, tau=0.01, rho=0.1)
        rows = np.concatenate([c for c in cores.clusters] + [cores.noise])
        assert sorted(rows.tolist()) == list(range(60))

    @pytest.mark.parametrize("kw", [
        {"k": 0, "tau": 0.1, "rho": 0.1},
        {"k": 2, "tau": 0.0, "rho": 0.1},
        {"k": 2, "tau": 0.1, "rho": 0.0},
        {"k": 2, "tau": 0.1, "rho": 1.0},
    ])
    def test_bad_parameters_rejected(self, kw):
        X, _ = two_blobs(seed=6, n_per=5)
        _, ops = blob_ops(X)
        with pytest.raises(ValueError):
            kpskc(ops, **kw)

    def test_noise_removal_keeps_clusters(self):
        # two tight blobs plus two stragglers that end up as noise
        X, _ = two_blobs(seed=7, n_per=20)
        X = np.vstack([X, [[200.0, -200.0], [-200.0, 200.0]]])
        model, ops = blob_ops(X, t=80)
        cores = kpskc(ops, k=2, tau=0.01, rho=0.1)
        assert cores.noise.size >= 1

        labels_full, _ = assign_points(ops, cores)
        kept = np.setdiff1d(np.arange(len(X)), cores.noise)
        X2 = X[kept]
        ops2 = ops.take(kept)
        remap = -np.ones(len(X), dtype=int)
        remap[kept] = np.arange(len(kept))
        cores2 = CoreClusterSet(
            clusters=[remap[cores.subset_indices[c]] for c in cores.clusters],
            noise=np.empty(0, dtype=int),
            subset_indices=np.arange(len(kept)),
        )
        labels_kept, _ = assign_points(ops2, cores2)
        assert np.array_equal(labels_full[kept], labels_kept)


class TestKpskcSavedWork:
    """kpskc scores only the residual rows and each distinct member set once;
    its outputs must equal the loop that rescored everything."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_idk_two_blobs(self, k):
        X, _ = two_blobs(seed=2, n_per=25)
        _, ops = blob_ops(X)
        assert_matches_full_rescore(ops, k, tau=0.01, rho=0.1)

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_idk_several_rounds(self, seed):
        _, ops = blob_ops(rng_data(seed, n=60, spread=4.0), psi=12)
        cores, rounds = assert_matches_full_rescore(ops, 4, tau=0.05, rho=0.1)
        assert rounds == 4

    def test_idk_seeding_stopped(self):
        X, _ = two_blobs(seed=4, n_per=15)
        _, ops = blob_ops(X)
        cores, _ = assert_matches_full_rescore(ops, 5, tau=0.5, rho=0.1)
        assert 1 <= cores.k < 5
        assert any(w.startswith("seeding stopped") for w in cores.warnings)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gdk_collapsed(self, monkeypatch, workers):
        monkeypatch.setattr(ikernel, "WORKERS", workers)
        monkeypatch.setattr(ikernel, "BLOCK", 8 * 60)  # several row blocks
        cores, rounds = assert_matches_full_rescore(collapsed_gdk(), 3, tau=0.01, rho=0.1)
        assert cores.k == 1 and cores.noise.size == 0 and rounds == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gdk_several_clusters(self, monkeypatch, workers):
        monkeypatch.setattr(ikernel, "WORKERS", workers)
        monkeypatch.setattr(ikernel, "BLOCK", 8 * 60)
        ops = GdkOps(rng_data(8, n=60, spread=4.0), bandwidth=0.3)
        cores, rounds = assert_matches_full_rescore(ops, 4, tau=0.01, rho=0.1)
        assert cores.k == 4 and rounds == 4

    @pytest.mark.parametrize("kind", ["idk", "gdk"])
    def test_members_leave(self, monkeypatch, kind):
        # inputs where a growth step drops a member, so regroup gets rows_out
        if kind == "idk":
            ops, tau = blob_ops(rng_data(2, n=60), psi=12)[1], 0.05
        else:
            ops, tau = GdkOps(rng_data(6, n=30), bandwidth=0.3), 0.01
        left = []
        original = type(ops).regroup

        def counted(self, state, rows_in, rows_out):
            left.append(len(rows_out))
            return original(self, state, rows_in, rows_out)
        monkeypatch.setattr(type(ops), "regroup", counted)
        assert_matches_full_rescore(ops, 4, tau=tau, rho=0.1)
        assert sum(left) >= 1

    def test_one_query_per_distinct_member_set(self, monkeypatch):
        ops = collapsed_gdk()
        _, _, _, traces, rounds, distinct = full_rescore_kpskc(ops, 3, 0.01, 0.1)
        calls = []
        original = GdkOps.point_to_state

        def counted(self, state):
            calls.append(len(state))
            return original(self, state)
        monkeypatch.setattr(GdkOps, "point_to_state", counted)
        cores = kpskc(ops, k=3, tau=0.01, rho=0.1)
        steps = sum(len(tr) for tr in traces)
        assert len(calls) == rounds + sum(distinct)
        assert len(calls) < steps
        assert cores.meta["scored_sets"] == distinct


class TestKmeansCores:
    def test_k_equals_m_gives_singletons(self):
        X = rng_data(9, n=8)
        cores = kmeans_cores(X, k=8, restarts=3, seed=0)
        assert sorted(len(c) for c in cores.clusters) == [1] * 8
        assert cores.meta["sse"] == pytest.approx(0.0)
        assert cores.noise.size == 0

    def test_recovers_two_blobs_like_exhaustive_split(self):
        X, labels = two_blobs(seed=10, n_per=6)
        cores = kmeans_cores(X, k=2, restarts=5, seed=1)

        # exhaustive minimum-SSE bipartition over all 2^12 assignments
        best, best_sse = None, np.inf
        for mask in range(1, 2**12 - 1):
            sel = np.array([(mask >> i) & 1 for i in range(12)], dtype=bool)
            sse = 0.0
            for side in (sel, ~sel):
                pts = X[side]
                sse += float(((pts - pts.mean(axis=0)) ** 2).sum())
            if sse < best_sse:
                best, best_sse = sel, sse
        got = np.zeros(12, dtype=bool)
        got[cores.clusters[1]] = True
        assert np.array_equal(got, best) or np.array_equal(~got, best)

    def test_sse_is_min_over_restarts(self):
        X = rng_data(12, n=30)
        cores = kmeans_cores(X, k=3, restarts=5, seed=4)
        rng = np.random.default_rng(4)
        sses = [_lloyd(X, 3, rng.choice(30, size=3, replace=False))[2] for _ in range(5)]
        assert len(set(sses)) > 1  # the restarts disagree, so the choice matters
        assert cores.meta["sse"] == min(sses)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        X = rng_data(13, n=50)
        X[3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kmeans_cores(X, k=3, restarts=2, seed=0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            kmeans_cores(np.arange(10.0), k=3, restarts=2, seed=0)

    def test_k_above_subset_rejected(self):
        with pytest.raises(ValueError):
            kmeans_cores(rng_data(0, n=4), k=5, restarts=1, seed=0)

    def test_duplicate_heavy_input_keeps_every_cluster_alive(self):
        X = np.array([[0.0, 0.0]] * 6 + [[10.0, 10.0]] * 2 + [[5.0, 5.0]])
        cores = kmeans_cores(X, k=4, restarts=3, seed=2)
        assert all(len(c) > 0 for c in cores.clusters)
        rows = np.concatenate(cores.clusters)
        assert sorted(rows.tolist()) == list(range(9))


class TestIkDbscan:
    def test_single_tight_group_is_one_cluster(self):
        X, _ = two_blobs(seed=11, n_per=12)
        X = X[:12]  # one blob only
        _, ops = blob_ops(X, psi=3, t=60)
        K = ops.pairwise()
        eps = K[K > 0].min() * 0.9
        cores = ik_dbscan_cores(ops, eps_sim=eps, min_pts=3, k=2)
        assert cores.k == 1
        assert len(cores.clusters[0]) == 12
        assert cores.noise.size == 0

    def test_isolated_point_is_noise(self):
        X, _ = two_blobs(seed=12, n_per=10)
        X = np.vstack([X, [[500.0, 500.0]]])
        _, ops = blob_ops(X, t=80)
        cores = ik_dbscan_cores(ops, eps_sim=0.2, min_pts=4, k=2)
        assert 20 in cores.noise

    def test_top_k_by_size_rest_to_noise(self):
        rng = np.random.default_rng(13)
        X = np.vstack([
            rng.normal([0, 0], 0.05, (15, 2)),
            rng.normal([50, 0], 0.05, (10, 2)),
            rng.normal([0, 50], 0.05, (5, 2)),
        ])
        _, ops = blob_ops(X, t=80)
        cores = ik_dbscan_cores(ops, eps_sim=0.2, min_pts=3, k=2)
        assert cores.k == 2
        assert [len(c) for c in cores.clusters] == [15, 10]
        assert len(cores.noise) == 5

    def test_no_core_point_warns_empty(self):
        X = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [70.0, 70.0]])
        _, ops = blob_ops(X, psi=2, t=20)
        cores = ik_dbscan_cores(ops, eps_sim=1.01, min_pts=2, k=2)
        assert cores.k == 0
        assert cores.warnings

    @pytest.mark.parametrize("eps_sim, min_pts", [(0.0, 3), (-0.2, 3), (0.3, 0), (0.3, -1)])
    def test_invalid_eps_or_min_pts_rejected(self, eps_sim, min_pts):
        # eps_sim 0 would make every pair a neighbour: one cluster, from an s x s graph
        _, ops = blob_ops(rng_data(3, n=20))
        with pytest.raises(ValueError, match="eps_sim" if eps_sim <= 0 else "min_pts"):
            ik_dbscan_cores(ops, eps_sim=eps_sim, min_pts=min_pts, k=2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(["idk", "gdk"]),
           n=st.integers(2, 50), min_pts=st.integers(1, 6), k=st.integers(1, 4),
           eps_at=st.integers(0, 4))
    def test_matches_dense_oracle(self, seed, kind, n, min_pts, k, eps_at):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2)) * rng.uniform(0.1, 2.0)
        X[rng.integers(n, size=n // 5)] = X[0]  # duplicates
        if kind == "idk":
            # t = 200 makes 0.3 an exact boundary: pairs sharing 60 cells
            ops = IdkOps.fit(fit_isolation_model(X, psi=min(n, int(rng.integers(2, 9))), t=200, seed=seed), X)
            grid = [0.3, 0.05, 0.5, 1.0]
        else:
            ops = GdkOps(X, bandwidth=float(rng.uniform(0.1, 2.0)))
            grid = [0.3, 0.05, 0.5, 0.9]
        K = ops.pairwise()
        # the last choice is a kernel value itself, so that pair lies on the boundary
        eps = grid[eps_at] if eps_at < 4 else float(K[rng.integers(n), rng.integers(n)]) or 0.3
        cores = ik_dbscan_cores(ops, eps_sim=eps, min_pts=min_pts, k=k)
        clusters, noise, found = oracle_ik_dbscan(K, eps, min_pts, k)
        assert [c.tolist() for c in cores.clusters] == clusters
        assert cores.noise.tolist() == noise
        assert bool(cores.warnings) == (found < k)

    @pytest.mark.parametrize("kind", ["idk", "gdk"])
    def test_memory_below_a_dense_kernel_matrix(self, kind):
        # 3,000 clustered points with a sparse eps-graph: the search holds the
        # graph and one row block per worker, never an s x s array
        X = datasets.paper_analog().points
        s = len(X)
        if kind == "idk":
            _, ops = blob_ops(X, psi=48, t=200, seed=1)
        else:
            ops = GdkOps(X, bandwidth=0.2)
        tracemalloc.start()
        try:
            cores = ik_dbscan_cores(ops, eps_sim=0.3, min_pts=8, k=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cores.k >= 4
        assert peak < 8 * s * s / 4  # a quarter of one float64 s x s matrix
