import dataclasses
import gc
import inspect
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from kernelhc import IdkOps, IsolationModel, fit_isolation_model, ikernel
from kernelhc.datasets import PAPER_ANALOG_COMPONENTS, PAPER_ANALOG_TUNED, generate_mixture, paper_analog
from kernelhc.ikernel import GdkOps, median_heuristic_bandwidth

from conftest import (
    oracle_cells,
    oracle_gdk,
    oracle_gram,
    oracle_mean_pairwise,
    oracle_point_kernel,
    oracle_point_vector,
    rng_data,
)


def dense_phi(ops):
    """The feature matrix Phi as a dense array."""
    return ops.onehot.toarray() / math.sqrt(ops.t)


def mean_map(ops, rows):
    """A group's kernel mean map, counts / (m sqrt(t)), from its state."""
    counts, m = ops.group_state(rows)
    return counts / (m * math.sqrt(ops.t))


def two_sets(model, X, Y):
    """Backend over X stacked on Y, plus the row ranges of each set."""
    ops = IdkOps.fit(model, np.vstack([X, Y]))
    return ops, np.arange(len(X)), np.arange(len(X), len(X) + len(Y))


def save_model_fields(path, model, **fields):
    """Write a model file as IsolationModel.save does, with some fields replaced."""
    doc = {"format": ikernel.MODEL_FORMAT, "version": ikernel.MODEL_VERSION, "centers": model.centers,
           "radii": model.radii, "psi": model.psi, "t": model.t, "seed": model.seed, **fields}
    np.savez(path, **{key: np.asarray(value) for key, value in doc.items()})


# Model files IsolationModel.load must reject, as replaced fields of a fitted model
BAD_MODEL_FIELDS = {
    "psi_disagrees": lambda m: {"psi": m.psi + 1},
    "t_disagrees": lambda m: {"t": m.t - 1},
    "centers_not_3d": lambda m: {"centers": m.centers.reshape(m.t * m.psi, -1)},
    "centers_nan": lambda m: {"centers": np.where(np.arange(m.psi)[:, None] == 1, np.nan, m.centers)},
    "centers_inf": lambda m: {"centers": np.where(np.arange(m.psi)[:, None] == 1, np.inf, m.centers)},
    "radii_shape": lambda m: {"radii": m.radii[:, :-1]},
    "radii_nan": lambda m: {"radii": np.full_like(m.radii, np.nan)},
    "radii_inf": lambda m: {"radii": np.full_like(m.radii, np.inf)},
    "radii_negative": lambda m: {"radii": np.where(np.arange(m.psi) == 2, -1.0, m.radii)},
    "psi_below_2": lambda m: {"psi": 1, "centers": m.centers[:, :1], "radii": m.radii[:, :1]},
    "t_below_1": lambda m: {"t": 0, "centers": m.centers[:0], "radii": m.radii[:0]},
}


class TestFitModel:
    def test_two_points_mutual_radius(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        model = fit_isolation_model(X, psi=2, t=1, seed=0)
        # the only other center is the mutual nearest neighbor
        assert model.radii[0] == pytest.approx([5.0, 5.0])

    def test_psi_larger_than_n_rejected(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            fit_isolation_model(rng_data(0, n=5), psi=6, t=3, seed=0)

    def test_psi_below_two_rejected(self):
        with pytest.raises(ValueError):
            fit_isolation_model(rng_data(0), psi=1, t=3, seed=0)

    def test_nonfinite_data_rejected(self):
        X = rng_data(0)
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_isolation_model(X, psi=4, t=3, seed=0)

    def test_overflowing_scale_rejected(self):
        # squared distances of points at 1e300 overflow float64
        with pytest.raises(ValueError, match="rescale"):
            fit_isolation_model(rng_data(0) * 1e300, psi=4, t=3, seed=0)

    def test_deterministic_and_bit_identical(self):
        X = rng_data(5, n=50)
        m1 = fit_isolation_model(X, psi=8, t=20, seed=9)
        m2 = fit_isolation_model(X, psi=8, t=20, seed=9)
        assert np.array_equal(m1.centers, m2.centers)
        assert np.array_equal(m1.radii, m2.radii)

    def test_radii_match_recomputation(self, small_model):
        for pi in range(small_model.t):
            c = small_model.centers[pi]
            for j in range(small_model.psi):
                d = np.sqrt(((c - c[j]) ** 2).sum(axis=1))
                d[j] = np.inf
                assert small_model.radii[pi, j] == pytest.approx(d.min())

    def test_centers_are_data_rows(self):
        X = rng_data(3, n=25)
        model = fit_isolation_model(X, psi=5, t=10, seed=1)
        rows = {tuple(r) for r in X}
        for pi in range(model.t):
            for c in model.centers[pi]:
                assert tuple(c) in rows

    def test_save_load_round_trip(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        small_model.save(path)
        loaded = IsolationModel.load(path)
        assert np.array_equal(loaded.centers, small_model.centers)
        assert np.array_equal(loaded.radii, small_model.radii)
        assert (loaded.psi, loaded.t, loaded.seed) == (
            small_model.psi, small_model.t, small_model.seed)

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, format=np.array("something-else"), version=np.array(1))
        with pytest.raises(ValueError, match="not an isolation model"):
            IsolationModel.load(path)

    @pytest.mark.parametrize("bad", sorted(BAD_MODEL_FIELDS))
    def test_load_rejects_invalid_model(self, small_model, tmp_path, bad):
        path = tmp_path / "bad.npz"
        save_model_fields(path, small_model, **BAD_MODEL_FIELDS[bad](small_model))
        with pytest.raises(ValueError, match=r"psi|t=|centers|radii"):
            IsolationModel.load(path)

    @pytest.mark.parametrize("cut", [None, 0, 100])
    def test_load_rejects_malformed_file(self, small_model, tmp_path, cut):
        # cut None: a psi that is no scalar; else the model file cut to that many bytes
        path = tmp_path / "bad.npz"
        if cut is None:
            save_model_fields(path, small_model, psi=[small_model.psi] * 2)
        else:
            small_model.save(path)
            path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="malformed model file"):
            IsolationModel.load(path)


class TestEmbedPoint:
    """Single rows of the feature matrix."""

    def test_center_activates_own_cell(self, small_model):
        z = small_model.centers[0][3]
        ops = IdkOps.fit(small_model, z[None, :])
        block0 = [i for i in ops.onehot.indices if i < small_model.psi]
        assert block0 == [3]  # distance 0 <= radius

    def test_far_point_embeds_to_zero(self, small_model):
        ops = IdkOps.fit(small_model, np.array([[1e6, 1e6]]))
        assert ops.onehot.nnz == 0
        assert ops.point_row(0)[0] == 0.0

    def test_dimension_mismatch(self, small_model):
        with pytest.raises(ValueError, match="features"):
            IdkOps.fit(small_model, np.array([[1.0, 2.0, 3.0]]))

    def test_overflowing_points_rejected(self, small_model):
        with pytest.raises(ValueError, match="rescale"):
            small_model.transform(rng_data(3, n=5) * 1e300)

    def test_large_safe_scale_matches_oracle(self):
        X = rng_data(5, n=30) * 1e100
        model = fit_isolation_model(X, psi=6, t=25, seed=42)
        cells = model.transform(X)
        assert np.array_equal(cells, oracle_cells(model, X))
        assert (cells >= 0).any()

    def test_matches_bruteforce_scan(self, small_model):
        X = np.random.default_rng(7).uniform(-0.2, 1.2, size=(25, 2))
        phi = dense_phi(IdkOps.fit(small_model, X))
        for i, x in enumerate(X):
            assert np.allclose(phi[i], oracle_point_vector(small_model, x))

    def test_one_nonzero_per_block_and_norm_bound(self, small_model):
        X = np.random.default_rng(11).uniform(0, 1, size=(25, 2))
        ops = IdkOps.fit(small_model, X)
        covered = (oracle_cells(small_model, X) >= 0).sum(axis=1)
        for i in range(25):
            blocks = ops.onehot[i].indices // small_model.psi
            assert len(set(blocks)) == len(blocks) == covered[i]
            norm_sq = ops.point_row(i)[i]
            assert norm_sq == pytest.approx(covered[i] / small_model.t)
            assert norm_sq <= 1.0


class TestEmbedDistribution:
    """Group states: cell counts and sizes, whose ratio is the mean of the rows of Phi."""

    def test_singleton_equals_point_map(self, small_model):
        x = np.array([0.4, 0.6])
        ops = IdkOps.fit(small_model, x[None, :])
        assert np.allclose(mean_map(ops, [0]), oracle_point_vector(small_model, x))

    def test_duplicates_do_not_move_the_mean(self, small_model):
        x = np.array([0.4, 0.6])
        ops = IdkOps.fit(small_model, np.vstack([x, x]))
        assert np.allclose(mean_map(ops, [0, 1]), oracle_point_vector(small_model, x))

    def test_mean_of_bruteforce_point_maps(self, small_model):
        pts = rng_data(13, n=10)
        mean = mean_map(IdkOps.fit(small_model, pts), np.arange(10))
        expected = np.mean([oracle_point_vector(small_model, x) for x in pts], axis=0)
        assert np.allclose(mean, expected, rtol=0, atol=1e-15)

    def test_empty_set_rejected(self, small_model):
        ops = IdkOps.fit(small_model, rng_data(13, n=4))
        with pytest.raises(ValueError, match="empty"):
            ops.group_state(np.empty(0, dtype=np.int64))

    def test_norm_bounded_by_one(self, small_model):
        mean = mean_map(IdkOps.fit(small_model, rng_data(17, n=20)), np.arange(20))
        assert np.linalg.norm(mean) <= 1.0 + 1e-12


class TestDistributionKernels:
    def test_self_similarity_is_squared_norm(self, small_model):
        X = rng_data(19, n=8)
        ops = IdkOps.fit(small_model, X)
        rows = np.arange(8)
        got = ops.set_similarity(rows, rows)
        assert got == pytest.approx(oracle_mean_pairwise(small_model, X, X), abs=1e-12)
        expected_norm = np.linalg.norm(
            np.mean([oracle_point_vector(small_model, x) for x in X], axis=0))
        assert got == pytest.approx(expected_norm**2, abs=1e-12)
        assert got <= 1.0

    def test_matches_bruteforce_double_sum(self, small_model):
        X = rng_data(23, n=7)
        Y = rng_data(29, n=5)
        ops, a, b = two_sets(small_model, X, Y)
        got = ops.set_similarity(a, b)
        assert got == pytest.approx(oracle_mean_pairwise(small_model, X, Y), abs=1e-12)

    def test_disjoint_supports_give_zero(self):
        X = rng_data(1, n=20)
        model = fit_isolation_model(X, psi=4, t=30, seed=3)
        far = X + 1e5  # covered by no hypersphere
        ops, a, b = two_sets(model, X[:10], far[:10])
        assert ops.set_similarity(a, b) == 0.0

    def test_self_similarity_builds_one_mean(self, small_model, monkeypatch):
        ops = IdkOps.fit(small_model, rng_data(19, n=8))
        rows = np.arange(8)
        expected = float(mean_map(ops, rows) @ mean_map(ops, rows))
        calls = []
        group_state = IdkOps.group_state
        monkeypatch.setattr(IdkOps, "group_state",
                            lambda self, r: calls.append(r) or group_state(self, r))
        assert ops.set_similarity(rows, rows) == expected
        assert len(calls) == 1
        # equal contents in another array still build both means
        assert ops.set_similarity(rows, rows.copy()) == expected
        assert len(calls) == 3

    def test_symmetry_exact(self, small_model):
        ops, a, b = two_sets(small_model, rng_data(31, n=9), rng_data(37, n=6))
        assert ops.set_similarity(a, b) == ops.set_similarity(b, a)

    def test_dimension_mismatch_rejected(self, small_model):
        ops = IdkOps.fit(small_model, rng_data(1, n=4))
        with pytest.raises(ValueError, match="dimension"):
            ops.point_to_state((np.zeros(3), 1))

    def test_point_to_dist_forms_agree(self, small_model):
        x = np.array([0.3, 0.7])
        members = rng_data(41, n=6)
        ops, _, rows = two_sets(small_model, x[None, :], members)
        got = ops.point_to_state(ops.group_state(rows))[0]
        expected = np.mean([oracle_point_kernel(small_model, x, y) for y in members])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_point_to_singleton_is_squared_norm(self, small_model):
        x = np.array([0.5, 0.5])
        ops = IdkOps.fit(small_model, x[None, :])
        got = ops.point_to_state(ops.group_state([0]))[0]
        assert got == pytest.approx(oracle_point_kernel(small_model, x, x), abs=1e-12)

    def test_uncovered_point_scores_zero(self, small_model):
        ops, rows, far = two_sets(small_model, rng_data(43, n=5), np.array([[1e6, -1e6]]))
        assert ops.point_to_state(ops.group_state(rows))[far[0]] == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), psi=st.integers(2, 12), t=st.sampled_from([5, 24]))
def test_kme_identity_property(seed, psi, t):
    """Inner-product form == mean-pairwise form, to float accuracy."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0, 1, size=(max(psi, 14), 2))
    model = fit_isolation_model(data, psi=psi, t=t, seed=seed)
    X = rng.uniform(0, 1, size=(rng.integers(1, 8), 2))
    Y = rng.uniform(0, 1, size=(rng.integers(1, 8), 2))
    ops, a, b = two_sets(model, X, Y)
    lhs = ops.set_similarity(a, b)
    assert lhs == pytest.approx(oracle_mean_pairwise(model, X, Y), abs=1e-12)
    assert 0.0 <= lhs <= 1.0


class TestIdkFeatures:
    """Batch queries of the IdkOps feature matrix."""

    def test_cells_match_oracle(self, small_model, monkeypatch):
        X = rng_data(47, n=12)
        expected = oracle_cells(small_model, X)
        assert np.array_equal(small_model.transform(X), expected)
        for block in (5 * small_model.t, ikernel.BLOCK):  # Phi in 3 row blocks or 1
            monkeypatch.setattr(ikernel, "BLOCK", block)
            ops = IdkOps.fit(small_model, X)
            cells = np.full_like(expected, -1)
            for i in range(12):
                cols = ops.onehot[i].indices
                cells[i, cols // small_model.psi] = cols % small_model.psi
            assert np.array_equal(cells, expected)
            assert np.array_equal(ops.onehot.indptr, np.cumsum([0, *(expected >= 0).sum(axis=1)]))

    def test_batch_similarities_match_single_point_op(self, small_model):
        X = rng_data(53, n=10)
        ops = IdkOps.fit(small_model, X)
        batch = ops.point_to_state(ops.group_state(np.arange(4)))
        for i in range(10):
            expected = np.mean([oracle_point_kernel(small_model, X[i], y) for y in X[:4]])
            assert batch[i] == pytest.approx(expected, abs=1e-12)

    def test_pairwise_matches_rows(self, small_model):
        X = rng_data(59, n=9)
        ops = IdkOps.fit(small_model, X)
        K = ops.pairwise()
        assert np.array_equal(K, K.T)
        for i in range(9):
            assert np.array_equal(K[i], ops.point_row(i))
            assert K[i, 0] == oracle_point_kernel(small_model, X[i], X[0])

    def test_point_row_equals_sparse_product(self, small_model):
        # duplicates, and one point no cell covers
        X = np.vstack([rng_data(60, n=20), rng_data(60, n=3), [[1e6, -1e6]]])
        ops = IdkOps.fit(small_model, X)
        assert ops.onehot[23].nnz == 0
        for i in range(len(X)):
            expected = (ops.onehot @ ops.onehot[i].T).toarray().ravel() / ops.t
            assert np.array_equal(ops.point_row(i), expected)

    def test_ops_set_similarity_is_embedding_dot(self, small_model):
        X = rng_data(61, n=12)
        ops = IdkOps.fit(small_model, X)
        a, b = np.arange(5), np.arange(5, 12)
        vecs = np.array([oracle_point_vector(small_model, x) for x in X])
        expected = float(vecs[a].mean(axis=0) @ vecs[b].mean(axis=0))
        assert ops.set_similarity(a, b) == pytest.approx(expected, abs=1e-15)


def assert_same_queries(ops, ref, groups, eps_grid):
    """ops answers every query bit for bit as ref, a copy with other entries."""
    def same(a, b):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
    for rows in groups:
        same(ops.point_to_state(ops.group_state(rows)), ref.point_to_state(ref.group_state(rows)))
        assert ops.set_similarity(rows, groups[0]) == ref.set_similarity(rows, groups[0])
    same(ops.gram(groups), ref.gram(groups))
    for i in range(0, ops.n, max(1, ops.n // 40)):
        same(ops.point_row(i), ref.point_row(i))
    for eps in eps_grid:
        got, want = ops.neighbors(eps), ref.neighbors(eps)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (eps, field)


def assert_same_phi(got, want):
    """Two onehot matrices hold the same cells and entries."""
    assert got.shape == want.shape and got.dtype == want.dtype
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def analog_24k():
    """The analog-24k input, 24,000 2-d rows, and its model at psi 48, t 200."""
    comps = [dataclasses.replace(c, size=8 * c.size) for c in PAPER_ANALOG_COMPONENTS]
    X = generate_mixture(comps, 1).points
    return X, fit_isolation_model(X, 48, 200, seed=1)


@pytest.fixture
def fresh_ones(monkeypatch):
    """An empty map of live runs of ones, so no other test's Phi shares one."""
    monkeypatch.setattr(ikernel, "_ONES", weakref.WeakValueDictionary())
    return ikernel._ONES


def reference_phi(cells, psi):
    """onehot's (indptr, indices) from the transform's cells, row by row."""
    rows = [np.flatnonzero(row >= 0) * psi + row[row >= 0] for row in cells]
    return np.cumsum([0] + [len(r) for r in rows]), np.concatenate([[], *rows]).astype(int)


class TestPhiStorage:
    """onehot holds int32 entries (int64 from n t = 2^31 on), built inside the
    transform's own table, and every query equals a float64 copy's bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_small_models_equal_a_float64_copy(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        # duplicates, and rows no cell covers, among them the first
        X = np.vstack([[[1e6, -1e6]], rng_data(seed, n=50), rng_data(seed, n=5), [[-1e6, 1e6]] * 3])
        model = fit_isolation_model(X[1:56], psi=int(rng.integers(2, 9)), t=int(rng.integers(1, 40)), seed=seed)
        groups = [np.arange(len(X)), np.arange(0, len(X), 3), np.array([0]), np.arange(56, len(X)),
                  rng.choice(len(X), 20, replace=False)]
        for dtype in (np.int32, np.int64):  # int64 as past n t = 2^31, with no table that large
            monkeypatch.setattr(ikernel, "_phi_dtype", lambda n, t: dtype)
            ops = IdkOps.fit(model, X)
            assert ops.onehot.dtype == dtype and ops.onehot[0].nnz == 0
            ref = IdkOps(ops.onehot.astype(np.float64), ops.t)
            assert_same_queries(ops, ref, groups, (1 / model.t, 0.3, 1.0))

    def test_tuned_analog_equals_a_float64_copy(self):
        X = paper_analog().points
        model = fit_isolation_model(X, PAPER_ANALOG_TUNED["psi"], PAPER_ANALOG_TUNED["t"], seed=1)
        ops = IdkOps.fit(model, X)
        assert ops.onehot.dtype == np.int32 and ops.onehot.indices.dtype == np.int32
        ref = IdkOps(ops.onehot.astype(np.float64), ops.t)
        labels = paper_analog().labels
        assert_same_queries(ops, ref, [np.flatnonzero(labels == c) for c in range(6)], ())
        # the subset IK-DBSCAN searches, at a boundary the float copy would round past
        sub, sub_ref = ops.take(np.arange(0, len(X), 5)), ref.take(np.arange(0, len(X), 5))
        assert_same_queries(sub, sub_ref, [np.arange(sub.n)], (0.05, 0.3, 0.9))

    @pytest.mark.parametrize("n, t, dtype", [(2**31 - 1, 1, np.int32), (1, 2**31 - 1, np.int32),
                                             (2**21, 2**10, np.int64), (2**31, 1, np.int64),
                                             (24_000, 200, np.int32)])
    def test_entry_type_rule(self, n, t, dtype):
        # the largest row sum of a product is t m <= t n
        assert ikernel._phi_dtype(n, t) is dtype

    def test_memory_of_the_build(self, fresh_ones):
        X, model = analog_24k()

        def peak(f):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                return f(), tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        _, transform_peak = peak(lambda: model.transform(X))
        ops, fit_peak = peak(lambda: IdkOps.fit(model, X))
        phi = ops.onehot
        assert phi.data.itemsize == phi.indices.itemsize == 4
        phi_bytes = phi.data.nbytes + phi.indices.nbytes + phi.indptr.nbytes
        # the build holds no second (n, t) table, mask or index array: past the
        # transform, only Phi and its int64 row pointers, which scipy copies to int32
        assert fit_peak <= max(transform_peak, phi_bytes) + 2**20, (fit_peak, transform_peak, phi_bytes)

    @pytest.mark.parametrize("block", [1, 7, ikernel.BLOCK])
    def test_uncovered_rows_and_blocks(self, monkeypatch, small_model, block):
        # uncovered rows first, last and in runs, on both sides of block ends
        far = [[1e6, -1e6]]
        X = np.vstack([far, rng_data(3, n=9), far * 4, rng_data(4, n=11), far * 2])
        monkeypatch.setattr(ikernel, "BLOCK", block * small_model.t)
        ops = IdkOps.fit(small_model, X)
        indptr, indices = reference_phi(small_model.transform(X), small_model.psi)
        assert np.array_equal(ops.onehot.indptr, indptr) and np.array_equal(ops.onehot.indices, indices)
        assert ops.onehot.nnz and ops.onehot[0].nnz == ops.onehot[-1].nnz == 0
        assert (ops.onehot.data == 1).all() and ops.onehot.shape == (len(X), small_model.t * small_model.psi)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_no_rows_or_nothing_covered(self, small_model, n):
        ops = IdkOps.fit(small_model, np.full((n, 2), 1e6))
        assert ops.onehot.shape == (n, small_model.t * small_model.psi) and ops.onehot.nnz == 0
        assert ops.onehot.dtype == np.int32 and np.array_equal(ops.onehot.indptr, np.zeros(n + 1))
        if n:
            assert not ops.point_row(n - 1).any() and not ops.point_to_state(ops.group_state(np.arange(n))).any()

    def test_referenced_table_is_not_resized(self, monkeypatch, small_model):
        # fit copies the packed cells of a table something else references
        X = rng_data(5, n=12)
        want = IdkOps.fit(small_model, X).onehot
        kept = []
        transform = IsolationModel.transform

        def keeping(self, X):
            kept.append(transform(self, X))
            return kept[-1]
        monkeypatch.setattr(IsolationModel, "transform", keeping)
        assert_same_phi(IdkOps.fit(small_model, X).onehot, want)
        assert kept[0].shape == (len(X), small_model.t)
        assert "refcheck=False" not in inspect.getsource(ikernel)

    @pytest.mark.parametrize("hook, current", [(sys.setprofile, sys.getprofile), (sys.settrace, sys.gettrace)])
    def test_fit_under_a_profiler_or_tracer(self, small_model, hook, current):
        # with a hook installed (cProfile, pdb, coverage), CPython references the table at its resize
        X = rng_data(5, n=40)
        want, previous = IdkOps.fit(small_model, X).onehot, current()
        hook(lambda *args: None)
        try:
            got = IdkOps.fit(small_model, X).onehot
        finally:
            hook(previous)
        assert_same_phi(got, want)


class TestSharedOnes:
    """onehot's entries are a read-only view of one run of ones per entry type,
    which every live Phi shares and the last of them frees."""

    def test_live_phis_share_one_run(self, small_model, fresh_ones):
        X = rng_data(5, n=40)
        a = IdkOps.fit(small_model, X)
        b = IdkOps.fit(small_model, X[::-1])
        assert np.shares_memory(a.onehot.data, b.onehot.data)
        # a Phi with more cells than the live run holds gets a longer one, which a later Phi views
        c = IdkOps.fit(small_model, np.vstack([X, X]))
        d = IdkOps.fit(small_model, np.vstack([X, X[:30]]))
        assert not np.shares_memory(a.onehot.data, c.onehot.data)
        assert np.shares_memory(c.onehot.data, d.onehot.data)
        assert fresh_ones[np.int32] is c.onehot.data.base

    def test_entries_are_read_only(self, small_model, fresh_ones):
        X = rng_data(5, n=40)
        phis = [IdkOps.fit(small_model, X).onehot for _ in range(2)]
        for phi in phis:
            with pytest.raises(ValueError, match="read-only"):
                phi.data[0] = 2
        assert all((phi.data == 1).all() for phi in phis)

    def test_run_dies_with_the_last_phi(self, small_model, fresh_ones):
        a, b = (IdkOps.fit(small_model, rng_data(seed, n=40)) for seed in (5, 6))
        run = weakref.ref(fresh_ones[np.int32])
        del a
        gc.collect()
        assert run() is not None
        del b
        gc.collect()
        assert run() is None and not fresh_ones

    def test_int64_phis_have_their_own_run(self, monkeypatch, small_model, fresh_ones):
        X = rng_data(5, n=40)
        narrow = IdkOps.fit(small_model, X)
        monkeypatch.setattr(ikernel, "_phi_dtype", lambda n, t: np.int64)
        wide = [IdkOps.fit(small_model, X) for _ in range(2)]
        assert wide[0].onehot.dtype == np.int64 and not np.shares_memory(narrow.onehot.data, wide[0].onehot.data)
        assert np.shares_memory(wide[0].onehot.data, wide[1].onehot.data)
        assert fresh_ones[np.int32] is narrow.onehot.data.base and fresh_ones[np.int64] is wide[0].onehot.data.base

    def test_refit_while_phi_lives_allocates_no_ones(self, monkeypatch, fresh_ones):
        # traced from the packed table on, where a Phi of its own allocates nnz ones
        # (as the resize frees the table's tail, its peak then rises by less than they take)
        X, model = analog_24k()
        pack, marks, tails, kept, phis = ikernel._pack_cells, [], [], [], []

        def packing(cells, psi):
            indptr = pack(cells, psi)
            tracemalloc.reset_peak()
            marks.append(tracemalloc.get_traced_memory()[0])
            return indptr
        monkeypatch.setattr(ikernel, "_pack_cells", packing)
        tracemalloc.start()
        try:
            for _ in range(2):
                start = tracemalloc.get_traced_memory()[0]
                phis.append(IdkOps.fit(model, X).onehot)
                current, peak = tracemalloc.get_traced_memory()
                tails.append(peak - marks[-1])
                kept.append(current - start)
        finally:
            tracemalloc.stop()
        first, second = phis
        assert np.shares_memory(first.data, second.data)
        # past the table, the refit makes only Phi's int32 row pointers, which scipy copies from the int64 ones
        assert tails[1] <= second.indptr.nbytes + 2**16 < 2**20 + tails[1] < tails[0], tails
        own = second.indices.nbytes + second.indptr.nbytes
        assert kept[0] >= own + first.data.nbytes and kept[1] <= own + 2**16, (kept, own)

    @pytest.mark.parametrize("seed", range(3))
    def test_queries_equal_private_ones(self, small_model, fresh_ones, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng_data(seed, n=60), [[1e6, -1e6]]])
        shared = [IdkOps.fit(small_model, X) for _ in range(2)]
        phi = shared[0].onehot
        private = IdkOps(sparse.csr_matrix((np.ones(phi.nnz, phi.dtype), phi.indices.copy(), phi.indptr.copy()),
                                           shape=phi.shape), shared[0].t)
        assert np.shares_memory(phi.data, shared[1].onehot.data) and private.onehot.data.flags.writeable
        groups = [np.arange(len(X)), np.arange(0, len(X), 4), np.array([len(X) - 1]),
                  rng.choice(len(X), 15, replace=False)]
        assert_same_queries(shared[0], private, groups, (1 / small_model.t, 0.3, 1.0))
        assert_same_queries(shared[0].take(groups[3]), private.take(groups[3]), [np.arange(15)], (0.3,))


def edge_points(model):
    """For every center c and its nearest sibling c': 2c - c', at the radius
    of c (exactly so on integer data), and (c + c') / 2, as near to c' as
    to c."""
    out = []
    for c in model.centers:
        dm = cdist(c, c)
        np.fill_diagonal(dm, np.inf)
        sibling = c[dm.argmin(axis=1)]
        out += [2 * c - sibling, (c + sibling) / 2]
    return np.vstack(out)


def full_scan(model, X):
    """The unpruned exact scan: _scan_cells against every center of every
    partitioning."""
    return np.stack([ikernel._scan_cells(X, c, r) for c, r in zip(model.centers, model.radii)],
                    axis=1)


@st.composite
def transform_cases(draw):
    """A fitted model and queries on the edges of transform's leaf selection
    and GEMM screen: separated blobs, whose leaves drop centers; one standard
    Gaussian, whose leaves keep them all; duplicates (single-point and
    zero-size leaves, and coinciding centers that force rescans); integer grids
    whose centers tie; the model's own centers and points at a radius or
    halfway between two centers; subnormal to huge scales; n under one leaf
    and psi near n; plus leaf sizes and blocks down to under one row of scores."""
    d = draw(st.sampled_from([1, 2, 3, 5, 7, 16, 64]))
    kind = draw(st.sampled_from(["blobs", "gaussian", "duplicates", "grid"]))
    seed = draw(st.integers(0, 2**20))
    n = draw(st.integers(4, 80))
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        X = rng.normal(size=(n, d)) + rng.uniform(-100, 100, size=(4, d))[rng.integers(0, 4, size=n)]
    elif kind == "duplicates":
        distinct = rng.normal(size=(draw(st.integers(1, 4)), d))
        X = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "grid":
        X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        X = rng.normal(size=(n, d))
    scale = draw(st.one_of(st.sampled_from([1.0, 1e-162, 1e-160, 1e150]),
                           st.integers(-170, 150).map(lambda e: 10.0**e)))
    psi = draw(st.one_of(st.integers(2, min(6, n)), st.integers(max(2, n - 2), n)))
    model = fit_isolation_model(X * scale, psi=psi, t=draw(st.integers(1, 6)), seed=seed)
    queries = np.vstack([X * scale, model.centers.reshape(-1, d), edge_points(model)])
    leaf = draw(st.sampled_from([1, 2, 5, ikernel.SCAN_LEAF]))
    block = draw(st.sampled_from([1, 7 * model.t, ikernel.BLOCK]))
    return model, queries, kind, scale, leaf, block


class TestScreen:
    """The GEMM screen of each kd-tree leaf against the centers that can be
    nearest, with its rescans, equals the full _scan_cells scan."""

    @settings(max_examples=300, deadline=None)
    @given(case=transform_cases())
    def test_screen_equals_exact_scan(self, case):
        model, X, kind, scale, leaf, block = case
        scored = []
        screen = ikernel._screen_cells
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ikernel, "SCAN_LEAF", leaf)
            mp.setattr(ikernel, "BLOCK", block)
            mp.setattr(ikernel, "_screen_cells",  # counts the scores of every GEMM
                       lambda scores, *rest: scored.append(scores.size) or screen(scores, *rest))
            cells = model.transform(X)
        assert cells.dtype == np.int32 and cells.shape == (len(X), model.t)
        assert np.array_equal(cells, full_scan(model, X))
        if X.shape[1] <= 2:  # where the one-point-at-a-time oracle rounds as cdist does
            rows = np.linspace(0, len(X) - 1, min(len(X), 40)).astype(int)
            assert np.array_equal(cells[rows], oracle_cells(model, X[rows]))
        assert sum(scored) <= len(X) * model.t * model.psi
        # four blobs uniform in [-100, 100]^d lie apart from d = 3 on
        if (kind == "blobs" and scale in (1.0, 1e150) and leaf < ikernel.SCAN_LEAF and model.psi > 4
                and X.shape[1] >= 3):
            assert sum(scored) < len(X) * model.t * model.psi

    def test_duplicates_fall_back_to_the_exact_scan(self, monkeypatch):
        # coinciding centers tie and have radius 0, so the screen cannot
        # certify them; the exact rescans must decide those pairs
        rng = np.random.default_rng(3)
        X = np.repeat(rng.normal(size=(10, 64)), 20, axis=0)
        model = fit_isolation_model(X, psi=16, t=20, seed=5)
        expected = full_scan(model, X)
        rescanned = []
        scan = ikernel._scan_cells
        monkeypatch.setattr(ikernel, "_scan_cells",
                            lambda Xr, c, r: rescanned.append(len(Xr)) or scan(Xr, c, r))
        assert np.array_equal(model.transform(X), expected)
        fallback = sum(rescanned)
        assert 0 < fallback < len(X) * model.t

    def test_leaf_keeping_every_center_gathers_them_all(self, monkeypatch):
        # unclustered data at the default SCAN_LEAF and BLOCK: some leaf keeps
        # all psi centers of a partitioning and scores them through the same
        # gather as a leaf that keeps fewer
        X = np.random.default_rng(0).normal(size=(3000, 8))
        model = fit_isolation_model(X, psi=16, t=20, seed=0)
        shapes = screened(monkeypatch)
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert any(k == model.psi for k, _, _ in shapes)

    def test_screen_blocks_match(self, monkeypatch):
        # 3 rows per block, and a block smaller than one row of scores
        X = np.random.default_rng(7).normal(size=(50, 16))
        model = fit_isolation_model(X, psi=8, t=12, seed=1)
        expected = full_scan(model, X)
        for block in (3 * 8 * 12, 5):
            monkeypatch.setattr(ikernel, "BLOCK", block)
            assert np.array_equal(model.transform(X), expected)

    @pytest.mark.parametrize("scale", [1e-160, 1e-162])
    def test_subnormal_scale(self, scale):
        # squared distances below the normal range err absolutely, not
        # relatively; the screen's bound must still hold
        X = np.random.default_rng(0).normal(size=(60, 16)) * scale
        model = fit_isolation_model(X, psi=8, t=10, seed=0)
        assert np.array_equal(model.transform(X), full_scan(model, X))

    def test_empty_input(self):
        model = fit_isolation_model(rng_data(1, n=20, d=16), psi=4, t=5, seed=0)
        assert model.transform(np.empty((0, 16))).shape == (0, 5)


class TestPrunedScan:
    """The cdist properties the screen's leaf selection and its rescans use."""

    @pytest.mark.parametrize("scale", [1.0, 1e-162, 1e150])
    @pytest.mark.parametrize("d", [2, 5, 7])
    def test_cdist_of_a_center_subset_is_the_full_cdist(self, d, scale):
        # a pair's cdist value depends on neither the other rows of the call,
        # their order or repeats (the rescans take a subset of the rows), nor
        # on the argument order (the leaf selection's argument)
        rng = np.random.default_rng(d)
        X, C = rng.normal(size=(37, d)) * scale, rng.normal(size=(29, d)) * scale
        full = cdist(X, C)
        rows = np.concatenate([rng.permutation(37)[:11], rng.integers(0, 37, size=14)])
        cols = np.concatenate([rng.permutation(29)[:11], rng.integers(0, 29, size=14)])
        assert np.array_equal(cdist(X[rows], C), full[rows])
        assert np.array_equal(cdist(C[cols], X[5:18]), full[5:18, cols].T)


def screened(monkeypatch):
    """The score slabs (k, g, b) _screen_cells receives, as their shapes."""
    shapes, screen = [], ikernel._screen_cells
    monkeypatch.setattr(ikernel, "_screen_cells",
                        lambda scores, *rest: shapes.append(scores.shape) or screen(scores, *rest))
    return shapes


class TestPrunedScreen:
    """The GEMM screen scores fewer centers where a leaf's rows are far from
    most of them."""

    def test_separated_blobs_score_a_fraction_of_the_centers(self, monkeypatch):
        # 8 unit Gaussians, centers uniform in [-10, 10]^64, in leaves smaller than
        # a blob: a leaf keeps about the centers of its own blob, and its
        # partitionings go in two groups
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 128)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(1200, 64)) + rng.uniform(-10, 10, size=(8, 64))[rng.integers(0, 8, size=1200)]
        model = fit_isolation_model(X, psi=16, t=30, seed=4)
        shapes, groups, kept = screened(monkeypatch), [], ikernel._kept_groups
        monkeypatch.setattr(ikernel, "_kept_groups", lambda keep: groups.append(kept(keep)) or groups[-1])
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert sum(map(np.prod, shapes)) < 0.75 * len(X) * model.t * model.psi
        assert any(((0 < cut) & (cut < model.t)).any() for _, cut, _, _ in groups)
        for parts, cut, _, _ in groups:  # every partitioning once, each group in ascending order
            for part, c in zip(parts, cut):
                assert sorted(part) == list(range(model.t))
                assert (np.diff(part[:c]) > 0).all() and (np.diff(part[c:]) > 0).all()


def heavy_tailed(kind):
    """Inputs whose midpoint tree peels off many small leaves: lognormal
    (sigma 3) in 30-d, 10 points at 1e6 beside 23,990 standard normal ones,
    and a geometric sequence (ratio 2.1) whose midpoint tree cuts one point
    off per level, deeper than Python's recursion limit."""
    rng = np.random.default_rng(11)
    if kind == "lognormal":
        return rng.lognormal(sigma=3.0, size=(8000, 30))
    if kind == "far-cloud":
        return np.vstack([rng.normal(size=(23990, 2)), 1e6 + rng.normal(size=(10, 2))])
    return 2.1 ** np.arange(-950.0, 471.0)[:, None]


class TestMidpointLeaves:
    """transform's leaves come from sliding-midpoint splits, with runs of
    small leaves merged; whatever the leaves, the cells are the full scan's."""

    @pytest.mark.parametrize("kind", ["lognormal", "far-cloud", "geometric"])
    def test_heavy_tails_keep_few_leaves(self, kind):
        # two neighbouring leaves hold at least SCAN_LEAF // 2 rows, so n rows
        # make at most 2 floor(n / (SCAN_LEAF // 2)) + 1 leaves
        X = heavy_tailed(kind)
        leaves, half = ikernel._leaves(X), ikernel.SCAN_LEAF // 2
        assert np.array_equal(np.sort(np.concatenate(leaves)), np.arange(len(X)))
        assert max(map(len, leaves)) <= ikernel.SCAN_LEAF
        assert len(leaves) <= 2 * (len(X) // half) + 1
        if kind != "far-cloud":  # the merge, not the splits, keeps the bound
            assert (cKDTree(X, leafsize=ikernel.SCAN_LEAF, balanced_tree=False).size + 1) // 2 > len(leaves)
        model = fit_isolation_model(X, psi=16, t=10, seed=3)
        assert np.array_equal(model.transform(X), full_scan(model, X))

    def test_count_past_one_byte(self, monkeypatch):
        # psi = 300 centers, 257 of them on the unit sphere: at the origin they
        # tie, so 257 scores lie within 2 tol of the best, a count that an 8-bit
        # accumulator would wrap to 1 ("alone")
        rng = np.random.default_rng(5)
        sphere = rng.normal(size=(257, 8))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        X = np.vstack([sphere, 3 * rng.normal(size=(43, 8)) / np.sqrt(8) + 6])
        model = fit_isolation_model(X, psi=300, t=5, seed=5)
        queries = np.vstack([X, np.zeros((5, 8))])
        shapes = screened(monkeypatch)
        assert np.array_equal(model.transform(queries), full_scan(model, queries))
        assert max(k for k, _, _ in shapes) >= 257

    def test_integer_grid_ties_at_large_k(self, monkeypatch):
        # the 243 points of {-1, 0, 1}^5, psi = 300 of 3,000 rows: coinciding
        # centers tie and a leaf scores up to every one of them
        X = np.random.default_rng(2).integers(-1, 2, size=(3000, 5)).astype(np.float64)
        model = fit_isolation_model(X, psi=300, t=6, seed=2)
        shapes = screened(monkeypatch)
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert max(k for k, _, _ in shapes) >= 256

    def test_separated_blobs_score_fewer_pairs_than_the_median_tree(self, monkeypatch):
        # 8 unit Gaussians of 300 points, centers uniform in [-10, 10]^64: the
        # median tree's cuts run through blobs, the midpoint ones between them
        # (30% and 79% of all pairs scored; not every draw gains this much)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2400, 64)) + np.repeat(rng.uniform(-10, 10, size=(8, 64)), 300, axis=0)
        model = fit_isolation_model(X, psi=48, t=30, seed=3)
        shapes = screened(monkeypatch)
        assert np.array_equal(model.transform(X), full_scan(model, X))
        midpoint = sum(map(np.prod, shapes))
        shapes.clear()
        monkeypatch.setattr(ikernel, "cKDTree", lambda X, leafsize, balanced_tree: cKDTree(X, leafsize=leafsize))
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert midpoint < 0.5 * sum(map(np.prod, shapes))


def kept_groups_reference(keep):
    """One leaf's groups as a per-leaf selection makes them, for its (t, psi)
    mask: per group its partitionings in ascending order and the (k, g)
    centers to score, each partitioning's kept ones first."""
    count = keep.sum(axis=1)
    order = np.argsort(count, kind="stable")
    size, cut = count[order], np.arange(len(keep), 0, -1)
    cut = cut[(cut * size[cut - 1] + (len(keep) - cut) * size[-1]).argmin()]
    return [(part, np.argsort(~keep[part], axis=1, kind="stable")[:, :count[part].max()].T)
            for part in (np.sort(order[:cut]), np.sort(order[cut:])) if len(part)]


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 5), t=st.integers(1, 12), psi=st.integers(2, 20), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0, 1))
def test_kept_groups_equal_the_per_leaf_reference(m, t, psi, seed, density):
    keep = np.random.default_rng(seed).random((m, t, psi)) < density
    keep[..., 0] |= ~keep.any(axis=2)  # a leaf keeps p's nearest center at least
    parts, cut, counts, order = ikernel._kept_groups(keep.astype(np.int32))
    for leaf in range(m):
        c, count = cut[leaf], counts[leaf]
        groups = [(part, order[leaf][part, :k].T)
                  for part, k in ((parts[leaf, :c], count[c - 1]), (parts[leaf, c:], count[-1])) if len(part)]
        expected = kept_groups_reference(keep[leaf])
        assert len(groups) == len(expected)
        for (part, idx), (ref_part, ref_idx) in zip(groups, expected):
            assert np.array_equal(part, ref_part) and np.array_equal(idx, ref_idx)


def batch_inputs(d):
    """240 points in 6 blobs far apart, of spreads from 0.01 to 3, so that
    neighbouring leaves differ in their midpoints and reaches, and a model
    fitted on them."""
    rng = np.random.default_rng(d)
    which = rng.integers(0, 6, size=240)
    spread = np.array([0.01, 0.1, 0.3, 1.0, 2.0, 3.0])[which, None]
    X = rng.uniform(-50, 50, size=(6, d))[which] + rng.normal(size=(240, d)) * spread
    return fit_isolation_model(X, psi=12, t=9, seed=d), X


def batch_block(model, leaf, leaves):
    """The BLOCK at which each of transform's tasks selects centers for
    batches of the given number of leaves of at most leaf rows."""
    return leaves * 2 * (model.t * model.psi + leaf * model.centers.shape[2])


@pytest.fixture
def batches(monkeypatch):
    """The number of leaves of every batch transform selects centers for."""
    sizes, kept = [], ikernel._kept_groups
    monkeypatch.setattr(ikernel, "_kept_groups", lambda keep: sizes.append(len(keep)) or kept(keep))
    return sizes


class TestBatches:
    """transform selects the centers of a batch of leaves at once; whatever
    the batches hold, the cells are the full scan's."""

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_spans_several_batches(self, monkeypatch, batches, d, workers):
        model, X = batch_inputs(d)
        monkeypatch.setattr(ikernel, "WORKERS", workers)
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 8)
        monkeypatch.setattr(ikernel, "BLOCK", batch_block(model, 8, 3))
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert max(batches) == 3 and batches.count(3) >= 3 * workers and sum(batches) >= len(X) // 8

    @pytest.mark.parametrize("d", [2, 16])
    def test_batch_of_one_leaf(self, monkeypatch, batches, d):
        model, X = batch_inputs(d)
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 8)
        monkeypatch.setattr(ikernel, "BLOCK", batch_block(model, 8, 1))
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert set(batches) == {1} and len(batches) >= len(X) // 8

    @pytest.mark.parametrize("d", [2, 16])
    def test_leaves_of_one_row(self, monkeypatch, batches, d):
        model, X = batch_inputs(d)
        X = np.vstack([X, X[:5]])  # coinciding rows, cut into leaves of one row
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 1)
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert sum(batches) == len(X) and max(batches) > 1

    @pytest.mark.parametrize("d", [2, 16])
    def test_more_workers_than_leaves(self, monkeypatch, pool_spy, batches, d):
        model, X = batch_inputs(d)
        monkeypatch.setattr(ikernel, "WORKERS", 8)
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 100)  # 3 to 4 leaves of 240 rows
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert set(batches) == {1} and pool_spy[0] == len(batches) < 8

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("leaves", [None, 2])
    def test_default_scan_leaf(self, monkeypatch, batches, d, leaves):
        # the default leaf size on 4,800 points, in the default batches or in
        # batches of 2 leaves
        model, X = batch_inputs(d)
        X = np.vstack([X + shift for shift in np.linspace(0, 1, 20)])
        if leaves:
            monkeypatch.setattr(ikernel, "BLOCK", batch_block(model, ikernel.SCAN_LEAF, leaves))
        assert np.array_equal(model.transform(X), full_scan(model, X))
        assert sum(batches) >= len(X) // ikernel.SCAN_LEAF and max(batches) == (leaves or max(batches))


def worker_inputs(d, t=15):
    """A fitted model and two queries: 103 Gaussian points (no multiple of
    the small blocks) and 10 distinct points repeated 12 times, whose
    coinciding centers leave many pairs for the screen's rescan."""
    rng = np.random.default_rng(d)
    X = rng.normal(size=(103, d))
    dups = np.repeat(rng.normal(size=(10, d)), 12, axis=0)
    model = fit_isolation_model(np.vstack([X, dups]), psi=6, t=t, seed=d)
    return model, {"gaussian": X, "duplicates": dups}


class PoolSpy(ThreadPoolExecutor):
    """ThreadPoolExecutor that records the worker count of every pool."""

    started = []

    def __init__(self, workers):
        PoolSpy.started.append(workers)
        super().__init__(workers)


@pytest.fixture
def pool_spy(monkeypatch):
    PoolSpy.started = []
    monkeypatch.setattr(ikernel, "ThreadPoolExecutor", PoolSpy)
    return PoolSpy.started


class TestWorkers:
    """transform's cells do not depend on WORKERS, SCAN_LEAF or BLOCK."""

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_cells_independent_of_workers_and_block(self, monkeypatch, pool_spy, d):
        model, queries = worker_inputs(d)
        expected = {name: oracle_cells(model, X) for name, X in queries.items()}
        pools = set()
        for workers in (1, 2, 4):
            # leaves of at most 3 rows or one leaf; one partitioning and one row
            # per call, 3 rows of scores per call, or the default block
            for leaf, block in ((3, 5), (3, ikernel.BLOCK), (ikernel.SCAN_LEAF, 3 * model.psi),
                                (ikernel.SCAN_LEAF, ikernel.BLOCK)):
                monkeypatch.setattr(ikernel, "WORKERS", workers)
                monkeypatch.setattr(ikernel, "SCAN_LEAF", leaf)
                monkeypatch.setattr(ikernel, "BLOCK", block)
                for name, X in queries.items():
                    pool_spy.clear()
                    cells = model.transform(X)
                    assert cells.dtype == np.int32 and cells.shape == (len(X), model.t)
                    assert np.array_equal(cells, expected[name]), (name, workers, leaf, block)
                    if leaf == 3:  # the leaves' pool starts before the rescans' pool
                        assert pool_spy[:1] == ([workers] if workers > 1 else [])
                    pools.update(pool_spy)
        assert pools == {2, 4}

    @pytest.mark.parametrize("t", [1, 3])
    def test_more_workers_than_partitionings(self, monkeypatch, pool_spy, t):
        # 8 workers scan the leaves of at most 40 rows on one thread per leaf (3
        # and 5 leaves); one leaf and one partitioning leave one task for the
        # screen and one for the rescans, so no pool
        model, queries = worker_inputs(3, t=t)
        monkeypatch.setattr(ikernel, "WORKERS", 8)
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 40 if t == 3 else ikernel.SCAN_LEAF)
        for name, X in queries.items():
            pool_spy.clear()
            assert np.array_equal(model.transform(X), oracle_cells(model, X)), name
            leaves = len(ikernel._leaves(X))
            assert pool_spy == [] if t == 1 else leaves > 1 and pool_spy[0] == min(8, leaves)

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_tiny_inputs(self, monkeypatch, d, n):
        model, queries = worker_inputs(d)
        X = queries["gaussian"][:n]
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 3)
        single = model.transform(X)
        monkeypatch.setattr(ikernel, "WORKERS", 2)
        assert single.shape == (n, model.t)
        assert np.array_equal(model.transform(X), single)
        assert np.array_equal(single, oracle_cells(model, X))

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        # a lost or misplaced write of a shared output would show as a
        # difference from the inline scan; one row per leaf and one
        # partitioning per GEMM, 8 threads
        model, queries = worker_inputs(2)
        X = queries["gaussian"]
        expected = model.transform(X)
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 1)
        monkeypatch.setattr(ikernel, "BLOCK", 1)
        monkeypatch.setattr(ikernel, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(model.transform(X), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_screen_with_fast_switching(self, monkeypatch):
        # a task writing outside its leaves' rows would show as a difference
        # from the oracle; leaves of at most 3 rows on 8 threads, two
        # partitionings per call where a leaf keeps every center (the call
        # holds the gathered weights, d + 1 per center, beside the scores)
        model, queries = worker_inputs(3)
        expected = {name: oracle_cells(model, X) for name, X in queries.items()}
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 3)
        monkeypatch.setattr(ikernel, "BLOCK", 2 * model.psi * (3 + 3 + 1))
        monkeypatch.setattr(ikernel, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                for name, X in queries.items():
                    assert np.array_equal(model.transform(X), expected[name]), name
        finally:
            sys.setswitchinterval(interval)

    def test_single_block_starts_no_pool(self, monkeypatch, pool_spy):
        # one leaf is screened inline, on the calling thread (its rescans may
        # start their own pool); two leaves start a pool of 2 threads first
        model, queries = worker_inputs(2)
        threads, screen = [], ikernel._screen_cells
        monkeypatch.setattr(ikernel, "_screen_cells",
                            lambda *args: threads.append(threading.current_thread()) or screen(*args))
        monkeypatch.setattr(ikernel, "WORKERS", 2)
        model.transform(queries["gaussian"])  # 103 rows, one default leaf
        assert set(threads) == {threading.current_thread()}
        threads.clear()
        monkeypatch.setattr(ikernel, "SCAN_LEAF", 60)
        model.transform(queries["gaussian"])  # two leaves
        assert pool_spy[:1] == [2] and threading.current_thread() not in threads


def gdk_sets(X, Y, bandwidth):
    """Gaussian backend over X stacked on Y, plus the row ranges of each set."""
    ops = GdkOps(np.vstack([X, Y]), bandwidth)
    return ops, np.arange(len(X)), np.arange(len(X), len(X) + len(Y))


def unblocked_row_means(A, B, bandwidth):
    """Mean Gaussian kernel value of each row of A against all of B, in one
    expression over the whole kernel matrix."""
    return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * bandwidth**2)).mean(axis=1)


@pytest.mark.parametrize("backend", ["idk", "gdk"])
def test_empty_group_rejected(backend):
    X = rng_data(13, n=4)
    if backend == "idk":
        ops = IdkOps.fit(fit_isolation_model(X, psi=2, t=5, seed=0), X)
    else:
        ops = GdkOps(X, bandwidth=1.0)
    empty, rows = np.empty(0, dtype=np.int64), np.arange(3)
    for query in (lambda: ops.group_state(empty), lambda: ops.set_similarity(rows, empty),
                  lambda: ops.set_similarity(empty, rows), lambda: ops.set_similarity([], []),
                  lambda: ops.gram([rows, empty]), lambda: ops.regroup(ops.group_state(rows), empty, rows)):
        with pytest.raises(ValueError, match="cannot embed an empty point set"):
            query()


def test_backends_expose_the_same_queries():
    def public(cls):
        return {name for name in vars(cls) if not name.startswith("_")}
    assert public(IdkOps) - {"fit"} == public(GdkOps)
    assert {"group_state", "regroup", "point_to_state", "set_similarity", "gram", "point_row",
            "neighbors", "pairwise"} <= public(GdkOps)


class TestRegroup:
    """regroup(state, joined, left) gives the scores group_state gives the
    new member set from scratch, bit for bit."""

    @staticmethod
    def backend(kind, seed):
        # 11 points and, as row 11, one that no cell covers: its Phi row is empty
        X = np.vstack([rng_data(seed, n=11), [[1e6, -1e6]]])
        if kind == "gdk":
            return GdkOps(X, bandwidth=0.5)
        ops = IdkOps.fit(fit_isolation_model(X[:11], psi=4, t=24, seed=seed), X)
        assert ops.onehot[11].nnz == 0
        return ops

    @staticmethod
    def assert_regroups(ops, a, b):
        a, b = np.asarray(a), np.asarray(b)
        state = ops.regroup(ops.group_state(a), np.setdiff1d(b, a), np.setdiff1d(a, b))
        want = ops.group_state(np.sort(b))
        assert np.array_equal(ops.point_to_state(state), ops.point_to_state(want))
        if isinstance(ops, IdkOps):
            assert np.array_equal(state[0], want[0]) and state[1] == want[1]
        else:
            assert np.array_equal(state, want)

    @pytest.mark.parametrize("kind", ["idk", "gdk"])
    @pytest.mark.parametrize("change", ["join", "leave", "both", "none"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**20), data=st.data())
    def test_matches_group_state(self, kind, change, seed, data):
        ops = self.backend(kind, seed)
        a = data.draw(st.sets(st.integers(0, 11), min_size=2, max_size=11))
        joined = left = set()
        if change in ("join", "both"):
            joined = data.draw(st.sets(st.sampled_from(sorted(set(range(12)) - a)), min_size=1))
        if change in ("leave", "both"):
            left = data.draw(st.sets(st.sampled_from(sorted(a)), min_size=1, max_size=len(a) - 1))
        # the state as kpskc first builds it, [p, q], need not be sorted
        order = data.draw(st.permutations(sorted(a)))
        self.assert_regroups(ops, order, sorted((a | joined) - left))

    @pytest.mark.parametrize("kind", ["idk", "gdk"])
    def test_uncovered_row_joins_and_leaves(self, kind):
        ops = self.backend(kind, 3)
        for a, b in (([4, 0], [0, 11]), ([0, 11], [0, 3]), ([0, 11], [0, 3, 11]), ([11, 2], [11, 2]),
                     ([5, 11], [5])):
            self.assert_regroups(ops, a, b)


class TestGram:
    """One k x k matrix K(P_a, P_b) over groups of rows."""

    def test_idk_gram_is_the_exact_fraction(self, small_model):
        # duplicates, within a group and across rows, and a row no cell covers
        X = np.vstack([rng_data(67, n=9), rng_data(67, n=2), [[1e6, -1e6]]])
        ops = IdkOps.fit(small_model, X)
        assert ops.onehot[11].nnz == 0
        groups = [np.arange(4), np.array([0, 0, 9]), np.arange(4, 11), np.array([11]),
                  np.array([2, 11, 10])]
        G = ops.gram(groups)
        assert np.array_equal(G, oracle_gram(small_model, X, groups))
        assert np.array_equal(G, G.T) and np.all(G[3] == 0.0)
        for i, a in enumerate(groups):
            assert ops.set_similarity(a, a) == G[i, i]
            for j, b in enumerate(groups):
                assert ops.set_similarity(a, b) == G[i, j]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**20), psi=st.integers(2, 8), t=st.sampled_from([3, 7, 24]))
    def test_idk_gram_property(self, seed, psi, t):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(12, 2))
        model = fit_isolation_model(X, psi=psi, t=t, seed=seed)
        groups = [rng.integers(0, 12, size=rng.integers(1, 9)) for _ in range(3)]
        assert np.array_equal(IdkOps.fit(model, X).gram(groups), oracle_gram(model, X, groups))

    def test_gdk_gram_matches_double_sums(self):
        X = rng_data(71, n=14)
        ops = GdkOps(X, bandwidth=0.4)
        groups = [np.arange(5), np.arange(5, 9), np.array([9, 9, 13]), np.arange(14)]
        G = ops.gram(groups)
        assert np.array_equal(G, G.T)
        for i, a in enumerate(groups):
            for j, b in enumerate(groups):
                assert G[i, j] == pytest.approx(oracle_gdk(X[a], X[b], 0.4), abs=1e-12)


class TestGdk:
    def test_identical_singletons_score_one(self):
        ops = GdkOps(np.array([[1.0, 2.0]]), bandwidth=0.7)
        assert ops.set_similarity([0], [0]) == 1.0

    def test_symmetry(self):
        ops, a, b = gdk_sets(rng_data(3, n=6), rng_data(5, n=4), 1.3)
        assert ops.set_similarity(a, b) == pytest.approx(ops.set_similarity(b, a))

    def test_matches_hand_rolled_double_sum(self):
        X, Y = rng_data(7, n=5), rng_data(11, n=5)
        ops, a, b = gdk_sets(X, Y, 0.9)
        assert ops.set_similarity(a, b) == pytest.approx(oracle_gdk(X, Y, 0.9), abs=1e-12)

    def test_nonpositive_bandwidth_rejected(self):
        # nan and inf too: at inf every kernel value is 1, at nan every one is nan
        X = rng_data(1, n=3)
        for bandwidth in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                GdkOps(X, bandwidth)

    def test_empty_set_rejected(self):
        ops = GdkOps(rng_data(1, n=3), bandwidth=1.0)
        with pytest.raises(ValueError, match="empty"):
            ops.set_similarity(np.arange(3), np.empty(0, dtype=np.int64))

    def test_overflowing_scale_rejected(self):
        with pytest.raises(ValueError, match="rescale"):
            GdkOps(rng_data(1, n=5) * 1e300, bandwidth=1.0)

    @pytest.mark.parametrize("bandwidth", [1e-3, 0.37, 25.0, 1e150])
    def test_rbf_is_the_two_step_formula_bit_for_bit(self, monkeypatch, bandwidth):
        # exp(-k / (2 h^2)) for zero distances (duplicates: the sign of zero), quotients
        # that underflow (subnormal spacing, wide bandwidths) and kernels that do (narrow ones)
        X = np.vstack([rng_data(17, n=40), rng_data(17, n=3), [[0.0, 0.0], [1e-160, 0.0], [3e-162, 0.0], [1e3, 1e3]]])
        k = cdist(X, X, "sqeuclidean")
        exponent = np.divide(np.negative(k), 2.0 * bandwidth**2)
        ops = GdkOps(X, bandwidth)
        assert ops._rbf(X, X).tobytes() == np.exp(exponent).tobytes()
        assert np.signbit(exponent[k == 0]).all() and ((exponent[k > 0] == 0).any() or (np.exp(exponent) == 0).any())
        monkeypatch.setattr(np, "exp", lambda k, out: k)  # the exponent itself, signed zeros included
        assert ops._rbf(X, X).tobytes() == exponent.tobytes()

    def test_median_heuristic_positive_and_deterministic(self):
        X = rng_data(13, n=200)
        assert median_heuristic_bandwidth(X) == median_heuristic_bandwidth(X)
        assert median_heuristic_bandwidth(X) > 0

    @pytest.mark.parametrize("group", [10, 100])
    def test_gdk_ops_blocked_queries_match_oracle(self, monkeypatch, group):
        # 64 kernel values per block: 6 rows per block against a group of
        # 10, and a group of 100 larger than a whole block
        monkeypatch.setattr(ikernel, "BLOCK", 64)
        X = rng_data(19, n=120)
        ops = GdkOps(X, bandwidth=0.5)
        rows = np.arange(group)
        p2s = ops.point_to_state(ops.group_state(rows))
        for i in (0, 7, 63, 119):
            assert p2s[i] == pytest.approx(oracle_gdk(X[i][None, :], X[rows], 0.5), abs=1e-12)
        other = np.arange(group, 120)
        assert ops.set_similarity(rows, other) == pytest.approx(
            oracle_gdk(X[rows], X[other], 0.5), abs=1e-12)

    def test_row_means_independent_of_workers_and_block(self, monkeypatch, pool_spy):
        # repeated points give equal rows and zero distances; a strided group
        # gathers rows far apart; a block of 1 value holds one row per task
        rng = np.random.default_rng(23)
        X = np.vstack([rng.normal(size=(90, 2)), np.repeat(rng.normal(size=(5, 2)), 6, axis=0)])
        h = 0.6
        ops = GdkOps(X, bandwidth=h)
        groups = {"three": np.array([4, 95, 96]), "strided": np.arange(1, len(X), 7),
                  "all": np.arange(len(X))}
        for name, rows in groups.items():
            expected = unblocked_row_means(X, X[rows], h)
            expected_set = float(unblocked_row_means(X[rows], X[rows], h).mean())
            for workers in (1, 2):
                for block in (1, 64, ikernel.BLOCK):
                    monkeypatch.setattr(ikernel, "WORKERS", workers)
                    monkeypatch.setattr(ikernel, "BLOCK", block)
                    got = ops.point_to_state(ops.group_state(rows))
                    assert np.array_equal(got, expected), (name, workers, block)
                    assert ops.set_similarity(rows, rows) == expected_set, (name, workers, block)
        assert pool_spy and set(pool_spy) == {2}

    def test_single_block_starts_no_pool(self, monkeypatch, pool_spy):
        ops = GdkOps(rng_data(29, n=120), bandwidth=0.5)
        monkeypatch.setattr(ikernel, "WORKERS", 2)
        ops.point_to_state(ops.group_state(np.arange(120)))  # 14,400 values, one block
        assert pool_spy == []
        monkeypatch.setattr(ikernel, "BLOCK", 50 * 120)
        ops.point_to_state(ops.group_state(np.arange(120)))  # three blocks
        assert pool_spy == [2]

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        # a lost or misplaced write to the shared output shows as a
        # difference from the unblocked means; one row per task, 8 threads
        X = rng_data(31, n=150)
        ops = GdkOps(X, bandwidth=0.4)
        expected = unblocked_row_means(X, X, 0.4)
        monkeypatch.setattr(ikernel, "BLOCK", 1)
        monkeypatch.setattr(ikernel, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(ops.point_to_state(ops.group_state(np.arange(150))), expected)
        finally:
            sys.setswitchinterval(interval)


class TestNeighbors:
    """neighbors(eps) is the graph pairwise() >= eps, as a boolean CSR matrix,
    whatever the workers and blocks that build it."""

    @staticmethod
    def backend(kind):
        # duplicate rows and, for the isolation kernel, one point no cell
        # covers: its own kernel is 0, so it is not its own neighbour
        X = np.vstack([rng_data(37, n=40), rng_data(37, n=4), [[1e6, -1e6]]])
        if kind == "gdk":
            ops = GdkOps(X, bandwidth=0.3)  # a kernel value itself is a boundary
            return ops, (0.05, 0.5, 0.99, float(ops.pairwise()[3, 7]))
        ops = IdkOps.fit(fit_isolation_model(X[:44], psi=6, t=200, seed=4), X)
        assert ops.onehot[44].nnz == 0
        # 0.3: pairs sharing exactly 60 of t = 200 cells, on the boundary, kept;
        # the next float up leaves them out
        assert (ops.pairwise() == 0.3).any()
        return ops, (0.005, 0.3, np.nextafter(0.3, 1.0), 1.0)

    @pytest.mark.parametrize("kind", ["idk", "gdk"])
    def test_graph_is_the_thresholded_pairwise_matrix(self, monkeypatch, pool_spy, kind):
        ops, grid = self.backend(kind)
        K = ops.pairwise()
        for workers in (1, 2, 8):
            for block in (1, 64, ikernel.BLOCK):
                monkeypatch.setattr(ikernel, "WORKERS", workers)
                monkeypatch.setattr(ikernel, "BLOCK", block)
                for eps in grid:
                    graph = ops.neighbors(eps)
                    assert graph.dtype == bool and graph.shape == K.shape
                    assert graph.data.all(), (workers, block, eps)  # no stored False
                    assert np.array_equal(graph.toarray(), K >= eps), (workers, block, eps)
        assert set(pool_spy) == {2, 8}
