"""Isolation-kernel feature maps and distributional similarities.

The point kernel is data dependent: ``t`` random partitionings are drawn
from the fitting dataset, each built from ``psi`` sample points that become
hypersphere centers. A hypersphere's radius is the distance from its center
to the nearest other center in the same sample. Two points are similar in
one partitioning when they fall into the same hypersphere cell; the kernel
value is the fraction of partitionings where that happens.

Because the feature map is finite (dimension ``t * psi``), the similarity
between two point sets equals the inner product of their mean feature maps,
which is what makes set-to-set and point-to-set comparisons cheap.

Everything here is deterministic given (data, psi, t, seed) and immutable
after construction, so models and feature matrices can be shared freely,
across threads too: ``IsolationModel.transform`` (its GEMM screen of kd-tree
leaves, and the rescans), ``GdkOps`` and both backends' ``neighbors`` run on
``WORKERS`` threads.
"""

from __future__ import annotations

import math
import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

MODEL_FORMAT = "kernelhc-isolation-model"
MODEL_VERSION = 1


def _check_matrix(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Validate a float64 point matrix whose squared distances stay finite.

    Two points with entries of magnitude at most L lie within squared
    distance d * (2L)**2, so L is capped where that reaches the largest
    float64. Beyond it ``cdist`` returns inf and every radius test passes.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {data.shape}")
    peak = np.abs(data).max(initial=0.0)
    if not np.isfinite(peak):
        raise ValueError(f"{name} contains non-finite entries")
    limit = math.sqrt(np.finfo(np.float64).max / (4 * max(data.shape[1], 1)))
    if peak > limit:
        raise ValueError(
            f"{name} has entries up to {peak:.3g}; squared distances overflow "
            f"float64 beyond {limit:.3g} at d={data.shape[1]}; rescale the data"
        )
    return data


# Most float64 values one pooled task holds at once (2 MiB), so pooled buffers scale as
# WORKERS x BLOCK: the transform's scores and gathered weights, and a row block of
# kernel values (_row_blocks); IdkOps.fit compacts the transform's table into Phi's
# column indices in place BLOCK cells at a time (_pack_cells). Wall
# ms per point_to_state of 2,129 2-d points against all of them, median of 7x10 calls,
# ranges over 3 runs:
#   block      2^14   2^16   2^17   2^18   2^19   2^20
#   1 worker   27-32  25-28         29-30         31-35
#   2 workers  68-84  24-30  22-23  20-25  22-24  30-31
BLOCK = 1 << 18
# Most rows per leaf of the transform (_leaves). Wall ms per transform of the seed-1
# perfbench inputs (psi 48, t 200), median of 15 alternating calls in one process,
# BLAS on one thread (as perfbench pins it), ranges over 2 runs on 2 vCPUs; the
# last column is the transform these leaves and the byte mask replaced (median splits):
#   leaf               128        256        512     median tree, 256
#   analog-3k   2 w    41-45      39-43      44-49      48-56
#   analog-24k  2 w    220-262    175-184    189-203    188-217
#   blobs-64d   2 w    139-149    125-136    112-112    140-148
#   analog-3k   1 w    42-46      40-44      50-53      61-65
#   analog-24k  1 w    271-276    243-246    261-279    333-335
#   blobs-64d   1 w    159-210    145-196    140-177    206-242
SCAN_LEAF = 256
# Threads for the GEMM screen, its rescans, the Gaussian row means and the
# neighbour graphs (cdist, BLAS, NumPy's ufuncs and reductions and scipy's sparse
# products release the GIL): every CPU this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_EPS = np.finfo(np.float64).eps  # 2u, twice the unit roundoff u
_ETA = np.finfo(np.float64).smallest_subnormal


def _scan_cells(X: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Exact cells of the rows of X in one partitioning (-1 where uncovered).

    ``cdist`` to every center, the nearest one (lowest index on ties), then
    its radius test. Each distance depends only on its own pair of rows, so
    a subset of rows gets the same cells as it does inside the full X.
    """
    dist = cdist(X, centers)
    nearest = dist.argmin(axis=1)
    covered = dist[np.arange(len(X)), nearest] <= radii[nearest]
    return np.where(covered, nearest, -1)


def _deal(work, items, make=None) -> list:
    """[work(items[f::tasks], make()) for each task f], items dealt round-robin to
    tasks = min(WORKERS, len(items)), one thread each; inline, with no pool, when
    there is one task. Every task's buffers (make(), or None without make) are made
    here, on the calling thread: a worker's freed ones would stay in its malloc arena."""
    tasks = min(WORKERS, len(items))
    shares = [(items[f::tasks], make and make()) for f in range(tasks)]
    if tasks < 2:
        return [work(*share) for share in shares]
    with ThreadPoolExecutor(tasks) as pool:
        return list(pool.map(lambda share: work(*share), shares))


def _leaves(X: np.ndarray) -> list:
    """Row indices of the transform's leaves, in tree order: those of a
    sliding-midpoint kd-tree (Maneewongvatana & Mount, 1999), whose cuts tend to
    fall between clusters, cut where more than SCAN_LEAF rows coincide, with each
    run of leaves under h = SCAN_LEAF // 2 rows merged into the next while the
    merge holds at most SCAN_LEAF: the small leaves a heavy tail peels off share
    a leaf. Any two neighbours then hold h rows or more, so n rows make at most
    2 floor(n / h) + 1 leaves."""
    stack, cut = [cKDTree(X, leafsize=SCAN_LEAF, balanced_tree=False).tree], []
    while stack:  # depth first, lesser side first; a skewed tree can outgrow the recursion limit
        node = stack.pop()
        if node.split_dim == -1:
            cut += [node.indices[i:i + SCAN_LEAF] for i in range(0, len(node.indices), SCAN_LEAF)]
        else:
            stack += [node.greater, node.lesser]
    leaves = cut[:1]
    for rows in cut[1:]:
        if len(leaves[-1]) < SCAN_LEAF // 2 and len(leaves[-1]) + len(rows) <= SCAN_LEAF:
            leaves[-1] = np.concatenate([leaves[-1], rows])
        else:
            leaves.append(rows)
    return leaves


def _kept_groups(keep: np.ndarray) -> tuple:
    """Each leaf's partitionings in one or two groups, for the 0/1 masks keep
    (m, t, psi), int32, of the centers that m leaves score. Returns (parts,
    cut, counts, keep), each indexed by leaf first. A leaf's partitionings go
    in ascending kept count (counts, stable), cut after the first cut[l], where
    the padding to each group's largest count is least; parts[l] lists the
    first group's partitionings in ascending order, then the second's. keep
    is overwritten with each partitioning's kept centers in ascending order,
    then its unkept ones: sorted keys (1 - keep) 2^s + c, less 2^s."""
    m, t, psi = keep.shape
    count = keep.sum(axis=2)
    ranked = np.argsort(count, axis=1, kind="stable")
    count, cuts = np.take_along_axis(count, ranked, axis=1), np.arange(t, 0, -1)  # one group on ties
    cut = cuts[(cuts * count[:, cuts - 1] + (t - cuts) * count[:, -1:]).argmin(axis=1)]
    rank = np.empty_like(ranked)
    np.put_along_axis(rank, ranked, np.arange(t)[None], axis=1)
    s = psi.bit_length()
    np.left_shift(np.bitwise_xor(keep, 1, out=keep), s, out=keep)
    keep |= np.arange(psi, dtype=np.int32)
    keep.sort(axis=2)
    keep &= (1 << s) - 1
    return np.argsort(rank >= cut[:, None], axis=1, kind="stable"), cut, count, keep


# Why a leaf keeps every center cdist can pick for one of its rows. Write |a - b|
# for an exact distance and u = _EPS / 2. With the error of cdist's squared
# distance from the screen's argument below, plus u for the root, to first
# order |cdist(a, b) - |a - b|| <= e |a - b| + z for e = (d + 4) u / 2 and
# z = sqrt(d _ETA / 2); and cdist(a, b) = cdist(b, a), as x - c = -(c - x).
# That argument holds for any order of the d - 1 sums, with or without FMA, so
# the bound holds too for the root of an einsum of squared differences, which
# is how the transform computes R: no inflation is needed. Let p be the
# midpoint of a leaf's bounding box, R the largest such distance from p to its rows x
# (the root of the largest square, as sqrt is monotone), c* any center of a
# partitioning and m = cdist(p, c*). If cdist picks
# c for x, cdist(x, c) <= cdist(x, c*) and, up to those errors, |p - c| <=
# |p - x| + |x - c| <= 2R + m: cdist(p, c) <= (1 + 4e)(m + 2R) + 6z. So c is
# kept, and a center not kept is farther than c* from every row: the padding
# never holds the minimum. p's screened squares E (below, x = p) are within
# tol_p / 2 of cdist's; c* has the least, E*, so m <= (1 + u) sqrt(E* + tol_p / 2),
# and E(c) < (cdist(p, c) / (1 - u))^2 + tol_p / 2. A leaf keeps every c with
# E(c) <= ((sqrt(E* + tol_p) + 2R)(1 + 8e) + 8 sqrt(d _ETA))^2 + tol_p: 8e
# against 4e and 8 sqrt(d _ETA) against 6z cover the higher orders and, as
# 4e >= 10u, the seven roundings of the bound. A row's scored centers hold its
# cdist argmin, so the best of them that _screen_cells certifies is the argmin
# over all psi centers: its tolerance takes M over all centers, so it holds for
# any subset of them.

# Why a screened cell equals the _scan_cells one bit for bit. Write D for
# the exact ||x - c||^2, M = max ||c||^2 over all centers, u = _EPS / 2 the
# unit roundoff, and bound every rounding to first order; any summation
# order, with or without FMA, obeys these bounds.
#  - cdist rounds x_k - c_k, its square and d - 1 sums:
#    |D_cdist - D| <= (d + 2) u D <= (d + 2) u * 2 (||x||^2 + ||c||^2).
#  - The screen rounds ||x||^2 and ||c||^2 (d u each), the length-(d + 1)
#    GEMM row [-2c, ||c||^2] . [x, 1] ((d + 1) u times the sum of the
#    absolute products, which is at most ||x||^2 + 2 ||c||^2) and the final
#    ||x||^2 + s (u D): |E - D| <= (2d + 3) u ||x||^2 + (3d + 4) u ||c||^2.
#  Together |E - D_cdist| < 4 (d + 2) u (||x||^2 + 3M) = tol / 2 for
#    tol = 4 (d + 2) _EPS (||x||^2 + 3M).
#  - Nearest center: the screen counts the scores at most fl(b + 2 tol), b
#    the best one. |b| <= ||x||^2 + 2M, so fl(b + 2 tol) falls short of
#    b + 2 tol by less than u (||x||^2 + 3M) + 3 u tol < tol / 10. If b alone
#    is counted, every other score exceeds it by more than 1.9 tol, and every
#    other D_cdist exceeds the best one by more than 0.9 tol >= 14 u
#    (||x||^2 + 3M) > 7 u D_cdist(best), enough that their correctly rounded
#    square roots differ. So cdist's argmin is the same center, with no tie.
#  - Radius: r is a float and r2 = fl(r * r) is within u r^2 of r^2. If
#    E < r2 - tol - 4 _EPS r2, then D_cdist < r^2 and sqrt rounds to at most
#    r; if E > r2 + tol + 4 _EPS r2, then D_cdist > (r (1 + u))^2 and sqrt
#    rounds above r. The tol / 2 left over covers the rounding of E - r2,
#    which is at most u (2 ||x||^2 + 6M) because r^2 <= 4M.
# Below the normal range a product may instead err by _ETA / 2 absolutely.
# E takes 3d products and D_cdist d more, so tol also carries
# 4 (d + 2) _ETA. Scores are finite (_check_matrix); a NaN is never counted.
def _screen_cells(scores: np.ndarray, sq_x: np.ndarray, tol: np.ndarray, idx: np.ndarray,
                  r2: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Cells (g, b) of b rows in g partitionings from their scores (k, g, b)
    against the centers idx (k, g), of squared radii r2 (g, psi); -2 where
    the screen cannot certify the cell. Writes a one-byte mask of the scores
    into the first k g b bytes of mask; the scores are left as they are."""
    k, g, b = scores.shape
    est = scores.min(axis=0)  # the best score, then ||x||^2 + best, in place
    low = np.less_equal(scores, est + 2 * tol, out=mask[:scores.size].view(bool).reshape(k, g, b))
    # per pair, whether only the best score lies within 2 tol of it, and the
    # summed positions of the scores that do: the best's when it is alone. Both
    # sum bytes in the narrowest unsigned type that holds k (a count of at most
    # k, a lone position below k); a position sum that wraps is never alone
    low, acc = low.view(np.uint8), np.min_scalar_type(k)
    alone = np.add.reduce(low, axis=0, dtype=acc) == 1
    pos = np.einsum("k,kgb->gb", np.arange(k, dtype=acc), low)
    # the center at that position and its squared radius, by flat index into
    # the (g, k) tables: 2-d fancy indexes cost about 2.5 times as much
    at = np.minimum(pos, k - 1, out=pos) + np.arange(0, g * k, k)[:, None]
    cell, rad2 = np.take(idx.T, at), np.take(np.take_along_axis(r2, idx.T, axis=1), at)
    est += sq_x
    np.copyto(cell, -1, where=est > rad2)
    est -= rad2
    np.abs(est, out=est)
    rad2 *= 4 * _EPS
    rad2 += tol
    np.copyto(cell, -2, where=~(alone & (est > rad2)))
    return cell


@dataclass(frozen=True)
class IsolationModel:
    """Fitted hypersphere partitionings.

    centers has shape (t, psi, d); radii has shape (t, psi). Every center is
    a row of the fitting dataset and its radius is the distance to its
    nearest sibling center within the same partitioning.
    """

    centers: np.ndarray
    radii: np.ndarray
    psi: int
    t: int
    seed: int

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map points to cell indices, shape (n, t), int32.

        Entry (i, j) is the index of the hypersphere of partitioning j that
        covers point i, or -1 when the point's nearest center is farther
        away than that center's radius. Each point is tested only against
        its nearest center per partitioning, so cells never overlap; ties go
        to the lowest center index.

        A leaf (at most SCAN_LEAF rows of a sliding-midpoint kd-tree, small
        leaves merged: _leaves) scores only the centers that can be nearest to
        one of its rows, in two groups of partitionings padded to their largest
        kept count. It gathers those centers' rows of the weight table, all psi
        of them in a partitioning that keeps every center, into a GEMM that
        certifies the pairs beyond its rounding error (a byte mask of the
        scores near the best) and leaves the rest to a rescan of all psi
        centers. The cells are the full ``cdist`` scan's, bit for bit
        (comments above _screen_cells). Leaves and rescans run on up to WORKERS
        threads (_deal), in tasks that write only their own cells; a cell
        depends on its row alone, so none of WORKERS, SCAN_LEAF, BLOCK or the
        leaves changes it. A task selects the centers for a batch of its leaves
        at once, in whole-batch array passes (one GEMM for every leaf's
        midpoint, one sort of every kept mask), so that only the gathers, the
        scoring GEMMs, _screen_cells and the cell writes cost NumPy calls per
        leaf: such calls hold the GIL, and on 2-d data, where a leaf's scoring
        is cheap, they kept a second worker idle.
        """
        X = _check_matrix(X, "X")
        n, d = X.shape
        if d != self.centers.shape[2]:
            raise ValueError(f"expected {self.centers.shape[2]} features, got {d}")
        t, psi = self.t, self.psi
        out = np.empty((n, t), dtype=np.int32)
        if not n:
            return out
        leaves = _leaves(X)
        flat = self.centers.reshape(-1, d)
        grow, floor = 1 + 2 * (d + 4) * _EPS, 8 * math.sqrt(d * _ETA)  # 1 + 8e, >= 6z

        # partitionings per call of k centers each: the call's gathered table rows and
        # its scores of all of a leaf's rows fit in the task's block, so a weight is read once
        def width(k):
            return max(1, BLOCK // (k * (SCAN_LEAF + d + 1)))
        # scores ||c||^2 - 2 x.c from one GEMM of [-2c, ||c||^2] and [x, 1]: row j psi + c
        # of the table holds center c of partitioning j
        table = np.empty((t * psi, d + 1))
        np.multiply(flat, -2, out=table[:, :d])  # in place: a (t psi, d) temporary raised blobs-64d's peak RSS
        table[:, d] = np.einsum("ij,ij->i", flat, flat)
        max_sq_c, r2 = table[:, d].max(), self.radii * self.radii

        # leaves per batch: a batch's rows with their differences from p, and later its
        # p-to-center squares, each fit in the task's block
        batch = max(1, BLOCK // (2 * (t * psi + SCAN_LEAF * d)))

        def scan(mine, bufs):  # a task's leaves, a batch at a time
            buf, mask, rows1, keep, cells = bufs
            for group in (mine[i:i + batch] for i in range(0, len(mine), batch)):
                m, start = len(group), np.cumsum([0] + [len(rows) for rows in group])
                nb = start[-1]
                # per leaf the midpoint p of its box, as [p, 1], and its reach 2R, R the
                # largest distance from p to a row (comments above _screen_cells)
                box = np.take(X, np.concatenate(group), axis=0, out=buf[:nb * d].reshape(nb, d))
                ps = np.ones((m, d + 1))
                np.add(np.minimum.reduceat(box, start[:-1]), np.maximum.reduceat(box, start[:-1]), out=ps[:, :d])
                ps[:, :d] /= 2
                diff = np.take(ps[:, :d], np.repeat(np.arange(m), np.diff(start)), axis=0,
                               out=buf[nb * d:2 * nb * d].reshape(nb, d))
                np.subtract(box, diff, out=diff)
                reach = 2 * np.sqrt(np.maximum.reduceat(np.einsum("ij,ij->i", diff, diff), start[:-1]))
                sq_x, sq_p = np.einsum("ij,ij->i", box, box), np.einsum("ij,ij->i", ps[:, :d], ps[:, :d])
                tol, tol_p = (4 * (d + 2) * (_EPS * (sq + 3 * max_sq_c) + _ETA) for sq in (sq_x, sq_p))
                # p's screened squared distances stand in for cdist(p, c)
                dp = np.matmul(ps, table.T, out=buf[:m * t * psi].reshape(m, -1)).reshape(m, t, psi)
                dp += sq_p[:, None, None]
                bound = (np.sqrt(dp.min(axis=2) + tol_p[:, None]) + reach[:, None]) * grow + floor
                bound *= bound
                bound += tol_p[:, None]
                parts, cut, counts, order = _kept_groups(np.less_equal(dp, bound[:, :, None], out=keep[:m]))
                for rows, lo, hi, part, c, count, idx in zip(group, start, start[1:], parts, cut.tolist(),
                                                            counts.tolist(), order):
                    xs = rows1[:len(rows)]
                    xs[:, :d] = X[rows]
                    for a, z, k in ((0, c, count[c - 1]), (c, t, count[-1])):
                        g = width(k)
                        for pp in (part[i:min(i + g, z)] for i in range(a, z, g)):
                            ip = idx[pp, :k].T
                            sub = np.take(table, (pp * psi + ip).ravel(), axis=0,
                                          out=buf[:ip.size * (d + 1)].reshape(-1, d + 1), mode="clip")
                            vals = buf[sub.size:][:len(sub) * len(rows)].reshape(len(sub), -1)
                            scores = np.matmul(sub, xs.T, out=vals).reshape(k, len(pp), -1)
                            cells[:len(rows), pp] = _screen_cells(scores, sq_x[lo:hi], tol[lo:hi], ip, r2[pp],
                                                                  mask).T
                    out[rows] = cells[:len(rows)]
        # a call of one partitioning, and a batch of one leaf, fit at least; a call's
        # scores fit in size floats, so their mask in size bytes
        size = max(BLOCK, psi * (SCAN_LEAF + d + 1), 2 * (t * psi + SCAN_LEAF * d))
        _deal(scan, leaves, lambda: (np.empty(size), np.empty(size, np.uint8), np.ones((SCAN_LEAF, d + 1)),
                                     np.empty((batch, t, psi), np.int32), np.empty((SCAN_LEAF, t), np.int32)))

        def rescan(mine, _):  # the pairs the screen marked -2, per partitioning
            for i in mine:
                rows = np.flatnonzero(out[:, i] == -2)
                out[rows, i] = _scan_cells(X[rows], self.centers[i], self.radii[i])
        _deal(rescan, np.flatnonzero((out == -2).any(axis=0)))
        return out

    def save(self, path) -> None:
        """Write the model to a versioned .npz file."""
        np.savez_compressed(
            path,
            format=np.array(MODEL_FORMAT),
            version=np.array(MODEL_VERSION),
            centers=self.centers,
            radii=self.radii,
            psi=np.array(self.psi),
            t=np.array(self.t),
            seed=np.array(self.seed),
        )

    @classmethod
    def load(cls, path) -> "IsolationModel":
        with np.load(path, allow_pickle=False) as f:
            try:
                if str(f["format"]) != MODEL_FORMAT:
                    raise ValueError(f"not an isolation model file: {path}")
                if int(f["version"]) != MODEL_VERSION:
                    raise ValueError(f"unsupported model version {int(f['version'])}")
                centers, radii, psi, t = f["centers"], f["radii"], int(f["psi"]), int(f["t"])
                seed = int(f["seed"])
            except KeyError as e:
                raise ValueError(f"{path}: malformed model file: {e}") from e
        if psi < 2 or t < 1:
            raise ValueError(f"{path}: needs psi >= 2 and t >= 1, got psi={psi}, t={t}")
        if centers.ndim != 3 or centers.shape[:2] != (t, psi) or radii.shape != (t, psi):
            raise ValueError(f"{path}: centers {centers.shape} and radii {radii.shape} "
                             f"do not fit t={t}, psi={psi}")
        _check_matrix(centers.reshape(t * psi, -1), "centers")
        if not (np.isfinite(radii) & (radii >= 0)).all():
            raise ValueError(f"{path}: radii must be finite and >= 0")
        return cls(centers=centers, radii=radii, psi=psi, t=t, seed=seed)


def fit_isolation_model(data: np.ndarray, psi: int, t: int, seed: int) -> IsolationModel:
    """Draw t partitionings of psi hypersphere cells each from ``data``.

    Sampling is without replacement within each partitioning. Requires
    n >= psi >= 2 (radii need at least one sibling center) and t >= 1.
    """
    data = _check_matrix(data)
    n = data.shape[0]
    if psi < 2:
        raise ValueError(f"psi must be >= 2, got {psi}")
    if psi > n:
        raise ValueError(f"psi ({psi}) cannot exceed the number of points ({n})")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")

    rng = np.random.default_rng(seed)
    centers = np.empty((t, psi, data.shape[1]), dtype=np.float64)
    radii = np.empty((t, psi), dtype=np.float64)
    for i in range(t):
        idx = rng.choice(n, size=psi, replace=False)
        c = data[idx]
        dm = cdist(c, c)
        np.fill_diagonal(dm, np.inf)
        centers[i] = c
        radii[i] = dm.min(axis=1)
    return IsolationModel(centers=centers, radii=radii, psi=psi, t=t, seed=seed)


MEDIAN_POINTS = 1000  # most points median_heuristic_bandwidth compares


def median_heuristic_bandwidth(X: np.ndarray, seed: int = 0) -> float:
    """Median pairwise distance, on a seeded subsample of MEDIAN_POINTS for large inputs."""
    X = _check_matrix(X, "X")
    if X.shape[0] > MEDIAN_POINTS:
        rng = np.random.default_rng(seed)
        X = X[rng.choice(X.shape[0], size=MEDIAN_POINTS, replace=False)]
    if X.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(X)))
    return med if med > 0 else 1.0


def _row_blocks(rows: int, width: int, block, buf=None) -> list:
    """[block(lo, hi, b) for each row block [lo, hi) of at most BLOCK values,
    width per row], in block order, the blocks dealt to tasks (_deal); b is the
    task's buf(rows per block), or None without buf."""
    step = max(1, BLOCK // max(width, 1))
    starts = range(0, rows, step)
    done = _deal(lambda mine, b: [block(lo, min(lo + step, rows), b) for lo in mine], starts,
                 buf and (lambda: buf(min(step, rows))))
    return [done[i % len(done)][i // len(done)] for i in range(len(starts))]


def _phi_dtype(n: int, t: int) -> type:
    """Entry type of IdkOps.onehot for n rows and t partitionings: a product of it
    sums at most t m <= t n ones per row for a group of m rows. scipy upcasts
    narrower entries to the other operand's type, copying onehot on every call."""
    return np.int32 if n * t < 2**31 else np.int64


# Each entry type's live read-only run of ones, which IdkOps.fit views as onehot's
# entries; only the Phis that view it keep it alive. Fits racing on threads may each
# make a run, which costs memory, not correctness
_ONES = weakref.WeakValueDictionary()


def _pack_cells(cells: np.ndarray, psi: int) -> np.ndarray:
    """Turn the transform's (n, t) table into IdkOps.onehot's column indices in
    place, and return its indptr: the first indptr[-1] flat cells become each
    row's covered cells j psi + c, in ascending partitioning j. In row blocks of
    BLOCK cells, each block's covered cells move forward to just after the
    previous block's, never past where they were read: no unread cell is
    overwritten, and no (n, t) mask or second index array is made."""
    n, t = cells.shape
    indptr = np.zeros(n + 1, dtype=np.int64)
    flat, offset, step = cells.reshape(-1), np.arange(t, dtype=np.int32) * psi, max(1, BLOCK // t)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = cells[lo:hi]
        covered = block >= 0
        np.cumsum(covered.sum(axis=1), out=indptr[lo + 1:hi + 1])
        indptr[lo + 1:hi + 1] += indptr[lo]
        block += offset
        # compress on flat views beats the boolean mask's gather about 3x at n = 24,000,
        # t = 200, but indexes what it keeps with int64: a block keeps that index small
        flat[indptr[lo]:indptr[hi]] = np.compress(covered.ravel(), block.ravel())
    return indptr


# ---------------------------------------------------------------------------
# Kernel backends
#
# The clustering pipeline only ever needs six queries; both kernels expose
# them behind the same duck-typed surface so the ablation is a constructor
# swap. A "group state" is whatever the backend caches for one cluster: the
# integer cell counts and size for the isolation kernel, the member rows for
# the Gaussian one (whose feature space is infinite dimensional).
# ---------------------------------------------------------------------------

class IdkOps:
    """Isolation-kernel backend: the feature matrix Phi of a fixed dataset.

    Row i of Phi (n x t*psi, CSR) is point i's feature map: 1/sqrt(t) in
    column j*psi + c for every partitioning j whose cell c covers the point.
    ``onehot`` stores sqrt(t) * Phi, the 0/1 cell-incidence matrix, with int32
    entries (int64 from n t = 2^31 on: _phi_dtype), so every product of it is
    exact. A stored cell costs 4 bytes of int32 column index: the entries are a
    read-only view of one run of ones (_ONES) that every live Phi of the process
    shares, though scipy copies a view of less than half the run. A group
    is kept as its integer cell counts (``onehot``'s column sums over its
    rows) and its size m, so its kernel mean map is counts / (m sqrt(t)), and
    every similarity is an integer divided once by an integer: a point's
    shared cells over m t, two groups' count product over |a| |b| t (Ting et
    al., KDD 2020). These are exact, correctly rounded fractions while
    |a| |b| t < 2^53; a threshold such as ``eps_sim = 0.3`` at t = 200 then
    admits a pair sharing 60 cells, where summing 60 products
    (1/sqrt(200))**2 gives 0.29999999999999993.
    """

    def __init__(self, onehot: sparse.csr_matrix, t: int):
        self.onehot = onehot
        self.t = int(t)

    @classmethod
    def fit(cls, model: IsolationModel, X: np.ndarray) -> "IdkOps":
        """Feature matrix of the points X under a fitted model, built inside the
        transform's (n, t) table (_pack_cells), which is copied only when
        something else references it."""
        cells = model.transform(X)
        n, t = cells.shape
        indptr = _pack_cells(cells, model.psi)
        try:  # shrinks in place, with no copy, unless something else references the table
            cells.resize(indptr[-1])
        except ValueError:  # as a profiler's or tracer's hook does: copy the packed cells
            cells = cells.reshape(-1)[:indptr[-1]].copy()
        ones = _ONES.get(dtype := _phi_dtype(n, t))
        if ones is None or len(ones) < len(cells):  # none lives, or too short: a new run
            ones = _ONES[dtype] = np.ones(len(cells), dtype)
            ones.flags.writeable = False
        onehot = sparse.csr_matrix((ones[:len(cells)], cells, indptr), shape=(n, t * model.psi))
        return cls(onehot, t)

    @property
    def n(self) -> int:
        return self.onehot.shape[0]

    def take(self, rows: np.ndarray) -> "IdkOps":
        return IdkOps(self.onehot[np.asarray(rows)], self.t)

    def group_state(self, rows: np.ndarray) -> tuple:
        """The group's cell counts, per column of Phi, and its size m."""
        rows = np.asarray(rows)
        if len(rows) == 0:
            raise ValueError("cannot embed an empty point set")
        return np.bincount(self.onehot[rows].indices, minlength=self.onehot.shape[1]), len(rows)

    def regroup(self, state: tuple, rows_in: np.ndarray, rows_out: np.ndarray) -> tuple:
        """The group's state with rows_in joined and rows_out gone, from their cells
        alone, sliced from Phi's indptr (a CSR row index costs more than that)."""
        (counts, m), (indptr, indices) = state, (self.onehot.indptr, self.onehot.indices)
        m += len(rows_in) - len(rows_out)
        if m < 1:
            raise ValueError("cannot embed an empty point set")
        for rows, op in ((rows_in, np.add), (rows_out, np.subtract)):
            if len(rows):  # rows_out seldom: most growth steps of kpskc only add rows
                cells = np.concatenate([indices[indptr[r]:indptr[r + 1]] for r in rows])
                counts = op(counts, np.bincount(cells, minlength=self.onehot.shape[1]))
        return counts, m

    def point_to_state(self, state: tuple) -> np.ndarray:
        """Every point's similarity to one group: its shared cells / (m t), the
        count summed in onehot's own integer type (_phi_dtype)."""
        counts, m = state
        return (self.onehot @ counts.astype(self.onehot.dtype)) / (m * self.t)

    def gram(self, groups) -> np.ndarray:
        """K(P_a, P_b) for every pair of groups: count products / (|a| |b| t)."""
        counts, sizes = zip(*map(self.group_state, groups))
        C, m = np.array(counts, dtype=np.float64), np.array(sizes, dtype=np.float64)
        return (C @ C.T) / (np.outer(m, m) * self.t)

    def set_similarity(self, rows_a: np.ndarray, rows_b: np.ndarray) -> float:
        return float(self.gram([rows_a] if rows_b is rows_a else [rows_a, rows_b])[0, -1])

    def point_row(self, i: int) -> np.ndarray:
        """Phi Phi_i^T: point kernel between point i and every point."""
        own = np.zeros(self.onehot.shape[1], self.onehot.dtype)  # point i's cells, as a dense 0/1 vector
        own[self.onehot.indices[self.onehot.indptr[i]:self.onehot.indptr[i + 1]]] = 1
        return (self.onehot @ own) / self.t

    def neighbors(self, eps: float) -> sparse.csr_matrix:
        """The pairs whose point kernel (shared cells / t) is >= eps, as an
        (n, n) boolean CSR matrix with sorted rows: each row block (_row_blocks)
        of onehot Phi's sparse product with onehot^T, kept where its entry / t
        is >= eps. An entry is pairwise()'s shared-cell count divided by t, the
        same float, and a pair sharing no cell is never kept while eps > 0."""
        right = self.onehot.T.tocsr()

        def block(lo, hi, _):  # thresholded in place: the entries below eps become False, then go
            near = self.onehot[lo:hi] @ right
            near.data = near.data / self.t >= eps
            near.eliminate_zeros()
            near.sort_indices()
            return near
        return sparse.vstack(_row_blocks(self.n, self.n, block), format="csr")

    def pairwise(self) -> np.ndarray:
        """Phi Phi^T as a dense (n, n) point-kernel matrix; only tests read it,
        as an oracle for neighbors."""
        return (self.onehot @ self.onehot.T).toarray() / self.t


class GdkOps:
    """Gaussian-kernel backend; group similarities are exact double sums."""

    def __init__(self, X: np.ndarray, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.X = _check_matrix(X, "X")
        self.bandwidth = float(bandwidth)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def take(self, rows: np.ndarray) -> "GdkOps":
        return GdkOps(self.X[np.asarray(rows)], self.bandwidth)

    def _rbf(self, A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
        k = cdist(A, B, "sqeuclidean", out=out)  # exp(-k / (2 h^2)) in place, as k / -(2 h^2):
        np.divide(k, -(2.0 * self.bandwidth**2), out=k)  # rounding is sign-symmetric; a reciprocal would change bits
        return np.exp(k, out=k)

    def _row_means(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Mean kernel value of each row of A against all of B, in row blocks
        (_row_blocks). A row's mean reduces that row's own values whatever block
        holds it, so it depends on neither the blocks nor the threads."""
        out = np.empty(len(A))

        def block(lo, hi, buf):  # writes its own slice of out
            np.mean(self._rbf(A[lo:hi], B, out=buf[:hi - lo]), axis=1, out=out[lo:hi])
        _row_blocks(len(A), len(B), block, lambda rows: np.empty((rows, len(B))))
        return out

    def group_state(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            raise ValueError("cannot embed an empty point set")
        return rows

    def regroup(self, state: np.ndarray, rows_in: np.ndarray, rows_out: np.ndarray) -> np.ndarray:
        """The sorted member rows with rows_in joined and rows_out gone."""
        return self.group_state(np.union1d(np.setdiff1d(state, rows_out), rows_in))

    def point_to_state(self, state: np.ndarray) -> np.ndarray:
        return self._row_means(self.X, self.X[state])

    def set_similarity(self, rows_a: np.ndarray, rows_b: np.ndarray) -> float:
        return float(self._row_means(self.X[self.group_state(rows_a)],
                                     self.X[self.group_state(rows_b)]).mean())

    def gram(self, groups) -> np.ndarray:
        G = np.array([[self.set_similarity(a, b) if i <= j else 0.0 for j, b in enumerate(groups)]
                      for i, a in enumerate(groups)])  # the upper triangle, mirrored
        return np.triu(G) + np.triu(G, 1).T

    def point_row(self, i: int) -> np.ndarray:
        return self._rbf(self.X, self.X[i][None, :])[:, 0]

    def neighbors(self, eps: float) -> sparse.csr_matrix:
        """The pairs whose point kernel is >= eps, as an (n, n) boolean CSR
        matrix with sorted rows: each row block (_row_blocks) of kernel values,
        thresholded into a mask, both in buffers made on the calling thread.
        Each value is pairwise()'s, as cdist reads only its own pair of rows."""
        n = self.n

        def block(lo, hi, buf):
            vals, mask = buf
            near = np.greater_equal(self._rbf(self.X[lo:hi], self.X, out=vals[:hi - lo]), eps, out=mask[:hi - lo])
            return sparse.csr_matrix(near)
        return sparse.vstack(_row_blocks(n, n, block, lambda rows: (np.empty((rows, n)), np.empty((rows, n), bool))),
                             format="csr")

    def pairwise(self) -> np.ndarray:
        """The dense (n, n) point-kernel matrix; only tests read it, as an
        oracle for neighbors."""
        return self._rbf(self.X, self.X)
