"""Synthetic mixture generation and CSV ingestion.

The bundled "paper-analog" preset is a 2-D mixture of six clusters with
deliberately uneven shapes and densities: three isotropic Gaussians whose
variances span a 1:4:16 ratio, an elongated L-shaped cluster, and two
compact clusters underneath. The exact constants are versioned here so
every run and test sees the same dataset for a given seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if not np.isfinite(self.points).all():
            raise ValueError("dataset contains non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.points):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.points)} points"
                )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


# ---------------------------------------------------------------------------
# Mixture components
# ---------------------------------------------------------------------------

@dataclass
class Gaussian:
    """Isotropic or full-covariance Gaussian blob."""

    center: tuple
    std: float | None = None
    cov: list | None = None
    size: int = 100

    def sample(self, rng) -> np.ndarray:
        center = np.asarray(self.center, dtype=np.float64)
        if self.size < 1:
            raise ValueError("component size must be >= 1")
        if self.cov is not None:
            cov = np.asarray(self.cov, dtype=np.float64)
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as e:
                raise ValueError(f"covariance is not positive definite: {e}") from e
            z = rng.standard_normal((self.size, len(center)))
            return center + z @ chol.T
        if self.std is None or self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std}")
        return center + self.std * rng.standard_normal((self.size, len(center)))


@dataclass
class UniformBox:
    low: tuple
    high: tuple
    size: int = 100

    def sample(self, rng) -> np.ndarray:
        low = np.asarray(self.low, dtype=np.float64)
        high = np.asarray(self.high, dtype=np.float64)
        if self.size < 1:
            raise ValueError("component size must be >= 1")
        if np.any(high <= low):
            raise ValueError("box high must exceed low in every coordinate")
        return rng.uniform(low, high, size=(self.size, len(low)))


@dataclass
class LShape:
    """Uniform points on an L: a vertical and a horizontal arm sharing a
    corner at ``origin``. Arm lengths and thickness are in data units."""

    origin: tuple = (0.0, 0.0)
    vertical: float = 6.0
    horizontal: float = 6.0
    thickness: float = 1.0
    size: int = 100

    def sample(self, rng) -> np.ndarray:
        if self.size < 1:
            raise ValueError("component size must be >= 1")
        if min(self.vertical, self.horizontal, self.thickness) <= 0:
            raise ValueError("arm lengths and thickness must be positive")
        x0, y0 = self.origin
        area_v = self.thickness * self.vertical
        area_h = self.horizontal * self.thickness
        take_v = rng.random(self.size) < area_v / (area_v + area_h)
        pts = np.empty((self.size, 2))
        nv = int(take_v.sum())
        pts[take_v, 0] = rng.uniform(x0, x0 + self.thickness, nv)
        pts[take_v, 1] = rng.uniform(y0, y0 + self.vertical, nv)
        nh = self.size - nv
        pts[~take_v, 0] = rng.uniform(x0, x0 + self.horizontal, nh)
        pts[~take_v, 1] = rng.uniform(y0, y0 + self.thickness, nh)
        return pts


def generate_mixture(components: list, seed: int, name: str = "mixture") -> LabeledDataset:
    """Sample each component in order; labels are component indices."""
    if not components:
        raise ValueError("need at least one component")
    rng = np.random.default_rng(seed)
    parts, labels = [], []
    for i, comp in enumerate(components):
        pts = comp.sample(rng)
        parts.append(pts)
        labels.append(np.full(len(pts), i, dtype=np.int64))
    return LabeledDataset(
        points=np.vstack(parts), labels=np.concatenate(labels), name=name
    )


def components_from_spec(spec: list) -> list:
    """Component descriptors from a parsed JSON list of dicts."""
    kinds = {"gaussian": Gaussian, "box": UniformBox, "lshape": LShape}
    out = []
    for i, rec in enumerate(spec):
        rec = dict(rec)
        kind = rec.pop("type", None)
        if kind not in kinds:
            raise ValueError(f"component {i}: unknown type {kind!r}")
        try:
            out.append(kinds[kind](**rec))
        except TypeError as e:
            raise ValueError(f"component {i}: {e}") from e
    return out


# Versioned constants for the six-cluster analog dataset (n = 3000):
# an elongated L-shape, three Gaussians with a 1:4:16 variance ratio, and
# two compact clusters underneath. The geometry is deliberately snug: the
# bottom pair sits closer to each other than to the L's arm, and the
# Gaussian row's gaps shrink left to right, so neighboring clusters carry
# small positive kernel linkage while far pairs carry none. Tuned so the
# kernel pipeline separates all six clusters while plain bisecting k-means
# cuts the L-shape early.
PAPER_ANALOG_COMPONENTS = [
    LShape(origin=(0.0, 0.0), vertical=9.0, horizontal=9.0, thickness=1.3, size=700),
    Gaussian(center=(11.0, 7.0), std=0.4, size=500),
    Gaussian(center=(14.5, 7.0), std=0.8, size=500),
    Gaussian(center=(19.5, 7.0), std=1.6, size=500),
    Gaussian(center=(10.8, -1.5), std=0.45, size=400),
    Gaussian(center=(13.0, -1.5), std=0.45, size=400),
]
PAPER_ANALOG_SEED = 7
PAPER_ANALOG_K = 6

# Run parameters that resolve the bundled analog dataset (found by sweeping
# psi over {4..48} and tau over the standard grid; see the tests).
PAPER_ANALOG_TUNED = {
    "k": 6, "psi": 48, "t": 200, "tau": 0.01, "rho": 0.1, "s": 2129, "seed": 1,
}


def paper_analog(seed: int = PAPER_ANALOG_SEED) -> LabeledDataset:
    """The versioned six-cluster analog dataset."""
    return generate_mixture(PAPER_ANALOG_COMPONENTS, seed, name="paper-analog")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

class CsvParseError(ValueError):
    def __init__(self, path, row, column, message):
        super().__init__(f"{path}: row {row}, column {column}: {message}")
        self.row = row
        self.column = column


def save_csv(path, dataset: LabeledDataset) -> None:
    """Write points (17 significant digits, round-trip exact) and labels."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = [f"x{i}" for i in range(dataset.d)]
        if dataset.labels is not None:
            header.append("label")
        w.writerow(header)
        for i in range(dataset.n):
            row = [format(v, ".17g") for v in dataset.points[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            w.writerow(row)


def load_csv(path, label_column: str | None = None) -> LabeledDataset:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(path, 1, 1, "empty file") from None
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise ValueError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        rows, labels = [], []
        for r, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise CsvParseError(path, r, 1, f"expected {len(header)} fields, got {len(rec)}")
            vals = []
            for c, cell in enumerate(rec):
                if c == label_idx:
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise CsvParseError(path, r, c + 1, f"not a number: {cell!r}") from None
            rows.append(vals)
            if label_idx is not None:
                try:
                    labels.append(int(float(rec[label_idx])))
                except ValueError:
                    raise CsvParseError(path, r, label_idx + 1,
                                        f"bad label: {rec[label_idx]!r}") from None
    if not rows:
        raise CsvParseError(path, 2, 1, "no data rows")
    return LabeledDataset(
        points=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64) if label_idx is not None else None,
        name=str(path),
    )


def save_assignments(path, assignments: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "cluster"])
        for i, a in enumerate(np.asarray(assignments)):
            w.writerow([i, int(a)])

