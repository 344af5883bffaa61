import numpy as np
import pytest

from kernelhc.datasets import (
    CsvParseError,
    Gaussian,
    LShape,
    UniformBox,
    components_from_spec,
    generate_mixture,
    load_csv,
    paper_analog,
    save_assignments,
    save_csv,
)


class TestGenerateMixture:
    def test_single_component_single_label(self):
        ds = generate_mixture([Gaussian(center=(0, 0), std=1.0, size=50)], seed=1)
        assert ds.n == 50
        assert np.all(ds.labels == 0)

    def test_seeded_reproducibility(self):
        comps = [Gaussian(center=(0, 0), std=1.0, size=20),
                 UniformBox(low=(2, 2), high=(3, 3), size=10)]
        d1 = generate_mixture(comps, seed=5)
        d2 = generate_mixture(comps, seed=5)
        assert np.array_equal(d1.points, d2.points)

    def test_label_counts_match_component_sizes(self):
        comps = [Gaussian(center=(0, 0), std=1.0, size=13),
                 Gaussian(center=(9, 9), std=1.0, size=29),
                 LShape(size=17)]
        ds = generate_mixture(comps, seed=2)
        assert np.bincount(ds.labels).tolist() == [13, 29, 17]

    def test_invalid_covariance_rejected(self):
        bad = Gaussian(center=(0, 0), cov=[[1.0, 2.0], [2.0, 1.0]], size=5)
        with pytest.raises(ValueError, match="positive definite"):
            generate_mixture([bad], seed=0)

    def test_full_covariance_supported(self):
        comp = Gaussian(center=(1, 1), cov=[[1.0, 0.5], [0.5, 2.0]], size=500)
        ds = generate_mixture([comp], seed=3)
        assert abs(np.cov(ds.points.T)[0, 1] - 0.5) < 0.2

    def test_lshape_stays_on_arms(self):
        shape = LShape(origin=(2, 3), vertical=5, horizontal=7, thickness=1, size=400)
        pts = generate_mixture([shape], seed=4).points
        on_vertical = (pts[:, 0] <= 3.0) & (pts[:, 1] >= 3.0)
        on_horizontal = (pts[:, 1] <= 4.0) & (pts[:, 0] <= 9.0)
        assert np.all(on_vertical | on_horizontal)
        assert pts[:, 0].min() >= 2.0 and pts[:, 1].min() >= 3.0

    def test_box_bounds(self):
        pts = generate_mixture([UniformBox(low=(0, 1), high=(2, 4), size=200)],
                               seed=5).points
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 2
        assert pts[:, 1].min() >= 1 and pts[:, 1].max() <= 4

    def test_components_from_spec(self):
        spec = [
            {"type": "gaussian", "center": [0, 0], "std": 1.0, "size": 5},
            {"type": "box", "low": [0, 0], "high": [1, 1], "size": 5},
            {"type": "lshape", "size": 5},
        ]
        comps = components_from_spec(spec)
        assert isinstance(comps[0], Gaussian)
        assert isinstance(comps[1], UniformBox)
        assert isinstance(comps[2], LShape)
        with pytest.raises(ValueError, match="unknown type"):
            components_from_spec([{"type": "donut"}])

    def test_paper_analog_structure(self):
        ds = paper_analog()
        assert ds.n == 3000
        assert ds.d == 2
        assert len(np.unique(ds.labels)) == 6


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        from kernelhc.datasets import LabeledDataset

        ds = LabeledDataset(points=rng.standard_normal((30, 3)) * 1e3,
                            labels=rng.integers(0, 4, 30))
        path = tmp_path / "data.csv"
        save_csv(path, ds)
        back = load_csv(path, label_column="label")
        assert np.array_equal(back.points, ds.points)  # bitwise, 17 sig digits
        assert np.array_equal(back.labels, ds.labels)

    def test_structural_shape(self, tmp_path):
        from kernelhc.datasets import LabeledDataset

        ds = LabeledDataset(points=np.zeros((150, 4)), labels=np.zeros(150, dtype=int))
        path = tmp_path / "iris-like.csv"
        save_csv(path, ds)
        back = load_csv(path, label_column="label")
        assert back.n == 150 and back.d == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError, match="empty"):
            load_csv(path)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvParseError, match="row 3, column 2"):
            load_csv(path)

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="no column"):
            load_csv(path, label_column="label")

    def test_assignments_round_trip(self, tmp_path):
        path = tmp_path / "assign.csv"
        labels = np.array([0, 2, 1, 1, -1])
        save_assignments(path, labels)
        assert path.read_text().splitlines()[0] == "index,cluster"
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
        assert np.array_equal(table[:, 0], np.arange(len(labels)))
        assert np.array_equal(table[:, 1], labels)
