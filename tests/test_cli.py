import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from kernelhc import cli, dendro
from kernelhc.cli import _run_config, build_parser, main
from kernelhc.datasets import PAPER_ANALOG_TUNED, load_csv
from kernelhc.hier import RunConfig
from kernelhc.ikernel import IdkOps, IsolationModel

SPEC = [
    {"type": "gaussian", "center": [0, 0], "std": 0.1, "size": 40},
    {"type": "gaussian", "center": [30, 30], "std": 0.1, "size": 40},
]


@pytest.fixture
def blob_csv(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    data_path = tmp_path / "blobs.csv"
    rc = main(["generate", "--spec-file", str(spec_path), "--seed", "3",
               "--out", str(data_path)])
    assert rc == 0
    return data_path


def cluster_args(data_path, out_dir, *extra):
    return ["cluster", "--in", str(data_path), "--label-col", "label",
            "--k", "2", "--psi", "4", "--t", "30", "--tau", "0.01",
            "--subset-size", "60", "--seed", "5", "--out-dir", str(out_dir),
            *extra]


class TestGenerate:
    def test_preset_round_trip(self, tmp_path):
        out = tmp_path / "analog.csv"
        assert main(["generate", "--preset", "paper-analog", "--out", str(out)]) == 0
        ds = load_csv(out, label_column="label")
        assert ds.n == 3000 and ds.d == 2
        assert np.bincount(ds.labels).tolist() == [700, 500, 500, 500, 400, 400]

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--preset", "paper-analog", "--seed", "9", "--out", str(a)])
        main(["generate", "--preset", "paper-analog", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_exits_2(self, tmp_path):
        rc = main(["generate", "--preset", "nope", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps([{"type": "donut", "size": 3}]))
        rc = main(["generate", "--spec-file", str(spec),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestCluster:
    def test_hkc_artifacts_and_manifest(self, blob_csv, tmp_path):
        out = tmp_path / "run"
        assert main(cluster_args(blob_csv, out)) == 0
        for name in ("tree.json", "tree.newick", "assignments.csv",
                     "manifest.json", "model.npz"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["purity"] == pytest.approx(1.0)
        assert manifest["k_effective"] == 2
        workers = manifest["transform_workers"]
        assert isinstance(workers, int) and workers > 0
        points = load_csv(blob_csv, label_column="label").points
        cells = IsolationModel.load(out / "model.npz").transform(points)
        assert 0 < manifest["kernel_coverage"] <= 1
        assert manifest["kernel_coverage"] == np.mean(cells >= 0)
        # Phi's int32 entries and column indices, 4 bytes each, and its int32 row pointers
        assert manifest["phi_bytes"] == 8 * np.count_nonzero(cells >= 0) + 4 * (len(points) + 1)
        assert manifest["input"]["sha256"]
        assert set(manifest["timings"]) >= {"fit", "cores", "tree", "assign",
                                            "refine", "total"}
        tree = json.loads((out / "tree.json").read_text())
        assert [split["node"] for split in manifest["zero_ties"]] == [tree["root"]]
        assert manifest["zero_ties"][0]["zero_ties"] == 0  # two clusters, no third to tie

    def test_kpskc_growth_in_manifest_only_for_kpskc(self, blob_csv, tmp_path):
        out = tmp_path / "kpskc"
        assert main(cluster_args(blob_csv, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        growth = manifest["kpskc"]
        assert set(growth) == {"growth_steps", "scored_sets", "members"}
        assert all(len(v) == manifest["k_effective"] for v in growth.values())
        for steps, scored in zip(growth["growth_steps"], growth["scored_sets"]):
            assert 1 <= scored <= steps
        assert all(m >= 2 for m in growth["members"])
        assert sum(growth["members"]) <= 60  # the subset size
        out2 = tmp_path / "kmeans"
        assert main(cluster_args(blob_csv, out2, "--clusterer", "kmeans")) == 0
        assert "kpskc" not in json.loads((out2 / "manifest.json").read_text())

    def test_numeric_outputs_byte_identical_across_runs(self, blob_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(cluster_args(blob_csv, out1))
        main(cluster_args(blob_csv, out2))
        for name in ("tree.json", "tree.newick", "assignments.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = np.load(out1 / "model.npz")
        m2 = np.load(out2 / "model.npz")
        assert np.array_equal(m1["centers"], m2["centers"])

    def test_bisect_kmeans_algo(self, blob_csv, tmp_path):
        out = tmp_path / "bkm"
        rc = main(["cluster", "--in", str(blob_csv), "--label-col", "label",
                   "--algo", "bisect-kmeans", "--k", "2", "--seed", "4",
                   "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["purity"] == pytest.approx(1.0)
        assert not (out / "model.npz").exists()
        # one config schema for every --algo: the algorithm plus every RunConfig field
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(manifest["config"]) == {"algo"} | fields
        assert manifest["config"]["algo"] == "bisect-kmeans"
        assert manifest["config"]["seed"] == 4

    @pytest.mark.parametrize("flags", [["--restarts", "0"], ["--k", "1"]])
    def test_bisect_kmeans_invalid_config_exits_2(self, blob_csv, tmp_path, flags):
        args = ["cluster", "--in", str(blob_csv), "--algo", "bisect-kmeans", "--k", "2",
                "--out-dir", str(tmp_path / "bkm"), *flags]
        assert main(args) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--psi", "999", "--subset-size", "99999", "--tau", "-5"], "--psi"),
        (["--t", "50"], "--t"), (["--rho", "0.2"], "--rho"), (["--subset-size", "60"], "--subset-size"),
        (["--kernel", "gdk"], "--kernel"), (["--bandwidth", "1.0"], "--bandwidth"),
        (["--clusterer", "kmeans"], "--clusterer"), (["--eps-sim", "0.3"], "--eps-sim"),
        (["--min-pts", "8"], "--min-pts"), (["--no-refine"], "--no-refine"),
        (["--restarts", "3", "--tau", "-5"], "--tau")])
    def test_bisect_kmeans_ignored_flag_exits_2(self, blob_csv, tmp_path, capsys, flags, named):
        # a flag that sets a field bisecting k-means does not read: the first one is named
        out = tmp_path / "bkm"
        args = ["cluster", "--in", str(blob_csv), "--algo", "bisect-kmeans", "--k", "2",
                "--out-dir", str(out), *flags]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {named} does not apply")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--kernel", "gdk", "--psi", "48"], "--psi"), (["--kernel", "gdk", "--t", "50"], "--t"),
        (["--bandwidth", "0.5"], "--bandwidth"),
        (["--clusterer", "kmeans", "--tau", "0.5"], "--tau"), (["--clusterer", "kmeans", "--rho", "0.5"], "--rho"),
        (["--eps-sim", "0.9"], "--eps-sim"), (["--min-pts", "50"], "--min-pts"), (["--restarts", "3"], "--restarts"),
        (["--algo", "ahc", "--clusterer", "ik-dbscan", "--restarts", "3"], "--restarts")])
    def test_pipeline_ignored_flag_exits_2(self, blob_csv, tmp_path, capsys, flags, named):
        # a flag that sets a field the run's kernel or clusterer does not read
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["cluster", "--in", str(blob_csv), "--k", "2", "--out-dir", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named} does not apply")
        assert not out.exists()

    def test_bisect_kmeans_accepts_kernel_flags_at_their_defaults(self, blob_csv, tmp_path):
        defaults = RunConfig(k=2)
        out = tmp_path / "bkm"
        assert main(["cluster", "--in", str(blob_csv), "--algo", "bisect-kmeans", "--k", "2",
                     "--psi", str(defaults.psi), "--tau", str(defaults.tau), "--out-dir", str(out)]) == 0

    def test_ahc_algo_and_gdk_kernel(self, blob_csv, tmp_path):
        out = tmp_path / "ahc"
        assert main(cluster_args(blob_csv, out, "--algo", "ahc")) == 0
        out2 = tmp_path / "gdk"
        args = cluster_args(blob_csv, out2, "--kernel", "gdk", "--bandwidth", "1.0")
        del args[args.index("--psi"):args.index("--tau")]  # the Gaussian kernel reads neither --psi nor --t
        assert main(args) == 0
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"]["kernel"] == "gdk"
        assert not (out2 / "model.npz").exists()
        assert "kernel_coverage" not in manifest and "transform_workers" not in manifest
        # the Gaussian backend gives every split its alpha too
        splits = [node for node in json.loads((out2 / "tree.json").read_text())["nodes"]
                  if node["children"] is not None]
        assert manifest["k_effective"] == 2 and len(splits) == 1
        assert all(isinstance(node["alpha"], float) for node in splits)

    def test_no_refine_flag(self, blob_csv, tmp_path):
        out = tmp_path / "nr"
        assert main(cluster_args(blob_csv, out, "--no-refine")) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["iterations"] == 0
        metrics = manifest["metrics"]
        assert manifest["refine"] == {"tsc_local": [metrics["tsc_local_before_refine"]], "moved": [], "stop": None}
        assert metrics["tsc_local_before_refine"] == metrics["tsc_local_after_refine"]

    @pytest.mark.parametrize("kernel", [["--psi", "4", "--t", "30"], ["--kernel", "gdk", "--bandwidth", "0.9"]],
                             ids=["idk", "gdk"])
    def test_refine_trace_in_manifest(self, blob_csv, tmp_path, kernel):
        # the manifest's per-labeling trace ends in the before/after metrics exactly
        out = tmp_path / "trace"
        assert main(["cluster", "--in", str(blob_csv), "--label-col", "label", "--k", "2", "--tau", "0.01",
                     "--subset-size", "60", "--seed", "5", "--out-dir", str(out), *kernel]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        trace, metrics = manifest["refine"], manifest["metrics"]
        assert trace["tsc_local"][0] == metrics["tsc_local_before_refine"]
        assert trace["tsc_local"][-1] == metrics["tsc_local_after_refine"]
        assert len(trace["tsc_local"]) == manifest["iterations"] + 1 == len(trace["moved"]) + 1
        assert trace["stop"] in ("moved < 1% of n", "fixed point", "pass cap")

    def test_fewer_cores_than_k_exits_zero_with_warning(self, blob_csv, tmp_path):
        out = tmp_path / "warn"
        rc = main(["cluster", "--in", str(blob_csv), "--label-col", "label",
                   "--k", "5", "--psi", "4", "--t", "30", "--tau", "0.01",
                   "--subset-size", "60", "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"]
        assert manifest["k_effective"] < 5

    def test_label_column_left_out_by_default(self, blob_csv, tmp_path):
        # generate writes x0,x1,label; the label column is no feature, named or not
        def without_label_col(args):
            return [a for a in args if a not in ("--label-col", "label")]
        named, default = tmp_path / "named", tmp_path / "default"
        assert main(cluster_args(blob_csv, named)) == 0
        assert main(without_label_col(cluster_args(blob_csv, default))) == 0
        for name in ("tree.json", "assignments.csv"):
            assert (named / name).read_bytes() == (default / name).read_bytes(), name
        assert json.loads((default / "manifest.json").read_text())["metrics"]["purity"] == pytest.approx(1.0)
        assert IsolationModel.load(default / "model.npz").centers.shape[2] == 2
        # an input without that column is read whole
        unlabeled, whole = tmp_path / "unlabeled.csv", tmp_path / "whole"
        unlabeled.write_text(blob_csv.read_text().replace("label", "x2", 1))
        assert main(without_label_col(cluster_args(unlabeled, whole))) == 0
        assert IsolationModel.load(whole / "model.npz").centers.shape[2] == 3
        assert "purity" not in json.loads((whole / "manifest.json").read_text())["metrics"]

    def test_named_label_column_must_exist(self, blob_csv, tmp_path, capsys):
        # only the default "label" is optional; a misspelt name is no silent no-op
        capsys.readouterr()
        assert main(cluster_args(blob_csv, tmp_path / "o", "--label-col", "lable")) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o" / "tree.json").exists()

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(["cluster", "--in", str(tmp_path / "missing.csv"),
                   "--k", "2", "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_flags_default_to_run_config(self):
        args = build_parser().parse_args(["cluster", "--in", "f", "--k", "6"])
        assert _run_config(args) == RunConfig(k=6)

    def test_every_run_config_field_but_tree_method_has_a_flag(self):
        # each kernel or clusterer flag on a run that reads it
        runs = [["--k", "3", "--psi", "7", "--t", "9", "--tau", "0.2", "--rho", "0.3",
                 "--subset-size", "11", "--seed", "4", "--no-refine"],
                ["--k", "3", "--kernel", "gdk", "--bandwidth", "2.5", "--clusterer", "kmeans", "--restarts", "3"],
                ["--k", "3", "--clusterer", "ik-dbscan", "--eps-sim", "0.4", "--min-pts", "6"]]
        default, changed = RunConfig(k=6), set()
        for flags in runs:
            config = _run_config(build_parser().parse_args(["cluster", "--in", "f", *flags]))
            changed |= {f.name for f in dataclasses.fields(RunConfig)
                        if getattr(config, f.name) != getattr(default, f.name)}
        assert changed == {f.name for f in dataclasses.fields(RunConfig)} - {"tree_method"}
        ahc = build_parser().parse_args(["cluster", "--in", "f", "--k", "6", "--algo", "ahc"])
        assert _run_config(ahc) == RunConfig(k=6, tree_method="ahc")

    @pytest.mark.parametrize("flags, named", [(["--eps-sim", "0", "--min-pts", "0"], "eps_sim"),
                                              (["--eps-sim", "0.3", "--min-pts", "0"], "min_pts")])
    def test_ik_dbscan_degenerate_neighbourhood_exits_2(self, blob_csv, tmp_path, capsys, flags, named):
        # eps_sim 0 made every pair a neighbour, so the subset became one cluster
        capsys.readouterr()
        assert main(cluster_args(blob_csv, tmp_path / "o", "--clusterer", "ik-dbscan", *flags)) == 2
        assert capsys.readouterr().err.startswith(f"error: {named} must be")
        assert not (tmp_path / "o" / "tree.json").exists()

    @pytest.mark.parametrize("flags, named", [(["--kernel", "gdk", "--bandwidth", "nan"], "bandwidth"),
                                              (["--kernel", "gdk", "--bandwidth", "inf"], "bandwidth"),
                                              (["--tau", "nan"], "tau"), (["--tau", "inf"], "tau"),
                                              (["--clusterer", "ik-dbscan", "--eps-sim", "nan"], "eps_sim"),
                                              (["--clusterer", "ik-dbscan", "--eps-sim", "inf"], "eps_sim")])
    def test_non_finite_parameter_exits_2(self, blob_csv, tmp_path, capsys, flags, named):
        # nan slips past a bare x <= 0 check, and at bandwidth inf every Gaussian kernel value is 1
        capsys.readouterr()
        assert main(["cluster", "--in", str(blob_csv), "--k", "2", "--subset-size", "60",
                     "--out-dir", str(tmp_path / "o"), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named} must be")
        assert not (tmp_path / "o" / "tree.json").exists()

    @pytest.mark.parametrize("label", ["inf", "1.5"])
    def test_non_integral_label_exits_2(self, blob_csv, tmp_path, capsys, label):
        # int() of inf overflows (exit 1) and of 1.5 truncates to class 1
        lines = blob_csv.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{label}"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(cluster_args(bad, tmp_path / "o")) == 2
        assert "row 4, column 3: bad label" in capsys.readouterr().err

    def test_invalid_flag_value_exits_2(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(cluster_args(blob_csv, tmp_path / "o", "--algo", "wrong"))
        assert exc.value.code == 2


class TestEval:
    def test_metrics_from_saved_tree(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--tree", str(out / "tree.json"),
                   "--labels", str(blob_csv), "--label-col", "label",
                   "--metrics", "purity,nmi,ari,tsc",
                   "--in", str(blob_csv), "--model", str(out / "model.npz"),
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["purity"] == pytest.approx(1.0)
        assert report["nmi"] == pytest.approx(1.0)
        assert report["ari"] == pytest.approx(1.0)
        assert 0 < report["tsc_local"] <= 1
        table = capsys.readouterr().out
        assert "purity" in table

    def test_tsc_on_unlabeled_input(self, blob_csv, tmp_path, capsys):
        # --label-col defaults to "label"; an input without that column is read whole
        unlabeled = tmp_path / "unlabeled.csv"
        points = load_csv(blob_csv, label_column="label").points
        unlabeled.write_text("x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in points))
        out = tmp_path / "run"
        assert main(["cluster", "--in", str(unlabeled), "--k", "2", "--psi", "4", "--t", "30",
                     "--tau", "0.01", "--subset-size", "60", "--seed", "5",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report_path = tmp_path / "report.json"
        assert main(["eval", "--tree", str(out / "tree.json"), "--metrics", "tsc",
                     "--in", str(unlabeled), "--model", str(out / "model.npz"),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["tsc_local"] == pytest.approx(
            manifest["metrics"]["tsc_local_after_refine"], abs=1e-12)

    def test_tsc_sums_the_leaves_once(self, blob_csv, tmp_path, monkeypatch):
        # tsc_local is tsc / n from the one total_similarity call, bit for bit dendro.tsc_local
        out = tmp_path / "run"
        assert main(cluster_args(blob_csv, out)) == 0
        calls, total = [], dendro.total_similarity
        monkeypatch.setattr(dendro, "total_similarity", lambda ops, groups: calls.append(1) or total(ops, groups))
        report_path = tmp_path / "report.json"
        assert main(["eval", "--tree", str(out / "tree.json"), "--metrics", "tsc", "--in", str(blob_csv),
                     "--model", str(out / "model.npz"), "--out", str(report_path)]) == 0
        assert len(calls) == 1
        report = json.loads(report_path.read_text())
        tree = dendro.Dendrogram.from_json((out / "tree.json").read_text())
        ops = IdkOps.fit(IsolationModel.load(out / "model.npz"), load_csv(blob_csv, label_column="label").points)
        assert report["tsc_local"] == report["tsc"] / tree.n_points == dendro.tsc_local(tree, ops)

    def test_tsc_input_named_label_column_must_exist(self, blob_csv, tmp_path, capsys):
        # an unlabeled input is read whole only when no --label-col is given
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                     for line in blob_csv.read_text().splitlines()))
        tsc = ["eval", "--tree", str(out / "tree.json"), "--metrics", "tsc",
               "--in", str(unlabeled), "--model", str(out / "model.npz")]
        assert main(tsc) == 0
        capsys.readouterr()
        assert main([*tsc, "--label-col", "label"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_tsc_input_rows_must_match_the_tree(self, blob_csv, tmp_path, capsys):
        # every row twice, and the first half: the tree holds 80 points
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        header, *rows = blob_csv.read_text().splitlines(keepends=True)
        for name, kept in (("twice", rows + rows), ("half", rows[:40])):
            path = tmp_path / f"{name}.csv"
            path.write_text(header + "".join(kept))
            capsys.readouterr()
            assert main(["eval", "--tree", str(out / "tree.json"), "--metrics", "tsc",
                         "--in", str(path), "--model", str(out / "model.npz")]) == 2, name
            assert "80" in capsys.readouterr().err, name

    def test_malformed_tree_exits_2(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        # the root's children name missing nodes; a leaf point is out of range;
        # an unsupported version; a missing key, at the top or in a node; no object
        def broken(case):
            doc = json.loads((out / "tree.json").read_text())
            root = next(node for node in doc["nodes"] if node["id"] == doc["root"])
            if case == "children":
                root["children"] = [99, 98]
            elif case == "points":
                next(node for node in doc["nodes"] if node["points"])["points"][-1] = 10**6
            elif case == "version":
                doc["version"] = 9
            elif case == "root":
                del doc["root"]
            elif case == "node":
                del root["cluster_ids"]
            return [doc] if case == "list" else doc
        for case in ("children", "points", "version", "root", "node", "list"):
            bad = tmp_path / f"{case}.json"
            bad.write_text(json.dumps(broken(case)))
            capsys.readouterr()
            assert main(["eval", "--tree", str(bad), "--labels", str(blob_csv),
                         "--metrics", "purity"]) == 2, case
            assert capsys.readouterr().err.startswith("error: "), case

    def test_invalid_model_exits_2(self, blob_csv, tmp_path, capsys):
        # a model file whose psi disagrees with its centers, with NaN radii, without radii,
        # whose psi is no scalar, or cut short
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        model = IsolationModel.load(out / "model.npz")
        for name, fields in (("psi", {"psi": model.psi + 1}),
                             ("nan", {"radii": np.full_like(model.radii, np.nan)}),
                             ("missing", {"radii": None}),
                             ("psi_array", {"psi": np.array([model.psi] * 2)}),
                             ("cut", None)):
            bad = tmp_path / f"{name}.npz"
            if fields is None:
                bad.write_bytes((out / "model.npz").read_bytes()[:100])
            else:
                with np.load(out / "model.npz") as saved:
                    np.savez(bad, **{key: val for key, val in {**saved, **fields}.items() if val is not None})
            capsys.readouterr()
            assert main(["eval", "--tree", str(out / "tree.json"), "--metrics", "tsc",
                         "--in", str(blob_csv), "--model", str(bad)]) == 2, name
            assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_metric_exits_2(self, blob_csv, tmp_path):
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        rc = main(["eval", "--tree", str(out / "tree.json"),
                   "--labels", str(blob_csv), "--metrics", "coolness"])
        assert rc == 2

    def test_tsc_without_model_exits_2(self, blob_csv, tmp_path):
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        rc = main(["eval", "--tree", str(out / "tree.json"), "--metrics", "tsc"])
        assert rc == 2

    def test_mismatched_labels_exit_2(self, blob_csv, tmp_path):
        out = tmp_path / "run"
        main(cluster_args(blob_csv, out))
        short = tmp_path / "short.csv"
        short.write_text("x0,x1,label\n1.0,2.0,0\n2.0,1.0,0\n")
        rc = main(["eval", "--tree", str(out / "tree.json"),
                   "--labels", str(short), "--metrics", "purity"])
        assert rc == 2


class TestBench:
    def test_tiny_bench_writes_tables(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--sizes", "0.02x,0.04x", "--repeats", "1",
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "scaleup.csv").read_text().strip().splitlines()
        assert lines[0] == "factor,n,hkc_seconds,bisect_seconds"
        assert len(lines) == 3
        summary = json.loads((out / "scaleup.json").read_text())
        assert {"config", "rows", "hkc_prefers_linear", "bisect_prefers_linear"} <= set(summary)
        assert summary["config"] == dataclasses.asdict(RunConfig(**PAPER_ANALOG_TUNED))
        assert [r["n"] for r in summary["rows"]] == [60, 120]  # psi 48 fits, s capped at n
        printed = capsys.readouterr().out.splitlines()
        assert f"config: {RunConfig(**PAPER_ANALOG_TUNED)}" in printed
        # two sizes fit both lines exactly, so neither gives a verdict
        for algo in ("hkc", "bisect"):
            assert summary[algo + "_prefers_linear"] is None
            assert f"{algo} prefers linear fit: null, a verdict needs >= 3 sizes, got 2" in printed

    @pytest.mark.parametrize("ns, verdict", [([60, 60, 120], None), ([60, 120, 240], True)])
    def test_verdict_needs_three_distinct_sizes(self, tmp_path, capsys, monkeypatch, ns, verdict):
        rows = [{"factor": n / 3000, "n": n, "hkc_seconds": n / 100, "bisect_seconds": n / 50} for n in ns]
        monkeypatch.setattr(cli, "run_scaleup", lambda *a: rows)
        assert main(["bench", "--out-dir", str(tmp_path / "b")]) == 0
        summary = json.loads((tmp_path / "b" / "scaleup.json").read_text())
        assert summary["hkc_prefers_linear"] is summary["bisect_prefers_linear"] is verdict
        printed = capsys.readouterr().out.splitlines()
        shown = str(verdict) if verdict else f"null, a verdict needs >= 3 sizes, got {len(set(ns))}"
        assert f"hkc prefers linear fit: {shown}" in printed

    def test_empty_sizes_exits_2(self, tmp_path):
        rc = main(["bench", "--sizes", ",", "--out-dir", str(tmp_path / "b")])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--sizes=0x", "--sizes=-1x", "--sizes=1x,0",
                                      "--sizes=nanx", "--sizes=infx", "--repeats=0"])
    def test_nonpositive_size_or_repeats_exits_2(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setattr(cli, "run_scaleup", lambda *a: pytest.fail("ran the bench"))
        assert main(["bench", flag, "--out-dir", str(tmp_path / "b")]) == 2
        assert flag.split("=")[0] in capsys.readouterr().err

    def test_scaleup_warms_up_then_times_sizes_round_robin(self, monkeypatch):
        # one untimed run of each algorithm at the smallest size, then each
        # repeat runs every size in turn; a row keeps its size's fastest time
        calls, clock = [], iter(range(1000))
        monkeypatch.setattr(cli.hier, "run", lambda points, config: calls.append(("hkc", len(points))))
        monkeypatch.setattr(cli.baseline, "bisect_kmeans", lambda points, config: calls.append(("bkm", len(points))))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock) ** 2)
        rows = cli.run_scaleup([0.04, 0.02], repeats=2, seed=0, config=RunConfig(k=6, psi=4))
        sizes = [("hkc", 120), ("bkm", 120), ("hkc", 60), ("bkm", 60)]
        assert calls == [("hkc", 60), ("bkm", 60)] + sizes + sizes
        assert [r["n"] for r in rows] == [120, 60]
        # the clock's steps grow, so each size's first repeat is its fastest
        assert [(r["hkc_seconds"], r["bisect_seconds"]) for r in rows] == [(1, 5), (9, 13)]


def readme_commands():
    """Every `kernelhc ...` line in README.md's fenced blocks, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands, fenced, pending = [], False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        pending += line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        if pending.startswith("kernelhc "):
            commands.append(pending)
        pending = ""
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
