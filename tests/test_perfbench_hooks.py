"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
owner and attribute name. A refactor that moves or renames one of them must
fail here, not only when the benchmark runs."""

from pathlib import Path

import numpy as np
import pytest

from kernelhc import RunConfig, corecluster, fit_isolation_model, ikernel, run

from conftest import rng_data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_every_target_is_defined_on_its_owner(tracer):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert not missing


@pytest.mark.parametrize("d", [2, 16])  # the 2-d workloads' d and a higher one
def test_traced_transform_returns_int32_cells(tracer, d):
    X = rng_data(3, n=25, d=d)
    model = fit_isolation_model(X, psi=5, t=7, seed=0)
    original = vars(ikernel.IsolationModel)["transform"]
    tr = tracer.Tracer()
    with tr.installed():
        cells = model.transform(X)
    assert vars(ikernel.IsolationModel)["transform"] is original
    assert cells.dtype == np.int32 and cells.shape == (25, 7)
    stats = tr.take()["ikernel.transform"]
    assert stats["calls"] == 1
    assert stats["points"] == 25
    assert stats["covered"] == np.count_nonzero(cells >= 0)


def test_traced_parallel_transform_counts_one_call(tracer, monkeypatch):
    # the kd-tree leaves run on a pool inside transform, so the wrapper around
    # transform sees one call over all points, whatever the worker count
    X = rng_data(4, n=100, d=2)
    model = fit_isolation_model(X, psi=5, t=7, seed=0)
    monkeypatch.setattr(ikernel, "WORKERS", 2)
    monkeypatch.setattr(ikernel, "SCAN_LEAF", 8)  # 16 leaves
    untraced = model.transform(X)
    tr = tracer.Tracer()
    with tr.installed():
        cells = model.transform(X)
    stats = tr.take()["ikernel.transform"]
    assert stats["calls"] == 1
    assert stats["points"] == 100
    assert np.array_equal(cells, untraced)


def test_traced_parallel_gdk_counts_one_call(tracer, monkeypatch):
    # the Gaussian row blocks also run on a pool inside point_to_state, so its
    # wrapper sees one call that scores every row
    X = rng_data(5, n=100, d=2)
    ops = ikernel.GdkOps(X, bandwidth=0.5)
    state = ops.group_state(np.arange(0, 100, 2))
    monkeypatch.setattr(ikernel, "WORKERS", 2)
    monkeypatch.setattr(ikernel, "GDK_BLOCK", 8 * len(state))  # 13 blocks
    untraced = ops.point_to_state(state)
    tr = tracer.Tracer()
    with tr.installed():
        sims = ops.point_to_state(state)
    stats = tr.take()["ikernel.point_to_state"]
    assert stats["calls"] == 1
    assert stats["rows_scored"] == 100
    assert np.array_equal(sims, untraced)


def test_traced_kpskc_counts_one_query_per_distinct_member_set(tracer):
    # the Gaussian ablation's collapse in miniature: after its first growth
    # step the one cluster holds every point and stops changing
    ops = ikernel.GdkOps(rng_data(21, n=60), bandwidth=100.0)
    untraced = corecluster.kpskc(ops, k=3, tau=0.01, rho=0.1)
    tr = tracer.Tracer()
    with tr.installed():
        cores = corecluster.kpskc(ops, k=3, tau=0.01, rho=0.1)
    stats = tr.take()
    steps = sum(len(g) for g in cores.meta["gamma_traces"])
    assert stats["corecluster.kpskc"]["growth_steps"] == steps
    # one seeding query for the one round, plus one per distinct member set
    assert cores.k == 1 and cores.meta["scored_sets"] == [2]
    assert stats["ikernel.point_to_state"]["calls"] == 1 + 2 < steps
    assert [c.tolist() for c in cores.clusters] == [c.tolist() for c in untraced.clusters]
    assert np.array_equal(cores.noise, untraced.noise)
    assert cores.warnings == untraced.warnings
    for a, b in zip(cores.meta["gamma_traces"], untraced.meta["gamma_traces"]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kernel", ["idk", "gdk"])
def test_run_result_feats_is_the_isolation_backend_only(kernel):
    # perfbench reads RunResult.feats as the isolation-kernel backend and
    # skips its isolation-only readouts when it is None
    X = rng_data(6, n=60, d=2)
    res = run(X, RunConfig(k=2, psi=6, t=20, s=40, kernel=kernel, bandwidth=0.3))
    if kernel == "idk":
        assert isinstance(res.ops, ikernel.IdkOps)
        assert res.feats is res.ops
    else:
        assert isinstance(res.ops, ikernel.GdkOps)
        assert res.feats is None
