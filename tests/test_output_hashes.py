"""Bit-for-bit pins of the isolation-kernel pipeline's outputs.

Each digest is the SHA-256 of one output of one ``hier.run`` config on the
versioned analog set: the assignments, the tree JSON after
``dendro.annotate_alphas``, the JSON of ``refine_trace`` and, for the tuned
config, the CSR arrays of Phi. One digest per output per config, so a change
in one output cannot hide a change in another. A refactor that claims to
give the same results must pass this file unchanged.

The Gaussian kernel, the k-means cores and bisecting k-means are left out:
``exp`` and Lloyd's float means may round differently from one CPU to
another, while every isolation-kernel similarity is an exact integer ratio.
"""

import hashlib
import json

import numpy as np
import pytest

from kernelhc import RunConfig, run
from kernelhc.datasets import PAPER_ANALOG_TUNED, paper_analog
from kernelhc.dendro import annotate_alphas

CONFIGS = {
    "tuned": {},
    "ik-dbscan-ahc": {"clusterer": "ik-dbscan", "eps_sim": 0.3, "min_pts": 8, "tree_method": "ahc"},
    "no-refine": {"refine": False},
}

DIGESTS = {
    ("tuned", "assignments"): "4cac604cac1459fb279b4bd6bfa003d08f381f97a0448cb497f329a6c426e758",
    ("tuned", "tree"): "9448065aab951a94156591c36cb39394f7a5f775f5c4513c92587a1f64b28051",
    ("tuned", "refine_trace"): "5c418915127490336e9b552cba88b9c2f1703b9df04982c1e27b2c936c35b99f",
    ("tuned", "phi_indptr"): "a55366bf229bff4baa41008bb5f344286966c803d404386ef6c85e9680eeeda9",
    ("tuned", "phi_indices"): "e9504af47e1035662335c20c51d371261cf4cde2a2102834e78ad3a4e2841641",
    ("ik-dbscan-ahc", "assignments"): "a03834f26cf36fb147dab14bddabbe03266628f3ce653f8bce632e671db4eb3c",
    ("ik-dbscan-ahc", "tree"): "1d3e74bfe5a9cbef8b8d15402ff84bd0a731b4791a589e0c2d089138d34c8a61",
    ("ik-dbscan-ahc", "refine_trace"): "1b213fe479dda39302b5a76c51f6e3e3b300354399c9147358bc7874b84bf041",
    ("no-refine", "assignments"): "004017a50b8fa6f3de9c77cb8b45f79b7afb4f6059b3b8613811135fe2b48e31",
    ("no-refine", "tree"): "bd84695a56d7aed47ee8d8f8f2b7b19bdd57ed10ca8e09a259cfc5c1a25f3e24",
    ("no-refine", "refine_trace"): "161265f012b6cc357d096d0e5050b027bbb9e7cab4de6125ee8efa8a6f63d66c",
}


def outputs(config: str, res) -> dict:
    """Each pinned output of a config's run, as bytes."""
    out = {
        "assignments": np.ascontiguousarray(res.assignments, dtype=np.int64).tobytes(),
        "tree": annotate_alphas(res.tree, res.ops).to_json().encode(),
        "refine_trace": json.dumps(res.refine_trace).encode(),
    }
    if config == "tuned":
        out["phi_indptr"] = res.ops.onehot.indptr.tobytes()
        out["phi_indices"] = res.ops.onehot.indices.tobytes()
    return out


@pytest.fixture(scope="module")
def digests():
    """Every config's output digests, each config run once."""
    points = paper_analog().points
    got = {}
    for name, extra in CONFIGS.items():
        res = run(points, RunConfig(**PAPER_ANALOG_TUNED, **extra))
        for output, blob in outputs(name, res).items():
            got[name, output] = hashlib.sha256(blob).hexdigest()
    return got


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(DIGESTS)


@pytest.mark.parametrize("config, output", sorted(DIGESTS), ids=lambda v: v)
def test_output_digest(digests, config, output):
    assert digests[config, output] == DIGESTS[config, output], (
        f"config {config!r}: output {output!r} differs from the pinned bits")
