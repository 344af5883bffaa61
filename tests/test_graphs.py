import numpy as np
import pytest

from kernelhc.graphs import AttributedGraph, wl_embed


def oracle_wl(attrs, edges, weights, h):
    """Plain-loop recomputation of the neighborhood-averaging recursion."""
    n = len(attrs)
    neigh = [[] for _ in range(n)]
    for (u, v), w in zip(edges, weights):
        neigh[u].append((v, w))
        neigh[v].append((u, w))
    gens = [np.array(attrs, dtype=float)]
    for _ in range(h):
        prev = gens[-1]
        nxt = np.zeros_like(prev)
        for v in range(n):
            if neigh[v]:
                s = sum(w * prev[u] for u, w in neigh[v])
                s = s / sum(w for _, w in neigh[v])
            else:
                s = prev[v]
            nxt[v] = 0.5 * (prev[v] + s)
        gens.append(nxt)
    vertex = np.hstack(gens)
    return vertex, vertex.mean(axis=0)


def random_graph(seed, n=6, m=2, p=0.5, weighted=True):
    rng = np.random.default_rng(seed)
    attrs = rng.standard_normal((n, m))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    weights = rng.uniform(0.5, 2.0, len(edges)) if weighted else np.ones(len(edges))
    return AttributedGraph(attributes=attrs,
                           edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
                           weights=np.asarray(weights))


class TestWlEmbed:
    def test_h_zero_is_raw_attributes(self):
        g = random_graph(1)
        vertex, mean = wl_embed(g, h=0)
        assert np.array_equal(vertex, g.attributes)
        assert np.allclose(mean, g.attributes.mean(axis=0))

    def test_two_vertex_single_step(self):
        a = np.array([1.0, 3.0])
        b = np.array([5.0, -1.0])
        g = AttributedGraph(attributes=np.vstack([a, b]), edges=np.array([[0, 1]]))
        vertex, _ = wl_embed(g, h=1)
        assert np.allclose(vertex[0, 2:], 0.5 * (a + b))
        assert np.allclose(vertex[1, 2:], 0.5 * (b + a))

    def test_matches_loop_recomputation(self):
        for seed in range(12):
            g = random_graph(seed)
            got_v, got_g = wl_embed(g, h=3)
            exp_v, exp_g = oracle_wl(g.attributes, g.edges, g.weights, 3)
            assert np.allclose(got_v, exp_v, atol=1e-12)
            assert np.allclose(got_g, exp_g, atol=1e-12)
            assert got_v.shape == (g.n_vertices, g.attributes.shape[1] * 4)

    def test_equal_attributes_are_a_fixed_point(self):
        g = random_graph(3)
        g = AttributedGraph(attributes=np.ones_like(g.attributes) * 2.5,
                            edges=g.edges, weights=g.weights)
        vertex, _ = wl_embed(g, h=4)
        for step in range(5):
            assert np.array_equal(vertex[:, step * 2:(step + 1) * 2], g.attributes)

    def test_isolated_vertex_keeps_its_attribute(self):
        attrs = np.array([[1.0, 2.0], [3.0, 4.0], [9.0, 9.0]])
        g = AttributedGraph(attributes=attrs, edges=np.array([[0, 1]]))
        vertex, _ = wl_embed(g, h=3)
        for step in range(4):
            assert np.array_equal(vertex[2, step * 2:(step + 1) * 2], attrs[2])

    def test_vertex_permutation_leaves_graph_embedding_unchanged(self):
        g = random_graph(5)
        perm = np.random.default_rng(9).permutation(g.n_vertices)
        inv = np.argsort(perm)
        permuted = AttributedGraph(attributes=g.attributes[perm],
                                   edges=inv[g.edges], weights=g.weights)
        _, mean_a = wl_embed(g, h=3)
        _, mean_b = wl_embed(permuted, h=3)
        assert np.allclose(mean_a, mean_b, atol=1e-12)

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            wl_embed(random_graph(0), h=-1)


class TestGraphValidation:
    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            AttributedGraph(attributes=np.zeros((2, 1)), edges=np.array([[0, 5]]))

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="per edge"):
            AttributedGraph(attributes=np.zeros((3, 1)),
                            edges=np.array([[0, 1]]), weights=np.array([1.0, 2.0]))

