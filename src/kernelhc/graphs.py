"""Attributed graphs and the neighborhood-averaging vertex embedding.

Each refinement step replaces a vertex's attribute vector with the average
of itself and the weighted mean of its neighbors' vectors; stacking the
vectors from all steps gives the vertex embedding, and averaging those
over the vertex set gives the graph embedding. Vertices with no neighbors
use their own attribute as the neighbor mean, which makes them fixed
points of the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AttributedGraph:
    """Undirected weighted graph with real-valued vertex attributes.

    Edges are stored once per undirected pair; weights default to 1.
    """

    attributes: np.ndarray  # (n, m)
    edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.attributes = np.asarray(self.attributes, dtype=np.float64)
        if self.attributes.ndim != 2:
            raise ValueError("attributes must be a 2-D (n, m) array")
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        n = len(self.attributes)
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        if self.weights is None:
            self.weights = np.ones(len(self.edges))
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if len(self.weights) != len(self.edges):
                raise ValueError("one weight per edge required")

    @property
    def n_vertices(self) -> int:
        return len(self.attributes)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def weighted_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices)
        np.add.at(deg, self.edges[:, 0], self.weights)
        np.add.at(deg, self.edges[:, 1], self.weights)
        return deg


def wl_embed(graph: AttributedGraph, h: int):
    """Run ``h`` neighborhood-averaging steps.

    Returns (vertex_embeddings, graph_embedding): the per-vertex stack of
    all h+1 attribute generations, shape (n, m*(h+1)), and its mean over
    vertices.

    The neighbor sum is normalized by the weighted degree so that a graph
    with identical attributes everywhere is a fixed point regardless of
    edge weights; with unit weights this is the plain neighbor count.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    a = graph.attributes
    n, m = a.shape
    deg = graph.weighted_degrees()
    isolated = graph.degrees() == 0
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    w = graph.weights

    gens = [a]
    cur = a
    for _ in range(h):
        acc = np.zeros_like(cur)
        np.add.at(acc, u, w[:, None] * cur[v])
        np.add.at(acc, v, w[:, None] * cur[u])
        mean_neigh = np.empty_like(cur)
        mean_neigh[~isolated] = acc[~isolated] / deg[~isolated, None]
        mean_neigh[isolated] = cur[isolated]
        cur = 0.5 * (cur + mean_neigh)
        gens.append(cur)
    vertex = np.hstack(gens)
    return vertex, vertex.mean(axis=0)

