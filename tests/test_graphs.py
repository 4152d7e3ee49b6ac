from itertools import combinations

import pytest

from symperc import graphs
from symperc.graphs import (
    GraphError,
    build_graph,
    bunkbed_graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    cylinder_graph,
    distances_from,
    hypercube_graph,
    path_graph,
    spec_size,
    torus_graph,
)

from _oracles import distance, relabel_graph


def test_hypercube_d1_is_single_edge():
    g = hypercube_graph(1)
    assert g.n_vertices == 2
    assert g.edges == ((0, 1),)


def test_bunkbed_of_path2_is_four_cycle():
    # hand construction: P2 x L2 has edges (00-10), (01-11), (00-01), (10-11)
    g = bunkbed_graph(path_graph(2))
    assert g.n_vertices == 4
    by_label = {(u, v): (g.labels[u], g.labels[v]) for u, v in g.edges}
    expect = {((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1)),
              ((1, 0), (1, 1))}
    assert set(by_label.values()) == expect
    assert all(g.degree(v) == 2 for v in range(4))


def test_hypercube_d3_shape():
    g = hypercube_graph(3)
    assert g.n_vertices == 8
    assert g.n_edges == 3 * 2 ** 2  # d * 2^(d-1)
    assert all(g.degree(v) == 3 for v in range(8))
    # row-major indexing: the label is the binary expansion of the index
    for v in range(8):
        assert g.labels[v] == ((v >> 2) & 1, (v >> 1) & 1, v & 1)


@pytest.mark.parametrize("g1,g2", [
    (path_graph(3), cycle_graph(4)),
    (cycle_graph(3), path_graph(2)),
    (complete_graph(4), cycle_graph(5)),
])
def test_product_edge_count(g1, g2):
    prod = cartesian_product(g1, g2)
    assert prod.n_edges == g1.n_vertices * g2.n_edges + g2.n_vertices * g1.n_edges


def test_edges_sorted_lexicographically():
    for g in (torus_graph(3, 4), hypercube_graph(3), bunkbed_graph(cycle_graph(5))):
        assert list(g.edges) == sorted(g.edges)
        assert all(u < v for u, v in g.edges)


def test_distance_examples():
    g = hypercube_graph(3)
    assert distance(g, g.index_of((0, 0, 0)), g.index_of((1, 1, 1))) == 3
    t = torus_graph(5, 5)
    assert distance(t, t.index_of((0, 0)), t.index_of((3, 0))) == 2
    assert distance(t, 7, 7) == 0


@pytest.mark.parametrize("g", [
    torus_graph(3, 3),
    hypercube_graph(3),
    bunkbed_graph(cycle_graph(5)),
    cycle_graph(8),
])
def test_distance_is_a_metric(g):
    dist = [distances_from(g, v) for v in range(g.n_vertices)]
    for u, v in combinations(range(g.n_vertices), 2):
        assert dist[u][v] == dist[v][u]
        assert dist[u][v] > 0
    for u in range(g.n_vertices):
        assert dist[u][u] == 0
        for v in range(g.n_vertices):
            for w in range(g.n_vertices):
                assert dist[u][w] <= dist[u][v] + dist[v][w]


def test_build_graph_spec_dispatch():
    assert build_graph({"builder": "hypercube", "d": 3}).n_vertices == 8
    assert build_graph({"builder": "torus", "n": 5, "m": 5}).n_edges == 50
    g = build_graph({"builder": "cylinder",
                     "base": {"builder": "path", "n": 1}, "m": 8})
    assert g.n_vertices == 8 and g.n_edges == 8
    g = build_graph({"builder": "explicit", "vertices": 3,
                     "edges": [[0, 1], [1, 2]]})
    assert g.n_edges == 2


def test_builder_errors():
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        torus_graph(2, 5)
    with pytest.raises(GraphError):
        path_graph(0)
    with pytest.raises(GraphError):
        build_graph({"builder": "mystery"})
    with pytest.raises(GraphError):
        graphs.explicit_graph(3, [[0, 1]])  # disconnected
    with pytest.raises(GraphError):
        graphs.explicit_graph(2, [[0, 0]])  # self loop
    with pytest.raises(GraphError):
        graphs.explicit_graph(2, [[0, 1], [1, 0]])  # duplicate


def test_relabel_moves_labels_with_vertices():
    g = cycle_graph(4)
    perm = (1, 2, 3, 0)
    h = relabel_graph(g, perm)
    for v in range(4):
        assert h.labels[perm[v]] == g.labels[v]
    assert list(h.edges) == sorted(h.edges)


@pytest.mark.parametrize("spec", [
    {"builder": "path", "n": 1},
    {"builder": "path", "n": 6},
    {"builder": "cycle", "n": 7},
    {"builder": "complete", "n": 6},
    {"builder": "hypercube", "d": 1},
    {"builder": "hypercube", "d": 4},
    {"builder": "torus", "n": 3, "m": 5},
    {"builder": "bunkbed", "base": {"builder": "cycle", "n": 5}},
    {"builder": "bunkbed", "base": {"builder": "hypercube", "d": 3}},
    {"builder": "cylinder", "base": {"builder": "path", "n": 3}, "m": 4},
    {"builder": "cylinder", "base": {"builder": "bunkbed", "base": {
        "builder": "path", "n": 2}}, "m": 3},
    {"builder": "explicit", "vertices": 4, "edges": [[0, 1], [1, 2], [1, 3]]},
])
def test_spec_size_is_the_built_graphs_size(spec):
    g = build_graph(spec)
    assert spec_size(spec) == (g.n_vertices, g.n_edges)


@pytest.mark.parametrize("spec", [
    {}, 5, {"builder": "no-such"}, {"builder": "torus", "n": 3},
    {"builder": "hypercube", "d": -1}, {"builder": "cycle", "n": "x"},
    {"builder": "bunkbed"},
])
def test_spec_size_leaves_refused_specs_to_the_builder(spec):
    assert spec_size(spec) == (0, 0)
