import random

import pytest

from homglue.graphs import (
    Graph,
    SizeCapExceeded,
    all_graphs_up_to,
    connected_graphs_up_to,
    enumerate_homs,
    find_isomorphism_pinned,
    hom_count,
    induced_subgraph,
    is_forest,
    is_homomorphism,
    max_degree,
)
from homglue.fixtures import book, c4, k2, k3, path3, star

from helpers import brute_force_homs, canonical_dedup_graphs


def test_graph_canonical_edges():
    g = Graph(3, [(2, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g == Graph(3, [(0, 1), (1, 2)])


def test_equal_graphs_compare_and_hash_equal():
    a = Graph(4, [(3, 2), (1, 0), (2, 1), (0, 1)])
    b = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Graph(5, [(0, 1), (1, 2), (2, 3)])
    assert [a.neighbors(v) for v in range(4)] == [(1,), (0, 2), (1, 3), (2,)]
    assert a.has_edge(2, 1) and not a.has_edge(0, 2)
    assert not a.has_edge(-1, 2) and not a.has_edge(4, 0) and not a.has_edge(0, 4)
    assert [a.degree(v) for v in range(4)] == [1, 2, 2, 1]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_induced_subgraph_of_c4():
    sub, relabel = induced_subgraph(c4(), (0, 1, 2))
    assert relabel == (0, 1, 2)
    assert sub == Graph(3, [(0, 1), (1, 2)])


def test_induced_subgraph_empty_and_nonadjacent():
    sub, _ = induced_subgraph(c4(), ())
    assert sub == Graph(0)
    sub, _ = induced_subgraph(c4(), (0, 2))
    assert sub == Graph(2)


def test_induced_subgraph_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(c4(), (0, 4))


def test_is_forest():
    assert is_forest(Graph(0))
    assert is_forest(path3())
    assert not is_forest(c4())


def test_max_degree():
    assert max_degree(k3()) == 2
    assert max_degree(star(5)) == 5
    assert max_degree(Graph(4)) == 0


def test_homs_k2_k3():
    homs = enumerate_homs(k2(), k3())
    assert len(homs) == 6
    assert homs == sorted(homs)  # lexicographic order
    assert all(is_homomorphism(k2(), k3(), h) for h in homs)


def test_homs_c4_k3_matches_trace():
    # independent oracle: trace(A^4) for the adjacency matrix of K3
    a = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def matmul(x, y):
        return [
            [sum(x[i][t] * y[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)
        ]

    a4 = matmul(matmul(a, a), matmul(a, a))
    trace = sum(a4[i][i] for i in range(3))
    assert trace == 18
    assert hom_count(c4(), k3()) == 18


def test_homs_path3_k2():
    # brute force over all 8 maps
    expected = [
        m
        for m in [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        if m[0] != m[1] and m[1] != m[2]
    ]
    assert enumerate_homs(path3(), k2()) == expected
    assert len(expected) == 2


def test_hom_count_book_k3():
    assert hom_count(book(), k3()) == 54


def test_hom_count_equals_enumeration_and_multiplicativity():
    rng = random.Random(7)
    for _ in range(20):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        h1 = _random_graph(rng, n1)
        h2 = _random_graph(rng, n2)
        g = _random_graph(rng, rng.randint(1, 4))
        assert hom_count(h1, g) == len(enumerate_homs(h1, g))
        disjoint = Graph(
            n1 + n2, list(h1.edges) + [(u + n1, v + n1) for u, v in h2.edges]
        )
        assert hom_count(disjoint, g) == hom_count(h1, g) * hom_count(h2, g)


def _random_graph(rng, n):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    ]
    return Graph(n, edges)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        hom_count(Graph(5, [(0, 1)]), Graph(10), cap=10)


def test_pinned_isomorphism_paths():
    p1 = path3()  # 0-1-2
    p2 = Graph(3, [(0, 2), (1, 2)])  # path 0-2-1
    phi = find_isomorphism_pinned(p1, p2, {0: 0, 2: 1})
    assert phi == (0, 2, 1)  # middle maps to middle
    # verified edge-preserving both ways
    assert all(p2.has_edge(phi[u], phi[v]) for u, v in p1.edges)
    inv = {w: v for v, w in enumerate(phi)}
    assert all(p1.has_edge(inv[u], inv[v]) for u, v in p2.edges)


def test_pinned_isomorphism_absent_and_identity():
    assert find_isomorphism_pinned(k3(), c4()) is None
    g = c4()
    assert find_isomorphism_pinned(g, g, {v: v for v in range(4)}) == (0, 1, 2, 3)


def test_induced_edge_count_matches_filter():
    rng = random.Random(3)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 6))
        s = [v for v in range(g.n) if rng.random() < 0.5]
        sub, _ = induced_subgraph(g, s)
        assert sub.num_edges() == sum(1 for u, v in g.edges if u in s and v in s)


def test_homs_match_brute_force_in_order():
    rng = random.Random(11)
    hosts = [
        Graph(3),  # no vertex has an earlier neighbour
        Graph(4, [(1, 3)]),  # isolated vertices around one edge
        Graph(4, [(0, 3), (1, 3), (2, 3)]),  # three earlier neighbours
        Graph(3, [(1, 2)]),  # vertex 1 has no earlier neighbour
    ]
    hosts += [_random_graph(rng, rng.randint(1, 5)) for _ in range(30)]
    for h in hosts:
        for g in (Graph(1), Graph(3), k3(), _random_graph(rng, rng.randint(1, 6))):
            assert enumerate_homs(h, g) == brute_force_homs(h, g), (h, g)


def test_all_graphs_match_canonical_dedup():
    for n in range(1, 6):
        assert all_graphs_up_to(n) == canonical_dedup_graphs(n)


def test_isomorphism_class_counts_up_to_six_vertices():
    graphs = all_graphs_up_to(6)
    connected = connected_graphs_up_to(6)
    assert [sum(g.n == n for g in graphs) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert [sum(g.n == n for g in connected) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    assert (len(graphs), len(connected)) == (208, 143)
