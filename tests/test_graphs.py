import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from homglue import graphs
from homglue.graphs import (
    CONNECTED_CLASSES,
    Graph,
    bfs,
    connected_graphs_up_to,
    hom_count,
    induced_subgraph,
    is_connected,
    is_forest,
    is_homomorphism,
    isomorphisms_pinned,
    max_degree,
)
from fixture_builders import book, c4, k2, k3, path3, star

from helpers import (
    all_graphs_reference,
    bfs_reference,
    brute_force_homs,
    brute_force_isomorphisms,
    canonical_dedup_graphs,
    forest_reference,
    random_graph,
    small_trees,
)


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


def test_graph_refuses_a_negative_vertex_count():
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        Graph(-1)


def test_induced_subgraph_of_c4():
    sub, relabel = induced_subgraph(c4(), (0, 1, 2))
    assert relabel == (0, 1, 2)
    assert sub == Graph(3, [(0, 1), (1, 2)])


def test_induced_subgraph_empty_and_nonadjacent():
    sub, _ = induced_subgraph(c4(), ())
    assert sub == Graph(0)
    sub, _ = induced_subgraph(c4(), (0, 2))
    assert sub == Graph(2)


def test_bfs_matches_a_queue_oracle():
    # sparse G(n, p) leaves graphs disconnected and vertices isolated
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.1, 0.25, 0.5]))
        roots = rng.sample(range(g.n), rng.randint(1, min(3, g.n)))
        order, parent = bfs(g, roots)
        assert (order, parent) == bfs_reference(g, roots)
        assert order[: len(roots)] == roots
        assert len(set(order)) == len(order) and set(order) == set(parent)
        for v in order[len(roots):]:
            assert g.has_edge(parent[v], v)
        assert is_connected(g) == (len(bfs_reference(g, [0])[0]) == g.n)


def test_bfs_on_disconnected_graphs_and_isolated_vertices():
    g = Graph(6, [(0, 3), (3, 1), (4, 5)])
    assert bfs(g, [0]) == ([0, 3, 1], {0: None, 3: 0, 1: 3})
    assert bfs(g, [5, 2]) == ([5, 2, 4], {5: None, 2: None, 4: 5})
    assert bfs(g, [2]) == ([2], {2: None})
    assert not is_connected(g) and is_connected(Graph(0)) and is_connected(Graph(1))


def test_is_forest():
    assert is_forest(Graph(0))
    assert is_forest(path3())
    assert not is_forest(c4())


def test_is_forest_matches_union_find():
    rng = random.Random(23)
    cases = [
        Graph(0),
        Graph(1),
        Graph(5),  # isolated vertices only
        Graph(7, [(0, 1), (2, 3), (3, 4), (2, 4)]),  # a cycle beside an edge and a vertex
        Graph(8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]),  # three paths
    ]
    for _ in range(300):
        cases.append(random_graph(rng, rng.randint(0, 9), rng.choice([0.1, 0.2, 0.4])))
    results = [is_forest(g) for g in cases]
    assert results == [forest_reference(g) for g in cases]
    assert 50 < sum(results) < len(results) - 50  # both answers are exercised


def test_max_degree():
    assert max_degree(k3()) == 2
    assert max_degree(star(5)) == 5
    assert max_degree(Graph(4)) == 0


def test_homs_k2_k3():
    homs = brute_force_homs(k2(), k3())
    assert hom_count(k2(), k3()) == len(homs) == 6
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
    assert brute_force_homs(path3(), k2()) == expected
    assert hom_count(path3(), k2()) == len(expected) == 2


def test_hom_count_book_k3():
    assert hom_count(book(), k3()) == 54


def test_hom_count_equals_brute_force_and_multiplicativity():
    rng = random.Random(7)
    for _ in range(20):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        h1 = _random_graph(rng, n1)
        h2 = _random_graph(rng, n2)
        g = _random_graph(rng, rng.randint(1, 4))
        assert hom_count(h1, g) == len(brute_force_homs(h1, g))
        assert hom_count(_disjoint_union(h1, h2), g) == hom_count(h1, g) * hom_count(h2, g)


def _disjoint_union(h1, h2):
    return Graph(h1.n + h2.n, list(h1.edges) + [(u + h1.n, v + h1.n) for u, v in h2.edges])


def _random_graph(rng, n):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    ]
    return Graph(n, edges)


def test_size_cap(monkeypatch):
    monkeypatch.setattr(graphs, "DEFAULT_HOM_CAP", 10)
    with pytest.raises(ValueError, match="exceeds cap"):
        hom_count(Graph(5, [(0, 1)]), Graph(10))


def test_pinned_isomorphism_paths():
    p1 = path3()  # 0-1-2
    p2 = Graph(3, [(0, 2), (1, 2)])  # path 0-2-1
    phi = next(isomorphisms_pinned(p1, p2, {0: 0, 2: 1}), None)
    assert phi == (0, 2, 1)  # middle maps to middle
    # verified edge-preserving both ways
    assert all(p2.has_edge(phi[u], phi[v]) for u, v in p1.edges)
    inv = {w: v for v, w in enumerate(phi)}
    assert all(p1.has_edge(inv[u], inv[v]) for u, v in p2.edges)


def test_pinned_isomorphism_absent_and_identity():
    assert next(isomorphisms_pinned(k3(), c4()), None) is None
    g = c4()
    assert next(isomorphisms_pinned(g, g, {v: v for v in range(4)}), None) == (0, 1, 2, 3)


def test_isomorphisms_pinned_match_brute_force_in_order():
    rng = random.Random(29)
    found = inconsistent = non_injective = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        h1 = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        if trial % 2:  # a relabelled copy
            perm = rng.sample(range(n), n)
            h2 = Graph(n, [(perm[u], perm[v]) for u, v in h1.edges])
        else:
            h2 = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        pinned = rng.sample(range(n), min(n, rng.randint(0, 3)))
        if trial % 4 == 1:  # a pin the relabelling satisfies
            pin = {v: perm[v] for v in pinned}
        else:  # any pin: maybe inconsistent, maybe not injective
            pin = {v: rng.randrange(n) for v in pinned}
        non_injective += len(set(pin.values())) < len(pin)
        expected = brute_force_isomorphisms(h1, h2, pin)
        assert list(isomorphisms_pinned(h1, h2, pin)) == expected, (h1, h2, pin)
        found += bool(expected)
        inconsistent += bool(not expected and brute_force_isomorphisms(h1, h2, {}))
    assert found > 100 and inconsistent > 20 and non_injective > 20
    # disconnected, one pin: a vertex with no neighbour placed before it (0
    # under the first pin, 3 under every pin but the first) tries every
    # vertex of h2
    h1 = Graph(6, [(0, 1), (1, 2), (3, 4), (5, 4)])
    h2 = Graph(6, [(0, 5), (1, 3), (2, 3), (4, 5)])
    for pin in ({4: 3}, {1: 5}, {2: 0}):
        expected = brute_force_isomorphisms(h1, h2, pin)
        assert expected and list(isomorphisms_pinned(h1, h2, pin)) == expected


def test_the_empty_graph_has_one_isomorphism_to_itself():
    assert list(isomorphisms_pinned(Graph(0), Graph(0))) == [()]


def test_induced_edge_count_matches_filter():
    rng = random.Random(3)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 6))
        s = [v for v in range(g.n) if rng.random() < 0.5]
        sub, _ = induced_subgraph(g, s)
        assert sub.num_edges() == sum(1 for u, v in g.edges if u in s and v in s)


def test_hom_count_matches_brute_force():
    rng = random.Random(11)
    hosts = [
        Graph(3),  # no vertex has an earlier neighbour
        Graph(4, [(1, 3)]),  # isolated vertices around one edge
        Graph(4, [(0, 3), (1, 3), (2, 3)]),  # three earlier neighbours
        Graph(3, [(1, 2)]),  # vertex 1 has no earlier neighbour
        # the hosts above are forests, counted by the upward pass; these
        # have a cycle, so the backtracking's branches stay covered
        Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),  # a 4-cycle: vertex 1 has no earlier neighbour
        Graph(4, list(combinations(range(4), 2))),  # K4: vertex 3 has three earlier neighbours
        Graph(5, [(1, 3), (1, 4), (3, 4)]),  # a triangle beside isolated vertices
    ]
    hosts += [_random_graph(rng, rng.randint(1, 5)) for _ in range(30)]
    for h in hosts:
        for g in (Graph(1), Graph(3), k3(), _random_graph(rng, rng.randint(1, 6))):
            assert hom_count(h, g) == len(brute_force_homs(h, g)), (h, g)


def test_hom_count_refuses_an_empty_source():
    with pytest.raises(ValueError, match="^source graph must have at least one vertex$"):
        hom_count(Graph(0), k3())


def test_hom_count_on_a_one_vertex_target():
    # 1^1500 candidate maps pass the cap; the search would recurse once per
    # source vertex
    assert hom_count(Graph(1500), Graph(1)) == 1
    assert hom_count(Graph(1500, [(1498, 1499)]), Graph(1)) == 0
    for h in small_trees(5) + [Graph(3), Graph(3, [(0, 2)])]:
        assert hom_count(h, Graph(1)) == len(brute_force_homs(h, Graph(1))), h


def test_all_graphs_match_canonical_dedup():
    for n in range(1, 6):
        assert all_graphs_reference(n) == canonical_dedup_graphs(n)


@pytest.fixture(scope="module")
def graphs_up_to_six():
    """all_graphs_reference(6), generated once for this module (about 2 s)."""
    return all_graphs_reference(6)


def test_isomorphism_class_counts_up_to_six_vertices(graphs_up_to_six):
    graphs = graphs_up_to_six
    connected = [g for g in graphs if is_connected(g)]
    assert [sum(g.n == n for g in graphs) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert [sum(g.n == n for g in connected) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    assert (len(graphs), len(connected)) == (208, 143)


def test_connected_table_matches_the_generator(graphs_up_to_six):
    # all_graphs_reference(n) is the prefix of all_graphs_reference(6) on at
    # most n vertices, so one generation serves every n
    assert [len(CONNECTED_CLASSES[n]) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    for n in range(0, 7):
        expected = [g for g in graphs_up_to_six if g.n <= n and is_connected(g)]
        got = connected_graphs_up_to(n)
        assert type(got) is list
        assert got == expected, n
    assert connected_graphs_up_to(-1) == []


@st.composite
def forests(draw, max_vertices=7):
    """A forest on 1..max_vertices vertices: each vertex after the first
    hangs from an earlier one or starts a tree of its own (so a draw can
    hold several trees and isolated vertices), then the vertices are
    relabelled by a drawn permutation."""
    n = draw(st.integers(1, max_vertices))
    perm = draw(st.permutations(range(n)))
    parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
    return Graph(n, [(perm[u], perm[v]) for v, u in enumerate(parents, 1) if u >= 0])


@st.composite
def small_targets(draw):
    """A target on 1..5 vertices: one vertex, edgeless, complete or random."""
    n = draw(st.integers(1, 5))
    pairs = list(combinations(range(n), 2))
    kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
    if kind == "random":
        return Graph(n, [e for e in pairs if draw(st.booleans())])
    return Graph(n, pairs if kind == "complete" else ())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(forests(), forests(max_vertices=4), small_targets())
def test_forest_hom_counts_match_brute_force_and_multiply(h, other, g):
    count = hom_count(h, g)
    assert count == len(brute_force_homs(h, g))
    assert hom_count(_disjoint_union(h, other), g) == count * hom_count(other, g)


def test_hom_counts_of_paths_and_stars_match_brute_force():
    # each walk starts at its tree's lowest vertex: at an end of a path or
    # inside it, at the centre of a star or at a leaf
    hosts = []
    for n in range(1, 8):
        inside = list(range(1, n, 2))[::-1] + list(range(0, n, 2))
        hosts += [
            Graph(n, [(v, v + 1) for v in range(n - 1)]),
            Graph(n, list(zip(inside, inside[1:]))),
            star(n - 1),
            Graph(n, [(v, n - 1) for v in range(n - 1)]),
        ]
    rng = random.Random(19)
    k4 = Graph(4, list(combinations(range(4), 2)))
    for h in hosts:
        for g in (Graph(1), Graph(3), k3(), k4, random_graph(rng, 4, 0.5)):
            assert hom_count(h, g) == len(brute_force_homs(h, g)), (h, g)
