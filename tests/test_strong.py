import pytest

from homglue.graphs import Graph
from homglue.markov import MarkovTree, TreeDecomposition
from homglue.strong import (
    StrongDecomposition,
    is_strong_isomorphism,
    minimum_subdecomposition,
    strong_isomorphism,
    underlying_graph,
    validate_strong,
    zero_strong,
)
from homglue.fixtures import (
    bad_condition3_fixture,
    book,
    book_fixture,
    bundled_strong_fixtures,
    c4,
    c4_fixture,
    path_fixture,
    star_fixture,
)


def test_bundled_fixtures_validate():
    for name, sd in bundled_strong_fixtures().items():
        report = validate_strong(sd)
        assert report.ok, (name, report.violations)


def test_zero_strong_path():
    sd = path_fixture()
    assert sd.level == 0
    assert validate_strong(sd).ok
    assert underlying_graph(sd) == Graph(3, [(0, 1), (1, 2)])


def test_level0_rejects_non_tree():
    sd = StrongDecomposition(
        0, c4(), base=MarkovTree(4, c4().edges, [(0, 1), (1, 2), (2, 3)])
    )
    report = validate_strong(sd)
    assert [v["kind"] for v in report.violations] == ["base-host-not-a-tree"]


def test_condition3_violation_flagged():
    report = validate_strong(bad_condition3_fixture())
    assert not report.ok
    assert report.violations == [
        {
            "kind": "sub-decomposition-not-isomorphic",
            "witness": {"path": [], "edge": [0, 1], "intersection": [0, 2]},
        }
    ]


def test_child_host_mismatch_flagged():
    # Y's child replaced by a decomposition of a different tree shape
    host = c4()
    markov = MarkovTree(4, [(0, 1, 2), (0, 2, 3)], [(0, 1)])
    wrong = zero_strong(Graph(3, [(0, 1), (0, 2)]))  # star, not H[{0,2,3}]
    sd = StrongDecomposition(
        1,
        host,
        decomp=TreeDecomposition(host, markov),
        children=(zero_strong(Graph(3, [(0, 1), (1, 2)])), wrong),
    )
    report = validate_strong(sd)
    assert any(v["kind"] == "child-host-mismatch" for v in report.violations)


def test_minimum_subdecomposition_c4():
    sd = c4_fixture()
    sub = minimum_subdecomposition(sd, (0, 2))
    # {0,2} sits in both bags; the dispatch recurses into bag {0,1,2} and
    # needs both edge-bags of the path 0-1-2
    assert sub.decomposition.level == 0
    assert sub.decomposition.host == Graph(3, [(0, 1), (1, 2)])
    assert sub.embedding == (0, 1, 2)
    assert validate_strong(sub.decomposition).ok


def test_minimum_subdecomposition_book_shared_edge():
    sub = minimum_subdecomposition(book_fixture(), (0, 1))
    assert sub.decomposition.host == Graph(2, [(0, 1)])
    assert sub.embedding == (0, 1)


def test_minimum_subdecomposition_full():
    for sd in (c4_fixture(), book_fixture()):
        u = tuple(range(sd.host.n))
        sub = minimum_subdecomposition(sd, u)
        assert sub.decomposition.host == sd.host
        assert sub.embedding == u


def test_minimum_subdecomposition_errors():
    with pytest.raises(ValueError):
        minimum_subdecomposition(c4_fixture(), ())
    with pytest.raises(ValueError):
        minimum_subdecomposition(c4_fixture(), (7,))


def test_minimum_subdecomposition_always_valid_and_covering():
    from itertools import combinations

    for name, sd in bundled_strong_fixtures().items():
        for size in (1, 2, 3):
            for u in combinations(range(sd.host.n), size):
                sub = minimum_subdecomposition(sd, u)
                assert validate_strong(sub.decomposition).ok, (name, u)
                assert set(u) <= set(sub.embedding), (name, u)


def test_strong_isomorphism_identity():
    sd = c4_fixture()
    iso = strong_isomorphism(sd, sd)
    assert iso is not None
    assert iso.vertex_map == (0, 1, 2, 3)


def test_strong_isomorphism_c4_children():
    sd = c4_fixture()
    iso = strong_isomorphism(sd.children[0], sd.children[1], {0: 0, 2: 1})
    assert iso is not None
    assert iso.vertex_map == (0, 2, 1)
    assert is_strong_isomorphism(sd.children[0], sd.children[1], iso.vertex_map)


def test_is_strong_isomorphism_rejects_non_injective_map():
    sd = c4_fixture()
    assert not is_strong_isomorphism(sd.children[0], sd.children[1], (0, 0, 1))


def test_is_strong_isomorphism_rejects_non_edge_preserving_map():
    # a bijection, but edge 0-1 of the first path lands on a non-edge
    sd = c4_fixture()
    assert not is_strong_isomorphism(sd.children[0], sd.children[1], (0, 1, 2))


def test_is_strong_isomorphism_out_of_range_image_is_a_value_error():
    sd = c4_fixture()
    with pytest.raises(ValueError):
        is_strong_isomorphism(sd.children[0], sd.children[1], (0, 2, 3))


def test_is_strong_isomorphism_wrong_length_map_is_a_value_error():
    sd = c4_fixture()
    for vertex_map in ((0, 2), (0, 2, 1, 3)):
        with pytest.raises(ValueError):
            is_strong_isomorphism(sd.children[0], sd.children[1], vertex_map)


def test_strong_isomorphism_absent_for_different_trees():
    path = path_fixture()
    star = star_fixture()
    with pytest.raises(ValueError):
        strong_isomorphism(path, c4_fixture())  # level mismatch
    sd = zero_strong(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert strong_isomorphism(sd, star) is None


def test_strong_isomorphism_preserves_structure():
    b = book_fixture()
    iso = strong_isomorphism(b.children[0], b.children[1])
    assert iso is not None
    phi = iso.vertex_map
    h1, h2 = b.children[0].host, b.children[1].host
    assert all(h2.has_edge(phi[u], phi[v]) for u, v in h1.edges)
    m1, m2 = b.children[0].decomp.markov, b.children[1].decomp.markov
    for i, bag in enumerate(m1.bags):
        image = tuple(sorted(phi[v] for v in bag))
        assert image == m2.bags[iso.bag_map[i]]


def test_uniqueness_up_to_isomorphism_of_bag_choice():
    # when several bags contain u, the sub-decompositions obtained from the
    # different choices are isomorphic fixing u pointwise
    for sd in (c4_fixture(), book_fixture()):
        m = sd.decomp.markov
        for u in _subsets_in_multiple_bags(m):
            subs = []
            for x in sorted(
                i for i, bag in enumerate(m.bags) if set(u) <= set(bag)
            ):
                bag = m.bags[x]
                child_u = tuple(bag.index(v) for v in u)
                inner = minimum_subdecomposition(sd.children[x], child_u)
                embedding = tuple(bag[v] for v in inner.embedding)
                subs.append((inner.decomposition, embedding))
            first, emb1 = subs[0]
            for other, emb2 in subs[1:]:
                inv1 = {v: i for i, v in enumerate(emb1)}
                inv2 = {v: i for i, v in enumerate(emb2)}
                pin = {inv1[v]: inv2[v] for v in u}
                assert strong_isomorphism(first, other, pin) is not None


def _subsets_in_multiple_bags(m):
    from itertools import combinations

    out = []
    for size in (1, 2):
        for u in combinations(range(m.ground_size), size):
            holders = [i for i, bag in enumerate(m.bags) if set(u) <= set(bag)]
            if len(holders) > 1:
                out.append(u)
    return out


def test_underlying_graph():
    assert underlying_graph(c4_fixture()) == c4()
    assert underlying_graph(book_fixture()) == book()
    assert underlying_graph(path_fixture()) == Graph(3, [(0, 1), (1, 2)])
