import json
import random
from itertools import product

import pytest

from helpers import (
    _brute_force_bag_map,
    brute_force_strong_isomorphism,
    minimum_subdecomposition_reference,
    random_level1,
    random_tree,
    record_preconditions,
    relabel_strong,
    small_trees,
)
from homglue import serialize
from homglue.cli import main
from homglue.graphs import Graph
from homglue.markov import MarkovTree, TreeDecomposition
from homglue.strong import (
    StrongDecomposition,
    is_strong_isomorphism,
    minimum_subdecomposition,
    strong_isomorphism,
    validate_strong,
    zero_strong,
)
from fixture_builders import (
    bad_condition3_fixture,
    book,
    book_fixture,
    bundled_strong_fixtures,
    c4,
    c4_fixture,
    family_a,
    family_b,
    mixed_levels_condition3,
    path_fixture,
    spider,
    star,
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
    assert sd.host == Graph(3, [(0, 1), (1, 2)])


def test_zero_strong_refuses_a_tree_without_edges():
    with pytest.raises(ValueError, match="^tree has no edges$"):
        zero_strong(Graph(1))


def test_level0_rejects_non_tree():
    sd = StrongDecomposition(
        0, c4(), TreeDecomposition(c4(), MarkovTree(4, c4().edges, [(0, 1), (1, 2), (2, 3)]))
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


def test_condition3_fails_when_the_minimum_subdecompositions_differ_in_level():
    sd = mixed_levels_condition3()
    assert validate_strong(sd).violations == [
        {
            "kind": "sub-decomposition-not-isomorphic",
            "witness": {"path": [], "edge": [0, 1], "intersection": [0, 1, 2]},
        }
    ]
    # {0, 1, 2} sits at positions 0, 1, 2 of both bags
    msd0, msd1 = (minimum_subdecomposition(child, (0, 1, 2)) for child in sd.children)
    assert (msd0.decomposition.level, msd1.decomposition.level) == (0, 1)
    assert strong_isomorphism(msd0.decomposition, msd1.decomposition) is None


def test_condition3_on_a_cyclic_and_on_an_empty_intersection():
    # two bags holding all of C4 share its 4-cycle, which is not a forest
    sd = c4_fixture()
    markov = MarkovTree(4, [(0, 1, 2, 3), (0, 1, 2, 3)], [(0, 1)])
    cyclic = StrongDecomposition(2, sd.host, TreeDecomposition(sd.host, markov), (sd, sd))
    assert validate_strong(cyclic).violations == [
        {"kind": "intersection-not-forest", "witness": {"path": [], "edge": [0, 1]}}
    ]
    # the bags of the matching {0-1, 2-3} share nothing: condition 3 is vacuous
    matching = Graph(4, [(0, 1), (2, 3)])
    markov = MarkovTree(4, [(0, 1), (2, 3)], [(0, 1)])
    k2 = zero_strong(Graph(2, [(0, 1)]))
    disjoint = StrongDecomposition(1, matching, TreeDecomposition(matching, markov), (k2, k2))
    assert validate_strong(disjoint).ok


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
        assert sub.decomposition == sd
        assert sub.embedding == u


def test_minimum_subdecomposition_always_valid_and_covering():
    from itertools import combinations

    for name, sd in bundled_strong_fixtures().items():
        for size in (1, 2, 3):
            for u in combinations(range(sd.host.n), size):
                sub = minimum_subdecomposition(sd, u)
                assert validate_strong(sub.decomposition).ok, (name, u)
                assert set(u) <= set(sub.embedding), (name, u)


def test_minimum_subdecomposition_matches_the_always_retracting_reference():
    from itertools import combinations

    for name, sd in bundled_strong_fixtures().items():
        for size in range(1, sd.host.n + 1):
            for u in combinations(range(sd.host.n), size):
                sub = minimum_subdecomposition(sd, u)
                ref = minimum_subdecomposition_reference(sd, u)
                assert sub.decomposition == ref.decomposition, (name, u)
                assert sub.embedding == ref.embedding, (name, u)


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


def test_is_strong_isomorphism_rejects_decompositions_of_different_levels():
    p3 = Graph(3, [(0, 1), (1, 2)])
    level1 = StrongDecomposition(
        1, p3, TreeDecomposition(p3, MarkovTree(3, [(0, 1, 2)])), (zero_strong(p3),)
    )
    assert validate_strong(level1).ok
    assert not is_strong_isomorphism(zero_strong(p3), level1, (0, 1, 2))


def _verifier_pairs():
    """Pairs of small valid decompositions, hosts of at most 5 vertices: the
    children of the c4 and book fixtures against each other, every tree of up
    to 5 vertices against a relabelled copy, random_level1 draws against a
    relabelled copy and against the next draw, and pairs of different levels
    or host sizes."""
    rng = random.Random(59)
    pairs = [
        (a, b) for sd in (c4_fixture(), book_fixture()) for a in sd.children for b in sd.children
    ]

    def with_copy(sd):
        perm = list(range(sd.host.n))
        rng.shuffle(perm)
        return sd, relabel_strong(sd, perm, rng)

    pairs += [with_copy(zero_strong(t)) for t in small_trees(5)]
    draws = [random_level1(rng, rng.randint(2, 3), 2) for _ in range(6)]
    draws += [random_level1(rng, 2, 3) for _ in range(4)]
    pairs += [with_copy(sd) for sd in draws]
    pairs += list(zip(draws, draws[1:]))
    p3 = Graph(3, [(0, 1), (1, 2)])
    one_bag = StrongDecomposition(
        1, p3, TreeDecomposition(p3, MarkovTree(3, [(0, 1, 2)])), (zero_strong(p3),)
    )
    square = book_fixture().children[0]
    pairs += [
        (zero_strong(p3), one_bag),
        (one_bag, zero_strong(p3)),
        (c4_fixture().children[0], square),
        (square, c4_fixture().children[0]),
        (path_fixture(), star_fixture()),
        (star_fixture(), path_fixture()),
        (c4_fixture(), square),
    ]
    return pairs


# the searches a verified map reaches, as record_preconditions names them
SEARCHES = (
    ("homglue.strong", "strong_isomorphism"),
    ("homglue.graphs", "isomorphisms"),
    ("homglue.strong", "isomorphisms"),
)


def test_is_strong_isomorphism_is_the_brute_force_answer_on_every_map(monkeypatch):
    pairs = _verifier_pairs()
    assert all(sd.host.n <= 5 and validate_strong(sd).ok for pair in pairs for sd in pair)
    traffic = record_preconditions(monkeypatch)
    accepted = refused = 0
    for sd1, sd2 in pairs:
        n1, n2 = sd1.host.n, sd2.host.n
        for phi in product(range(n2), repeat=n1):
            answer = is_strong_isomorphism(sd1, sd2, phi)
            assert answer == (_brute_force_bag_map(sd1, sd2, phi) is not None), (sd1, sd2, phi)
            accepted += answer
            refused += not answer
        searches = {key: len(traffic.get(key, ())) for key in SEARCHES}
        wrong = [(0,) * (n1 - 1), (0,) * (n1 + 1), (n2,) + (0,) * (n1 - 1), (0,) * (n1 - 1) + (-1,)]
        for phi in wrong:
            with pytest.raises(ValueError):
                is_strong_isomorphism(sd1, sd2, phi)
        assert {key: len(traffic.get(key, ())) for key in SEARCHES} == searches
    assert accepted > 0 and refused > 0
    assert all(traffic.get(key) for key in SEARCHES)
    for key, held in traffic.items():
        assert all(held), "%s.%s was called outside its precondition" % key


def test_strong_isomorphism_absent_for_different_trees():
    path = path_fixture()
    star = star_fixture()
    assert strong_isomorphism(path, c4_fixture()) is None  # levels differ
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
    assert c4_fixture().host == c4()
    assert book_fixture().host == book()
    assert path_fixture().host == Graph(3, [(0, 1), (1, 2)])


def _iso_pair(iso):
    return None if iso is None else (iso.vertex_map, iso.bag_map)


def _pins(rng, sd, perm):
    """0, 1 and 2 pins, each drawn once from perm (consistent) and once at
    random (often inconsistent)."""
    n = sd.host.n
    out = [{}]
    for size in (1, 2):
        vs = rng.sample(range(n), min(size, n))
        out.append({v: perm[v] for v in vs})
        out.append({v: rng.randrange(n) for v in vs})
    return out


def _oracle_cases(rng, sd):
    """sd against relabelled copies of itself, pinned 0-2 times."""
    for _ in range(2):
        perm = list(range(sd.host.n))
        rng.shuffle(perm)
        copy = relabel_strong(sd, perm, rng)
        assert validate_strong(copy).ok
        for pin in _pins(rng, sd, perm):
            yield sd, copy, pin


def _assert_matches_oracle(cases):
    found = 0
    for sd1, sd2, pin in cases:
        expected = brute_force_strong_isomorphism(sd1, sd2, pin)
        assert _iso_pair(strong_isomorphism(sd1, sd2, pin)) == expected, (sd1, sd2, pin)
        found += expected is not None
    return found


def test_strong_isomorphism_matches_brute_force_on_fixtures_and_their_parts():
    from itertools import combinations

    rng = random.Random(41)
    parts = []
    for sd in bundled_strong_fixtures().values():
        parts.append(sd)
        parts.extend(sd.children)
        for size in (1, 2, 3):
            for u in combinations(range(sd.host.n), size):
                parts.append(minimum_subdecomposition(sd, u).decomposition)
    found = _assert_matches_oracle(case for sd in parts for case in _oracle_cases(rng, sd))
    # every unpinned and consistently pinned copy is found
    assert found >= 3 * 2 * len(parts)


def _identical_bags(count, tree):
    # the path 0-1-2 with count copies of the bag {0, 1, 2}
    host = Graph(3, [(0, 1), (1, 2)])
    markov = MarkovTree(3, [(0, 1, 2)] * count, tree)
    children = tuple(zero_strong(host) for _ in range(count))
    return StrongDecomposition(1, host, TreeDecomposition(host, markov), children)


def _star_bags(level, tree):
    # the star K1,3 with bags {0,1}, {0,2}, {0,3}
    host = star(3)
    markov = MarkovTree(4, [(0, 1), (0, 2), (0, 3)], tree)
    if level == 0:
        return StrongDecomposition(0, host, TreeDecomposition(host, markov))
    children = tuple(zero_strong(Graph(2, [(0, 1)])) for _ in range(3))
    return StrongDecomposition(1, host, TreeDecomposition(host, markov), children)


STAR_BAG_TREES = ([(0, 1), (0, 2)], [(0, 1), (1, 2)], [(0, 2), (1, 2)])


def test_strong_isomorphism_matches_brute_force_with_duplicate_bags_and_bag_trees():
    rng = random.Random(43)
    shapes = [
        _identical_bags(2, [(0, 1)]),
        _identical_bags(3, [(0, 1), (1, 2)]),
        _identical_bags(3, [(0, 1), (0, 2)]),
    ]
    shapes += [_star_bags(level, tree) for level in (0, 1) for tree in STAR_BAG_TREES]
    for sd in shapes:
        assert validate_strong(sd).ok
    cases = [case for sd in shapes for case in _oracle_cases(rng, sd)]
    # the star's three bag trees against each other, pinned and not
    cases += [
        (_star_bags(level, t1), _star_bags(level, t2), pin)
        for level in (0, 1)
        for t1 in STAR_BAG_TREES
        for t2 in STAR_BAG_TREES
        for pin in ({}, {1: 1}, {0: 1}, {1: 2, 2: 1})
    ]
    assert _assert_matches_oracle(cases) > 0


def test_strong_isomorphism_matches_brute_force_on_non_isomorphic_pairs():
    rng = random.Random(47)
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    two_bags = StrongDecomposition(
        1,
        path4,
        TreeDecomposition(path4, MarkovTree(4, [(0, 1), (1, 2, 3)], [(0, 1)])),
        (zero_strong(Graph(2, [(0, 1)])), zero_strong(Graph(3, [(0, 1), (1, 2)]))),
    )
    even = StrongDecomposition(
        1,
        path4,
        TreeDecomposition(path4, MarkovTree(4, [(0, 1, 2), (1, 2, 3)], [(0, 1)])),
        (zero_strong(Graph(3, [(0, 1), (1, 2)])), zero_strong(Graph(3, [(0, 1), (1, 2)]))),
    )
    cases = [
        (zero_strong(path4), star_fixture(), {}),
        (two_bags, even, {}),
        (even, two_bags, {0: 0}),
        (_identical_bags(2, [(0, 1)]), _identical_bags(3, [(0, 1), (1, 2)]), {}),
        (c4_fixture(), bad_condition3_fixture(), {}),
    ]
    for _ in range(40):
        n = rng.randint(2, 7)
        cases.append((zero_strong(random_tree(rng, n)), zero_strong(random_tree(rng, n)), {}))
    assert validate_strong(two_bags).ok and validate_strong(even).ok
    _assert_matches_oracle(cases)
    for sd1, sd2, pin in cases[:5]:
        assert strong_isomorphism(sd1, sd2, pin) is None


def test_constructor_messages_for_each_payload_shape():
    host = Graph(3, [(0, 1), (1, 2)])
    td = zero_strong(host).decomp
    with pytest.raises(ValueError, match="^level 0 requires a base payload only$"):
        StrongDecomposition(0, host, td, (zero_strong(host),))
    with pytest.raises(ValueError, match="^level k>0 requires decomp and children$"):
        StrongDecomposition(1, host, td)
    with pytest.raises(ValueError, match="^one child per bag is required$"):
        StrongDecomposition(1, host, td, (zero_strong(host),))


# Condition 3's worst cases (ROADMAP item 2), whose search tries every pinned
# host isomorphism before it answers. No time bound holds them yet: at m = 7,
# family A takes about half a second.


@pytest.mark.parametrize(
    "build, intersection",
    [(family_a, [0, 1, 2]), (family_b, [0, 5, 12])],
    ids=["family-a", "family-b"],
)
def test_validate_refuses_condition_3_on_families_a_and_b(tmp_path, capsys, build, intersection):
    sd = build(5, (2, 1, 1), (1, 1, 2))
    assert all(validate_strong(child).ok for child in sd.children)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(serialize.strong_to_json(sd)))
    assert main(["validate", str(path)]) == 1
    violation = {
        "kind": "sub-decomposition-not-isomorphic",
        "witness": {"edge": [0, 1], "intersection": intersection, "path": []},
    }
    report = {"kind": "strong-decomposition", "ok": False, "violations": [violation]}
    assert capsys.readouterr() == (json.dumps(report, indent=1, sort_keys=True) + "\n", "")


def test_strong_isomorphism_of_spiders_pinned_at_x_y_and_z_matches_brute_force():
    # S(3; 1, 0, 1) and S(3; 0, 1, 1) differ only by swapping x and z, so
    # they are strongly isomorphic, but not with x, y and z pinned
    x, z, y = 0, 1, 2
    first, second = (spider(x, z, y, 3, 4, range(5, 8), legs)[1] for legs in ((1, 0, 1), (0, 1, 1)))
    assert validate_strong(first).ok and validate_strong(second).ok
    pin = {x: x, y: y, z: z}
    assert brute_force_strong_isomorphism(first, second, pin) is None
    assert strong_isomorphism(first, second, pin) is None
    expected = brute_force_strong_isomorphism(first, second, {})
    assert expected is not None
    assert _iso_pair(strong_isomorphism(first, second)) == expected
    rng = random.Random(53)
    perm = list(range(first.host.n))
    rng.shuffle(perm)
    copy = relabel_strong(first, perm, rng)
    pin = {v: perm[v] for v in (x, y, z)}
    expected = brute_force_strong_isomorphism(first, copy, pin)
    assert expected is not None
    assert _iso_pair(strong_isomorphism(first, copy, pin)) == expected
