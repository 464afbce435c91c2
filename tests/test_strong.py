import json
import random
import sys
from itertools import product

import pytest

from helpers import (
    _brute_force_bag_map,
    brute_force_strong_isomorphism,
    cut_square,
    glue_copies,
    minimum_subdecomposition_reference,
    random_copy_plan,
    random_level1,
    random_level2,
    random_tree,
    record_preconditions,
    relabel_strong,
    small_trees,
)
from homglue import serialize, strong
from homglue.cli import main
from homglue.graphs import Graph, isomorphisms_pinned, vertex_set
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
    _cut_cycle,
    _level_up,
    bad_condition3_fixture,
    book,
    book_fixture,
    bundled_strong_fixtures,
    c4,
    c4_fixture,
    family_a,
    family_b,
    hexagon_level2,
    matching_level1,
    mixed_levels_condition3,
    path_fixture,
    paths_of_two_lengths,
    random_book,
    random_even_cycle,
    random_ladder,
    spider,
    star,
    star_beside_a_path,
    star_fixture,
    two_bag_covers_at_level_2,
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
    (msd0, _), (msd1, _) = (minimum_subdecomposition(child, (0, 1, 2)) for child in sd.children)
    assert (msd0.level, msd1.level) == (0, 1)
    assert strong_isomorphism(msd0, msd1) is None


def test_condition3_on_a_cyclic_and_on_an_empty_intersection():
    # two bags holding all of C4 share its 4-cycle, which is not a forest
    sd = c4_fixture()
    markov = MarkovTree(4, [(0, 1, 2, 3), (0, 1, 2, 3)], [(0, 1)])
    cyclic = StrongDecomposition(2, sd.host, TreeDecomposition(sd.host, markov), (sd, sd))
    assert validate_strong(cyclic).violations == [
        {"kind": "intersection-not-forest", "witness": {"path": [], "edge": [0, 1]}}
    ]
    # the bags of the matching {0-1, 2-3} share nothing: condition 3 is vacuous
    assert validate_strong(matching_level1()).ok


def _levels_above_0(sd):
    """sd and every decomposition nested in it, above level 0."""
    if sd.level > 0:
        yield sd
        for child in sd.children:
            yield from _levels_above_0(child)


def _searched(sd, i, j, inter):
    """Condition 3 on the overlap inter of bags i and j of sd, decided by the
    full search: both children's minimum sub-decompositions holding inter,
    then strong_isomorphism under the pin that sends each overlap vertex's
    copy on side i to its copy on side j."""
    m = sd.decomp.markov
    pins = []
    for b in (i, j):
        bag = m.bags[b]
        msd, embedding = minimum_subdecomposition(sd.children[b], [bag.index(v) for v in inter])
        pins.append((msd, [embedding.index(bag.index(v)) for v in inter]))
    (msd_i, pin_i), (msd_j, pin_j) = pins
    return strong_isomorphism(msd_i, msd_j, dict(zip(pin_i, pin_j))) is not None


def _record_calls(monkeypatch, name):
    """The list that records the arguments of every later call to
    strong.name, which is wrapped where the package calls it."""
    calls = []
    real = getattr(strong, name)
    monkeypatch.setattr(strong, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _relabelled(rng, sd):
    perm = list(range(sd.host.n))
    rng.shuffle(perm)
    return relabel_strong(sd, perm, rng)


def test_condition3_search_holds_on_every_one_vertex_and_one_edge_overlap():
    # validate_strong settles these overlaps by their shape, without a
    # search; the full search must find an isomorphism on every one of them
    rng = random.Random(61)
    decompositions = [*bundled_strong_fixtures().values(), hexagon_level2()]
    for build in (family_a, family_b):
        decompositions += build(4, (1, 1, 1), (0, 1, 2)).children
    decompositions += [random_level1(rng, rng.randint(2, 5), 4) for _ in range(20)]
    decompositions += [_relabelled(rng, random_book(rng, pages)) for pages in (1, 2, 3, 4, 5)]
    decompositions += [_relabelled(rng, random_ladder(rng, rungs)) for rungs in (1, 2, 3, 4, 5)]
    checked = {1: 0, 2: 0}
    for sd in decompositions:
        assert validate_strong(sd).ok
        for part in _levels_above_0(sd):
            m = part.decomp.markov
            for i, j in m.tree:
                inter = vertex_set(set(m.bags[i]) & set(m.bags[j]))
                if len(inter) == 1 or (len(inter) == 2 and part.host.has_edge(*inter)):
                    assert _searched(part, i, j, inter), (part, i, j)
                    checked[len(inter)] += 1
    assert checked[1] > 0 and checked[2] > 0, checked


def test_condition3_rules_answer_only_where_the_full_search_holds(monkeypatch):
    # _condition3_holds answers without a sub-decomposition on equal
    # children holding the overlap at the same positions (the identity
    # rule) and, at level 1, on two vertices whose covering families are
    # paths of one length (the path rule); the full search must hold on
    # every overlap either rule settles
    rng = random.Random(67)
    decompositions = [c4_fixture(), book_fixture(), hexagon_level2()]
    decompositions += [_relabelled(rng, random_book(rng, pages)) for pages in (1, 2, 3, 4, 5)]
    decompositions += [_relabelled(rng, random_ladder(rng, rungs)) for rungs in (1, 2, 3, 4, 5)]
    decompositions += [random_even_cycle(rng, m) for m in (2, 3, 4, 5, 6) for _ in range(3)]
    for _ in range(12):
        base = cut_square(c4(), *rng.choice(((0, 2), (1, 3))))
        plan = random_copy_plan(rng, base.host, rng.randint(2, 4))
        decompositions.append(glue_copies(base, plan, rng))
    decompositions += [random_level2(rng, rng.randint(2, 4)) for _ in range(12)]
    built = _record_calls(monkeypatch, "minimum_subdecomposition")
    walked = _record_calls(monkeypatch, "_cover_and_distance")
    settled = {"identity": 0, "path": 0}
    for sd in decompositions:
        assert validate_strong(sd).ok
        for part in _levels_above_0(sd):
            m = part.decomp.markov
            for i, j in m.tree:
                inter = vertex_set(set(m.bags[i]) & set(m.bags[j]))
                if not inter:
                    continue
                del built[:], walked[:]
                holds = strong._condition3_holds(part, i, j, inter)
                if not built:
                    assert holds and _searched(part, i, j, inter), (part, i, j)
                    settled["path" if walked else "identity"] += 1
    assert settled["identity"] > 0 and settled["path"] > 0, settled


@pytest.mark.parametrize(
    "build, searches",
    # book: the spine {0, 1} is an edge, and each square's overlap an
    # opposite pair, whose covering families are paths of two edges; c4:
    # the overlap {0, 2} likewise; hexagon: the overlap {0, 3} is no edge,
    # between unequal level-1 children, and each child's overlap is an edge
    [(book_fixture, 0), (hexagon_level2, 1), (c4_fixture, 0)],
    ids=["book", "hexagon", "c4"],
)
def test_validate_searches_only_overlaps_the_decompositions_leave_open(
    monkeypatch, build, searches
):
    calls = _record_calls(monkeypatch, "strong_isomorphism")
    assert validate_strong(build()).ok
    assert len(calls) == searches


@pytest.mark.parametrize(
    "build, intersection",
    [
        # minimum sub-decompositions that are paths of two and three edges,
        # of unequal children, and of equal children holding the overlap at
        # other positions
        (bad_condition3_fixture, [0, 2]),
        (paths_of_two_lengths, [0, 4]),
        # a covering family of as many bags as the path on the other side
        # that routes through a third edge of a star, on either side
        (lambda: star_beside_a_path(True), [0, 1]),
        (lambda: star_beside_a_path(False), [0, 1]),
        # covering families of as many bags as the distance, above level 1
        (two_bag_covers_at_level_2, [0, 1]),
    ],
    ids=["unequal-children", "equal-children", "star-first", "star-second", "level-2"],
)
def test_condition3_failures_that_resemble_a_rule_reach_the_search(
    monkeypatch, build, intersection
):
    calls = _record_calls(monkeypatch, "strong_isomorphism")
    sd = build()
    assert all(validate_strong(child).ok for child in sd.children)
    assert validate_strong(sd).violations == [
        {
            "kind": "sub-decomposition-not-isomorphic",
            "witness": {"path": [], "edge": [0, 1], "intersection": intersection},
        }
    ]
    assert len(calls) == 1


def _chain(level):
    """The path 0-1-2 decomposed into one bag at every level from level
    down to 0."""
    p3 = Graph(3, [(0, 1), (1, 2)])
    sd = zero_strong(p3)
    for k in range(1, level + 1):
        sd = StrongDecomposition(k, p3, TreeDecomposition(p3, MarkovTree(3, [(0, 1, 2)])), (sd,))
    return sd


def test_condition3_on_equal_children_a_third_of_the_recursion_limit_deep():
    # the children are equal but distinct, and compared level by level
    # without recursion; the dataclass's == takes several frames a level
    level = sys.getrecursionlimit() // 3
    first, second = _chain(level - 1), _chain(level - 1)
    p3 = first.host
    markov = MarkovTree(3, [(0, 1, 2), (0, 1, 2)], [(0, 1)])
    sd = StrongDecomposition(level, p3, TreeDecomposition(p3, markov), (first, second))
    assert validate_strong(sd).ok


def test_an_invalid_child_repeated_at_two_bags_is_reported_at_both_paths():
    # book with both squares replaced by one square whose bag tree and
    # second path's bag tree have lost their edge; the load makes the two
    # children one object, and its first path, valid, is walked once
    doc = serialize.strong_to_json(book_fixture())
    child = doc["payload"]["children"][0]
    child["payload"]["decomp"]["markov"]["tree"] = []
    child["payload"]["children"][1]["payload"]["base"]["tree"] = []
    doc["payload"]["children"] = [child, json.loads(json.dumps(child))]
    sd = serialize.strong_from_json(doc)
    assert sd.children[0] is sd.children[1]
    # the report the validator gave before it kept the children found valid
    assert validate_strong(sd).violations == [
        {"kind": "tree-structure", "witness": {"path": [0], "num_bags": 2, "tree": []}},
        {"kind": "tree-structure", "witness": {"path": [0, 1], "num_bags": 2, "tree": []}},
        {"kind": "tree-structure", "witness": {"path": [1], "num_bags": 2, "tree": []}},
        {"kind": "tree-structure", "witness": {"path": [1, 1], "num_bags": 2, "tree": []}},
    ]


@pytest.mark.parametrize("pages", [2, 3, 5])
def test_a_valid_child_repeated_at_every_bag_is_validated_once(monkeypatch, pages):
    # a book of 4-cycles 0-a-b-1 all cut at 0 and b: every page's square
    # relabels onto its bag alike, so its document repeats at every bag
    squares = [_cut_cycle([0, 2 + 2 * i, 3 + 2 * i, 1], 0) for i in range(pages)]
    book_sd = _level_up(squares, [(0, i) for i in range(1, pages)])[1]
    sd = serialize.strong_from_json(serialize.strong_to_json(book_sd))
    child = sd.children[0]
    assert all(c is child for c in sd.children)
    checked = _record_calls(monkeypatch, "validate_tree_decomposition")
    base_checked = _record_calls(monkeypatch, "validate_markov_tree")
    assert validate_strong(sd).ok
    assert [d for d, in checked] == [sd.decomp, child.decomp]
    assert checked[1][0] is child.decomp
    # every level-0 bag tree spans its line graph
    assert base_checked == []


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


def _c4_with_child_1(child):
    """c4_fixture with its second child, which must be a level-0
    decomposition of the path 0-2-1, replaced by child."""
    sd = c4_fixture()
    return StrongDecomposition(1, sd.host, sd.decomp, (sd.children[0], child))


def _c4_twice(*children):
    """The level-2 decomposition of C4 into two bags that each hold all of
    it, carrying children."""
    markov = MarkovTree(4, [(0, 1, 2, 3), (0, 1, 2, 3)], [(0, 1)])
    return StrongDecomposition(2, c4(), TreeDecomposition(c4(), markov), children)


@pytest.mark.parametrize(
    "sd, expected",
    [
        # a level-1 child of another host: its level alone is reported
        (
            _c4_with_child_1(matching_level1()),
            [{"kind": "child-level-mismatch", "witness": {"path": [1]}}],
        ),
        # a level-0 child of another host, whose own payload is of a third:
        # its host alone is reported, and it is not validated inside
        (
            _c4_with_child_1(
                StrongDecomposition(0, Graph(3, [(0, 1), (0, 2)]), path_fixture().decomp)
            ),
            [{"kind": "child-host-mismatch", "witness": {"path": [1]}}],
        ),
        # the two bags share a 4-cycle, and the children are cut along
        # different diagonals: the cycle alone is reported, with no search
        (
            _c4_twice(cut_square(c4(), 0, 2), cut_square(c4(), 1, 3)),
            [{"kind": "intersection-not-forest", "witness": {"path": [], "edge": [0, 1]}}],
        ),
    ],
    ids=[
        "mislevelled-and-mis-hosted",
        "mis-hosted-and-invalid-inside",
        "cyclic-and-not-isomorphic",
    ],
)
def test_validate_reports_one_fault_where_a_child_or_an_overlap_has_two(sd, expected):
    assert validate_strong(sd).violations == expected


def _without_edge(g, k):
    return Graph(g.n, g.edges[:k] + g.edges[k + 1 :])


def _with_host(sd, host):
    return StrongDecomposition(sd.level, host, sd.decomp, sd.children)


def _with_decomp_host(sd, host):
    return StrongDecomposition(
        sd.level, sd.host, TreeDecomposition(host, sd.decomp.markov), sd.children
    )


def _with_child(sd, i, child):
    children = list(sd.children)
    children[i] = child
    return StrongDecomposition(sd.level, sd.host, sd.decomp, tuple(children))


def _edge_drops(sd, pick):
    """(kind, path, corrupted copy of the valid sd) for one edge, the one
    at index pick(graph), dropped from one graph: sd's decomposition host,
    a child's host, a child's decomposition host or a grandchild's host."""
    def drop(g):
        return _without_edge(g, pick(g))

    out = [("decomp-host-mismatch", [], _with_decomp_host(sd, drop(sd.decomp.host)))]
    for i, child in enumerate(sd.children):
        mis_hosted = _with_host(child, drop(child.host))
        out.append(("child-host-mismatch", [i], _with_child(sd, i, mis_hosted)))
        mis_decomposed = _with_decomp_host(child, drop(child.decomp.host))
        out.append(("decomp-host-mismatch", [i], _with_child(sd, i, mis_decomposed)))
        for j, grandchild in enumerate(child.children):
            corrupt = _with_child(child, j, _with_host(grandchild, drop(grandchild.host)))
            out.append(("child-host-mismatch", [i, j], _with_child(sd, i, corrupt)))
    return out


def _assert_one_step_reports(sd, pick):
    """Each of sd's _edge_drops is reported as its one violation, also when
    it is read back from its document (where the document can state it: a
    level-0 document has no decomposition host of its own)."""
    doc = serialize.strong_to_json(sd)
    for kind, path, corrupt in _edge_drops(sd, pick):
        expected = [{"kind": kind, "witness": {"path": path}}]
        assert validate_strong(corrupt).violations == expected
        corrupt_doc = json.loads(json.dumps(serialize.strong_to_json(corrupt)))
        if corrupt_doc != doc:
            assert validate_strong(serialize.strong_from_json(corrupt_doc)).violations == expected


def test_one_dropped_edge_is_reported_where_it_was_dropped_on_the_fixtures():
    fixtures = dict(bundled_strong_fixtures(), hexagon=hexagon_level2(), matching=matching_level1())
    for name, sd in fixtures.items():
        assert validate_strong(sd).ok, name
        for pick in (lambda g: 0, lambda g: len(g.edges) - 1):
            _assert_one_step_reports(sd, pick)


def test_one_dropped_edge_is_reported_where_it_was_dropped_on_level2_draws():
    rng = random.Random(34)
    for _ in range(25):
        sd = random_level2(rng, rng.randint(2, 4))
        assert validate_strong(sd).ok
        _assert_one_step_reports(sd, lambda g: rng.randrange(len(g.edges)))


def test_a_child_host_with_an_extra_isolated_vertex_is_reported():
    # its edges are still the bag's induced edges: only the vertex count differs
    for name, sd in bundled_strong_fixtures().items():
        for i, child in enumerate(sd.children):
            wider = Graph(child.host.n + 1, child.host.edges)
            corrupt = _with_child(sd, i, _with_host(child, wider))
            expected = [{"kind": "child-host-mismatch", "witness": {"path": [i]}}]
            assert validate_strong(corrupt).violations == expected, name


def test_minimum_subdecomposition_c4():
    sd = c4_fixture()
    sub, embedding = minimum_subdecomposition(sd, (0, 2))
    # {0,2} sits in both bags; the dispatch recurses into bag {0,1,2} and
    # needs both edge-bags of the path 0-1-2
    assert sub.level == 0
    assert sub.host == Graph(3, [(0, 1), (1, 2)])
    assert embedding == (0, 1, 2)
    assert validate_strong(sub).ok


def test_minimum_subdecomposition_book_shared_edge():
    sub, embedding = minimum_subdecomposition(book_fixture(), (0, 1))
    assert sub.host == Graph(2, [(0, 1)])
    assert embedding == (0, 1)


def test_minimum_subdecomposition_full():
    for sd in (c4_fixture(), book_fixture()):
        u = tuple(range(sd.host.n))
        sub, embedding = minimum_subdecomposition(sd, u)
        assert sub is sd and embedding == u


def test_minimum_subdecomposition_always_valid_and_covering():
    from itertools import combinations

    for name, sd in bundled_strong_fixtures().items():
        for size in (1, 2, 3):
            for u in combinations(range(sd.host.n), size):
                sub, embedding = minimum_subdecomposition(sd, u)
                assert validate_strong(sub).ok, (name, u)
                assert set(u) <= set(embedding), (name, u)


def test_minimum_subdecomposition_matches_the_always_retracting_reference():
    from itertools import combinations

    for name, sd in bundled_strong_fixtures().items():
        for size in range(1, sd.host.n + 1):
            for u in combinations(range(sd.host.n), size):
                want = minimum_subdecomposition_reference(sd, u)
                assert minimum_subdecomposition(sd, u) == want, (name, u)


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
                inner, embedding = minimum_subdecomposition(sd.children[x], child_u)
                subs.append((inner, tuple(bag[v] for v in embedding)))
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
                parts.append(minimum_subdecomposition(sd, u)[0])
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


# Condition 3's worst cases (ROADMAP item 2), whose search would try every
# pinned host isomorphism before it answers. strong_isomorphism refuses
# family A's bag trees before it tries any; family B's match, its children
# differ one level down, and at m = 6 it takes about a second.


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


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9, 10])
def test_family_a_is_refused_before_any_host_map_is_tried(monkeypatch, m):
    # with x, z and y pinned the children's bag trees cannot match, so the
    # search ends before any of the m! maps of the c's; were one tried, the
    # test would fail at once
    def no_maps(*args):
        for phi in isomorphisms_pinned(*args):
            raise AssertionError("host map %r tried" % (phi,))
        return iter(())

    calls = _record_calls(monkeypatch, "strong_isomorphism")
    monkeypatch.setattr(strong, "isomorphisms_pinned", no_maps)
    sd = family_a(m, (m - 3, 1, 1), (1, 1, m - 3))
    assert validate_strong(sd).violations == [
        {
            "kind": "sub-decomposition-not-isomorphic",
            "witness": {"path": [], "edge": [0, 1], "intersection": [0, 1, 2]},
        }
    ]
    assert len(calls) == 1
