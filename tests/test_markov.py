import random
from itertools import combinations

import pytest

from homglue.graphs import Graph
from homglue.markov import (
    MarkovTree,
    TreeDecomposition,
    line_graph,
    line_graph_markov_tree,
    minimum_covering_subfamily,
    retraction,
    validate_markov_tree,
    validate_tree_decomposition,
)
from fixture_builders import c4, k2
from helpers import (
    bags_containing,
    bfs_reference,
    brute_force_min_cover,
    family_connected,
    helly_intersection,
    markov_subtrees,
    random_markov_tree,
    random_subtree,
    running_intersection_reference,
    small_trees,
    spanning_trees,
)


def path_bags():
    return MarkovTree(4, [(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2)])


def test_validate_ok():
    m = MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)])
    assert validate_markov_tree(m).ok


def test_validate_running_intersection_violation():
    m = MarkovTree(3, [(0, 1), (2,), (0, 2)], [(0, 1), (1, 2)])
    report = validate_markov_tree(m)
    assert not report.ok
    assert report.violations == [
        {"kind": "running-intersection", "witness": {"a": 0, "b": 2, "c": 1, "element": 0}}
    ]


def test_validate_uncovered_element():
    m = MarkovTree(3, [(0, 1)])
    report = validate_markov_tree(m)
    assert [v["kind"] for v in report.violations] == ["uncovered-element"]
    assert report.violations[0]["witness"]["element"] == 2


def test_validate_malformed_tree():
    m = MarkovTree(2, [(0,), (1,), (0, 1)], [(0, 1)])  # 3 bags, 1 edge
    report = validate_markov_tree(m)
    assert report.violations[0]["kind"] == "tree-structure"


def test_validate_cycle_with_one_bag_left_out():
    # k - 1 edges, but they close a cycle on bags 0-2 and miss bag 3
    m = MarkovTree(2, [(0,), (0,), (0,), (1,)], [(0, 1), (1, 2), (0, 2)])
    report = validate_markov_tree(m)
    assert report.violations == [
        {"kind": "tree-structure", "witness": {"num_bags": 4, "tree": [(0, 1), (0, 2), (1, 2)]}}
    ]


def test_validation_reports_match_the_reference_on_random_bag_trees():
    # random bags on random trees, mostly invalid, some bag trees not trees;
    # a quarter of the draws are valid Markov trees
    rng = random.Random(37)
    kinds = set()
    valid = 0
    for _ in range(400):
        k = rng.randint(1, 12)
        ground = rng.randint(1, 7)
        if rng.random() < 0.25:
            m = random_markov_tree(rng, k, ground)
        else:
            if rng.random() < 0.8:
                tree = [(rng.randrange(i), i) for i in range(1, k)]
            else:
                tree = rng.sample(list(combinations(range(k), 2)), rng.randint(0, k - 1 + (k > 2)))
            bags = [[v for v in range(ground) if rng.random() < 0.4] for _ in range(k)]
            m = MarkovTree(ground, bags, tree)
        report = validate_markov_tree(m)
        assert report.violations == running_intersection_reference(m)
        assert report.ok == (not report.violations)
        kinds.update(v["kind"] for v in report.violations)
        valid += report.ok
    assert kinds == {"tree-structure", "uncovered-element", "running-intersection"}
    assert 100 < valid < 200, valid  # valid and invalid trees both drawn


def test_bag_neighbors_match_a_scan_of_the_tree():
    rng = random.Random(31)
    for _ in range(60):
        m = random_markov_tree(rng, rng.randint(1, 9), 3)
        for i in range(m.num_bags()):
            scan = sorted([b for a, b in m.tree if a == i] + [a for a, b in m.tree if b == i])
            assert m.bag_tree.neighbors(i) == tuple(scan)


def test_equal_markov_trees_compare_and_hash_equal():
    m1 = MarkovTree(3, [(1, 0), (2, 1)], [(1, 0)])
    m2 = MarkovTree(3, [[0, 1], [1, 2]], [(0, 1), (1, 0)])
    assert m1 == m2 and hash(m1) == hash(m2)
    assert len({m1, m2}) == 1
    assert m1 != MarkovTree(3, [(0, 1), (1, 2)])


def test_tree_decomposition_validation():
    host = c4()
    good = TreeDecomposition(host, MarkovTree(4, [(0, 1, 2), (0, 2, 3)], [(0, 1)]))
    assert validate_tree_decomposition(good).ok

    bad = TreeDecomposition(host, MarkovTree(4, [(0, 1), (2, 3)], [(0, 1)]))
    report = validate_tree_decomposition(bad)
    uncovered = [v["witness"]["edge"] for v in report.violations if v["kind"] == "uncovered-edge"]
    assert sorted(uncovered) == [[0, 3], [1, 2]]

    single = TreeDecomposition(k2(), MarkovTree(2, [(0, 1)]))
    assert validate_tree_decomposition(single).ok


def test_bags_containing():
    m = path_bags()
    assert bags_containing(m, 1) == (0, 1)
    assert bags_containing(m, 3) == (2,)
    assert bags_containing(m, 2) == (1, 2)
    assert bags_containing(m, 4) == ()


def test_bags_containing_induces_subtree_on_valid_instances():
    rng = random.Random(11)
    for _ in range(30):
        m = random_markov_tree(rng, rng.randint(1, 7), rng.randint(1, 6))
        assert validate_markov_tree(m).ok
        for v in range(m.ground_size):
            assert family_connected(m, bags_containing(m, v))


@pytest.mark.parametrize("bag, vertex", [((0, 3), 3), ((1, -1), -1), ((5, 4, 0), 4)])
def test_markov_tree_refuses_a_bag_element_out_of_range(bag, vertex):
    # the first such element in bag order, each bag read ascending
    with pytest.raises(ValueError, match="^vertex %d out of range for n=3$" % vertex):
        MarkovTree(3, [(0, 1), bag, (7,)], [(0, 1), (1, 2)])


@pytest.mark.parametrize("edge", [(1, 1), (0, 3), (-1, 0)])
def test_markov_tree_refuses_a_self_loop_or_out_of_range_tree_edge(edge):
    with pytest.raises(ValueError):
        MarkovTree(3, [(0, 1), (1, 2), (2,)], [edge])


def test_markov_tree_refuses_no_bags():
    with pytest.raises(ValueError, match="^at least one bag is required$"):
        MarkovTree(3, [])


def test_helly_examples():
    m = path_bags()
    assert helly_intersection(m, [(0, 1), (1, 2), (0, 1, 2)]) == 1
    assert helly_intersection(m, [(0,), (2,)]) is None
    assert helly_intersection(m, [(0, 1)]) == 0
    with pytest.raises(ValueError, match="does not induce a subtree"):
        helly_intersection(m, [(0, 2)])
    with pytest.raises(ValueError, match="does not induce a subtree"):
        helly_intersection(m, [(3,)])
    # three pairwise-intersecting families on a 3-cycle of bags share none
    fams = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(ValueError, match="Helly property violated"):
        helly_intersection(MarkovTree(3, fams, fams), fams)


def test_helly_matches_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        k = rng.randint(2, 10)
        m = random_markov_tree(rng, k, 3)
        adj = {i: m.bag_tree.neighbors(i) for i in range(k)}
        fams = [random_subtree(rng, adj, k) for _ in range(rng.randint(1, 4))]
        pairwise = all(a & b for a in fams for b in fams)
        witness = helly_intersection(m, fams)
        common = frozenset.intersection(*fams)
        if pairwise:
            assert witness == min(common)
        else:
            assert witness is None


def test_minimum_covering_subfamily_examples():
    m = path_bags()
    assert minimum_covering_subfamily(m, (0, 3)) == (0, 1, 2)
    assert minimum_covering_subfamily(m, (0, 2)) == (0, 1)
    assert minimum_covering_subfamily(m, (1, 2)) == (1,)


def test_minimum_covering_subfamily_matches_brute_force():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        m = random_markov_tree(rng, rng.randint(2, 10), rng.randint(2, 7))
        u = rng.sample(range(m.ground_size), rng.randint(2, min(5, m.ground_size)))
        common = set(range(m.num_bags()))
        for v in u:
            common &= set(bags_containing(m, v))
        if common:
            continue
        minima = brute_force_min_cover(m, u)
        assert len(minima) == 1, "minimum subfamily must be unique"
        assert minimum_covering_subfamily(m, u) == minima[0]
        checked += 1


def test_contained_in_single_bag_names_the_lowest_bag_holding_u():
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        m = random_markov_tree(rng, rng.randint(1, 8), rng.randint(1, 6))
        u = rng.sample(range(m.ground_size), rng.randint(1, min(3, m.ground_size)))
        holding = [i for i, bag in enumerate(m.bags) if set(u) <= set(bag)]
        if not holding:
            continue
        assert minimum_covering_subfamily(m, u) == (holding[0],)
        checked += 1


@pytest.mark.parametrize(
    "tree", [[], [(0, 1)], [(0, 1), (1, 2), (0, 2)]], ids=["no-edges", "disconnected", "cycle"]
)
def test_minimum_covering_subfamily_looks_for_u_in_one_bag_first(tree):
    # the bag holding u is found before the bag tree is read, whatever it is
    m = MarkovTree(3, [(0, 1), (1, 2), (0, 2)], tree)
    assert minimum_covering_subfamily(m, (0, 2)) == (2,)


def test_retraction():
    host = Graph(4, [(0, 1), (1, 2), (2, 3)])
    d = TreeDecomposition(host, path_bags())

    full, relabel = retraction(d, (0, 1, 2))
    assert relabel == (0, 1, 2, 3)
    assert full.host == host
    assert full.markov == d.markov

    two, relabel = retraction(d, (0, 1))
    assert relabel == (0, 1, 2)
    assert two.host == Graph(3, [(0, 1), (1, 2)])
    assert two.markov == MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)])

    one, relabel = retraction(d, (2,))
    assert relabel == (2, 3)
    assert one.markov == MarkovTree(2, [(0, 1)])


def test_retraction_always_validates():
    rng = random.Random(31)
    for _ in range(20):
        m = random_markov_tree(rng, rng.randint(2, 5), rng.randint(2, 5))
        host = _host_covering(m)
        d = TreeDecomposition(host, m)
        for fam in markov_subtrees(m):
            sub, _ = retraction(d, fam)
            assert validate_tree_decomposition(sub).ok


def _host_covering(m):
    # any graph whose edges all live inside bags
    edges = set()
    for bag in m.bags:
        for i in range(len(bag)):
            for j in range(i + 1, len(bag)):
                edges.add((bag[i], bag[j]))
    return Graph(m.ground_size, edges)


def test_line_graph_markov_tree_examples():
    single = line_graph_markov_tree(Graph(2, [(0, 1)]))
    assert single.bags == ((0, 1),)
    assert single.tree == ()

    path = line_graph_markov_tree(Graph(3, [(0, 1), (1, 2)]))
    assert path.bags == ((0, 1), (1, 2))
    assert path.tree == ((0, 1),)

    star = line_graph_markov_tree(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert star.bags == ((0, 1), (0, 2), (0, 3))
    assert star.tree == ((0, 1), (0, 2))  # BFS path from smallest edge

    with pytest.raises(ValueError):
        line_graph_markov_tree(c4())


def test_line_graph_markov_tree_every_spanning_tree_validates():
    # exhaustive over trees with at most 7 edges and every spanning tree of
    # their line graphs
    for t in small_trees(8):
        lg = line_graph(t)
        for st in spanning_trees(lg):
            m = MarkovTree(t.n, t.edges, st)
            assert validate_markov_tree(m).ok


def test_line_graph_markov_tree_is_the_walk_from_bag_0():
    for t in small_trees(9):
        m = line_graph_markov_tree(t)
        assert validate_markov_tree(m).ok
        _, parent = bfs_reference(line_graph(t), [0])
        walk = {(min(p, c), max(p, c)) for c, p in parent.items() if p is not None}
        assert m.tree == tuple(sorted(walk))
