import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

import homglue
from homglue.graphs import Graph
from homglue.markov import (
    ContainedInSingleBag,
    MarkovTree,
    NotASubtree,
    TreeDecomposition,
    bags_containing,
    helly_intersection,
    induces_subtree,
    line_graph,
    line_graph_markov_tree,
    minimum_covering_subfamily,
    retraction,
    validate_markov_tree,
    validate_tree_decomposition,
)
from homglue.fixtures import book_fixture, c4, k2
from helpers import (
    brute_force_min_cover,
    random_markov_tree,
    random_subtree,
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


def test_bag_neighbors_match_a_scan_of_the_tree():
    rng = random.Random(31)
    for _ in range(60):
        m = random_markov_tree(rng, rng.randint(1, 9), 3)
        for i in range(m.num_bags()):
            scan = sorted([b for a, b in m.tree if a == i] + [a for a, b in m.tree if b == i])
            assert m.bag_neighbors(i) == tuple(scan)


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
    with pytest.raises(ValueError):
        bags_containing(m, 4)


def test_bags_containing_induces_subtree_on_valid_instances():
    rng = random.Random(11)
    for _ in range(30):
        m = random_markov_tree(rng, rng.randint(1, 7), rng.randint(1, 6))
        assert validate_markov_tree(m).ok
        for v in range(m.ground_size):
            assert induces_subtree(m, bags_containing(m, v))


def test_induces_subtree_matches_a_brute_force_connectivity_check():
    rng = random.Random(13)
    for _ in range(40):
        k = rng.randint(1, 6)
        m = random_markov_tree(rng, k, 3)
        for size in range(k + 1):
            for fam in combinations(range(k), size):
                # flood fill from the first member along tree edges inside fam
                reached = set(fam[:1])
                grown = True
                while grown:
                    grown = False
                    for a, b in m.tree:
                        if a in fam and b in fam and (a in reached) != (b in reached):
                            reached |= {a, b}
                            grown = True
                assert induces_subtree(m, fam) == (bool(fam) and reached == set(fam))


def test_out_of_range_bag_index_is_refused():
    m = path_bags()
    for fam in ([-1], [0, 3]):
        with pytest.raises(ValueError, match="out of range"):
            induces_subtree(m, fam)
    with pytest.raises(ValueError, match="out of range"):
        retraction(book_fixture().decomp, [-1])


@pytest.mark.parametrize("edge", [(1, 1), (0, 3), (-1, 0)])
def test_markov_tree_refuses_a_self_loop_or_out_of_range_tree_edge(edge):
    with pytest.raises(ValueError):
        MarkovTree(3, [(0, 1), (1, 2), (2,)], [edge])


def test_helly_examples():
    m = path_bags()
    assert helly_intersection(m, [(0, 1), (1, 2), (0, 1, 2)]) == 1
    assert helly_intersection(m, [(0,), (2,)]) is None
    assert helly_intersection(m, [(0, 1)]) == 0
    with pytest.raises(NotASubtree):
        helly_intersection(m, [(0, 2)])


def test_helly_on_a_cyclic_bag_tree_is_a_value_error_also_under_optimize():
    # three pairwise-intersecting subtrees of a 3-cycle share no bag; the
    # check must raise the same error when python -O strips asserts
    script = (
        "from homglue.markov import MarkovTree, helly_intersection\n"
        "fams = [(0, 1), (1, 2), (0, 2)]\n"
        "try:\n"
        "    helly_intersection(MarkovTree(3, fams, fams), fams)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    fams = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(ValueError, match="Helly property violated") as e:
        helly_intersection(MarkovTree(3, fams, fams), fams)
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout == str(e.value) + "\n"


def test_helly_matches_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        k = rng.randint(2, 10)
        m = random_markov_tree(rng, k, 3)
        adj = {i: m.bag_neighbors(i) for i in range(k)}
        fams = [random_subtree(rng, adj, k) for _ in range(rng.randint(1, 4))]
        pairwise = all(a & b for a in fams for b in fams)
        witness = helly_intersection(m, fams)
        common = frozenset.intersection(*fams)
        if pairwise:
            assert witness == min(common)
        else:
            assert witness is None


def test_minimum_covering_subfamily_examples():
    d = TreeDecomposition(
        Graph(4, [(0, 1), (1, 2), (2, 3)]), path_bags()
    )
    assert minimum_covering_subfamily(d, (0, 3)) == (0, 1, 2)
    assert minimum_covering_subfamily(d, (0, 2)) == (0, 1)
    with pytest.raises(ContainedInSingleBag) as e:
        minimum_covering_subfamily(d, (1, 2))
    assert e.value.bag_index == 1
    with pytest.raises(ValueError):
        minimum_covering_subfamily(d, ())


def test_minimum_covering_subfamily_matches_brute_force():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        m = random_markov_tree(rng, rng.randint(2, 8), rng.randint(2, 6))
        u = rng.sample(range(m.ground_size), rng.randint(2, min(4, m.ground_size)))
        common = set(range(m.num_bags()))
        for v in u:
            common &= set(bags_containing(m, v))
        if common:
            continue
        minima = brute_force_min_cover(m, u)
        assert len(minima) == 1, "minimum subfamily must be unique"
        assert minimum_covering_subfamily(m, u) == minima[0]
        checked += 1


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

    with pytest.raises(NotASubtree):
        retraction(d, (0, 2))


def test_retraction_always_validates():
    rng = random.Random(31)
    from homglue.markov import markov_subtrees

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
