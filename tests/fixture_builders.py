"""Builders of the committed fixtures: positive decompositions at levels 0,
1 and 2, small target graphs, and negative fixtures that trip each validator
condition. Run this file to rewrite the JSON documents under fixtures/:

    PYTHONPATH=src python3 tests/fixture_builders.py
"""

import json
import os

from homglue import serialize
from homglue.graphs import Graph, induced_subgraph
from homglue.markov import MarkovTree, TreeDecomposition
from homglue.strong import StrongDecomposition, zero_strong


def k2():
    return Graph(2, [(0, 1)])


def k3():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def book():
    """Two 4-cycles sharing the edge {0, 1}: the level-2 fixture host."""
    return Graph(6, [(0, 1), (0, 2), (2, 3), (1, 3), (0, 4), (4, 5), (1, 5)])


def edge_fixture():
    return zero_strong(k2())


def path_fixture():
    return zero_strong(path3())


def star_fixture():
    return zero_strong(star(3))


def c4_fixture():
    """Level-1 decomposition of C4 with bags {0,1,2} and {0,2,3}."""
    host = c4()
    markov = MarkovTree(4, [(0, 1, 2), (0, 2, 3)], [(0, 1)])
    children = (
        zero_strong(Graph(3, [(0, 1), (1, 2)])),  # H[{0,1,2}]: path 0-1-2
        zero_strong(Graph(3, [(0, 2), (1, 2)])),  # H[{0,2,3}] relabeled: path 0-2-1
    )
    return StrongDecomposition(
        1, host, decomp=TreeDecomposition(host, markov), children=children
    )


def square_child():
    """Level-1 decomposition of the 4-cycle 0-2-3-1-0 (both book squares
    relabel to this shape), with bags {0,1,2} and {1,2,3}."""
    host = Graph(4, [(0, 1), (0, 2), (2, 3), (1, 3)])
    markov = MarkovTree(4, [(0, 1, 2), (1, 2, 3)], [(0, 1)])
    children = (
        zero_strong(Graph(3, [(0, 1), (0, 2)])),  # H[{0,1,2}]: path 1-0-2
        zero_strong(Graph(3, [(1, 2), (0, 2)])),  # H[{1,2,3}] relabeled: path 2-3-1
    )
    return StrongDecomposition(
        1, host, decomp=TreeDecomposition(host, markov), children=children
    )


def book_fixture():
    """Level-2 decomposition of the book graph: one bag per square."""
    host = book()
    markov = MarkovTree(6, [(0, 1, 2, 3), (0, 1, 4, 5)], [(0, 1)])
    return StrongDecomposition(
        2,
        host,
        decomp=TreeDecomposition(host, markov),
        children=(square_child(), square_child()),
    )


def bad_markov_tree():
    """Running-intersection violation: bags {0,1},{2},{0,2} on a path."""
    return MarkovTree(3, [(0, 1), (2,), (0, 2)], [(0, 1), (1, 2)])


def uncovered_tree_decomposition():
    """C4 with bags {0,1},{2,3}: edges 12 and 03 uncovered."""
    host = c4()
    return TreeDecomposition(host, MarkovTree(4, [(0, 1), (2, 3)], [(0, 1)]))


def bad_condition3_fixture():
    """Level-1 decomposition of C5 (cycle 0-1-2-4-3-0) whose two minimum
    sub-decompositions containing the bag intersection {0, 2} are a 3-path
    and a 4-path: condition 3 fails while everything else validates."""
    host = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
    markov = MarkovTree(5, [(0, 1, 2), (0, 2, 3, 4)], [(0, 1)])
    children = (
        zero_strong(Graph(3, [(0, 1), (1, 2)])),  # H[{0,1,2}]: path 0-1-2
        zero_strong(Graph(4, [(0, 2), (2, 3), (1, 3)])),  # H[{0,2,3,4}] relabeled
    )
    return StrongDecomposition(
        1, host, decomp=TreeDecomposition(host, markov), children=children
    )


def mixed_levels_condition3():
    """Level-2 decomposition of the path 3-0-1-2-4 with bags {0,1,2,3} and
    {0,1,2,4}, whose minimum sub-decompositions containing the bag
    intersection {0, 1, 2} have levels 0 and 1: child 0 holds it in its one
    bag, and child 1 (bags {0,1} and {1,2,4}, relabeled) only in both.
    Condition 3 fails while everything else validates. Not written under
    fixtures/."""
    host = Graph(5, [(0, 1), (1, 2), (0, 3), (2, 4)])
    markov = MarkovTree(5, [(0, 1, 2, 3), (0, 1, 2, 4)], [(0, 1)])
    tree0 = Graph(4, [(0, 1), (1, 2), (0, 3)])  # H[{0,1,2,3}]: path 3-0-1-2
    child0 = StrongDecomposition(
        1,
        tree0,
        decomp=TreeDecomposition(tree0, MarkovTree(4, [(0, 1, 2, 3)])),
        children=(zero_strong(tree0),),
    )
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])  # H[{0,1,2,4}] relabeled
    child1 = StrongDecomposition(
        1,
        path4,
        decomp=TreeDecomposition(path4, MarkovTree(4, [(0, 1), (1, 2, 3)], [(0, 1)])),
        children=(zero_strong(k2()), zero_strong(path3())),
    )
    return StrongDecomposition(
        2, host, decomp=TreeDecomposition(host, markov), children=(child0, child1)
    )


def matching_level1():
    """Level-1 decomposition of the matching {0-1, 2-3} with one bag per
    edge, the two bags adjacent and disjoint: condition 3 holds vacuously.
    Not written under fixtures/."""
    host = Graph(4, [(0, 1), (2, 3)])
    markov = MarkovTree(4, [(0, 1), (2, 3)], [(0, 1)])
    return StrongDecomposition(1, host, TreeDecomposition(host, markov), (edge_fixture(),) * 2)


def _path_in_two_bags(path, bags):
    """The level-1 decomposition of a path on four vertices into two bags
    of three consecutive vertices."""
    children = tuple(zero_strong(induced_subgraph(path, bag)[0]) for bag in bags)
    markov = MarkovTree(4, bags, [(0, 1)])
    return StrongDecomposition(1, path, TreeDecomposition(path, markov), children)


def hexagon_level2():
    """A valid level-2 decomposition of the 6-cycle 0-1-2-3-5-4-0 with bags
    {0, 1, 2, 3} and {0, 3, 4, 5}, each a path cut into two bags. Their
    overlap {0, 3} lies in no single bag of either child, so condition 3
    compares two level-1 decompositions, and the validator searches their
    bag trees for an isomorphism. Not written under fixtures/."""
    host = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 5), (4, 5), (0, 4)])
    markov = MarkovTree(6, [(0, 1, 2, 3), (0, 3, 4, 5)], [(0, 1)])
    children = (
        _path_in_two_bags(Graph(4, [(0, 1), (1, 2), (2, 3)]), [(0, 1, 2), (1, 2, 3)]),
        # H[{0, 3, 4, 5}] relabeled: the path 0-2-3-1
        _path_in_two_bags(Graph(4, [(0, 2), (2, 3), (1, 3)]), [(0, 2, 3), (1, 2, 3)]),
    )
    return StrongDecomposition(2, host, TreeDecomposition(host, markov), children)


def paths_of_two_lengths():
    """Level-1 decomposition of the 5-cycle 0-1-4-3-2-0 with the pendant edge
    4-5, in the bags {0, 1, 4, 5} and {0, 2, 3, 4}. Both bags induce a path
    on four vertices, so the two children are equal, but the overlap {0, 4}
    sits at positions 0 and 2 of the first and 0 and 3 of the second: its
    minimum sub-decompositions are paths of two and three edges, and
    condition 3 fails while everything else validates. Not written under
    fixtures/."""
    host = Graph(6, [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 4)])
    markov = MarkovTree(6, [(0, 1, 4, 5), (0, 2, 3, 4)], [(0, 1)])
    child = zero_strong(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    return StrongDecomposition(1, host, TreeDecomposition(host, markov), (child, child))


def star_beside_a_path(star_first):
    """Level-1 decomposition of two bags sharing the non-adjacent vertices
    0 and 1: the star {0, 1, 2, 3} centred at 2 and the path 0-4-5-1, with
    the star's bag first when star_first. The star's child has the bag tree
    {0, 2} - {2, 3} - {1, 2}, so its minimum covering family of {0, 1} is
    all three bags, as many as the path's, though 0 and 1 are two apart in
    the star: the family routes through a third edge. The minimum
    sub-decompositions are the star and the path, and condition 3 fails
    while everything else validates. Not written under fixtures/."""
    host = Graph(6, [(0, 2), (1, 2), (2, 3), (0, 4), (4, 5), (1, 5)])
    star_host = Graph(4, [(0, 2), (1, 2), (2, 3)])
    # bags (0, 2), (1, 2) and (2, 3), with (2, 3) in the middle
    routed = StrongDecomposition(
        0, star_host, TreeDecomposition(star_host, MarkovTree(4, star_host.edges, [(0, 2), (1, 2)]))
    )
    # H[{0, 1, 4, 5}] relabelled: the path 0-2-3-1
    path = zero_strong(Graph(4, [(0, 2), (2, 3), (1, 3)]))
    parts = [((0, 1, 2, 3), routed), ((0, 1, 4, 5), path)]
    if not star_first:
        parts.reverse()
    markov = MarkovTree(6, [bag for bag, _ in parts], [(0, 1)])
    children = tuple(child for _, child in parts)
    return StrongDecomposition(1, host, TreeDecomposition(host, markov), children)


# Condition 3's worst cases (ROADMAP item 2): decompositions built over
# named vertices, whose minimum sub-decompositions across a bag overlap are
# valid and alike in every count, yet not strongly isomorphic, so that a
# search of host maps alone tries every pinned host isomorphism before it
# answers None. None of them is written under fixtures/.


def _level0(edges):
    """(labels, zero_strong of the tree with those edges), the tree's vertex
    i being the i-th smallest of the labels its edges name."""
    labels = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(labels)}
    return labels, zero_strong(Graph(len(labels), [(pos[u], pos[v]) for u, v in edges]))


def _level_up(parts, tree):
    """(labels, decomposition one level above parts) whose bags are the
    label sets of parts, a list of (labels, decomposition) pairs, joined by
    the bag-tree edges tree. Its host is the union of the parts' hosts, on
    the sorted union of their labels; each part's host must be the one
    induced on its labels."""
    labels = sorted(set().union(*(part for part, _ in parts)))
    pos = {v: i for i, v in enumerate(labels)}
    edges = [(pos[part[u]], pos[part[v]]) for part, sd in parts for u, v in sd.host.edges]
    host = Graph(len(labels), edges)
    markov = MarkovTree(host.n, [[pos[v] for v in part] for part, _ in parts], tree)
    children = tuple(sd for _, sd in parts)
    level = children[0].level + 1
    return labels, StrongDecomposition(level, host, TreeDecomposition(host, markov), children)


def spider(x, z, y, a, b, cs, legs):
    """(labels, S(m; kx, kz, ky)), the spider over the copy of M_m on the
    named vertices, m = len(cs): its host has the edges x-a, z-a, y-b and,
    for each c in cs, a-c and b-c. The bags are {a, b, c}, each the path
    a-c-b, and {x, a}, {z, a} and {y, b}, each a level-0 child. The bag of
    cs[0] is the centre of the bag tree, and legs = (kx, kz, ky), summing to
    m - 1, give the numbers of further {a, b, c} bags, in the order of cs,
    on the legs that end in {x, a}, {z, a} and {y, b}."""
    m = len(cs)
    if sum(legs) != m - 1:
        raise ValueError("the legs must hold m - 1 bags")
    parts = [_level0([(a, c), (c, b)]) for c in cs]
    parts += [_level0([(x, a)]), _level0([(z, a)]), _level0([(y, b)])]
    tree, bag = [], 1
    for k, leaf in zip(legs, (m, m + 1, m + 2)):
        end = 0
        for _ in range(k):
            tree.append((end, bag))
            end, bag = bag, bag + 1
        tree.append((end, leaf))
    return _level_up(parts, tree)


def _two_spiders(x, z, y, halves):
    """(labels, level-2 decomposition) of two copies of M_m sharing x, z and
    y, the two bags; halves holds each copy's (a, b, cs, legs)."""
    return _level_up([spider(x, z, y, *half) for half in halves], [(0, 1)])


def family_a(m, legs1, legs2):
    """Family A (level 2): two copies of M_m sharing x = 0, z = 1 and y = 2,
    with the children S(m; legs1) and S(m; legs2). Every part is valid, and
    the two bags' overlap {x, z, y} is three isolated vertices whose
    minimum sub-decompositions are the whole children. For legs1 != legs2,
    condition 3 fails, but a search of host maps alone finds that only once
    all m! maps of the c's are tried; with x, z and y pinned to the leaves
    of the bag trees, those trees match only for equal legs."""
    halves = [(a, a + 1, range(a + 2, a + 2 + m), legs) for a, legs in ((3, legs1), (m + 5, legs2))]
    return _two_spiders(0, 1, 2, halves)[1]


def family_b(m, legs1, legs2):
    """Family B (level 3): bags V(A) and V(B). A is two copies of M_m
    sharing x, z and y with both children S(m; legs1), labelled as in
    family_a; B is the same with S(m; legs2) and its own z' and y'. A and B
    share x and the c_0 of each copy, which is all of their overlap: three
    isolated vertices, whose minimum sub-decompositions are A and B. So
    condition 3 compares two level-2 decompositions, under (m-1)!^2 host
    maps, and for legs1 != legs2 fails one level further down."""
    first = [(a, a + 1, range(a + 2, a + 2 + m), legs1) for a in (3, m + 5)]
    n = 2 * m + 7  # A's vertices are 0..n-1; n and n + 1 are z' and y'
    second, a = [], n + 2
    for _, _, cs, _ in first:
        second.append((a, a + 1, [cs[0], *range(a + 2, a + m + 1)], legs2))
        a += m + 1
    parts = [_two_spiders(0, 1, 2, first), _two_spiders(0, n, n + 1, second)]
    return _level_up(parts, [(0, 1)])[1]


def _cut_cycle(cycle, start):
    """(labels, level-1 decomposition) of the even cycle through the named
    vertices of cycle, in cycle order, cut into the two paths between
    cycle[start] and the vertex opposite it."""
    turn = cycle[start:] + cycle[:start]
    half = len(turn) // 2
    paths = turn[: half + 1], turn[half:] + turn[:1]
    return _level_up([_level0(list(zip(p, p[1:]))) for p in paths], [(0, 1)])


def random_even_cycle(rng, m):
    """Level-1 decomposition of the 2m-cycle, as the benchmark's generator
    builds it: the cycle randomly labelled and cut at a random antipodal
    pair. The bags' overlap is that pair, two vertices at distance m."""
    n = 2 * m
    return _cut_cycle(rng.sample(range(n), n), rng.randrange(n))[1]


def two_bag_covers_at_level_2():
    """Level-2 decomposition of two bags sharing the non-adjacent vertices
    0 and 1: {0, 1, 2}, the path 0-2-1 cut into the bags {0, 2} and {1, 2},
    and {0, 1, 3, 4}, the path 0-3-1 with the pendant edge 3-4, cut into
    {0, 3, 4} and {1, 3}. On both sides the minimum covering family of
    {0, 1} has two bags, as many as the two vertices' distance, but bags
    above level 0 are not edges: the minimum sub-decompositions, the whole
    children, have hosts of three and four vertices, and condition 3 fails
    while everything else validates. Not written under fixtures/."""
    first = _level_up([_level0([(0, 2)]), _level0([(1, 2)])], [(0, 1)])
    second = _level_up([_level0([(0, 3), (3, 4)]), _level0([(1, 3)])], [(0, 1)])
    return _level_up([first, second], [(0, 1)])[1]


def random_book(rng, pages):
    """Level-2 decomposition of the book of pages 4-cycles 0-a-b-1 sharing
    the spine edge {0, 1}, one bag per page, as the benchmark's generator
    builds it: each page cut at a random opposite pair and the pages joined
    by a random tree. Every bag overlap is the spine."""
    squares = [_cut_cycle([0, 2 + 2 * i, 3 + 2 * i, 1], rng.randrange(4)) for i in range(pages)]
    return _level_up(squares, [(rng.randrange(i), i) for i in range(1, pages)])[1]


def random_ladder(rng, rungs):
    """Level-2 decomposition of the ladder of rungs 4-cycles in a row, one
    bag per square, as the benchmark's generator builds it: each square cut
    at a random opposite pair and the squares joined by a path. Every bag
    overlap is a rung, one edge."""
    k = rungs + 1
    squares = [_cut_cycle([i, i + 1, k + i + 1, k + i], rng.randrange(4)) for i in range(rungs)]
    return _level_up(squares, [(i, i + 1) for i in range(rungs - 1)])[1]


def bundled_strong_fixtures():
    """Name -> valid strong decomposition, the positive fixture set."""
    return {
        "edge": edge_fixture(),
        "path3": path_fixture(),
        "star3": star_fixture(),
        "c4": c4_fixture(),
        "book": book_fixture(),
    }


def write_fixture_dir(directory):
    """Write every bundled fixture (and the negatives) as JSON documents."""
    os.makedirs(directory, exist_ok=True)

    def dump(name, doc):
        with open(os.path.join(directory, name + ".json"), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for name, sd in bundled_strong_fixtures().items():
        dump(name, serialize.strong_to_json(sd))
    dump("k2", serialize.graph_to_json(k2()))
    dump("k3", serialize.graph_to_json(k3()))
    dump("edgeless3", serialize.graph_to_json(Graph(3)))
    dump("bad_markov_tree", serialize.markov_to_json(bad_markov_tree()))
    dump(
        "bad_tree_decomposition",
        serialize.tree_decomposition_to_json(uncovered_tree_decomposition()),
    )
    dump("bad_condition3", serialize.strong_to_json(bad_condition3_fixture()))


if __name__ == "__main__":
    write_fixture_dir(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures"))
