"""Structures the library derives from valid ones are built unchecked
(Graph._trusted, MarkovTree._trusted): induced subgraphs, line graphs,
line-graph Markov trees and retractions must equal what the validating
constructors build from the same parts, and validation must do work linear
in its input."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from homglue import graphs, markov
from homglue.graphs import Graph, induced_subgraph
from homglue.markov import (
    MarkovTree,
    TreeDecomposition,
    line_graph,
    line_graph_markov_tree,
    retraction,
    validate_markov_tree,
)
from homglue.serialize import strong_from_json, strong_to_json
from homglue.strong import StrongDecomposition, validate_strong, zero_strong
from fixture_builders import bundled_strong_fixtures
from helpers import (
    line_graph_reference,
    markov_subtrees,
    random_graph,
    random_markov_tree,
    random_tree,
    small_trees,
)

PROPERTIES = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def graph_parts(g):
    return g.n, g.edges, g._adj


def markov_parts(m):
    return m.ground_size, m.bags, m.tree, graph_parts(m.bag_tree)


def assert_validated(g):
    """g equals its rebuild through the validating constructor, neighbour
    tuples included."""
    assert graph_parts(g) == graph_parts(Graph(g.n, g.edges))


def induced_reference(g, s):
    """The induced subgraph by a scan of all of g's edges, built through the
    validating constructor."""
    pos = {v: i for i, v in enumerate(sorted(s))}
    return Graph(len(pos), [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos])


def strong_nodes(sd):
    yield sd
    for child in sd.children:
        yield from strong_nodes(child)


def fixture_nodes():
    return [node for sd in bundled_strong_fixtures().values() for node in strong_nodes(sd)]


def test_induced_subgraphs_of_the_fixtures_equal_the_validated_build():
    for node in fixture_nodes():
        for g in (node.host, node.decomp.markov.bag_tree):
            for size in range(g.n + 1):
                for s in combinations(range(g.n), size):
                    sub, relabel = induced_subgraph(g, s)
                    assert relabel == s
                    assert_validated(sub)
                    assert graph_parts(sub) == graph_parts(induced_reference(g, s))


@st.composite
def graphs_with_subsets(draw):
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    subset = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Graph(n, edges), subset


@PROPERTIES
@given(graphs_with_subsets())
def test_induced_subgraphs_equal_the_validated_build(case):
    g, s = case
    sub, relabel = induced_subgraph(g, s)
    assert relabel == tuple(sorted(s))
    assert_validated(sub)
    assert graph_parts(sub) == graph_parts(induced_reference(g, s))


def test_line_graphs_equal_the_all_pairs_reference():
    rng = random.Random(43)
    cases = small_trees(7) + [random_tree(rng, rng.randint(1, 40)) for _ in range(40)]
    cases += [random_graph(rng, rng.randint(0, 9), 0.4) for _ in range(40)]
    for t in cases:
        lg = line_graph(t)
        assert_validated(lg)
        assert graph_parts(lg) == graph_parts(line_graph_reference(t)), t


@st.composite
def trees(draw):
    """A tree on 2..14 vertices: each vertex after the first hangs from an
    earlier one, then the vertices are relabelled by a drawn permutation."""
    n = draw(st.integers(2, 14))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[draw(st.integers(0, v - 1))], perm[v]) for v in range(1, n)])


@PROPERTIES
@given(trees())
def test_line_graph_markov_trees_equal_the_validated_build(t):
    m = line_graph_markov_tree(t)
    order, parent = graphs.bfs(line_graph_reference(t), [0])
    rebuilt = MarkovTree(t.n, t.edges, [(parent[i], i) for i in order[1:]])
    assert markov_parts(m) == markov_parts(rebuilt)
    assert_validated(m.bag_tree)
    assert validate_markov_tree(m).ok


def test_retractions_equal_the_validated_build():
    rng = random.Random(47)
    decomps = [node.decomp for node in fixture_nodes()]
    for _ in range(30):
        m = random_markov_tree(rng, rng.randint(1, 6), rng.randint(1, 6))
        host = random_graph(rng, m.ground_size, 0.5)
        decomps.append(TreeDecomposition(host, m))
    for d in decomps:
        for fam in markov_subtrees(d.markov):
            sub, relabel = retraction(d, fam)
            m = sub.markov
            rebuilt = MarkovTree(m.ground_size, m.bags, m.tree)
            assert markov_parts(m) == markov_parts(rebuilt)
            assert_validated(sub.host)
            union = sorted(set().union(*(d.markov.bags[i] for i in fam)))
            assert relabel == tuple(union) and m.ground_size == len(union)
            assert graph_parts(sub.host) == graph_parts(induced_reference(d.host, union))


def count_walks(monkeypatch):
    """Count the calls of graphs.bfs, under both names it is called by."""
    walks = []
    bfs = graphs.bfs

    def counted(g, roots):
        walks.append(g.n)
        return bfs(g, roots)

    monkeypatch.setattr(graphs, "bfs", counted)
    monkeypatch.setattr(markov, "bfs", counted)
    return walks


def test_validating_a_level0_path_walks_a_constant_number_of_times(monkeypatch):
    short, long = (zero_strong(Graph(n, [(v, v + 1) for v in range(n - 1)])) for n in (21, 2001))
    assert long.decomp.markov.num_bags() == 2000
    walks = count_walks(monkeypatch)
    counts = []
    for sd in (short, long):
        del walks[:]
        assert validate_markov_tree(sd.decomp.markov).ok
        counts.append(len(walks))
    assert counts == [1, 1]
    for sd in (short, long):
        del walks[:]
        assert validate_strong(sd).ok
        counts.append(len(walks))
    assert counts[2:] == [2, 2]  # the host is a tree, the bag tree is a tree


def test_running_intersection_witnesses_take_one_walk(monkeypatch):
    # a path of 2 000 bags whose element 0 lies only in the first and last
    k = 2000
    bags = [(v, v + 1) for v in range(k - 1)] + [(0, k - 1, k)]
    m = MarkovTree(k + 1, bags, [(i, i + 1) for i in range(k - 1)])
    walks = count_walks(monkeypatch)
    report = validate_markov_tree(m)
    assert walks == [k, k]  # the tree check, then the walk from bag 0
    assert [v["witness"] for v in report.violations] == [
        {"a": 0, "b": k - 1, "c": c, "element": 0} for c in range(1, k - 1)
    ]


def triple_path_doc(num_bags):
    """A level-1 decomposition of a path: bag i holds vertices i, i + 1 and
    i + 2, its child is the level-0 decomposition of that 3-path, and the
    bag tree is a path."""
    n = num_bags + 2
    host = Graph(n, [(v, v + 1) for v in range(n - 1)])
    bags = [(i, i + 1, i + 2) for i in range(num_bags)]
    tree = [(i, i + 1) for i in range(num_bags - 1)]
    child = zero_strong(Graph(3, [(0, 1), (1, 2)]))
    sd = StrongDecomposition(
        1, host, TreeDecomposition(host, MarkovTree(n, bags, tree)), (child,) * num_bags
    )
    return strong_to_json(sd)


def test_validating_a_level1_decomposition_builds_no_graph_through_the_checked_constructor(monkeypatch):
    sd = strong_from_json(triple_path_doc(1000))
    built = []
    init = Graph.__init__

    def counted(self, n, edges=()):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    assert validate_strong(sd).ok
    assert built == []
