"""Markov trees over a ground set, tree decompositions of graphs, and the
subtree machinery built on them: bags containing a vertex, Helly witnesses,
minimum covering subfamilies, retractions, and the line-graph base case.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, bfs, induced_subgraph, is_connected, is_tree, vertex_set


class NotASubtree(ValueError):
    """A bag subfamily was required to induce a subtree of the bag tree."""


class DisconnectedBagTree(ValueError):
    """Two bag subfamilies that must be joined by a tree path are not
    connected: the bag tree is not a tree."""


class ContainedInSingleBag(ValueError):
    """minimum_covering_subfamily called with U already inside one bag."""

    def __init__(self, bag_index):
        super().__init__("target set contained in bag %d" % bag_index)
        self.bag_index = bag_index


@dataclass(frozen=True)
class MarkovTree:
    """A family of bags over ground set 0..ground_size-1 plus a tree on the
    bag indices satisfying the running-intersection condition.

    Construction does not validate the semantic invariants (see
    validate_markov_tree); it only normalizes the representation. Duplicate
    bag contents under distinct indices are allowed. The bag tree is kept as
    bag_tree, a Graph on the bag indices, so a self-loop or an out-of-range
    tree edge is refused as it is for any Graph and tree is its sorted edge
    tuple. bag_tree lives outside the dataclass fields, so equality and
    hashing stay on (ground_size, bags, tree).
    """

    ground_size: int
    bags: tuple
    tree: tuple

    def __init__(self, ground_size, bags, tree=()):
        if ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
        if not bags:
            raise ValueError("at least one bag is required")
        bags = tuple(vertex_set(b, ground_size) for b in bags)
        bag_tree = Graph(len(bags), tree)
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "tree", bag_tree.edges)
        object.__setattr__(self, "bag_tree", bag_tree)

    def num_bags(self):
        return len(self.bags)


@dataclass(frozen=True)
class TreeDecomposition:
    """A Markov tree over V(host) whose bags also cover every edge of host."""

    host: Graph
    markov: MarkovTree

    def __post_init__(self):
        if self.markov.ground_size != self.host.n:
            raise ValueError("ground set size does not match host vertex count")


@dataclass
class ValidationReport:
    ok: bool = True
    violations: list = field(default_factory=list)

    def add(self, kind, witness):
        self.ok = False
        self.violations.append({"kind": kind, "witness": witness})


def validate_markov_tree(m):
    """Check the two Markov-tree conditions, reporting witnesses.

    Violation kinds: "tree-structure", "uncovered-element",
    "running-intersection" (witness: {a, b, c, element}).
    """
    report = ValidationReport()
    k = m.num_bags()
    if not is_tree(m.bag_tree):
        report.add("tree-structure", {"num_bags": k, "tree": list(m.tree)})
        return report
    covered = set()
    for b in m.bags:
        covered.update(b)
    for v in range(m.ground_size):
        if v not in covered:
            report.add("uncovered-element", {"element": v})
    for a, b in combinations(range(k), 2):
        shared = set(m.bags[a]) & set(m.bags[b])
        if not shared:
            continue
        for c in _shortest_connecting_path(m, (a,), (b,))[1:-1]:
            missing = shared - set(m.bags[c])
            if missing:
                report.add(
                    "running-intersection",
                    {"a": a, "b": b, "c": c, "element": min(missing)},
                )
    return report


def validate_tree_decomposition(d):
    """Markov-tree validation plus edge coverage of the host graph."""
    report = validate_markov_tree(d.markov)
    bag_sets = [set(b) for b in d.markov.bags]
    for u, v in d.host.edges:
        if not any(u in b and v in b for b in bag_sets):
            report.add("uncovered-edge", {"edge": [u, v]})
    return report


def bags_containing(m, v):
    """Indices of bags containing ground element v (the subfamily F(v))."""
    if not (0 <= v < m.ground_size):
        raise ValueError("element %d out of ground range" % v)
    return tuple(i for i, b in enumerate(m.bags) if v in b)


def induces_subtree(m, family):
    """True iff the bag-index family is nonempty and connected in the bag
    tree. An index outside 0..num_bags-1 is a ValueError."""
    sub, _ = induced_subgraph(m.bag_tree, family)
    return sub.n > 0 and is_connected(sub)


def helly_intersection(m, families):
    """Common bag index of pairwise-intersecting subtree families.

    Returns the lowest common index, or None when some pair is disjoint.
    By the Helly property for subtrees of a tree, pairwise intersection
    guarantees a common bag.
    """
    fams = [frozenset(f) for f in families]
    if not fams:
        raise ValueError("at least one family is required")
    for f in fams:
        if not induces_subtree(m, f):
            raise NotASubtree("family %s does not induce a subtree" % sorted(f))
    for f1, f2 in combinations(fams, 2):
        if not (f1 & f2):
            return None
    common = frozenset.intersection(*fams)
    if not common:
        raise ValueError(
            "Helly property violated: pairwise-intersecting subtree families "
            "share no bag, so the bag tree is not a tree"
        )
    return min(common)


def _shortest_connecting_path(m, fam1, fam2):
    """Bag indices of the shortest tree path between two disjoint subtrees,
    endpoints included. Unique because the bag tree is a tree."""
    prev = {i: None for i in fam1}
    queue = sorted(fam1)
    while queue:
        nxt = []
        for v in queue:
            for w in m.bag_tree.neighbors(v):
                if w in prev:
                    continue
                prev[w] = v
                if w in fam2:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                nxt.append(w)
        queue = sorted(nxt)
    raise DisconnectedBagTree("bag tree is disconnected")


def minimum_covering_subfamily(d, u):
    """The unique minimum bag subfamily covering u that induces a subtree.

    Requires that no single bag contains all of u (otherwise
    ContainedInSingleBag is raised, carrying the lowest such bag index).
    Follows the inductive construction: process the elements of u in
    ascending order, growing the current family by the shortest tree path
    to each F(u_i) it misses.
    """
    m = d.markov if isinstance(d, TreeDecomposition) else d
    u = vertex_set(u, m.ground_size)
    if not u:
        raise ValueError("u must be nonempty")
    fams = {v: set(bags_containing(m, v)) for v in u}
    for v in u:
        if not fams[v]:
            raise ValueError("element %d not covered by any bag" % v)
    common = set.intersection(*fams.values())
    if common:
        raise ContainedInSingleBag(min(common))

    # intersection mode: while the processed prefix still fits in a common
    # subtree of bags, keep intersecting; afterwards grow the family.
    prefix_common = fams[u[0]]
    family = None
    for v in u[1:]:
        fv = fams[v]
        if family is None:
            merged = prefix_common & fv
            if merged:
                prefix_common = merged
                continue
            family = set(_shortest_connecting_path(m, prefix_common, fv))
        elif not (family & fv):
            family |= set(_shortest_connecting_path(m, family, fv))
    return tuple(sorted(family))


def retraction(d, keep):
    """Restrict a tree decomposition to a subtree of its bag tree.

    Returns (decomposition, relabeling): the decomposition of the subgraph
    of the host induced on the union of kept bags, with vertices relabeled
    to 0..m-1, and relabeling[i] = original vertex. Bags are reindexed in
    ascending order of their original indices. A kept family that is not a
    subtree raises NotASubtree, and a bag index out of range ValueError.
    """
    keep = tuple(sorted(set(keep)))
    if not induces_subtree(d.markov, keep):
        raise NotASubtree("kept family %s does not induce a subtree" % list(keep))
    union = set()
    for i in keep:
        union.update(d.markov.bags[i])
    sub_host, relabel = induced_subgraph(d.host, union)
    pos = {v: i for i, v in enumerate(relabel)}
    idx = {old: new for new, old in enumerate(keep)}
    bags = [tuple(pos[v] for v in d.markov.bags[i]) for i in keep]
    tree = [
        (idx[a], idx[b]) for a, b in d.markov.tree if a in idx and b in idx
    ]
    return TreeDecomposition(sub_host, MarkovTree(sub_host.n, bags, tree)), relabel


def line_graph(t):
    """Line graph of t: one vertex per edge, adjacency = shared endpoint."""
    edges = []
    for i, j in combinations(range(t.num_edges()), 2):
        if set(t.edges[i]) & set(t.edges[j]):
            edges.append((i, j))
    return Graph(t.num_edges(), edges)


def line_graph_markov_tree(t):
    """Markov tree whose bags are the edges of the tree t and whose bag tree
    is made of the parent edges of the breadth-first walk (graphs.bfs) of
    t's line graph from bag 0, the lexicographically smallest edge. A tree's
    line graph is connected, so the walk spans it. Any other spanning tree
    of the line graph is also a valid bag tree; build
    MarkovTree(t.n, t.edges, ...) directly for one."""
    if not is_tree(t):
        raise ValueError("input graph is not a tree")
    if t.num_edges() == 0:
        raise ValueError("tree has no edges")
    order, parent = bfs(line_graph(t), [0])
    return MarkovTree(t.n, t.edges, [(parent[i], i) for i in order[1:]])


def markov_subtrees(m):
    """All nonempty bag-index families inducing a subtree, ascending size.

    Exponential in the number of bags; meant for small instances only.
    """
    k = m.num_bags()
    out = []
    for size in range(1, k + 1):
        for fam in combinations(range(k), size):
            if induces_subtree(m, fam):
                out.append(fam)
    return out
