"""Markov trees over a ground set, tree decompositions of graphs, and what
strong decompositions need of them: validation with witnesses, minimum
covering subfamilies, retractions, and the line-graph base case.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, bfs, induced_subgraph, is_tree, vertex_set


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

    This constructor checks and normalizes every bag and tree edge; it is
    the one for Markov trees that enter the program. Once the bags pass,
    graph(len(bags), tree) builds the bag tree: Graph by default, and a
    loader's per-load table, which gives equal arguments one Graph, when
    serialize.strong_from_json reads a document. That load also gives equal
    Markov tree documents one MarkovTree, built here once, so one
    decomposition may hold the same object at several bags: like a Graph,
    a MarkovTree is never changed once built. A retraction, derived
    from a valid tree decomposition, and the line-graph Markov tree of a
    valid tree go through the unchecked _trusted constructor instead; only
    this module calls it.
    """

    ground_size: int
    bags: tuple
    tree: tuple

    def __init__(self, ground_size, bags, tree=(), graph=Graph):
        if ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
        if not bags:
            raise ValueError("at least one bag is required")
        bags = tuple(map(vertex_set, bags))
        bad = [v for b in bags for v in b if not 0 <= v < ground_size]
        if bad:
            raise ValueError("vertex %d out of range for n=%d" % (bad[0], ground_size))
        self._fill(ground_size, bags, graph(len(bags), tree))

    @classmethod
    def _trusted(cls, ground_size, bags, bag_tree):
        """A Markov tree from parts that are valid by construction: a
        nonempty tuple of ascending tuples over 0..ground_size-1 and a Graph
        on the bag indices. Nothing is checked."""
        m = object.__new__(cls)
        m._fill(ground_size, bags, bag_tree)
        return m

    def _fill(self, ground_size, bags, bag_tree):
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


class ValidationFailed(ValueError):
    """An input refused by its validator; report holds the violations."""

    def __init__(self, report):
        super().__init__("invalid input: %s" % report.violations[0]["kind"])
        self.report = report


class Refused(ValueError):
    """An input the theory does not cover, a guard or a broken invariant.
    doc is its answer, {"error": message, **details}, which the CLI prints
    as JSON on stdout. Not a ValidationFailed, whose answer is its report."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.doc = {"error": message, **details}


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, witness):
        self.violations.append({"kind": kind, "witness": witness})

    def require(self):
        """Raise ValidationFailed, carrying this report, unless it is ok."""
        if self.violations:
            raise ValidationFailed(self)


def validate_markov_tree(m):
    """Check the two Markov-tree conditions, reporting witnesses.

    Violation kinds: "tree-structure", "uncovered-element",
    "running-intersection" (witness: {a, b, c, element}).

    On a tree, the bags holding an element induce a forest, connected
    exactly when they span one bag-tree edge fewer than their number. One
    pass over the bags and the tree edges counts that for every element;
    only when some element's bags fall apart are the witnesses searched
    for, pair by pair of the bags holding such elements.
    """
    report = ValidationReport()
    k = m.num_bags()
    if not is_tree(m.bag_tree):
        report.add("tree-structure", {"num_bags": k, "tree": list(m.tree)})
        return report
    # parts[v]: bags holding v less the tree edges both of whose bags hold v
    parts = [0] * m.ground_size
    for b in m.bags:
        for v in b:
            parts[v] += 1
    for v, count in enumerate(parts):
        if not count:
            report.add("uncovered-element", {"element": v})
    for i, j in m.tree:
        for v in set(m.bags[i]).intersection(m.bags[j]):
            parts[v] -= 1
    split = {v for v, count in enumerate(parts) if count > 1}
    if split:
        _running_intersection_witnesses(m, report, split)
    return report


def _running_intersection_witnesses(m, report, split):
    """Add to report, for each pair of bags a < b sharing elements, every
    bag c strictly inside the a-b path, from a's end, that misses a shared
    element.

    Only a split element, one whose bags fall apart, can be missed: the
    bags holding any other element form a subtree, which holds the path
    between two of them. So only the pairs of bags sharing a split element
    are walked, in order, and only their shared split elements compared.
    Each path climbs from both ends along the one walk from bag 0.
    """
    order, parent = bfs(m.bag_tree, [0])
    rank = {c: i for i, c in enumerate(order)}  # a bag ranks after its parent
    holders = {}  # split element -> the bags holding it, ascending
    for i, bag in enumerate(m.bags):
        for v in split.intersection(bag):
            holders.setdefault(v, []).append(i)
    pairs = {pair for bags in holders.values() for pair in combinations(bags, 2)}
    for a, b in sorted(pairs):
        shared = split.intersection(m.bags[a], m.bags[b])
        from_a, from_b = [a], [b]
        while from_a[-1] != from_b[-1]:
            if rank[from_a[-1]] > rank[from_b[-1]]:
                from_a.append(parent[from_a[-1]])
            else:
                from_b.append(parent[from_b[-1]])
        path = from_a + from_b[-2::-1]
        for c in path[1:-1]:
            missing = shared.difference(m.bags[c])
            if missing:
                report.add(
                    "running-intersection",
                    {"a": a, "b": b, "c": c, "element": min(missing)},
                )


def validate_tree_decomposition(d):
    """Markov-tree validation plus edge coverage of the host graph: an edge
    is covered when the bags holding its two ends meet."""
    report = validate_markov_tree(d.markov)
    holding = [set() for _ in range(d.host.n)]
    for i, b in enumerate(d.markov.bags):
        for v in b:
            holding[v].add(i)
    for u, v in d.host.edges:
        if holding[u].isdisjoint(holding[v]):
            report.add("uncovered-edge", {"edge": [u, v]})
    return report


def minimum_covering_subfamily(m, u):
    """The unique minimum bag subfamily of the Markov tree m covering u that
    induces a subtree, as ascending bag indices.

    m must be a valid Markov tree and u a nonempty collection of its
    elements, as its callers (minimum_subdecomposition and condition 3's
    path test) ensure. When some bag holds all of u, that is (i,) for the
    lowest such bag i, looked for first. Otherwise, starting from all bags,
    prunes a leaf of the bags left while every element of u it holds is held
    by another bag left. On a valid Markov tree this stops at the minimum
    family: a larger family left has a leaf outside it, and a leaf of the
    minimum family is the only bag left in some F(v), a subtree. Bags are
    read against a set of u, never u against each bag, so the search is
    linear in the size of the Markov tree.
    """
    wanted = set(u)
    for i, bag in enumerate(m.bags):
        if wanted.issubset(bag):
            return (i,)
    # held[i]: the elements of u in bag i, ascending; holders[v]: the bags
    # left holding v
    held = [[v for v in bag if v in wanted] for bag in m.bags]
    holders = dict.fromkeys(u, 0)
    for h in held:
        for v in h:
            holders[v] += 1
    tree = m.bag_tree
    degree = [tree.degree(i) for i in range(tree.n)]
    left = set(range(tree.n))
    leaves = [i for i in left if degree[i] == 1]
    # a kept leaf stays kept: it alone holds some v, and holders never grow
    while leaves:
        i = leaves.pop()
        if any(holders[v] == 1 for v in held[i]):
            continue
        left.remove(i)
        for v in held[i]:
            holders[v] -= 1
        for j in tree.neighbors(i):
            if j in left:
                degree[j] -= 1
                if degree[j] == 1:
                    leaves.append(j)
    return tuple(sorted(left))


def retraction(d, keep):
    """Restrict a tree decomposition to a subtree of its bag tree.

    Returns (decomposition, relabeling): the decomposition of the subgraph
    of the host induced on the union of kept bags, with vertices relabeled
    to 0..m-1, and relabeling[i] = original vertex. Bags are reindexed in
    ascending order of their original indices. d must be valid and keep
    must be bag indices that induce a subtree of its bag tree, as the one
    caller's minimum covering subfamily is; nothing is checked.

    The relabeling is monotone, so the relabeled bags stay ascending, and
    the kept bag tree is already a Graph on the new bag indices: the Markov
    tree is built through the trusted constructor, unchecked.
    """
    kept_tree, keep = induced_subgraph(d.markov.bag_tree, keep)
    union = set()
    for i in keep:
        union.update(d.markov.bags[i])
    sub_host, relabel = induced_subgraph(d.host, union)
    pos = {v: i for i, v in enumerate(relabel)}
    bags = tuple(tuple(pos[v] for v in d.markov.bags[i]) for i in keep)
    markov = MarkovTree._trusted(sub_host.n, bags, kept_tree)
    return TreeDecomposition(sub_host, markov), relabel


def line_graph(t):
    """Line graph of t: one vertex per edge, adjacency = shared endpoint.

    Pairs the edges around each vertex; two edges of a simple graph share at
    most one endpoint, so every pair comes out once."""
    incident = [[] for _ in range(t.n)]
    for i, (u, v) in enumerate(t.edges):
        incident[u].append(i)
        incident[v].append(i)
    edges = sorted(pair for ids in incident for pair in combinations(ids, 2))
    return Graph._trusted(t.num_edges(), tuple(edges))


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
    tree = sorted((min(parent[i], i), max(parent[i], i)) for i in order[1:])
    return MarkovTree._trusted(t.n, t.edges, Graph._trusted(t.num_edges(), tuple(tree)))
