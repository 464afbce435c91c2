"""Recursive level-k strong tree decompositions: the three-condition
validator, minimum sub-decompositions, and level-aware isomorphism search.

Level 0 decomposes a tree into its edges (with a spanning tree of the line
graph as the bag tree); level k wraps a tree decomposition whose bags each
carry a level-(k-1) decomposition of the induced subgraph.
"""

from dataclasses import dataclass

from .graphs import (
    Graph,
    induced_subgraph,
    is_forest,
    is_tree,
    isomorphisms_pinned,
    vertex_set,
)
from .markov import (
    ContainedInSingleBag,
    MarkovTree,
    TreeDecomposition,
    ValidationReport,
    line_graph_markov_tree,
    minimum_covering_subfamily,
    retraction,
    validate_markov_tree,
    validate_tree_decomposition,
)


@dataclass(frozen=True)
class StrongDecomposition:
    """Level-k strong tree decomposition of host.

    Exactly one payload is populated: base (a Markov tree over the host's
    edges) at level 0, or decomp + children (one level-(k-1) decomposition
    per bag, in bag-index order) at level k > 0.
    """

    level: int
    host: Graph
    base: MarkovTree = None
    decomp: TreeDecomposition = None
    children: tuple = None

    def __post_init__(self):
        if self.level == 0:
            if self.base is None or self.decomp is not None or self.children is not None:
                raise ValueError("level 0 requires a base payload only")
        else:
            if self.base is not None or self.decomp is None or self.children is None:
                raise ValueError("level k>0 requires decomp and children")
            if len(self.children) != self.decomp.markov.num_bags():
                raise ValueError("one child per bag is required")


@dataclass(frozen=True)
class SubDecomposition:
    """A strong decomposition together with the embedding of its host into
    the parent host: embedding[i] is the parent vertex behind vertex i."""

    decomposition: StrongDecomposition
    embedding: tuple


@dataclass(frozen=True)
class StrongIsomorphism:
    """vertex_map sends host vertices of the first decomposition to the
    second; bag_map does the same for top-level bag indices (None at
    level 0, where a tree isomorphism of the hosts is the whole story)."""

    vertex_map: tuple
    bag_map: tuple = None


def zero_strong(t):
    """The level-0 decomposition of a tree: bags are its edges."""
    return StrongDecomposition(0, t, base=line_graph_markov_tree(t))


def validate_strong(sd, _path=()):
    """Recursive check of the level-0 shape and the three level-k conditions.

    Violations carry the path of bag indices from the root to the failure.
    """
    report = ValidationReport()
    path = list(_path)
    if sd.level == 0:
        if not is_tree(sd.host) or sd.host.num_edges() == 0:
            report.add("base-host-not-a-tree", {"path": path})
            return report
        if sd.base.ground_size != sd.host.n or sd.base.bags != sd.host.edges:
            report.add("base-bags-not-host-edges", {"path": path})
            return report
        for i, j in sd.base.tree:
            if not set(sd.base.bags[i]) & set(sd.base.bags[j]):
                report.add(
                    "base-tree-not-in-line-graph", {"path": path, "edge": [i, j]}
                )
        inner = validate_markov_tree(sd.base)
        for v in inner.violations:
            report.add(v["kind"], {"path": path, **_as_dict(v["witness"])})
        return report

    if sd.decomp.host != sd.host:
        report.add("decomp-host-mismatch", {"path": path})
        return report
    inner = validate_tree_decomposition(sd.decomp)
    for v in inner.violations:
        report.add(v["kind"], {"path": path, **_as_dict(v["witness"])})
    m = sd.decomp.markov
    for i, bag in enumerate(m.bags):
        child = sd.children[i]
        expected, _ = induced_subgraph(sd.host, bag)
        if child.level != sd.level - 1:
            report.add("child-level-mismatch", {"path": path + [i]})
            continue
        if child.host != expected:
            report.add("child-host-mismatch", {"path": path + [i]})
            continue
        sub = validate_strong(child, _path=path + [i])
        report.violations.extend(sub.violations)
        report.ok = report.ok and sub.ok
    if not report.ok:
        return report

    for i, j in m.tree:
        inter = vertex_set(set(m.bags[i]) & set(m.bags[j]))
        sub_inter, _ = induced_subgraph(sd.host, inter)
        if not is_forest(sub_inter):
            report.add("intersection-not-forest", {"path": path, "edge": [i, j]})
            continue
        if not inter:
            continue  # empty intersection: nothing to pin, condition vacuous
        ok = _condition3_holds(sd, i, j, inter)
        if not ok:
            report.add(
                "sub-decomposition-not-isomorphic",
                {"path": path, "edge": [i, j], "intersection": list(inter)},
            )
    return report


def validate_document(kind, obj):
    """Validation report of a loaded document, or None for a kind without a
    validator. A graph's invariants hold by construction: an empty report."""
    if kind == "graph":
        return ValidationReport()
    validator = {
        "markov": validate_markov_tree,
        "tree-decomposition": validate_tree_decomposition,
        "strong-decomposition": validate_strong,
    }.get(kind)
    return None if validator is None else validator(obj)


def _as_dict(w):
    return w if isinstance(w, dict) else {"witness": w}


def _condition3_holds(sd, i, j, inter):
    m = sd.decomp.markov
    bag_i, bag_j = m.bags[i], m.bags[j]
    u_i = tuple(bag_i.index(v) for v in inter)
    u_j = tuple(bag_j.index(v) for v in inter)
    msd_i = minimum_subdecomposition(sd.children[i], u_i)
    msd_j = minimum_subdecomposition(sd.children[j], u_j)
    if msd_i.decomposition.level != msd_j.decomposition.level:
        return False
    inv_i = {v: k for k, v in enumerate(msd_i.embedding)}
    inv_j = {v: k for k, v in enumerate(msd_j.embedding)}
    pin = {inv_i[u_i[t]]: inv_j[u_j[t]] for t in range(len(inter))}
    return (
        strong_isomorphism(msd_i.decomposition, msd_j.decomposition, pin) is not None
    )


def minimum_subdecomposition(sd, u):
    """The minimum sub-decomposition of sd containing the vertex set u.

    Dispatch follows the recursive definition: when some bag contains all
    of u, recurse into the child of the lowest-index such bag; otherwise
    retract to the minimum covering subfamily. At level 0 the bags are
    single edges, so the nonempty-intersection case bottoms out at one bag.
    """
    u = vertex_set(u, sd.host.n)
    if not u:
        raise ValueError("u must be nonempty")

    td = TreeDecomposition(sd.host, sd.base) if sd.level == 0 else sd.decomp
    try:
        keep = minimum_covering_subfamily(td, u)
    except ContainedInSingleBag as e:
        if sd.level > 0:
            bag = td.markov.bags[e.bag_index]
            child_u = tuple(bag.index(v) for v in u)
            inner = minimum_subdecomposition(sd.children[e.bag_index], child_u)
            embedding = tuple(bag[v] for v in inner.embedding)
            return SubDecomposition(inner.decomposition, embedding)
        keep = (e.bag_index,)
    sub_td, relabel = retraction(td, keep)
    if sd.level == 0:
        sub = StrongDecomposition(0, sub_td.host, base=sub_td.markov)
    else:
        children = tuple(sd.children[i] for i in keep)
        sub = StrongDecomposition(sd.level, sub_td.host, decomp=sub_td, children=children)
    return SubDecomposition(sub, relabel)


def strong_isomorphism(sd1, sd2, pin=None):
    """First level-aware isomorphism sd1 -> sd2 extending the vertex pin.

    The returned vertex map is a host-graph isomorphism under which the
    bag families correspond (via bag_map) and, recursively, each pair of
    corresponding children is isomorphic. Returns None if no such map
    exists. Levels must agree.
    """
    if sd1.level != sd2.level:
        raise ValueError("level mismatch: %d vs %d" % (sd1.level, sd2.level))
    for phi in isomorphisms_pinned(sd1.host, sd2.host, pin):
        result = _structure_match(sd1, sd2, phi)
        if result is not None:
            return result
    return None


def is_strong_isomorphism(sd1, sd2, vertex_map):
    """Verify a fully specified vertex map as a strong isomorphism; a map
    without exactly one in-range image per host vertex is a ValueError."""
    if sd1.level != sd2.level:
        return False
    h1, h2 = sd1.host, sd2.host
    phi = tuple(vertex_map)
    if len(phi) != h1.n:
        raise ValueError("vertex map has %d images for %d vertices" % (len(phi), h1.n))
    if h1.n != h2.n or h1.num_edges() != h2.num_edges() or len(set(phi)) != h1.n:
        return False
    if not all(0 <= w < h2.n for w in phi):
        raise ValueError("vertex map image out of range")
    # injective and edge-preserving with equal edge counts: a host isomorphism
    if not all(h2.has_edge(phi[u], phi[v]) for u, v in h1.edges):
        return False
    return _structure_match(sd1, sd2, phi) is not None


def _structure_match(sd1, sd2, phi):
    """Check that host isomorphism phi respects the decomposition structure;
    returns a StrongIsomorphism or None."""
    if sd1.level == 0:
        # a 0-strong isomorphism is just a tree isomorphism of the hosts
        return StrongIsomorphism(phi)
    m1, m2 = sd1.decomp.markov, sd2.decomp.markov
    if m1.num_bags() != m2.num_bags():
        return None
    images = [vertex_set(phi[v] for v in b) for b in m1.bags]
    k = m1.num_bags()
    assignment = [-1] * k
    used = [False] * k

    def backtrack(i):
        if i == k:
            return True
        for j in range(k):
            if used[j] or m2.bags[j] != images[i]:
                continue
            if any(
                assignment[a] >= 0 and assignment[a] not in m2.bag_neighbors(j)
                for a in m1.bag_neighbors(i)
            ):
                continue
            child_map = _child_vertex_map(m1.bags[i], m2.bags[j], phi)
            if not is_strong_isomorphism(sd1.children[i], sd2.children[j], child_map):
                continue
            assignment[i] = j
            used[j] = True
            if backtrack(i + 1):
                return True
            assignment[i] = -1
            used[j] = False
        return False

    if backtrack(0):
        return StrongIsomorphism(phi, tuple(assignment))
    return None


def _child_vertex_map(bag1, bag2, phi):
    pos2 = {v: i for i, v in enumerate(bag2)}
    return tuple(pos2[phi[v]] for v in bag1)
