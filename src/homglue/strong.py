"""Recursive level-k strong tree decompositions: the three-condition
validator, minimum sub-decompositions, and level-aware isomorphism search.

Every level carries a tree decomposition of its host. At level 0 the host
is a tree, the bags are its edges and the bag tree spans the line graph; at
level k each bag carries a level-(k-1) decomposition of the induced subgraph.
"""

from dataclasses import dataclass

from .graphs import (
    Graph,
    induced_subgraph,
    is_forest,
    is_tree,
    isomorphisms,
    isomorphisms_pinned,
    vertex_set,
)
from .markov import (
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

    decomp is a tree decomposition of host at every level. At level 0 it is
    the whole payload (its bags are the host's edges); at level k > 0
    children holds one level-(k-1) decomposition per bag, in bag-index order.
    """

    level: int
    host: Graph
    decomp: TreeDecomposition
    children: tuple = ()

    def __post_init__(self):
        if self.level == 0:
            if self.children:
                raise ValueError("level 0 requires a base payload only")
        elif not self.children:
            raise ValueError("level k>0 requires decomp and children")
        elif len(self.children) != self.decomp.markov.num_bags():
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
    return StrongDecomposition(0, t, TreeDecomposition(t, line_graph_markov_tree(t)))


def validate_strong(sd, _path=()):
    """Recursive check of the level-0 shape and the three level-k conditions.

    Violations carry the path of bag indices from the root to the failure.
    """
    report = ValidationReport()
    path = list(_path)
    if sd.decomp.host != sd.host:
        report.add("decomp-host-mismatch", {"path": path})
        return report
    m = sd.decomp.markov
    if sd.level == 0:
        if not is_tree(sd.host) or sd.host.num_edges() == 0:
            report.add("base-host-not-a-tree", {"path": path})
            return report
        if m.bags != sd.host.edges:
            report.add("base-bags-not-host-edges", {"path": path})
            return report
        for i, j in m.tree:
            if not set(m.bags[i]) & set(m.bags[j]):
                report.add(
                    "base-tree-not-in-line-graph", {"path": path, "edge": [i, j]}
                )
        # the bags are the host's edges, so edge coverage holds already
        inner = validate_markov_tree(m)
    else:
        inner = validate_tree_decomposition(sd.decomp)
    for v in inner.violations:
        report.add(v["kind"], {"path": path, **v["witness"]})
    if sd.level == 0:
        return report
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


def _condition3_holds(sd, i, j, inter):
    m = sd.decomp.markov
    pos_i = {v: k for k, v in enumerate(m.bags[i])}
    pos_j = {v: k for k, v in enumerate(m.bags[j])}
    u_i = tuple(pos_i[v] for v in inter)
    u_j = tuple(pos_j[v] for v in inter)
    msd_i = minimum_subdecomposition(sd.children[i], u_i)
    msd_j = minimum_subdecomposition(sd.children[j], u_j)
    inv_i = {v: k for k, v in enumerate(msd_i.embedding)}
    inv_j = {v: k for k, v in enumerate(msd_j.embedding)}
    pin = {inv_i[u_i[t]]: inv_j[u_j[t]] for t in range(len(inter))}
    return (
        strong_isomorphism(msd_i.decomposition, msd_j.decomposition, pin) is not None
    )


def minimum_subdecomposition(sd, u):
    """The minimum sub-decomposition of sd containing the vertex set u.

    Dispatch follows the recursive definition: when some bag contains all
    of u (the covering family is the lowest such bag) and sd is above level
    0, recurse into that bag's child; otherwise retract to the minimum
    covering subfamily. At level 0 the bags are single edges, so the
    nonempty-intersection case bottoms out at one bag.

    sd must be valid (validate_strong) and u a nonempty set of its host
    vertices, as min-subdec's --u check and condition 3 make it; u is only
    sorted. The tree decomposition is then of its own host and its bags
    cover every host vertex, so a covering subfamily of every bag retracts
    to sd itself: sd is returned as it is, with the identity embedding, and
    nothing is rebuilt.
    """
    u = vertex_set(u)

    td = sd.decomp
    keep = minimum_covering_subfamily(td.markov, u)
    if len(keep) == 1 and sd.level > 0:
        bag = td.markov.bags[keep[0]]
        pos = {v: k for k, v in enumerate(bag)}
        inner = minimum_subdecomposition(sd.children[keep[0]], tuple(pos[v] for v in u))
        embedding = tuple(bag[v] for v in inner.embedding)
        return SubDecomposition(inner.decomposition, embedding)
    if len(keep) == td.markov.num_bags():
        return SubDecomposition(sd, tuple(range(sd.host.n)))
    sub_td, relabel = retraction(td, keep)
    children = tuple(sd.children[i] for i in keep) if sd.children else ()
    return SubDecomposition(StrongDecomposition(sd.level, sub_td.host, sub_td, children), relabel)


def strong_isomorphism(sd1, sd2, pin=None):
    """First level-aware isomorphism sd1 -> sd2 extending the vertex pin.

    The returned vertex map is a host-graph isomorphism under which the
    bag families correspond (via bag_map) and, recursively, each pair of
    corresponding children is isomorphic. Returns None if no such map
    exists, as for decompositions of different levels. sd1 and sd2 must be
    valid (validate_strong) and the pins lie in the hosts, unchecked.
    """
    if sd1.level != sd2.level:
        return None
    for phi in isomorphisms_pinned(sd1.host, sd2.host, pin):
        result = _structure_match(sd1, sd2, phi)
        if result is not None:
            return result
    return None


def is_strong_isomorphism(sd1, sd2, vertex_map):
    """Verify a fully specified vertex map as a strong isomorphism of the
    valid (validate_strong) sd1 and sd2: strong_isomorphism with every
    vertex pinned to its image, so a map that is not injective, breaks an
    edge, joins hosts of different sizes or decompositions of different
    levels answers False. A map without exactly one image in range of sd2's
    host per vertex of sd1's is a ValueError, raised before any search."""
    phi = tuple(vertex_map)
    if len(phi) != sd1.host.n:
        raise ValueError("vertex map has %d images for %d vertices" % (len(phi), sd1.host.n))
    if not all(0 <= w < sd2.host.n for w in phi):
        raise ValueError("vertex map image out of range")
    return strong_isomorphism(sd1, sd2, dict(enumerate(phi))) is not None


def _structure_match(sd1, sd2, phi):
    """Check that host isomorphism phi respects the decomposition structure;
    returns a StrongIsomorphism or None.

    The bag map is the first isomorphism of the bag trees under which each
    bag i goes to a bag j holding phi's image of bag i, whose child is
    strongly isomorphic to child i under this same test on the map phi
    induces, a host isomorphism as sd1 and sd2 must be valid (unchecked).
    """
    if sd1.level == 0:
        # a 0-strong isomorphism is just a tree isomorphism of the hosts
        return StrongIsomorphism(phi)
    m1, m2 = sd1.decomp.markov, sd2.decomp.markov
    allowed = {}
    for i, bag in enumerate(m1.bags):
        image = vertex_set(phi[v] for v in bag)
        allowed[i] = tuple(
            j
            for j, bag2 in enumerate(m2.bags)
            if bag2 == image
            and _structure_match(
                sd1.children[i], sd2.children[j], _child_vertex_map(bag, bag2, phi)
            )
        )
        if not allowed[i]:
            return None
    bag_map = next(isomorphisms(m1.bag_tree, m2.bag_tree, allowed), None)
    return None if bag_map is None else StrongIsomorphism(phi, bag_map)


def _child_vertex_map(bag1, bag2, phi):
    pos2 = {v: i for i, v in enumerate(bag2)}
    return tuple(pos2[phi[v]] for v in bag1)
