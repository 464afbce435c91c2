"""Recursive level-k strong tree decompositions: the three-condition
validator, minimum sub-decompositions, and level-aware isomorphism search.

Every level carries a tree decomposition of its host. At level 0 the host
is a tree, the bags are its edges and the bag tree spans the line graph; at
level k each bag carries a level-(k-1) decomposition of the induced subgraph.
"""

from dataclasses import dataclass

from .graphs import (
    Graph,
    bfs,
    induced_edges,
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
class StrongIsomorphism:
    """vertex_map sends host vertices of the first decomposition to the
    second; bag_map does the same for top-level bag indices (None at
    level 0, where a tree isomorphism of the hosts is the whole story)."""

    vertex_map: tuple
    bag_map: tuple = None


def zero_strong(t):
    """The level-0 decomposition of a tree: bags are its edges."""
    return StrongDecomposition(0, t, TreeDecomposition(t, line_graph_markov_tree(t)))


def validate_strong(sd, _path=(), _valid=None):
    """Recursive check of the level-0 shape and the three level-k conditions.

    Violations carry the path of bag indices from the root to the failure.
    A child's host is compared with the host's induced subgraph on its bag
    by vertex count and induced_edges, with no Graph built.

    One top-level call keeps the identities of the children it has found
    valid, and a child met again at a later path (serialize.strong_from_json
    makes equal sub-documents one object) is not walked again: whether it
    is valid does not depend on its path. A child with violations is walked
    at every path, so each of them is reported there.

    At level 0, once the host is a tree with an edge, the bags are its
    edges and every bag-tree edge joins two bags that share a vertex, a bag
    tree that is a tree is a spanning tree of the host's line graph, and
    the Markov tree is valid. That line graph is a block graph whose blocks
    are the cliques of the edges at each host vertex, and a spanning tree
    of a connected graph restricts to a spanning tree of each of its
    blocks. So the bags holding a vertex are connected in the bag tree
    (running intersection), and every vertex of a tree with an edge lies on
    one (coverage). validate_markov_tree then runs only when some check
    failed, to write its report.

    Condition 3 is checked only once every child is valid, and an overlap
    of at most two vertices is settled by its shape. It is a forest. When
    it is empty, one vertex, or two vertices adjacent in the host, it holds
    for every pair of valid children: vertex and edge coverage put the
    overlap in one bag at every level below, so minimum_subdecomposition
    descends through the lowest such bag to a one-bag level-0 decomposition
    of K2 on both sides, and any injective pin between two K2s is a strong
    isomorphism. Only two non-adjacent vertices, or three or more, go on to
    _condition3_holds, which settles two more cases from the decompositions
    alone: equal children holding the overlap at the same positions (the
    identity is a strong isomorphism), and, at level 1, two vertices whose
    minimum covering family in each child is the path between them, of one
    length on both sides (a host isomorphism walks one path onto the
    other). The rest build both minimum sub-decompositions and search them,
    and strong_isomorphism refuses bag trees that no strong isomorphism can
    match before it tries any host map.
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
        if report.ok and is_tree(m.bag_tree):
            return report  # a spanning tree of the line graph
        # the bags are the host's edges, so edge coverage holds already
        inner = validate_markov_tree(m)
    else:
        inner = validate_tree_decomposition(sd.decomp)
    for v in inner.violations:
        report.add(v["kind"], {"path": path, **v["witness"]})
    if sd.level == 0:
        return report
    valid = set() if _valid is None else _valid  # ids of children found valid
    for i, bag in enumerate(m.bags):
        child = sd.children[i]
        if child.level != sd.level - 1:
            report.add("child-level-mismatch", {"path": path + [i]})
            continue
        if child.host.n != len(bag) or child.host.edges != induced_edges(sd.host, bag):
            report.add("child-host-mismatch", {"path": path + [i]})
            continue
        if id(child) in valid:
            continue
        sub = validate_strong(child, path + [i], valid)
        if sub.ok:
            valid.add(id(child))
        report.violations.extend(sub.violations)
    if not report.ok:
        return report

    for i, j in m.tree:
        inter = vertex_set(set(m.bags[i]) & set(m.bags[j]))
        if len(inter) <= 2:
            # a forest; empty, one vertex or one edge settles condition 3
            if len(inter) < 2 or inter[1] in sd.host.neighbors(inter[0]):
                continue
        elif not is_forest(induced_subgraph(sd.host, inter)[0]):
            report.add("intersection-not-forest", {"path": path, "edge": [i, j]})
            continue
        if not _condition3_holds(sd, i, j, inter):
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
    """Whether children i and j of sd, above level 0 with every child
    valid, have strongly isomorphic minimum sub-decompositions holding the
    overlap inter of bags i and j (sorted host vertices), under the pin
    sending each overlap vertex's copy on side i to its copy on side j.

    Two cases are settled before either sub-decomposition is built:

    - The children are equal and inter sits at the same positions in both
      bags. The two sub-decompositions and their embeddings are then equal
      too, the pin fixes each vertex it names, and the identity is a strong
      isomorphism.
    - At level 1, inter is two vertices and, in each level-0 child, the
      minimum covering family has as many bags as the two vertices' distance
      in the child's host tree, the same number on both sides. Bags joined
      in a level-0 bag tree share a vertex, so the family's bags, which
      induce a subtree, are the edges of a connected subgraph of the host
      tree holding both vertices: it holds the path between them, and with
      as many bags as that path has edges it is that path. Both
      sub-decompositions are then the level-0 decomposition of a path of
      that length with the pinned vertices at its ends, and a level-0 strong
      isomorphism is a host isomorphism, which walks one path onto the other.

    Otherwise the sub-decompositions are built and searched.
    """
    m = sd.decomp.markov
    child_i, child_j = sd.children[i], sd.children[j]
    pos_i = {v: k for k, v in enumerate(m.bags[i])}
    pos_j = {v: k for k, v in enumerate(m.bags[j])}
    u_i = tuple(pos_i[v] for v in inter)
    u_j = tuple(pos_j[v] for v in inter)
    if u_i == u_j and _equal(child_i, child_j):
        return True
    if sd.level == 1 and len(inter) == 2:
        bags_i, dist_i = _cover_and_distance(child_i, u_i)
        bags_j, dist_j = _cover_and_distance(child_j, u_j)
        if bags_i == dist_i and bags_j == dist_j and bags_i == bags_j:
            return True
    msd_i, emb_i = minimum_subdecomposition(child_i, u_i)
    msd_j, emb_j = minimum_subdecomposition(child_j, u_j)
    inv_i = {v: k for k, v in enumerate(emb_i)}
    inv_j = {v: k for k, v in enumerate(emb_j)}
    pin = {inv_i[u_i[t]]: inv_j[u_j[t]] for t in range(len(inter))}
    return strong_isomorphism(msd_i, msd_j, pin) is not None


def _equal(sd1, sd2):
    """sd1 == sd2, compared level by level without recursion: the
    dataclass's == recurses through the children, several frames a level,
    and would pass the recursion limit on a chain of levels that a document
    may hold and validate_strong walks."""
    pairs = [(sd1, sd2)]
    for a, b in pairs:  # grows while it is walked
        if a is not b:
            # equal decompositions have as many bags, so as many children
            if (a.level, a.host, a.decomp) != (b.level, b.host, b.decomp):
                return False
            pairs.extend(zip(a.children, b.children))
    return True


def _cover_and_distance(child, u):
    """(number of bags of the minimum covering family of the two host
    vertices u in the valid level-0 child, their distance in its host)."""
    keep = minimum_covering_subfamily(child.decomp.markov, u)
    parent = bfs(child.host, u[:1])[1]
    dist, v = 0, u[1]
    while v != u[0]:
        dist, v = dist + 1, parent[v]
    return len(keep), dist


def minimum_subdecomposition(sd, u):
    """The minimum sub-decomposition of sd containing the vertex set u, as
    the pair (decomposition, embedding): embedding[i] is the vertex of sd's
    host behind vertex i of the decomposition's host.

    Dispatch follows the recursive definition: when some bag contains all
    of u (the covering family is the lowest such bag) and sd is above level
    0, recurse into that bag's child; otherwise retract to the minimum
    covering subfamily. At level 0 the bags are single edges, so the
    nonempty-intersection case bottoms out at one bag.

    sd must be valid (validate_strong) and u a nonempty set of its host
    vertices, as min-subdec's --u check and condition 3 make it; u is only
    sorted. The tree decomposition is then of its own host and its bags
    cover every host vertex, so a covering subfamily of every bag retracts
    to sd itself: (sd, the identity embedding) is returned, and nothing is
    rebuilt.
    """
    u = vertex_set(u)

    td = sd.decomp
    keep = minimum_covering_subfamily(td.markov, u)
    if len(keep) == 1 and sd.level > 0:
        bag = td.markov.bags[keep[0]]
        pos = {v: k for k, v in enumerate(bag)}
        inner, embedding = minimum_subdecomposition(sd.children[keep[0]], tuple(pos[v] for v in u))
        return inner, tuple(bag[v] for v in embedding)
    if len(keep) == td.markov.num_bags():
        return sd, tuple(range(sd.host.n))
    sub_td, relabel = retraction(td, keep)
    children = tuple(sd.children[i] for i in keep) if sd.children else ()
    return StrongDecomposition(sd.level, sub_td.host, sub_td, children), relabel


def strong_isomorphism(sd1, sd2, pin=None):
    """First level-aware isomorphism sd1 -> sd2 extending the vertex pin.

    The returned vertex map is a host-graph isomorphism under which the
    bag families correspond (via bag_map) and, recursively, each pair of
    corresponding children is isomorphic. Returns None if no such map
    exists, as for decompositions of different levels. sd1 and sd2 must be
    valid (validate_strong) and the pins lie in the hosts, unchecked.

    Above level 0 the bag trees are compared before any host map is
    enumerated (_bag_trees_may_match). A strong isomorphism's bag map is a
    bag-tree isomorphism sending each bag onto its image, which has the
    same size and, the vertex map being a bijection that extends the pin,
    holds the pinned images of exactly the bag's pinned vertices. When no
    bag-tree isomorphism does that, None is the answer, however many host
    maps extend the pin; otherwise the search runs as without the test, so
    it returns the same map.
    """
    if sd1.level != sd2.level:
        return None
    pin = pin or {}
    if sd1.level > 0 and not _bag_trees_may_match(sd1, sd2, pin):
        return None
    for phi in isomorphisms_pinned(sd1.host, sd2.host, pin):
        result = _structure_match(sd1, sd2, phi)
        if result is not None:
            return result
    return None


def _bag_trees_may_match(sd1, sd2, pin):
    """Whether the bag trees of sd1 and sd2, above level 0, have an
    isomorphism sending each bag to one of the same size that holds the
    pinned images of exactly its pinned vertices."""
    images = set(pin.values())
    shapes = [(len(bag), images.intersection(bag)) for bag in sd2.decomp.markov.bags]
    allowed = {}
    for i, bag in enumerate(sd1.decomp.markov.bags):
        shape = (len(bag), {pin[v] for v in bag if v in pin})
        allowed[i] = tuple(j for j, shape2 in enumerate(shapes) if shape2 == shape)
    trees = sd1.decomp.markov.bag_tree, sd2.decomp.markov.bag_tree
    return next(isomorphisms(*trees, allowed), None) is not None


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
