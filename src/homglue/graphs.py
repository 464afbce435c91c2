"""Simple undirected graphs on dense integer vertices, with the one
breadth-first walk (behind connectivity, forests and trees), neighbour-pruned
homomorphism search, isomorphism search with allowed images (pins included)
and a committed table of the connected graphs on up to six vertices, one per
isomorphism class.

Everything here is sized for desk-scale instances (a dozen vertices or so);
the enumeration routines are deterministic backtracking searches whose output
order is fixed by ascending vertex indices.
"""

from dataclasses import dataclass
from itertools import chain, combinations


# Bound on |V(g)|^|V(h)| before hom_count refuses to run, read at each call.
DEFAULT_HOM_CAP = 10**8


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as a canonically sorted tuple of (min, max) pairs, so
    structurally equal graphs compare (and hash) equal. The ascending
    neighbour tuple of every vertex is built once here and kept outside the
    dataclass fields, so it takes no part in equality or hashing.

    Graphs are validated where they enter the program: this constructor
    checks the vertex count and every edge, and canonicalizes the edges.
    What the program derives from valid graphs (induced subgraphs, among
    them the bag trees of retractions, line graphs and the bag trees of
    line-graph Markov trees) goes through the unchecked _trusted
    constructor instead; only this module and markov.py call it.
    """

    n: int
    edges: tuple

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d,%d) out of range for n=%d" % (u, v, n))
            canon.add((min(u, v), max(u, v)))
        self._fill(n, tuple(sorted(canon)))

    @classmethod
    def _trusted(cls, n, edges):
        """A graph from parts that are valid by construction: n >= 0 and a
        sorted tuple of distinct pairs (u, v) with 0 <= u < v < n. Nothing is
        checked; only the adjacency is built."""
        g = object.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n, edges):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        adj = [[] for _ in range(n)]
        # with edges sorted, every vertex meets its neighbours in ascending order
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))

    def has_edge(self, u, v):
        return 0 <= u < self.n and v in self._adj[u]

    def degree(self, v):
        return len(self._adj[v])

    def neighbors(self, v):
        return self._adj[v]

    def num_edges(self):
        return len(self.edges)


def vertex_set(vs, n=None):
    """Normalize an iterable of vertex indices to a sorted, deduplicated tuple.

    When n is given, every index must lie in range 0..n-1.
    """
    out = tuple(sorted(set(vs)))
    if n is not None:
        for v in out:
            if not (0 <= v < n):
                raise ValueError("vertex %d out of range for n=%d" % (v, n))
    return out


def require_ints(rows, what):
    """Raise ValueError unless every value in the iterables rows is an int.
    Checked where documents enter: a bool or a float passes every range
    check."""
    odd = set(map(type, chain.from_iterable(rows))) - {int}
    if odd:
        raise ValueError("%s must be integers, not %s" % (what, min(t.__name__ for t in odd)))


def induced_subgraph(g, s):
    """Induced subgraph of g on vertex set s, relabeled to 0..|s|-1.

    Returns (subgraph, relabeling) where relabeling[i] is the vertex of g
    that became vertex i. The relabeling is monotone (s is sorted). The
    edges are read off the kept vertices' ascending neighbour tuples, which
    gives them in sorted order at a cost of the kept degrees, and the
    subgraph is built through the trusted constructor. A vertex outside g
    is a ValueError.
    """
    s = vertex_set(s, g.n)
    pos = {v: i for i, v in enumerate(s)}
    adj = g._adj
    edges = tuple(
        (i, pos[w]) for i, v in enumerate(s) for w in adj[v] if w > v and w in pos
    )
    return Graph._trusted(len(s), edges), s


def bfs(g, roots):
    """Breadth-first walk of g from the vertices roots: (order, parent).

    order lists the roots first, in the given order, then the vertices they
    reach, each vertex's unreached neighbours in ascending order. parent maps
    every reached vertex to the vertex it was reached from, and each root to
    None. This is the one traversal behind connectivity, the line-graph bag
    tree, Markov-tree gluing (the branching random walk is level-0 gluing)
    and forests.
    """
    parent = dict.fromkeys(roots)
    order = list(parent)
    for v in order:  # grows while it is walked
        for w in g._adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return order, parent


def is_connected(g):
    """True iff the walk from vertex 0 reaches every vertex; the graph on no
    vertices is connected."""
    return g.n == 0 or len(bfs(g, [0])[0]) == g.n


def is_forest(g):
    """True iff g is acyclic: its edge count is its vertex count less its
    number of components, each found by one walk."""
    reached, components = set(), 0
    for v in range(g.n):
        if v not in reached:
            reached.update(bfs(g, [v])[0])
            components += 1
    return g.num_edges() == g.n - components


def is_tree(g):
    return g.n >= 1 and g.num_edges() == g.n - 1 and is_connected(g)


def max_degree(g):
    if g.n == 0:
        return 0
    return max(g.degree(v) for v in range(g.n))


def hom_count(h, g):
    """Number of adjacency-preserving maps V(h) -> V(g).

    Backtracks over h's vertices in ascending order. A vertex with earlier
    neighbours in h draws its candidates from the neighbours of the first
    one's image, kept only if adjacent to the other earlier neighbours'
    images; a vertex without them tries all of V(g). The last vertex's
    candidates are counted, not tried. Refuses instances whose naive
    candidate space |V(g)|^|V(h)| exceeds DEFAULT_HOM_CAP.
    """
    if h.n == 0:
        raise ValueError("source graph must have at least one vertex")
    if g.n ** h.n > DEFAULT_HOM_CAP:
        raise ValueError(
            "candidate space %d^%d exceeds cap %d" % (g.n, h.n, DEFAULT_HOM_CAP)
        )
    # the search recurses once per vertex of h: from two target vertices on,
    # the default cap bounds that depth (2^27 > 10^8), but 1^|V(h)| passes
    # any cap, so a one-vertex target (no edge: only an edgeless h maps to
    # it) is answered here
    if g.n == 1:
        return int(not h.edges)
    # earlier[v] = neighbors of v in h with smaller index (already assigned)
    earlier = [[u for u in h.neighbors(v) if u < v] for v in range(h.n)]
    return _count(0, h.n - 1, earlier, g._adj, range(g.n), [0] * h.n)


def _count(v, last, earlier, adj, everywhere, img):
    """Homomorphisms that extend img's images of the vertices before v."""
    ev = earlier[v]
    found = adj[img[ev[0]]] if ev else everywhere
    for u in ev[1:]:
        a = adj[img[u]]
        found = [w for w in found if w in a]
    if v == last:
        return len(found)
    total = 0
    for w in found:
        img[v] = w
        total += _count(v + 1, last, earlier, adj, everywhere, img)
    return total


def is_homomorphism(h, g, mapping):
    adj = g._adj
    for u, v in h.edges:
        if mapping[v] not in adj[mapping[u]]:
            return False
    return True


def isomorphisms(h1, h2, allowed):
    """All isomorphisms h1 -> h2 under which each vertex v in allowed maps
    into the ascending tuple allowed[v]. They come in lexicographic order
    when allowed lists the vertices 0, 1, ..., k-1 in that order, or allows
    a single image for each vertex it lists.

    Backtracks over the vertices of allowed first, in its order, each trying
    its allowed images, then over the other vertices of h1 ascending. Such a
    vertex with a neighbour placed before it tries the neighbours of that
    neighbour's image, ascending (any other image would break adjacency);
    one without tries the vertices of h2 ascending. A candidate is taken
    when it is unused, has the same degree and has the same adjacency to
    every image already placed, so an allowed image that no isomorphism can
    use yields nothing. A vertex or an image outside its graph is a
    ValueError.
    """
    if h1.n != h2.n or h1.num_edges() != h2.num_edges():
        return
    if sorted(map(len, h1._adj)) != sorted(map(len, h2._adj)):
        return
    if not all(0 <= v < h1.n and all(0 <= w < h2.n for w in ws) for v, ws in allowed.items()):
        raise ValueError("pin out of range")
    # a step (v, candidates, anchor) draws v's images from candidates, or,
    # when anchor is a placed neighbour of v, from the neighbours of its image
    steps = [(v, ws, None) for v, ws in allowed.items()]
    placed = set(allowed)
    everywhere = range(h2.n)
    for v in range(h1.n):
        if v not in placed:
            anchor = next((u for u in h1._adj[v] if u in placed), None)
            steps.append((v, everywhere, anchor))
            placed.add(v)
    if not steps:
        yield ()
        return
    adj1, adj2 = h1._adj, h2._adj
    img, used = [-1] * h1.n, [False] * h2.n
    # depth first without recursion, whose limit a large h1 would pass:
    # tries holds the candidates left to each step begun, every step before
    # the last of them is placed, and the last leaves its image before it
    # tries the next (the first step has no anchor)
    tries = [iter(steps[0][1])]
    while tries:
        v = steps[len(tries) - 1][0]
        if img[v] >= 0:
            used[img[v]] = False
            img[v] = -1
        for w in tries[-1]:
            if not used[w] and _fits(adj1[v], adj2[w], img, used):
                break
        else:
            tries.pop()
            continue
        img[v] = w
        used[w] = True
        if len(tries) == len(steps):
            yield tuple(img)
        else:
            _, candidates, anchor = steps[len(tries)]
            tries.append(iter(candidates if anchor is None else adj2[img[anchor]]))


def _fits(nv, nw, img, used):
    """True iff a vertex with neighbours nv may map to one with neighbours
    nw: same degree, and the same adjacency to every image img places.

    used marks exactly the images placed, one per placed vertex, so it is
    enough that every placed neighbour's image lies in nw and that nw holds
    no more used images than that: the cost is the degrees, not |V(h1)|.

    The second half (nw holds no other used image) only prunes: isomorphisms
    runs only on graphs with equal vertex and edge counts, where an
    injective edge-preserving map is already an isomorphism, so the maps
    yielded do not depend on it. It is kept because it pays: without it
    the structure benchmark ran about 2-4% fewer jobs per second.
    """
    if len(nv) != len(nw):
        return False
    placed = 0
    for u in nv:
        x = img[u]
        if x >= 0:
            if x not in nw:
                return False
            placed += 1
    for x in nw:
        if used[x]:
            placed -= 1
    return placed == 0


def isomorphisms_pinned(h1, h2, pin=None):
    """All isomorphisms h1 -> h2 extending the partial map pin {v1: v2}, in
    lexicographic order: isomorphisms with each pinned vertex allowed its
    pinned image only, so a pin that is not injective or not consistent
    yields nothing. A pin outside either graph is a ValueError."""
    yield from isomorphisms(h1, h2, {v: (w,) for v, w in dict(pin or {}).items()})


# The connected graphs on n = 1..6 vertices, one per isomorphism class (1, 1, 2, 6, 21
# and 112): bit i of a mask is the edge combinations(range(n), 2)[i], each class is
# its least mask, and masks ascend. tests/test_graphs.py's
# test_connected_table_matches_the_generator regenerates it with all_graphs_reference.
CONNECTED_CLASSES = {
    1: (0,),
    2: (1,),
    3: (3, 7),
    4: (7, 13, 15, 30, 31, 63),
    5: (15, 29, 31, 58, 59, 62, 63, 126, 127, 185, 187, 191, 207, 220, 221, 223, 254, 255,
        495, 511, 1023),
    6: (31, 61, 63, 121, 122, 123, 126, 127, 246, 247, 254, 255, 510, 511, 633, 635, 639,
        659, 663, 671, 691, 692, 693, 694, 695, 700, 701, 703, 758, 759, 760, 761, 762, 763,
        766, 767, 922, 923, 926, 927, 954, 955, 956, 957, 958, 959, 1022, 1023, 1749, 1751,
        1759, 1780, 1781, 1783, 1788, 1789, 1791, 1880, 1881, 1883, 1884, 1885, 1887, 1915,
        1916, 1917, 1919, 2012, 2013, 2014, 2015, 2046, 2047, 4060, 4061, 4063, 4095, 5873,
        5875, 5879, 5887, 5907, 5911, 5919, 5941, 5943, 5948, 5949, 5950, 5951, 6007, 6010,
        6011, 6014, 6015, 6142, 6143, 6654, 6655, 7071, 7100, 7101, 7103, 7166, 7167, 8157,
        8159, 8191, 15870, 15871, 16383, 32767),
}


def connected_graphs_up_to(max_n):
    """One representative per isomorphism class of connected graphs on
    1..max_n vertices, read from CONNECTED_CLASSES: ascending vertex count,
    then ascending edge mask. max_n above the table's largest vertex count
    is a ValueError; max_n <= 0 gives no graphs."""
    limit = max(CONNECTED_CLASSES)
    if max_n > limit:
        raise ValueError("max_n %d exceeds the table's limit %d" % (max_n, limit))
    graphs = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in CONNECTED_CLASSES[n]:
            graphs.append(Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    return graphs
