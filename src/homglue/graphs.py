"""Simple undirected graphs on dense integer vertices, with neighbour-pruned
homomorphism search, pinned isomorphism search and isomorph-free enumeration
of small graphs.

Everything here is sized for desk-scale instances (a dozen vertices or so);
the enumeration routines are deterministic backtracking searches whose output
order is fixed by ascending vertex indices.
"""

from dataclasses import dataclass
from itertools import combinations


class SizeCapExceeded(ValueError):
    """Raised when a brute-force enumeration would exceed its candidate cap."""


# Default bound on |V(g)|^|V(h)| before enumerate_homs refuses to run.
DEFAULT_HOM_CAP = 10**8


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as a canonically sorted tuple of (min, max) pairs, so
    structurally equal graphs compare (and hash) equal. The ascending
    neighbour tuple of every vertex is built once here and kept outside the
    dataclass fields, so it takes no part in equality or hashing.
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
        edges = tuple(sorted(canon))
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


def induced_subgraph(g, s):
    """Induced subgraph of g on vertex set s, relabeled to 0..|s|-1.

    Returns (subgraph, relabeling) where relabeling[i] is the vertex of g
    that became vertex i. The relabeling is monotone (s is sorted).
    """
    s = vertex_set(s, g.n)
    pos = {v: i for i, v in enumerate(s)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph(len(s), edges), s


def is_connected(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_forest(g):
    """True iff g is acyclic."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_tree(g):
    return g.n >= 1 and g.num_edges() == g.n - 1 and is_connected(g)


def max_degree(g):
    if g.n == 0:
        return 0
    return max(g.degree(v) for v in range(g.n))


def enumerate_homs(h, g, cap=DEFAULT_HOM_CAP):
    """All adjacency-preserving maps V(h) -> V(g), in lexicographic order.

    Backtracks over h's vertices in ascending order. A vertex with earlier
    neighbours in h draws its candidates from the neighbours of the first
    one's image, kept only if adjacent to the other earlier neighbours'
    images; a vertex without them tries all of V(g). Candidates stay
    ascending, which fixes the order. Refuses instances whose naive candidate
    space |V(g)|^|V(h)| exceeds cap.
    """
    return [prefix + (w,) for prefix, last in _hom_blocks(h, g, cap) for w in last]


def hom_count(h, g, cap=DEFAULT_HOM_CAP):
    """Number of homomorphisms h -> g (without materializing the list)."""
    return sum(len(last) for _, last in _hom_blocks(h, g, cap))


def _hom_blocks(h, g, cap=DEFAULT_HOM_CAP):
    """The homomorphisms h -> g in lexicographic order, grouped by their
    images of every vertex but the last: pairs (prefix, candidates), where
    each ascending candidate for the last vertex completes prefix."""
    if h.n == 0:
        raise ValueError("source graph must have at least one vertex")
    if g.n ** h.n > cap:
        raise SizeCapExceeded(
            "candidate space %d^%d exceeds cap %d" % (g.n, h.n, cap)
        )
    # earlier[v] = neighbors of v in h with smaller index (already assigned)
    earlier = [[u for u in h.neighbors(v) if u < v] for v in range(h.n)]
    adj = g._adj
    everywhere = range(g.n)
    img = [0] * h.n
    last = h.n - 1

    def candidates(v):
        ev = earlier[v]
        if not ev:
            return everywhere
        found = adj[img[ev[0]]]
        for u in ev[1:]:
            a = adj[img[u]]
            found = [w for w in found if w in a]
        return found

    def backtrack(v):
        if v == last:
            yield tuple(img[:last]), candidates(v)
            return
        for w in candidates(v):
            img[v] = w
            yield from backtrack(v + 1)

    yield from backtrack(0)


def is_homomorphism(h, g, mapping):
    adj = g._adj
    return all(mapping[v] in adj[mapping[u]] for u, v in h.edges)


def find_isomorphism_pinned(h1, h2, pin=None):
    """First graph isomorphism h1 -> h2 extending pin, or None.

    pin is a partial injective map {v1: v2}. The search is deterministic
    (lexicographic backtracking over h1's vertices ascending) and the result
    is verified edge-preserving in both directions before being returned.
    """
    for phi in isomorphisms_pinned(h1, h2, pin):
        return phi
    return None


def isomorphisms_pinned(h1, h2, pin=None):
    """Generate all isomorphisms h1 -> h2 extending pin, lexicographically."""
    pin = dict(pin or {})
    if h1.n != h2.n or h1.num_edges() != h2.num_edges():
        return
    if sorted(h1.degree(v) for v in range(h1.n)) != sorted(
        h2.degree(v) for v in range(h2.n)
    ):
        return
    if len(set(pin.values())) != len(pin):
        return
    img = [-1] * h1.n
    used = [False] * h2.n
    for v, w in pin.items():
        if not (0 <= v < h1.n and 0 <= w < h2.n):
            raise ValueError("pin out of range")
        img[v] = w
        used[w] = True

    adj1, adj2 = h1._adj, h2._adj

    def ok(v, w):
        nv, nw = adj1[v], adj2[w]
        if len(nv) != len(nw):
            return False
        for u, x in enumerate(img):
            if x >= 0 and (u in nv) != (x in nw):
                return False
        return True

    # pinned vertices must themselves be consistent
    for v in pin:
        w = img[v]
        img[v] = -1
        if not ok(v, w):
            return
        img[v] = w

    order = [v for v in range(h1.n) if v not in pin]

    def backtrack(i):
        if i == len(order):
            yield tuple(img)
            return
        v = order[i]
        for w in range(h2.n):
            if not used[w] and ok(v, w):
                img[v] = w
                used[w] = True
                yield from backtrack(i + 1)
                img[v] = -1
                used[w] = False

    yield from backtrack(0)


def all_graphs_up_to(max_n):
    """One representative per isomorphism class of graphs on 1..max_n vertices.

    For each n, candidate edge sets are visited in increasing bit order over
    the lexicographic vertex pairs. Candidates are bucketed by edge count and
    sorted degree sequence, and one is kept only when no earlier member of
    its bucket is isomorphic to it, so every class is represented by its
    first candidate in that order.
    """
    reps = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        buckets = {}
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            key = (g.num_edges(), tuple(sorted(map(len, g._adj))))
            bucket = buckets.setdefault(key, [])
            if not any(find_isomorphism_pinned(g, r) is not None for r in bucket):
                bucket.append(g)
                reps.append(g)
    return reps


def connected_graphs_up_to(max_n):
    return [g for g in all_graphs_up_to(max_n) if is_connected(g)]
