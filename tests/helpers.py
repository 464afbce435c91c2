"""Shared generators and independent brute-force oracles for the tests.

Oracles here deliberately avoid the library's own algorithms: minimal
covering subtrees are found by exhaustive subset enumeration, joint
distributions by direct formula evaluation, and so on.
"""

import json
import math
import random
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, combinations, permutations, product, repeat
from operator import itemgetter

from homglue import cli, dists, graphs, markov, serialize, sidorenko, strong
from homglue.dists import SparseDistribution, first_difference, marginal
from homglue.graphs import (
    CONNECTED_CLASSES,
    Graph,
    induced_subgraph,
    is_connected,
    is_homomorphism,
    is_tree,
    isomorphisms_pinned,
    vertex_set,
)
from homglue.markov import (
    MarkovTree,
    Refused,
    TreeDecomposition,
    ValidationReport,
    minimum_covering_subfamily,
    retraction,
    validate_markov_tree,
    validate_tree_decomposition,
)
from homglue.sidorenko import associated_distribution
from homglue.strong import (
    StrongDecomposition,
    minimum_subdecomposition,
    validate_strong,
    zero_strong,
)
from fixture_builders import c4


def random_tree_edges(rng, k):
    """Random labelled tree on 0..k-1 (random attachment)."""
    return [(rng.randrange(i), i) for i in range(1, k)]


def random_markov_tree(rng, num_bags, ground_size):
    """Random valid Markov tree: each ground element occupies a random
    subtree of the bag tree, which guarantees running intersection."""
    tree = random_tree_edges(rng, num_bags)
    adj = {i: [] for i in range(num_bags)}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)
    bags = [set() for _ in range(num_bags)]
    for v in range(ground_size):
        # grow a random connected bag set for v
        start = rng.randrange(num_bags)
        fam = {start}
        frontier = list(adj[start])
        while frontier and rng.random() < 0.5:
            nxt = frontier.pop(rng.randrange(len(frontier)))
            if nxt in fam:
                continue
            fam.add(nxt)
            frontier.extend(adj[nxt])
        for i in fam:
            bags[i].add(v)
    # nonempty bags keep downstream distribution code simple; copying a tree
    # neighbor's bag preserves the connectivity of every element's family
    while any(not b for b in bags):
        for i, b in enumerate(bags):
            if not b:
                for j in adj[i]:
                    b.update(bags[j])
    return MarkovTree(ground_size, [tuple(sorted(b)) for b in bags], tree)


def rooted_at_largest(m):
    """m with its bags renumbered so that bag 0 is the first bag holding the
    largest ground element in any bag, and that bag's old number is taken
    by the old bag 0: the same Markov tree, whose gluing walk starts from
    the largest vertices."""
    top = max(v for bag in m.bags for v in bag)
    r = next(i for i, bag in enumerate(m.bags) if top in bag)
    swap = {0: r, r: 0}
    new = [m.bags[swap.get(i, i)] for i in range(m.num_bags())]
    tree = [(swap.get(a, a), swap.get(b, b)) for a, b in m.tree]
    return MarkovTree(m.ground_size, new, tree)


def random_joint(rng, ground, target_size, atoms=6):
    """Random exact distribution over assignments ground -> target."""
    atoms = min(atoms, target_size ** len(ground))
    keys = set()
    while len(keys) < atoms:
        keys.add(tuple(rng.randrange(target_size) for _ in ground))
    weights = {k: rng.randint(1, 9) for k in keys}
    total = sum(weights.values())
    return SparseDistribution(
        ground, target_size, {k: Fraction(w, total) for k, w in weights.items()}
    )


def text_reference(p):
    """The distribution document of p as json.dumps(indent=1, sort_keys=True)
    lays it out, with num and den read off p's Fraction masses."""
    doc = {
        "index_set": list(p.index_set),
        "target_size": p.target_size,
        "mass": [
            {"key": list(k), "num": str(q.numerator), "den": str(q.denominator)}
            for k, q in sorted(p.mass.items())
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def entropy_reference(p):
    """Shannon entropy in bits by the library's first formula, float(q)
    taken twice per atom, with the terms added left to right in sorted-key
    order."""
    total = 0
    for _, q in sorted(p.mass.items()):
        total += float(q) * math.log2(float(q))
    return -total


# entropy and distribution_to_text as they were before distributions kept
# their atoms in key order: each sorts the keys itself, so neither depends on
# the order p.weight stores them in.


def sorting_entropy_reference(p):
    """Shannon entropy in bits, added left to right in sorted-key order, each
    distinct weight's term computed once."""
    den, weight = p.den, p.weight
    terms = {}
    for w in set(weight.values()):
        x = w / den
        terms[w] = x * math.log2(x)
    total = 0
    for key in sorted(weight):
        total += terms[weight[key]]
    return -total


def sorting_text_reference(p):
    """The distribution document of p as serialize's column writer laid it
    out over the sorted keys."""
    keys = sorted(p.weight)
    ws = list(map(p.weight.__getitem__, keys))
    nums, dens = serialize._mass_texts(p)
    seen = set(chain.from_iterable(keys))
    values = dict(zip(seen, map(str, seen)))
    n = len(p.index_set)
    columns = [
        chain(('{\n   "den": "',), repeat(',\n  {\n   "den": "')),
        map(dens.__getitem__, ws),
    ]
    if n:
        columns.append(repeat('",\n   "key": [\n    '))
        for i in range(n):
            if i:
                columns.append(repeat(",\n    "))
            columns.append(map(values.__getitem__, map(itemgetter(i), keys)))
        columns.append(repeat('\n   ],\n   "num": "'))
    else:
        columns.append(repeat('",\n   "key": [],\n   "num": "'))
    columns += [map(nums.__getitem__, ws), repeat('"\n  }')]
    atoms = "".join(chain.from_iterable(zip(*columns)))
    return '{\n "index_set": %s,\n "mass": %s,\n "target_size": %s\n}' % (
        serialize._list_text(map(str, p.index_set), 1),
        serialize._list_text((atoms,), 1),
        p.target_size,
    )


def consistent_bag_dists(rng, m, target_size, atoms=6):
    """Per-bag distributions that automatically agree on overlaps: marginals
    of one random joint distribution over the ground set."""
    ground = tuple(range(m.ground_size))
    joint = random_joint(rng, ground, target_size, atoms)
    return [marginal(joint, bag) for bag in m.bags]


def brute_force_min_cover(m, u):
    """All minimum-cardinality bag subfamilies covering u that induce a
    subtree, by exhaustive enumeration."""
    u = set(u)
    k = m.num_bags()
    for size in range(1, k + 1):
        found = []
        for fam in combinations(range(k), size):
            if not family_connected(m, fam):
                continue
            union = set()
            for i in fam:
                union.update(m.bags[i])
            if u <= union:
                found.append(fam)
        if found:
            return found
    return []


def host_vertices(u, n):
    """u as a sorted, deduplicated tuple of vertices of a host on n
    vertices; ValueError for a vertex outside 0..n-1."""
    u = vertex_set(u)
    for v in u:
        if not 0 <= v < n:
            raise ValueError("vertex %d out of range for n=%d" % (v, n))
    return u


def minimum_subdecomposition_reference(sd, u):
    """strong.minimum_subdecomposition as it was before a covering family of
    every bag returned sd itself: every covering family, all bags included,
    is rebuilt by a retraction."""
    u = host_vertices(u, sd.host.n)
    if not u:
        raise ValueError("u must be nonempty")
    td = sd.decomp
    keep = minimum_covering_subfamily(td.markov, u)
    if len(keep) == 1 and sd.level > 0:
        bag = td.markov.bags[keep[0]]
        child_u = tuple(bag.index(v) for v in u)
        inner, embedding = minimum_subdecomposition_reference(sd.children[keep[0]], child_u)
        return inner, tuple(bag[v] for v in embedding)
    sub_td, relabel = retraction(td, keep)
    children = tuple(sd.children[i] for i in keep) if sd.children else ()
    return StrongDecomposition(sd.level, sub_td.host, sub_td, children), relabel


def family_connected(m, fam):
    """True iff the bag-index family fam is nonempty, lies in
    0..num_bags-1 and is connected through tree edges of m with both ends
    in fam: a flood fill from its first member over m.tree."""
    reached = set(fam[:1])
    grown = True
    while grown:
        grown = False
        for a, b in m.tree:
            if a in fam and b in fam and (a in reached) != (b in reached):
                reached |= {a, b}
                grown = True
    return bool(fam) and reached == set(fam) and reached <= set(range(m.num_bags()))


def bags_containing(m, v):
    """Indices of the bags of m holding the ground element v: F(v)."""
    return tuple(i for i, b in enumerate(m.bags) if v in b)


def markov_subtrees(m):
    """Every nonempty bag-index family of m that family_connected accepts,
    by ascending size, then lexicographically. Exponential in the number of
    bags."""
    k = m.num_bags()
    return [
        fam
        for size in range(1, k + 1)
        for fam in combinations(range(k), size)
        if family_connected(m, fam)
    ]


def helly_intersection(m, families):
    """The lowest bag index common to the families, each a subtree of m's
    bag tree (ValueError otherwise), or None when two of them are disjoint.
    By the Helly property of subtrees of a tree, pairwise-intersecting
    families share a bag; when they do not, the bag tree is no tree, which
    is a ValueError."""
    fams = [frozenset(f) for f in families]
    for f in fams:
        if not family_connected(m, sorted(f)):
            raise ValueError("family %s does not induce a subtree" % sorted(f))
    if any(not (f1 & f2) for f1, f2 in combinations(fams, 2)):
        return None
    common = frozenset.intersection(*fams)
    if not common:
        raise ValueError("Helly property violated: the bag tree is not a tree")
    return min(common)


def bfs_reference(g, roots):
    """Breadth-first walk of g from roots with a FIFO queue: (order, parent),
    with the roots first and each vertex's unreached neighbours appended in
    ascending order; parent maps each root to None."""
    adj = [[] for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {r: None for r in roots}
    order = []
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return order, parent


def line_graph_reference(t):
    """Line graph of t by testing every pair of edges for a shared endpoint,
    built through the validating Graph constructor."""
    pairs = [
        (i, j)
        for i, j in combinations(range(t.num_edges()), 2)
        if set(t.edges[i]) & set(t.edges[j])
    ]
    return Graph(t.num_edges(), pairs)


def level0_violations_reference(sd):
    """validate_strong's violations on the level-0 decomposition sd, as it
    found them before a bag tree's shape could settle the Markov tree: the
    base checks, then validate_markov_tree whenever the bags are the host's
    edges, every witness at the root path."""
    report = ValidationReport()
    if sd.decomp.host != sd.host:
        report.add("decomp-host-mismatch", {"path": []})
        return report.violations
    m = sd.decomp.markov
    if not is_tree(sd.host) or sd.host.num_edges() == 0:
        report.add("base-host-not-a-tree", {"path": []})
        return report.violations
    if m.bags != sd.host.edges:
        report.add("base-bags-not-host-edges", {"path": []})
        return report.violations
    for i, j in m.tree:
        if not set(m.bags[i]) & set(m.bags[j]):
            report.add("base-tree-not-in-line-graph", {"path": [], "edge": [i, j]})
    for v in validate_markov_tree(m).violations:
        report.add(v["kind"], {"path": [], **v["witness"]})
    return report.violations


def random_line_graph_spanning_tree(rng, t):
    """A random spanning tree of the line graph of the tree t with an edge,
    as bag-index pairs over t's edges: the line graph's edges in a random
    order, each kept when it joins two parts not yet joined."""
    pairs = list(line_graph_reference(t).edges)
    rng.shuffle(pairs)
    part = list(range(t.num_edges()))

    def root(i):
        while part[i] != i:
            i = part[i]
        return i

    kept = []
    for i, j in pairs:
        a, b = root(i), root(j)
        if a != b:
            part[a] = b
            kept.append((i, j))
    return kept


def level0_with_bag_tree(rng, n, shape):
    """(zero-level decomposition, shape) of a randomly labelled tree on n
    vertices whose bag tree is a random spanning tree of its line graph
    (shape "spanning"), or that tree with one edge swapped for a pair of
    bags sharing no vertex ("disjoint", joining the two parts again where
    such a pair exists), with one more bag-tree edge, of the line graph
    where it has one left ("cycle"), or with one edge fewer ("forest"). A
    shape a tree too small for it cannot take falls back to "spanning"."""
    perm = list(range(n))
    rng.shuffle(perm)
    t = Graph(n, [(perm[u], perm[v]) for u, v in random_tree(rng, n).edges])
    k = t.num_edges()
    tree = random_line_graph_spanning_tree(rng, t)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    disjoint = [(i, j) for i, j in pairs if not set(t.edges[i]) & set(t.edges[j])]
    # a cycle through line-graph edges alone where the line graph has one
    extra = [pair for pair in pairs if pair not in tree]
    extra = [pair for pair in extra if pair not in disjoint] or extra
    if shape == "disjoint" and disjoint:
        cut = tree.pop(rng.randrange(len(tree)))
        side = {cut[0]}
        for _ in tree:  # grow cut[0]'s part of the forest left
            side |= {v for e in tree if set(e) & side for v in e}
        across = [(i, j) for i, j in disjoint if (i in side) != (j in side)]
        tree.append(rng.choice(across or disjoint))
    elif shape == "cycle" and extra:
        tree.append(rng.choice(extra))
    elif shape == "forest" and tree:
        tree.pop(rng.randrange(len(tree)))
    else:
        shape = "spanning"
    markov = MarkovTree(t.n, t.edges, tree)
    return StrongDecomposition(0, t, TreeDecomposition(t, markov)), shape


def running_intersection_reference(m):
    """The violations validate_markov_tree reports, in its order: a bag tree
    that is not a tree (edge count, then a walk from bag 0), else every
    uncovered element, then for each pair of bags a < b sharing elements
    each bag c strictly inside the a-b path, from a's end, that misses a
    shared element. Paths come from bfs_reference rooted at a."""
    k = m.num_bags()
    if len(m.tree) != k - 1 or len(bfs_reference(m.bag_tree, [0])[0]) != k:
        return [{"kind": "tree-structure", "witness": {"num_bags": k, "tree": list(m.tree)}}]
    covered = set().union(*m.bags)
    out = [
        {"kind": "uncovered-element", "witness": {"element": v}}
        for v in range(m.ground_size)
        if v not in covered
    ]
    for a, b in combinations(range(k), 2):
        shared = set(m.bags[a]) & set(m.bags[b])
        if not shared:
            continue
        _, parent = bfs_reference(m.bag_tree, [a])
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        for c in reversed(path[1:-1]):
            missing = shared - set(m.bags[c])
            if missing:
                out.append(
                    {
                        "kind": "running-intersection",
                        "witness": {"a": a, "b": b, "c": c, "element": min(missing)},
                    }
                )
    return out


def brute_force_isomorphisms(h1, h2, pin):
    """Every permutation of V(h2), in itertools.permutations order, read as a
    map V(h1) -> V(h2) and kept when it extends the partial map pin and
    sends h1's edge set onto h2's."""
    if h1.n != h2.n:
        return []
    edges = set(h2.edges)
    return [
        phi
        for phi in permutations(range(h2.n))
        if all(phi[v] == w for v, w in pin.items())
        and {(min(phi[u], phi[v]), max(phi[u], phi[v])) for u, v in h1.edges} == edges
    ]


def relabel_strong(sd, perm, rng):
    """Copy of the strong decomposition sd with host vertex v renamed
    perm[v]. Above level 0 the bag indices are also shuffled with rng; at
    level 0 the bags stay the host's sorted edges. Each child is relabelled
    by the map its bag's vertices induce."""
    host = Graph(sd.host.n, [(perm[u], perm[v]) for u, v in sd.host.edges])
    m = sd.decomp.markov
    images = [tuple(sorted(perm[v] for v in bag)) for bag in m.bags]
    if sd.level == 0:
        order = [host.edges.index(b) for b in images]
    else:
        order = list(range(m.num_bags()))
        rng.shuffle(order)
    bags = [None] * len(order)
    for i, image in enumerate(images):
        bags[order[i]] = image
    tree = [(order[a], order[b]) for a, b in m.tree]
    decomp = TreeDecomposition(host, MarkovTree(host.n, bags, tree))
    children = [None] * len(sd.children)
    for i, child in enumerate(sd.children):
        child_perm = [images[i].index(perm[v]) for v in m.bags[i]]
        children[order[i]] = relabel_strong(child, child_perm, rng)
    return StrongDecomposition(sd.level, host, decomp, tuple(children))


def random_level1(rng, num_bags, max_size):
    """A valid level-1 strong decomposition, built bag by bag: the first bag
    is a random tree, and each later one a random tree on 2..max_size
    vertices that shares exactly one vertex or one edge of an earlier bag,
    to which the bag tree joins it, and is otherwise fresh. The host is the
    union of the trees. A bag's tree is then the host's induced subgraph on
    it, and its child that tree's zero_strong. Every intersection along the
    bag tree is one vertex or one edge, whose minimum sub-decompositions in
    two level-0 children are both a single edge, so condition 3 holds. Host
    vertices and bag indices are shuffled at the end."""
    trees = [random_tree_edges(rng, rng.randint(2, max_size))]
    bags = [list(range(len(trees[0]) + 1))]
    bag_tree = []
    n = len(bags[0])
    for j in range(1, num_bags):
        i = rng.randrange(j)
        shared = list(rng.choice(trees[i])) if rng.random() < 0.5 else [rng.choice(bags[i])]
        local = shared + list(range(n, n + rng.randint(2, max_size) - len(shared)))
        n += len(local) - len(shared)
        edges = [tuple(shared)] if len(shared) == 2 else []
        edges += [(local[rng.randrange(k)], local[k]) for k in range(len(shared), len(local))]
        trees.append(edges)
        bags.append(local)
        bag_tree.append((i, j))
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(num_bags))
    rng.shuffle(order)
    host = Graph(n, [(perm[u], perm[v]) for edges in trees for u, v in edges])
    new_bags, children = [None] * num_bags, [None] * num_bags
    for j, (bag, edges) in enumerate(zip(bags, trees)):
        new_bags[order[j]] = image = sorted(perm[v] for v in bag)
        pos = {v: k for k, v in enumerate(image)}
        child = Graph(len(image), [(pos[perm[u]], pos[perm[v]]) for u, v in edges])
        children[order[j]] = zero_strong(child)
    m = MarkovTree(n, new_bags, [(order[a], order[b]) for a, b in bag_tree])
    return StrongDecomposition(1, host, TreeDecomposition(host, m), tuple(children))


def glue_copies(base, plan, rng):
    """The strong decomposition one level above base whose bags are copies of
    base's host, each carrying a relabelled copy of base (relabel_strong).
    plan holds, for each copy after the first, (parent, shared): the copy
    gives the vertices of base's host in shared the names the earlier copy
    parent gives them, takes fresh names for the rest, and is joined to
    parent in the bag tree. The host is the union of the copies, so each
    bag's induced host is base's host; two joined bags share the vertices
    of shared, whose minimum sub-decompositions on both sides are copies of
    one. So the result is valid exactly when base is and every shared set
    induces a forest in base's host. Host vertices and bag indices are
    shuffled at the end."""
    n = total = base.host.n
    names = [list(range(n))]
    tree = []
    for j, (parent, shared) in enumerate(plan, 1):
        shared = set(shared)
        row = []
        for v in range(n):
            if v in shared:
                row.append(names[parent][v])
            else:
                row.append(total)
                total += 1
        names.append(row)
        tree.append((parent, j))
    host = Graph(total, [(row[u], row[v]) for row in names for u, v in base.host.edges])
    bags = [tuple(sorted(row)) for row in names]
    children = tuple(
        relabel_strong(base, [bag.index(x) for x in row], rng) for bag, row in zip(bags, names)
    )
    markov = MarkovTree(total, bags, tree)
    sd = StrongDecomposition(base.level + 1, host, TreeDecomposition(host, markov), children)
    perm = list(range(total))
    rng.shuffle(perm)
    return relabel_strong(sd, perm, rng)


def cut_square(h, x, z):
    """The level-1 decomposition of the 4-cycle h cut along its diagonal
    {x, z}: two bags, each x, z and one of the other two vertices, carrying
    their paths. The two diagonals give decompositions of one host that no
    strong isomorphism fixing the host's vertices joins."""
    bags = [tuple(sorted((x, z, y))) for y in range(h.n) if y not in (x, z)]
    children = tuple(zero_strong(induced_subgraph(h, bag)[0]) for bag in bags)
    markov = MarkovTree(h.n, bags, [(0, 1)])
    return StrongDecomposition(1, h, TreeDecomposition(h, markov), children)


def random_level2(rng, num_copies, base_bags=3):
    """A valid level-2 strong decomposition: glue_copies of one level-1
    base, either random_level1(rng, 1..base_bags, 3) or the 4-cycle cut
    along a random diagonal, with a random_copy_plan. The base host has at
    most 2 * base_bags + 1 vertices (7 by default)."""
    if rng.random() < 0.25:
        base = cut_square(c4(), *rng.choice(((0, 2), (1, 3))))
    else:
        base = random_level1(rng, rng.randint(1, base_bags), 3)
    return glue_copies(base, random_copy_plan(rng, base.host, num_copies), rng)


def random_copy_plan(rng, h, num_copies):
    """A glue_copies plan for num_copies copies of a decomposition of h, a
    tree or a 4-cycle: each copy after the first shares with a random
    earlier one a random set of at most four vertices, short of all of h,
    which induces a forest in h (every vertex set of a tree does, and so
    does every proper subset of a 4-cycle). The shared sets range over the
    empty set (adjacent disjoint bags), one vertex, one edge, two
    non-adjacent vertices and forests of three or four vertices, so
    validate_strong settles condition 3 by the overlap's shape, by the
    children alone and by the search. The last copy is a leaf of the bag
    tree."""
    return [
        (rng.randrange(j), rng.sample(range(h.n), rng.randint(0, min(4, h.n - 1))))
        for j in range(1, num_copies)
    ]


def rival_child(child, u):
    """A valid level-1 decomposition of the host of child, a level-1
    decomposition of a tree or of a 4-cycle, whose minimum sub-decomposition
    holding the vertex set u has another level than child's, so that no
    strong isomorphism joins the two; None when neither the one-bag
    decomposition of a tree nor a 4-cycle cut along a diagonal (cut_square)
    is one."""
    h = child.host
    if h.num_edges() == h.n - 1:
        whole = TreeDecomposition(h, MarkovTree(h.n, [tuple(range(h.n))]))
        rivals = [StrongDecomposition(1, h, whole, (zero_strong(h),))]
    else:
        diagonals = [(x, z) for x, z in combinations(range(h.n), 2) if z not in h.neighbors(x)]
        rivals = [cut_square(h, x, z) for x, z in diagonals]
    level = minimum_subdecomposition_reference(child, u)[0].level
    for rival in rivals:
        if minimum_subdecomposition_reference(rival, u)[0].level != level:
            return rival
    return None


def overlaps(sd):
    """(bag-tree edge, overlap of its two bags) per edge of sd's top level."""
    m = sd.decomp.markov
    return [((i, j), vertex_set(set(m.bags[i]) & set(m.bags[j]))) for i, j in m.tree]


def leaf_swaps(sd):
    """(bag-tree edge, overlap, corrupted copy of sd) for each edge of sd's
    top level and each end of it that is a leaf of the bag tree, whose child
    has a rival_child on the nonempty overlap: the copy carries the rival
    there, so condition 3 fails on that overlap alone."""
    m = sd.decomp.markov
    degree = Counter(b for edge in m.tree for b in edge)
    out = []
    for (i, j), inter in overlaps(sd):
        for b in (i, j):
            if not inter or degree[b] != 1:
                continue
            rival = rival_child(sd.children[b], [m.bags[b].index(v) for v in inter])
            if rival is not None:
                children = list(sd.children)
                children[b] = rival
                corrupt = StrongDecomposition(sd.level, sd.host, sd.decomp, tuple(children))
                out.append(((i, j), inter, corrupt))
    return out


def condition3_reference(sd):
    """validate_strong's condition-3 violations of sd, a decomposition above
    level 0 whose other conditions hold, written from the definitions: for
    each bag-tree edge (i, j), in tree order, intersection-not-forest when
    the two bags' overlap induces a cycle in sd's host (forest_reference),
    else sub-decomposition-not-isomorphic when the overlap is nonempty and
    brute_force_strong_isomorphism finds no strong isomorphism between the
    two children's minimum sub-decompositions holding it
    (minimum_subdecomposition_reference) that sends each overlap vertex's
    copy on side i to its copy on side j. Every overlap is searched, one
    vertex and one edge included."""
    m = sd.decomp.markov
    out = []
    for (i, j), inter in overlaps(sd):
        witness = {"path": [], "edge": [i, j]}
        if not forest_reference(induced_subgraph(sd.host, inter)[0]):
            out.append({"kind": "intersection-not-forest", "witness": witness})
            continue
        if not inter:
            continue
        sides = []
        for b in (i, j):
            bag = m.bags[b]
            msd, embedding = minimum_subdecomposition_reference(
                sd.children[b], [bag.index(v) for v in inter]
            )
            sides.append((msd, {bag[x]: k for k, x in enumerate(embedding)}))
        (msd_i, at_i), (msd_j, at_j) = sides
        pin = {at_i[v]: at_j[v] for v in inter}
        if brute_force_strong_isomorphism(msd_i, msd_j, pin) is None:
            witness["intersection"] = list(inter)
            out.append({"kind": "sub-decomposition-not-isomorphic", "witness": witness})
    return out


def overlaps_are_vertices_and_edges(sd):
    """Whether, at every level of sd, each overlap of two bags joined in the
    bag tree induces in that level's host a disjoint union of vertices and
    edges: no overlap vertex has two neighbours in the overlap. Every
    fixture and every random_level1 draw is of this kind."""
    m = sd.decomp.markov
    for a, b in m.tree:
        shared = set(m.bags[a]).intersection(m.bags[b])
        if any(len(shared.intersection(sd.host.neighbors(v))) > 1 for v in shared):
            return False
    return all(overlaps_are_vertices_and_edges(child) for child in sd.children)


def brute_force_strong_isomorphism(sd1, sd2, pin):
    """The lexicographically first (vertex_map, bag_map) of a strong
    isomorphism sd1 -> sd2 whose vertex map extends pin, or None: every
    permutation of the host vertices, then of the bag indices, in
    itertools.permutations order. A bag map sends each bag onto the image of
    its vertices and the bag tree's edges onto the other's, and the vertex
    map induces a strong isomorphism on each pair of corresponding
    children. bag_map is None at level 0."""
    for phi in brute_force_isomorphisms(sd1.host, sd2.host, pin):
        bag_map = _brute_force_bag_map(sd1, sd2, phi)
        if bag_map is not None:
            return phi, (None if sd1.level == 0 else bag_map)
    return None


def _brute_force_bag_map(sd1, sd2, phi):
    """The first bag map under which the vertex map phi is a strong
    isomorphism, () at level 0, or None: None unless phi is a bijection onto
    sd2's host vertices that sends sd1's host edges onto sd2's."""
    if sd1.level != sd2.level or sorted(phi) != list(range(sd2.host.n)):
        return None
    if {tuple(sorted((phi[u], phi[v]))) for u, v in sd1.host.edges} != set(sd2.host.edges):
        return None
    if sd1.level == 0:
        return ()
    m1, m2 = sd1.decomp.markov, sd2.decomp.markov
    if m1.num_bags() != m2.num_bags():
        return None
    tree2 = {frozenset(e) for e in m2.tree}
    for sigma in permutations(range(m2.num_bags())):
        if {frozenset((sigma[a], sigma[b])) for a, b in m1.tree} != tree2:
            continue
        if all(
            m2.bags[sigma[i]] == tuple(sorted(phi[v] for v in bag))
            and _brute_force_bag_map(
                sd1.children[i],
                sd2.children[sigma[i]],
                tuple(m2.bags[sigma[i]].index(phi[v]) for v in bag),
            )
            is not None
            for i, bag in enumerate(m1.bags)
        ):
            return sigma
    return None


def forest_reference(g):
    """True iff g is acyclic, by union-find: an edge whose ends already share
    a root closes a cycle."""
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


def _edge_marginals(m, bag_dists):
    """(overlap, mass) per tree edge of m: the overlap of the edge's two bags
    and the first bag's marginal masses on it."""
    out = []
    for a, b in m.tree:
        shared = tuple(sorted(set(m.bags[a]) & set(m.bags[b])))
        out.append((shared, marginal(bag_dists[a], shared).mass))
    return out


def brute_force_joint(m, bag_dists):
    """Direct evaluation of the junction formula over all full assignments.

    Enumerates every assignment of the ground set (no support joining), so
    it is independent of both library constructions.
    """
    ground = tuple(range(m.ground_size))
    target = bag_dists[0].target_size
    edge_marg = _edge_marginals(m, bag_dists)
    bag_masses = [d.mass for d in bag_dists]
    out = {}
    for key in product(range(target), repeat=len(ground)):
        q = Fraction(1)
        ok = True
        for bag, mass in zip(m.bags, bag_masses):
            sub = tuple(key[v] for v in bag)
            if sub not in mass:
                ok = False
                break
            q *= mass[sub]
        if not ok:
            continue
        for shared, em in edge_marg:
            q /= em[tuple(key[v] for v in shared)]
        out[key] = q
    return SparseDistribution(ground, target, out)


def junction_factorization(m, bag_dists):
    """The closed-form joint q(y) = prod_F p_F(y_F) / prod_AB m_AB(y_overlap)
    of bag laws that agree on every tree edge, over the union of the bags.

    Built by joining the bag supports, bag by bag, into partial
    assignments, and returned through the validating constructor: it shares
    no step with glue_markov_tree, and enumerates only what the supports
    allow, where brute_force_joint tries every full assignment.
    """
    ground = vertex_set(v for bag in m.bags for v in bag)
    partials = [{}]
    for bag, d in zip(m.bags, bag_dists):
        joined = []
        for part in partials:
            for key in sorted(d.weight):
                assign = dict(zip(bag, key))
                if all(part.get(v, x) == x for v, x in assign.items()):
                    joined.append({**part, **assign})
        partials = joined
    edge_marg = _edge_marginals(m, bag_dists)
    bag_masses = [d.mass for d in bag_dists]
    out = {}
    for part in partials:
        q = Fraction(1)
        for bag, mass in zip(m.bags, bag_masses):
            q *= mass[tuple(part[v] for v in bag)]
        for shared, mass in edge_marg:
            q /= mass[tuple(part[v] for v in shared)]
        out[tuple(part[v] for v in ground)] = q
    return SparseDistribution(ground, bag_dists[0].target_size, out)


def uniform(index_set, target_size, keys):
    """The uniform law on the keys, through the validating constructor, which
    refuses a repeated key."""
    keys = list(keys)
    return SparseDistribution(index_set, target_size, [(k, Fraction(1, len(keys))) for k in keys])


# The paper's two consistency lemmas, checked on built distributions: the
# associated distribution projects onto each minimum sub-decomposition's own
# law, and it is transported along strong isomorphisms.


def projection_consistency_check(sd, g, u):
    """Compare the marginal of the full associated distribution on the
    minimum sub-decomposition containing u with that sub-decomposition's own
    associated distribution, moved onto the parent vertices through the
    recorded embedding.

    Returns {"ok": bool, "u": ..., "embedding": ...} plus a witness on
    failure.
    """
    u = host_vertices(u, sd.host.n)
    msd, embedding = minimum_subdecomposition(sd, u)
    full = associated_distribution(sd, g)
    sub = associated_distribution(msd, g)
    projected = marginal(full, embedding)
    # the embedding is monotone, so sub's keys line up positionally with it
    transported = SparseDistribution(embedding, sub.target_size, sub.mass)
    result = {"ok": projected == transported, "u": list(u), "embedding": list(embedding)}
    if not result["ok"]:
        result["witness"] = first_difference(projected.mass, transported.mass)
    return result


def isomorphism_transport_check(sd1, sd2, iso, g):
    """Verify that the associated distribution of sd2 is the pullback of
    sd1's under the strong isomorphism iso (vertex_map: sd1 -> sd2)."""
    phi = iso.vertex_map
    d1 = associated_distribution(sd1, g)
    d2 = associated_distribution(sd2, g)
    transported = {}
    for key, p in d1.mass.items():
        # atom on host1 becomes the atom h2 with h2[phi[v]] = h1[v]
        key2 = [None] * len(key)
        for v, x in enumerate(key):
            key2[phi[v]] = x
        transported[tuple(key2)] = p
    result = {"ok": transported == d2.mass}
    if not result["ok"]:
        result["witness"] = first_difference(transported, d2.mass)
    return result


def small_trees(max_vertices):
    """One representative per isomorphism class of trees on 2..max_vertices
    vertices, grown by leaf addition with pairwise isomorphism dedup."""
    levels = [[Graph(2, [(0, 1)])]]
    for n in range(3, max_vertices + 1):
        reps = []
        for t in levels[-1]:
            for v in range(t.n):
                cand = Graph(n, list(t.edges) + [(v, n - 1)])
                if all(next(isomorphisms_pinned(cand, r), None) is None for r in reps):
                    reps.append(cand)
        levels.append(reps)
    return [t for level in levels for t in level]


def spanning_trees(g):
    """All spanning-tree edge sets of a small connected graph."""
    from homglue.graphs import is_tree

    n = g.n
    if n == 1:
        yield ()
        return
    for fam in combinations(g.edges, n - 1):
        if is_tree(Graph(n, fam)):
            yield fam


def random_subtree(rng, adj, num_nodes):
    start = rng.randrange(num_nodes)
    fam = {start}
    frontier = list(adj[start])
    while frontier and rng.random() < 0.6:
        nxt = frontier.pop(rng.randrange(len(frontier)))
        if nxt in fam:
            continue
        fam.add(nxt)
        frontier.extend(adj[nxt])
    return frozenset(fam)


def canonical_form(g):
    """Smallest edge tuple over all vertex relabelings; iso-invariant key.

    Only intended for tiny graphs (factorial blowup).
    """
    best = None
    for perm in permutations(range(g.n)):
        relabeled = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return (g.n, best)


def canonical_dedup_graphs(max_n):
    """One graph per isomorphism class on 1..max_n vertices: the first in
    increasing bit order over the lexicographic vertex pairs, found by
    canonical-form dedup."""
    reps = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                reps.append(g)
    return reps


def all_graphs_reference(max_n):
    """One representative per isomorphism class of graphs on 1..max_n vertices.

    For each n, candidate edge sets are visited in increasing bit order over
    the lexicographic vertex pairs. Candidates are bucketed by edge count and
    sorted degree sequence, and one is kept only when no earlier member of
    its bucket is isomorphic to it, so every class is represented by its
    first candidate in that order. This generator regenerates and checks
    graphs.CONNECTED_CLASSES.
    """
    reps = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        buckets = {}
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            key = (g.num_edges(), tuple(sorted(map(len, g._adj))))
            bucket = buckets.setdefault(key, [])
            if all(next(isomorphisms_pinned(g, r), None) is None for r in bucket):
                bucket.append(g)
                reps.append(g)
    return reps


def brute_force_homs(h, g):
    """Every map V(h) -> V(g) in lexicographic order, kept when it sends
    each edge of h to an edge of g."""
    edges = set(g.edges)
    return [
        m
        for m in product(range(g.n), repeat=h.n)
        if all((min(m[u], m[v]), max(m[u], m[v])) in edges for u, v in h.edges)
    ]


def sidorenko_gap_reference(h, g, count):
    """The Sidorenko gap count/n^v(h) - (2e(g)/n^2)^e(h), for count =
    hom(h, g), as the definition reads: a chain of Fraction operations."""
    density = Fraction(count, g.n ** h.n)
    edge_density = Fraction(2 * g.num_edges(), g.n * g.n)
    return density - edge_density ** h.num_edges()


def forest_bound_reference(f, g, count):
    """forest_hom_bound_check's answer for count = hom(f, g), the bound
    2^e(f) * n^v(f) * (2e(g)/n^2)^e(f) as the definition reads: a chain of
    Fraction operations, compared as Fractions."""
    lhs = Fraction(count)
    ef = f.num_edges()
    rhs = Fraction(2) ** ef * Fraction(g.n) ** f.n * Fraction(
        2 * g.num_edges(), g.n * g.n
    ) ** ef
    return {"ok": lhs <= rhs, "lhs": lhs, "rhs": rhs}


def brw_reference(t, g):
    """Branching random walk on Hom(t, g) as a running product of Fraction
    steps: 1/(2e(g)) for the ordered edge under t's first edge, then
    1/deg(parent image) for each vertex attached in the order of
    bfs_reference(t, t.edges[0]). Built through the validating
    constructor."""
    r0, r1 = t.edges[0]
    order, parent = bfs_reference(t, [r0, r1])
    order = order[2:]
    mass = {}

    def attach(img, i, prob):
        if i == len(order):
            mass[tuple(img)] = prob
            return
        w = order[i]
        pv = img[parent[w]]
        for z in g.neighbors(pv):
            img[w] = z
            attach(img, i + 1, prob * Fraction(1, g.degree(pv)))
        img[w] = -1

    for a, b in g.edges:
        for x, y in ((a, b), (b, a)):
            img = [-1] * t.n
            img[r0], img[r1] = x, y
            attach(img, 0, Fraction(1, 2 * g.num_edges()))
    return SparseDistribution(range(t.n), g.n, mass)


def associated_reference(sd, g):
    """The associated distribution of sd on Hom(sd.host, g) built as the
    library first built it: every child rebuilt wherever it occurs, BRW laws
    from brw_reference, each child's law moved onto its bag through the
    validating constructor and the bags glued on Fraction masses by
    glue_markov_tree_reference. Every support atom of the result is then
    checked to be a homomorphism of sd.host (AssertionError otherwise)."""

    def build(node):
        if node.level == 0:
            return brw_reference(node.host, g)
        m = node.decomp.markov
        laws = [
            SparseDistribution(bag, g.n, build(child).mass)
            for bag, child in zip(m.bags, node.children)
        ]
        return glue_markov_tree_reference(m, laws)

    dist = build(sd)
    for key in dist.mass:
        if not is_homomorphism(sd.host, g, key):
            raise AssertionError("support atom %s is not a homomorphism" % (key,))
    return dist


# The distribution pipeline as it ran on one Fraction per atom, before
# distributions were stored as integer weights over a common denominator:
# check_total_reference, marginal_reference, couple_reference and
# brw_distribution_reference are the library's total-mass check, marginal,
# pairwise coupling step (since folded into couple_markov_tree) and
# brw_distribution of that time, reading the read-only mass view and
# returning through the validating constructor.


def check_total_reference(mass):
    """mass, a {key: Fraction} dict, once its masses are checked to sum to
    exactly 1 (ValueError otherwise). The numerators are summed as integers
    per denominator, so one Fraction is formed per distinct denominator."""
    by_den = {}
    for q in mass.values():
        d = q.denominator
        by_den[d] = by_den.get(d, 0) + q.numerator
    total = sum(Fraction(n, d) for d, n in by_den.items())
    if total != 1:
        raise ValueError("total mass is %s, not 1" % total)
    return mass


def _project(index_set, s):
    """key -> the tuple of key's values at the indices s, in s's order."""
    positions = [index_set.index(v) for v in s]
    return lambda key: tuple(key[i] for i in positions)


def marginal_reference(p, s):
    """Exact marginal of p onto the index subset s, summed in Fractions."""
    s = vertex_set(s)
    if not set(s) <= set(p.index_set):
        raise ValueError("%s is not a subset of the index set" % (s,))
    proj = _project(p.index_set, s)
    out = {}
    for key, q in p.mass.items():
        k = proj(key)
        out[k] = out[k] + q if k in out else q
    return SparseDistribution(s, p.target_size, check_total_reference(out))


def couple_reference(p12, p23, overlap):
    """The conditional independent coupling of p12 and p23 given overlap,
    their agreed marginal on their shared indices: each atom
    p12(y_12) * p23(y_23) / m(y_shared) written as one pair of integer
    products, and each distinct pair made one Fraction."""
    idx12, idx23 = p12.index_set, p23.index_set
    in12 = set(idx12)
    only23 = tuple(v for v in idx23 if v not in in12)
    union = vertex_set(idx12 + only23)
    proj12 = _project(idx12, overlap.index_set)
    proj23 = _project(idx23, overlap.index_set)
    tail23 = _project(idx23, only23)
    # key12 + tail23(key23) lists the union's values in idx12 + only23 order
    joined = idx12 + only23
    to_union = _project(joined, union) if joined != union else None
    overlap_mass = overlap.mass

    by_shared = {}
    for key23, q23 in p23.mass.items():
        by_shared.setdefault(proj23(key23), []).append(
            (tail23(key23), q23.numerator, q23.denominator)
        )

    out = {}
    masses = {}
    for key12, q12 in p12.mass.items():
        sk = proj12(key12)
        m = overlap_mass[sk]
        num = q12.numerator * m.denominator
        den = q12.denominator * m.numerator
        for tail, n23, d23 in by_shared.get(sk, ()):
            key = key12 + tail
            if to_union is not None:
                key = to_union(key)
            pair = (num * n23, den * d23)
            q = masses.get(pair)
            if q is None:
                q = masses[pair] = Fraction(*pair)
            out[key] = q
    return SparseDistribution(union, p12.target_size, out)


def glue_markov_tree_reference(m, bag_dists):
    """glue_markov_tree on Fraction masses: every tree edge's two bag
    marginals (marginal_reference) compared in m.tree order, then each bag
    after bag 0 coupled (couple_reference) onto the joint in the order of
    bfs_reference(m.bag_tree, [0]), given its overlap with its walk parent.
    For bag laws on a valid Markov tree; Refused on the first edge whose
    marginals differ."""
    agreed = {}
    for a, b in m.tree:
        shared = vertex_set(set(m.bags[a]) & set(m.bags[b]))
        ma = marginal_reference(bag_dists[a], shared)
        mb = marginal_reference(bag_dists[b], shared)
        if ma.mass != mb.mass:
            raise Refused(
                "marginal mismatch on tree edge %s" % ([a, b],),
                edge=[a, b],
                witness=first_difference(ma.mass, mb.mass),
            )
        agreed[a, b] = ma
    order, parent = bfs_reference(m.bag_tree, [0])
    joint = bag_dists[0]
    for child in order[1:]:
        p = parent[child]
        joint = couple_reference(joint, bag_dists[child], agreed[min(p, child), max(p, child)])
    return SparseDistribution(joint.index_set, joint.target_size, check_total_reference(joint.mass))


def brw_distribution_reference(t, g):
    """The branching random walk on Hom(t, g) with one Fraction per distinct
    denominator: an atom's mass is 1 / (2e(g) * the degrees of its attached
    vertices' parent images), vertices attached in the order of
    bfs_reference(t, [r0, r1]) for t's first edge (r0, r1)."""
    r0, r1 = t.edges[0]
    order, parent = bfs_reference(t, [r0, r1])
    order = order[2:]

    mass = {}
    unit = {}
    img = [-1] * t.n

    def attach(i, den):
        if i == len(order):
            q = unit.get(den)
            if q is None:
                q = unit[den] = Fraction(1, den)
            mass[tuple(img)] = q
            return
        w = order[i]
        pv = img[parent[w]]
        den *= g.degree(pv)
        for z in g.neighbors(pv):
            img[w] = z
            attach(i + 1, den)
        img[w] = -1

    for a, b in g.edges:
        for x, y in ((a, b), (b, a)):
            img[r0], img[r1] = x, y
            attach(0, 2 * g.num_edges())
    return SparseDistribution(tuple(range(t.n)), g.n, check_total_reference(mass))


def seeded_gnm(seed, n, m):
    """G(n, m) on 0..n-1: the first m vertex pairs in an order drawn from
    random.Random(seed).random(), whose sequence Python keeps fixed across
    versions."""
    rng = random.Random(seed)
    pairs = sorted(combinations(range(n), 2), key=lambda _: rng.random())
    return Graph(n, pairs[:m])


def random_graph(rng, n, p):
    """G(n, p) on 0..n-1."""
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def random_tree(rng, n):
    """Random labelled tree on 0..n-1 (random attachment)."""
    return Graph(n, random_tree_edges(rng, n))


def glue_document(m, bag_dists):
    """The glue command's input document for the Markov tree m and its bag
    laws."""
    return {
        "markov": serialize.markov_to_json(m),
        "bag_dists": [serialize.distribution_to_json(p) for p in bag_dists],
    }


# The preconditions that routines behind the CLI's validators trust and no
# longer check: a valid Markov tree and bag laws that fit it to glue, laws
# that also agree on every tree edge to couple unchecked, a
# valid one and a normalized nonempty u to cover, a kept family that induces
# a subtree, pins inside both graphs, a sweep within the committed table, a
# marginal onto part of the index set, valid decompositions to match or to
# cut down to a nonempty set of host vertices, and an induced subgraph on
# vertices of its graph.


# each is total: a precondition that raised would only look like a refusal
def _valid_markov(m, bag_dists):
    fits = len(bag_dists) == m.num_bags() and all(
        p.index_set == bag for p, bag in zip(bag_dists, m.bags)
    )
    one_size = len({p.target_size for p in bag_dists}) <= 1
    return validate_markov_tree(m).ok and fits and one_size


def _agreeing(m, bag_dists):
    if not _valid_markov(m, bag_dists):
        return False
    try:
        return dists.check_marginal_consistency(m, bag_dists) is None
    except Refused:
        return False


def _covering(m, u):
    in_range = all(0 <= v < m.ground_size for v in u)
    return validate_markov_tree(m).ok and bool(u) and in_range and list(u) == sorted(set(u))


def _subtree(d, keep):
    if not validate_tree_decomposition(d).ok:
        return False
    if not all(0 <= i < d.markov.num_bags() for i in keep):
        return False
    kept, _ = induced_subgraph(d.markov.bag_tree, keep)
    return kept.n > 0 and is_connected(kept)


def _pins_in_range(h1, h2, allowed):
    return all(
        0 <= v < h1.n and all(0 <= w < h2.n for w in ws) for v, ws in allowed.items()
    )


def _within_table(max_n):
    return max_n <= max(CONNECTED_CLASSES)


def _subset(p, s):
    return set(s) <= set(p.index_set)


def _valid_pair(sd1, sd2, pin=None):
    pins = dict(pin or {}).items()
    in_range = all(0 <= v < sd1.host.n and 0 <= w < sd2.host.n for v, w in pins)
    return validate_strong(sd1).ok and validate_strong(sd2).ok and in_range


def _host_subset(sd, u):
    u = list(u)
    return validate_strong(sd).ok and bool(u) and all(0 <= v < sd.host.n for v in u)


def _in_graph(g, s):
    return all(0 <= v < g.n for v in s)


def _vertex_set_in_graph(g, s):
    return s == vertex_set(s) and _in_graph(g, s)


# (module, name of the routine there): the precondition each call must meet
PRECONDITIONS = {
    (cli, "glue_markov_tree"): _valid_markov,
    (dists, "couple_markov_tree"): _agreeing,  # through glue_markov_tree
    (sidorenko, "couple_markov_tree"): _agreeing,
    (strong, "minimum_covering_subfamily"): _covering,
    (strong, "retraction"): _subtree,
    (graphs, "isomorphisms"): _pins_in_range,  # through isomorphisms_pinned
    (strong, "isomorphisms"): _pins_in_range,
    (cli, "connected_graphs_up_to"): _within_table,
    (dists, "marginal"): _subset,
    (strong, "strong_isomorphism"): _valid_pair,
    (cli, "minimum_subdecomposition"): _host_subset,
    (strong, "minimum_subdecomposition"): _host_subset,
    (strong, "induced_subgraph"): _in_graph,
    (markov, "induced_subgraph"): _in_graph,
    (strong, "induced_edges"): _vertex_set_in_graph,
    (graphs, "induced_edges"): _vertex_set_in_graph,  # through induced_subgraph
}


def record_preconditions(patch):
    """Wrap each routine of PRECONDITIONS where the package calls it, through
    patch.setattr (a pytest MonkeyPatch), so that each call records whether
    it met its precondition and then runs the routine. Returns the record,
    {(module name, routine name): [one bool per call]}."""
    calls = {}
    for (module, name), holds in PRECONDITIONS.items():
        key = (module.__name__, name)

        def wrapped(*args, _real=getattr(module, name), _holds=holds, _key=key):
            calls.setdefault(_key, []).append(_holds(*args))
            return _real(*args)

        patch.setattr(module, name, wrapped)
    return calls
