"""Seeded input generators for the benchmark, written against the JSON
document formats only (see homglue.serialize), so a change to the program
cannot change the inputs it is measured on.

Every function takes a random.Random and returns plain data: edge lists,
or JSON-ready dicts in the program's document format.
"""

from fractions import Fraction
from itertools import combinations


def canon(edges):
    """Sorted, deduplicated (min, max) edge list."""
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def complete_graph(n):
    return list(combinations(range(n), 2))


def degree_condition(n, edges):
    """max degree * n <= 4 |E|: the program's degree condition, restated."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg) * n <= 4 * len(edges)


def gnm_degree_ok(rng, n, m):
    """Uniform random graph with n vertices and exactly m edges, conditioned
    on the degree condition by rejection (G(n, p) with its edge count fixed,
    so that the cost of a job does not swing with the edge count)."""
    pairs = complete_graph(n)
    while True:
        edges = canon(rng.sample(pairs, m))
        if degree_condition(n, edges):
            return edges


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_tree(rng, k):
    """Random labelled tree on 0..k-1: random attachment, then a random
    relabelling so that vertex order says nothing about the shape."""
    perm = random_perm(rng, k)
    return canon((perm[rng.randrange(i)], perm[i]) for i in range(1, k))


def graph_doc(n, edges):
    return {"n": n, "edges": [list(e) for e in canon(edges)]}


def markov_doc(ground_size, bags, tree):
    return {
        "ground_size": ground_size,
        "bags": [sorted(b) for b in bags],
        "tree": [sorted(e) for e in tree],
    }


def induced(edges, bag):
    """Induced subgraph on bag, relabelled to 0..|bag|-1 in sorted order
    (the program's convention for child hosts)."""
    pos = {v: i for i, v in enumerate(sorted(bag))}
    return len(pos), canon((pos[u], pos[v]) for u, v in edges if u in pos and v in pos)


def _random_spanning_tree(rng, k, candidate_edges):
    """Random spanning tree of a connected graph on 0..k-1 (Kruskal over a
    shuffled edge order)."""
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = list(candidate_edges)
    rng.shuffle(order)
    tree = []
    for a, b in order:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b))
    return sorted(tree)


def level0_doc(rng, n, edges):
    """Level-0 decomposition of a tree: bags are its edges, the bag tree a
    random spanning tree of its line graph (every such tree is valid)."""
    edges = canon(edges)
    line = [
        (i, j)
        for i, j in combinations(range(len(edges)), 2)
        if set(edges[i]) & set(edges[j])
    ]
    tree = _random_spanning_tree(rng, len(edges), line)
    return {
        "level": 0,
        "host": graph_doc(n, edges),
        "payload": {"base": markov_doc(n, edges, tree)},
    }


def levelk_doc(level, n, edges, bags, tree, children):
    host = graph_doc(n, edges)
    return {
        "level": level,
        "host": host,
        "payload": {
            "decomp": {"host": host, "markov": markov_doc(n, bags, tree)},
            "children": children,
        },
    }


def _cycle_order(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [0, adj[0][0]]
    while len(order) < n:
        a, b = adj[order[-1]]
        order.append(a if a != order[-2] else b)
    return order


def cycle_doc(rng, n, edges, start=None):
    """Level-1 decomposition of an even cycle: two bags, the two paths
    between an antipodal pair (a random one unless start is given)."""
    order = _cycle_order(n, edges)
    r = rng.randrange(n) if start is None else start
    rot = order[r:] + order[:r]
    half = n // 2
    bags = [rot[: half + 1], rot[half:] + rot[:1]]
    children = [level0_doc(rng, *induced(edges, b)) for b in bags]
    return levelk_doc(1, n, edges, bags, [(0, 1)], children)


def squares_doc(rng, n, edges, squares, tree, start=None):
    """Level-2 decomposition with one 4-cycle per bag, each carrying its
    own level-1 decomposition."""
    children = [cycle_doc(rng, *induced(edges, sq), start=start) for sq in squares]
    return levelk_doc(2, n, edges, squares, tree, children)


def _shuffled_labels(rng, n, edges, groups):
    perm = random_perm(rng, n)
    return (
        canon((perm[u], perm[v]) for u, v in edges),
        [[perm[v] for v in g] for g in groups],
    )


def even_cycle(rng, m):
    """Random labelling of C_{2m} with its level-1 decomposition."""
    n = 2 * m
    edges, _ = _shuffled_labels(rng, n, [(i, (i + 1) % n) for i in range(n)], [])
    return cycle_doc(rng, n, edges)


def book(rng, pages):
    """k-page book (4-cycles sharing the spine edge {0, 1}), randomly
    labelled, with a random tree on the pages."""
    n = 2 + 2 * pages
    edges = [(0, 1)]
    squares = []
    for i in range(pages):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges += [(0, a), (a, b), (b, 1)]
        squares.append([0, 1, a, b])
    edges, squares = _shuffled_labels(rng, n, edges, squares)
    tree = [(rng.randrange(i), i) for i in range(1, pages)]
    return squares_doc(rng, n, edges, squares, tree)


def ladder(rng, rungs):
    """Ladder with `rungs` squares in a row, randomly labelled, bag tree a
    path of squares."""
    k = rungs + 1
    edges = [(i, i + k) for i in range(k)]
    edges += [(i, i + 1) for i in range(rungs)] + [(k + i, k + i + 1) for i in range(rungs)]
    squares = [[i, i + 1, k + i, k + i + 1] for i in range(rungs)]
    edges, squares = _shuffled_labels(rng, 2 * k, edges, squares)
    return squares_doc(rng, 2 * k, edges, squares, [(i, i + 1) for i in range(rungs - 1)])


def relabel(rng, doc, perm):
    """Copy of a strong decomposition document with host vertex v renamed
    perm[v] and, above level 0, the bag order shuffled. The result is
    strongly isomorphic to doc through perm."""
    n = doc["host"]["n"]
    edges = [tuple(e) for e in doc["host"]["edges"]]
    new_edges = canon((perm[u], perm[v]) for u, v in edges)
    if doc["level"] == 0:
        old_tree = doc["payload"]["base"]["tree"]
        index = {e: i for i, e in enumerate(new_edges)}
        moved = [index[tuple(sorted((perm[u], perm[v])))] for u, v in edges]
        tree = [(moved[a], moved[b]) for a, b in old_tree]
        return {
            "level": 0,
            "host": graph_doc(n, new_edges),
            "payload": {"base": markov_doc(n, new_edges, tree)},
        }
    markov = doc["payload"]["decomp"]["markov"]
    bags = markov["bags"]
    order = list(range(len(bags)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    new_bags, children = [], []
    for old in order:
        bag = bags[old]
        new_bag = sorted(perm[v] for v in bag)
        pos = {v: i for i, v in enumerate(new_bag)}
        child_perm = [pos[perm[v]] for v in bag]
        new_bags.append(new_bag)
        children.append(relabel(rng, doc["payload"]["children"][old], child_perm))
    tree = [(where[a], where[b]) for a, b in markov["tree"]]
    return levelk_doc(doc["level"], n, new_edges, new_bags, tree, children)


def random_markov_tree(rng, num_bags, ground_size):
    """Random valid Markov tree: every ground element occupies a random
    subtree of a random bag tree, and empty bags copy a neighbour."""
    tree = [(rng.randrange(i), i) for i in range(1, num_bags)]
    adj = {i: [] for i in range(num_bags)}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)
    bags = [set() for _ in range(num_bags)]
    for v in range(ground_size):
        start = rng.randrange(num_bags)
        fam = {start}
        frontier = list(adj[start])
        while frontier and rng.random() < 0.5:
            nxt = frontier.pop(rng.randrange(len(frontier)))
            fam.add(nxt)
            frontier.extend(w for w in adj[nxt] if w not in fam)
        for i in fam:
            bags[i].add(v)
    while any(not b for b in bags):
        for i, b in enumerate(bags):
            if not b:
                for j in adj[i]:
                    b.update(bags[j])
    return [sorted(b) for b in bags], tree


def random_joint(rng, ground_size, target_size, atoms):
    """Integer weights of `atoms` random assignments of the ground set;
    normalised, they are one random joint distribution."""
    keys = set()
    while len(keys) < atoms:
        keys.add(tuple(rng.randrange(target_size) for _ in range(ground_size)))
    return {k: rng.randint(1, 9) for k in sorted(keys)}


def glue_doc(ground_size, target_size, bags, tree, weights):
    """A `homglue glue` document whose bag distributions are the marginals
    of the joint given by weights, so they agree on every overlap."""
    total = sum(weights.values())
    bag_dists = []
    for bag in bags:
        marg = {}
        for key, w in weights.items():
            sub = tuple(key[v] for v in bag)
            marg[sub] = marg.get(sub, 0) + w
        bag_dists.append(
            {
                "index_set": list(bag),
                "target_size": target_size,
                "mass": [
                    {"key": list(k), "num": str(q.numerator), "den": str(q.denominator)}
                    for k, q in ((k, Fraction(w, total)) for k, w in sorted(marg.items()))
                ],
            }
        )
    return {"markov": markov_doc(ground_size, bags, tree), "bag_dists": bag_dists}


# The three negative documents of the program's fixture set, restated:
# each trips one validator condition and must exit 1 with its witness.
BAD_MARKOV_TREE = markov_doc(3, [[0, 1], [2], [0, 2]], [(0, 1), (1, 2)])
BAD_TREE_DECOMPOSITION = {
    "host": graph_doc(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "markov": markov_doc(4, [[0, 1], [2, 3]], [(0, 1)]),
}


def bad_condition3():
    """C5 decomposed into a 3-path bag and a 4-path bag sharing {0, 2}."""
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)]
    bags = [[0, 1, 2], [0, 2, 3, 4]]
    children = [
        {
            "level": 0,
            "host": graph_doc(3, [(0, 1), (1, 2)]),
            "payload": {"base": markov_doc(3, [[0, 1], [1, 2]], [(0, 1)])},
        },
        {
            "level": 0,
            "host": graph_doc(4, [(0, 2), (2, 3), (1, 3)]),
            "payload": {"base": markov_doc(4, [[0, 2], [1, 3], [2, 3]], [(0, 2), (1, 2)])},
        },
    ]
    return levelk_doc(1, 5, edges, bags, [(0, 1)], children)
