"""The benchmark's three workloads: seeded inputs, the jobs that run on
them, and the independent checks of their answers.

A workload is built from a block of inputs: `--seed n` selects block
n mod BLOCKS, and the answers of every job of every block are frozen in
frozen/<workload>.json, recorded with `python3 bench/freeze.py`.

Jobs call the program through module attributes (`cli.main`,
`sidorenko.sidorenko_check`, ...) looked up at call time, so the tracer
can rebind them.
"""

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

import gen
from homglue import cli, graphs, serialize, sidorenko, strong

WORKLOADS = ("assoc", "gap", "structure")
BLOCKS = 16
DEFAULT_SEED = 0
HELD_OUT_SEED = 15

# gap instances with at most this many maps |V(G)|^|V(H)| are checked
# against a brute-force hom count, larger ones against a closed form.
BRUTE_FORCE_LIMIT = 50_000


@dataclass
class Job:
    """One timed call. run() is the timed part; answer() turns its result
    into the string compared with the frozen answer; check(), when set, is
    an independent oracle on the result."""

    name: str
    run: Callable[[], object]
    answer: Callable[[object], str]
    check: Optional[Callable[[object], bool]] = None


def block_of(seed):
    return seed % BLOCKS


def digest(data):
    return hashlib.sha256(data).hexdigest()[:12]


def run_cli(argv):
    """homglue CLI in-process: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def cli_job(name, argv, out_path=None, check=None):
    argv = list(argv) + (["--out", out_path] if out_path else [])

    def answer(result):
        code, stdout = result
        data = stdout.encode()
        if out_path:
            with open(out_path, "rb") as fh:
                data += b"\0" + fh.read()
        return "%s:%s" % (code, digest(data))

    return Job(name, lambda: run_cli(argv), answer, check)


class Inputs:
    """Writes input documents under a work directory, once per path."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.written = set()

    def write(self, rel, doc):
        path = os.path.join(self.workdir, rel)
        if path not in self.written:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.written.add(path)
        return path

    def out(self, rel):
        path = os.path.join(self.workdir, "out", rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path


# ---------------------------------------------------------------- hosts

def host_docs():
    """The four hosts of the program's fixture set, restated: path3 and
    star3 at level 0, c4 at level 1, the two-page book at level 2."""
    rng = random.Random("hosts")
    book_edges = [(0, 1), (0, 2), (2, 3), (1, 3), (0, 4), (4, 5), (1, 5)]
    return {
        "path3": gen.level0_doc(rng, 3, [(0, 1), (1, 2)]),
        "star3": gen.level0_doc(rng, 4, [(0, 1), (0, 2), (0, 3)]),
        "c4": gen.cycle_doc(rng, 4, [(0, 1), (1, 2), (2, 3), (0, 3)], start=0),
        "book": gen.squares_doc(
            rng, 6, book_edges, [[0, 1, 2, 3], [0, 1, 4, 5]], [(0, 1)], start=3
        ),
    }


def _host_graph(doc):
    return doc["host"]["n"], [tuple(e) for e in doc["host"]["edges"]]


# ---------------------------------------------------------------- assoc

# Complete targets are the same in every block and hold the largest
# supports (book on K5: 3380 atoms), so peak memory does not depend on
# the seed.
ASSOC_COMPLETE = {
    "path3": (5, 6, 7, 8),
    "star3": (4, 5, 6, 7),
    "c4": (4, 5, 6, 7),
    "book": (3, 4, 5),
}
# (n, m) of the seeded degree-condition targets, per host.
ASSOC_RANDOM = {
    "path3": ((8, 12), (8, 14), (10, 16), (10, 20), (12, 20), (12, 24), (12, 30)),
    "star3": ((8, 12), (8, 14), (10, 16), (10, 20), (12, 20), (12, 24), (12, 30)),
    "c4": ((8, 12), (8, 14), (10, 16), (10, 20), (12, 20), (12, 24), (12, 30)),
    "book": ((6, 8), (7, 8), (7, 9), (8, 9), (8, 10), (9, 10)),
}
# A seeded target is the draw with the median hom count among this many:
# the support, and so the cost of a job, then varies little between seeds.
TARGET_DRAWS = 9


def closed_form_homs(host, n, edges):
    """hom(host, G) for the four fixture hosts, from walk counts: sum d^2
    (path3), sum d^3 (star3), sum (A^2)_xy^2 (c4), and the sum of
    (A^3)_xy^2 over ordered edges xy (book: two 3-walks from the spine)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if host == "path3":
        return sum(len(a) ** 2 for a in adj)
    if host == "star3":
        return sum(len(a) ** 3 for a in adj)
    a2 = [[len(adj[x] & adj[y]) for y in range(n)] for x in range(n)]
    if host == "c4":
        return sum(c * c for row in a2 for c in row)
    return sum(sum(a2[a][y] for a in adj[x]) ** 2 for x in range(n) for y in adj[x])


def median_target(rng, host, n, m):
    draws = [gen.gnm_degree_ok(rng, n, m) for _ in range(TARGET_DRAWS)]
    draws.sort(key=lambda edges: (closed_form_homs(host, n, edges), edges))
    return draws[TARGET_DRAWS // 2]


# (bags, ground size, atoms) of the seeded glue instances, over a 2-vertex
# target, each with its window of glue_work. The glued support is the join
# of the bag supports and can swing by 20x between draws of one shape, so
# draws are kept only when it lies in GLUE_SUPPORT. The cost of a job
# follows glue_work still more closely (correlation 0.9 with its time,
# against 0.6-0.75 for the final support), which varies 2x within that
# support window; its window per shape is the middle 40% of such draws, so
# the cost of a job does not depend on the seed.
GLUE_SHAPES = {
    (8, 8, 8): (294, 386),
    (10, 9, 8): (401, 515),
    (12, 10, 10): (532, 662),
    (14, 10, 10): (625, 822),
}
GLUE_SUPPORT = (112, 160)
GLUE_PER_SHAPE = 8


def join_size(bags, tree, supports):
    """Number of assignments of the ground set whose projection on every
    bag is in that bag's support: the support size of the glued joint.
    Counted by passing, up the bag tree, the number of extensions of each
    subtree per value of its separator, which running intersection makes
    exact."""
    adj = {i: [] for i in range(len(bags))}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)

    def extensions(i, parent):
        pos = {v: p for p, v in enumerate(bags[i])}
        shared = [pos[v] for v in bags[parent] if v in pos] if parent is not None else []
        kids = [
            (extensions(c, i), [pos[v] for v in bags[c] if v in pos])
            for c in adj[i]
            if c != parent
        ]
        out = {}
        for key in supports[i]:
            n = 1
            for table, positions in kids:
                n *= table.get(tuple(key[p] for p in positions), 0)
            if n:
                sep = tuple(key[p] for p in shared)
                out[sep] = out.get(sep, 0) + n
        return out

    return sum(extensions(0, None).values())


def glue_work(bags, tree, supports):
    """Total support size of the joints that gluing by leaf elimination,
    lowest-index leaf first, builds: one per set of bags still alive."""
    alive = list(range(len(bags)))
    total = 0
    while len(alive) > 1:
        index = {b: i for i, b in enumerate(alive)}
        sub = [(index[a], index[b]) for a, b in tree if a in index and b in index]
        total += join_size([bags[b] for b in alive], sub, [supports[b] for b in alive])
        degree = [0] * len(alive)
        for a, b in sub:
            degree[a] += 1
            degree[b] += 1
        alive.pop(min(i for i in range(len(alive)) if degree[i] <= 1))
    return total


def _glue_instance(rng, shape):
    """(glue document, support size of its glued joint) for one shape."""
    num_bags, ground_size, atoms = shape
    lo, hi = GLUE_SUPPORT
    work_lo, work_hi = GLUE_SHAPES[shape]
    while True:
        bags, tree = gen.random_markov_tree(rng, num_bags, ground_size)
        weights = gen.random_joint(rng, ground_size, 2, atoms)
        supports = [{tuple(key[v] for v in bag) for key in weights} for bag in bags]
        size = join_size(bags, tree, supports)
        if lo <= size <= hi and work_lo <= glue_work(bags, tree, supports) <= work_hi:
            return gen.glue_doc(ground_size, 2, bags, tree, weights), size


def _check_glue_out(path, size):
    with open(path) as fh:
        return len(json.load(fh)["mass"]) == size


def build_assoc(rng, inputs):
    jobs = []
    hosts = host_docs()
    for h, doc in hosts.items():
        hpath = inputs.write("hosts/%s.json" % h, doc)
        targets = [("K%d" % n, n, gen.complete_graph(n)) for n in ASSOC_COMPLETE[h]]
        for i, (n, m) in enumerate(ASSOC_RANDOM[h]):
            targets.append(("G%dm%d.%d" % (n, m, i), n, median_target(rng, h, n, m)))
        for tname, n, edges in targets:
            tpath = inputs.write("targets/%s-%s.json" % (h, tname), gen.graph_doc(n, edges))
            tag = "%s/%s" % (h, tname)
            jobs.append(cli_job("assoc/" + tag, ["assoc", hpath, tpath], inputs.out(tag)))
            jobs.append(cli_job("entropy-report/" + tag, ["entropy-report", hpath, tpath]))
    for shape in GLUE_SHAPES:
        for i in range(GLUE_PER_SHAPE):
            tag = "glue/b%d.%d" % (shape[0], i)
            doc, size = _glue_instance(rng, shape)
            path, out = inputs.write(tag + ".json", doc), inputs.out(tag)
            check = lambda r, out=out, size=size: _check_glue_out(out, size)
            jobs.append(cli_job(tag, ["glue", path], out, check))
    return jobs


# ---------------------------------------------------------------- gap

# Sparse seeded targets (n, m) per host, each the median-hom-count draw
# of TARGET_DRAWS, as for assoc. Every instance keeps
# n^v(H) <= DEFAULT_HOM_CAP, so every job has a numeric answer and a
# change of the cap cannot change the job set.
GAP_TARGETS = {
    "path3": ((6, 9), (8, 12), (12, 24), (24, 48), (40, 80), (60, 120)),
    "star3": ((6, 9), (8, 12), (12, 24), (16, 32), (24, 48)),
    "c4": ((6, 9), (8, 12), (12, 24), (16, 32), (24, 48), (32, 64)),
    "book": ((5, 8), (6, 9), (8, 16), (10, 20), (12, 24)),
}
GAP_REPEATS = {"path3": 3, "star3": 3, "c4": 4, "book": 4}
TREE_HOSTS = ("path3", "star3")
SWEEP_MAX_N = 5


def brute_force_homs(n_h, edges_h, n_g, edges_g):
    """hom(H, G) by trying all |V(G)|^|V(H)| maps."""
    adj = set(edges_g) | {(v, u) for u, v in edges_g}
    return sum(
        all((f[u], f[v]) in adj for u, v in edges_h)
        for f in product(range(n_g), repeat=n_h)
    )


def gap_value(homs, n_h, e_h, n_g, e_g):
    return Fraction(homs, n_g**n_h) - Fraction(2 * e_g, n_g * n_g) ** e_h


def _fraction_answer(q):
    return "%d/%d" % (q.numerator, q.denominator)


def _forest_answer(r):
    return "%s:%s:%s" % (r["ok"], _fraction_answer(r["lhs"]), _fraction_answer(r["rhs"]))


def build_gap(rng, inputs):
    jobs = []
    for h, doc in host_docs().items():
        hpath = inputs.write("hosts/%s.json" % h, doc)
        n_h, edges_h = _host_graph(doc)
        host = serialize.graph_from_json(doc["host"])
        for n, m in GAP_TARGETS[h]:
            if n**n_h > graphs.DEFAULT_HOM_CAP:
                raise ValueError("%s on %d vertices is beyond the hom cap" % (h, n))
            for i in range(GAP_REPEATS[h]):
                tag = "%s-G%dm%d.%d" % (h, n, m, i)
                edges = median_target(rng, h, n, m)
                target = gen.graph_doc(n, edges)
                inputs.write("targets/%s.json" % tag, target)
                g = serialize.graph_from_json(target)

                def homs(h=h, n=n, edges=edges, n_h=n_h, edges_h=edges_h):
                    """hom(H, G) by brute force where that is cheap, else
                    from the closed form; either way not by the program."""
                    if n**n_h <= BRUTE_FORCE_LIMIT:
                        return brute_force_homs(n_h, edges_h, n, edges)
                    return closed_form_homs(h, n, edges)

                def check_gap(q, homs=homs, n=n, m=m, n_h=n_h, e_h=len(edges_h)):
                    return q == gap_value(homs(), n_h, e_h, n, m)

                jobs.append(
                    Job(
                        "sidorenko-check/" + tag,
                        lambda host=host, g=g: sidorenko.sidorenko_check(host, g),
                        _fraction_answer,
                        check_gap,
                    )
                )
                if h in TREE_HOSTS:
                    jobs.append(
                        Job(
                            "forest-bound/" + tag,
                            lambda host=host, g=g: sidorenko.forest_hom_bound_check(host, g),
                            _forest_answer,
                            lambda r, homs=homs: r["lhs"] == homs(),
                        )
                    )
        jobs.append(
            cli_job(
                "sidorenko-sweep/" + h,
                ["sidorenko-sweep", hpath, "--max-n", str(SWEEP_MAX_N)],
                check=lambda r, n_h=n_h, edges_h=edges_h: _check_sweep(r, n_h, edges_h),
            )
        )
    return jobs


def _check_sweep(result, n_h, edges_h):
    """Every row's hom count and gap, recomputed by brute force."""
    code, stdout = result
    for row in json.loads(stdout)["rows"]:
        n, edges = row["target"]["n"], [tuple(e) for e in row["target"]["edges"]]
        homs = brute_force_homs(n_h, edges_h, n, edges)
        gap = gap_value(homs, n_h, len(edges_h), n, len(edges))
        if row["hom_count"] != homs or row["gap"] != {
            "num": str(gap.numerator),
            "den": str(gap.denominator),
        }:
            return False
    return True


# ---------------------------------------------------------------- structure

# (family, size) pairs, each drawn STRUCTURE_REPEATS times per block. Sizes
# stay small because isomorphism cost swings by orders of magnitude with
# the labelling (a 7-page book can take seconds, a 5-page one 0.07 s); a
# run's time should come from many jobs, not one unlucky draw.
STRUCTURE_FAMILIES = (
    [("tree", k) for k in (6, 7, 8, 9, 10)]
    + [("cycle", m) for m in (2, 3, 4, 5)]
    + [("book", p) for p in (2, 3, 4)]
    + [("ladder", r) for r in (2, 3, 4, 5)]
)
STRUCTURE_REPEATS = 6
# Sizes of pairs of independent random trees, which are mostly not
# isomorphic: the search must exhaust.
TREE_PAIRS = (8, 9, 10)

NEGATIVE_DOCS = {
    "bad_markov_tree": gen.BAD_MARKOV_TREE,
    "bad_tree_decomposition": gen.BAD_TREE_DECOMPOSITION,
    "bad_condition3": gen.bad_condition3(),
}


def structure_doc(rng, family, size):
    if family == "tree":
        return gen.level0_doc(rng, size, gen.random_tree(rng, size))
    if family == "cycle":
        return gen.even_cycle(rng, size)
    if family == "book":
        return gen.book(rng, size)
    return gen.ladder(rng, size)


def edge_preserving(sd1, sd2, iso):
    """Independent check of a returned strong isomorphism's vertex map: a
    bijection of the hosts that maps edges onto edges."""
    phi = iso.vertex_map
    h1, h2 = sd1.host, sd2.host
    if sorted(phi) != list(range(h2.n)) or h1.n != h2.n:
        return False
    image = {tuple(sorted((phi[u], phi[v]))) for u, v in h1.edges}
    return image == set(h2.edges)


def _iso_job(name, sd1, sd2):
    return Job(
        name,
        lambda: strong.strong_isomorphism(sd1, sd2),
        lambda iso: "found" if iso is not None else "none",
        lambda iso: iso is None or edge_preserving(sd1, sd2, iso),
    )


def build_structure(rng, inputs):
    jobs = []
    for family, size in STRUCTURE_FAMILIES:
        for i in range(STRUCTURE_REPEATS):
            tag = "%s%d.%d" % (family, size, i)
            doc = structure_doc(rng, family, size)
            n = doc["host"]["n"]
            copy = gen.relabel(rng, doc, gen.random_perm(rng, n))
            path = inputs.write("docs/%s.json" % tag, doc)
            copy_path = inputs.write("docs/%s-copy.json" % tag, copy)
            u = sorted(rng.sample(range(n), rng.randint(1, 3)))
            jobs.append(cli_job("validate/" + tag, ["validate", path]))
            jobs.append(cli_job("validate/%s-copy" % tag, ["validate", copy_path]))
            jobs.append(
                cli_job(
                    "min-subdec/" + tag,
                    ["min-subdec", copy_path, "--u", ",".join(map(str, u))],
                )
            )
            jobs.append(
                _iso_job(
                    "strong-iso/" + tag,
                    serialize.strong_from_json(doc),
                    serialize.strong_from_json(copy),
                )
            )
    for k in TREE_PAIRS:
        for i in range(STRUCTURE_REPEATS):
            a = gen.level0_doc(rng, k, gen.random_tree(rng, k))
            b = gen.level0_doc(rng, k, gen.random_tree(rng, k))
            jobs.append(
                _iso_job(
                    "strong-iso/tree-pair%d.%d" % (k, i),
                    serialize.strong_from_json(a),
                    serialize.strong_from_json(b),
                )
            )
    for name, doc in NEGATIVE_DOCS.items():
        path = inputs.write("negative/%s.json" % name, doc)
        jobs.append(cli_job("validate/" + name, ["validate", path]))
    return jobs


BUILDERS = {"assoc": build_assoc, "gap": build_gap, "structure": build_structure}


def build(workload, seed, workdir):
    """The job list of a workload for a seed, with its inputs written
    under workdir. The same seed always gives the same jobs and files."""
    rng = random.Random("%s:%d" % (workload, block_of(seed)))
    jobs = BUILDERS[workload](rng, Inputs(workdir))
    if len({j.name for j in jobs}) != len(jobs):
        raise ValueError("job names must be unique")
    return jobs
