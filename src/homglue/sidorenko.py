"""Distributions on homomorphism sets built from strong decompositions, and
the desk-scale verification suite around Sidorenko's property: degree
condition, forest homomorphism bound, entropy chain, and the brute-force
density gap.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .dists import SparseDistribution, entropy, first_difference, glue_markov_tree, marginal
from .graphs import hom_count, is_forest, is_homomorphism, is_tree, max_degree, vertex_set
from .strong import minimum_subdecomposition, strong_isomorphism


class InvariantViolation(ValueError):
    """A built distribution breaks an invariant the theory guarantees."""


@dataclass(frozen=True)
class AssociatedDistribution:
    """Distribution on Hom(host(sd), target) built by recursive gluing."""

    sd: object
    target: object
    dist: SparseDistribution


@dataclass
class BoundReport:
    entropy_bits: float
    rhs_bits: float
    log_hom_bits: float
    degree_ok: bool
    sidorenko_gap: Fraction


def brw_distribution(t, g):
    """Tree-indexed branching random walk distribution on Hom(t, g).

    The lexicographically smallest edge of t lands on a uniformly random
    ordered edge of g; every remaining vertex, attached in BFS order, steps
    to a uniformly random neighbor of its parent's image. Every edge of t
    then has the uniform ordered-edge marginal, which is what makes these
    distributions gluable. The atoms are built without validation and their
    total mass is checked once.
    """
    if not is_tree(t) or t.num_edges() == 0:
        raise ValueError("source must be a tree with at least one edge")
    if g.num_edges() == 0:
        raise ValueError("target has no edges")

    r0, r1 = t.edges[0]
    order = []
    parent = {}
    seen = {r0, r1}
    queue = deque([r0, r1])
    while queue:
        v = queue.popleft()
        for w in t.neighbors(v):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
                queue.append(w)

    # an atom's mass is 1 / (2e(g) * the degrees of its attached vertices'
    # parent images): one integer denominator, one Fraction per atom
    mass = {}
    img = [-1] * t.n

    def attach(i, den):
        if i == len(order):
            mass[tuple(img)] = Fraction(1, den)
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
    return SparseDistribution._trusted(tuple(range(t.n)), g.n, mass)._check_total()


def associated_distribution(sd, g):
    """The level-k distribution on Hom(host(sd), g).

    Level 0 is the branching random walk; level k glues the per-bag
    level-(k-1) distributions along the decomposition's Markov tree, which
    raises MarginalMismatch unless they agree exactly across every tree
    edge. Above level 0, every support atom of the result is checked to be
    a homomorphism, which raises InvariantViolation otherwise; either
    failure means the decomposition (or this code) is broken.
    """
    if g.num_edges() == 0:
        raise ValueError("target has no edges")
    dist = _build(sd, g)
    if sd.level > 0:
        for key in dist.mass:
            if not is_homomorphism(sd.host, g, key):
                raise InvariantViolation("support atom %s is not a homomorphism" % (key,))
    return AssociatedDistribution(sd, g, dist)


def _build(sd, g):
    if sd.level == 0:
        return brw_distribution(sd.host, g)
    m = sd.decomp.markov
    bag_dists = [_reindex(_build(child, g), bag) for bag, child in zip(m.bags, sd.children)]
    return glue_markov_tree(m, bag_dists)


def _reindex(p, bag):
    """p, which lives on 0..|bag|-1, moved onto the sorted bag: its keys line
    up positionally with the bag's vertices, so only the arity can be wrong."""
    if len(p.index_set) != len(bag):
        raise ValueError("key %s has wrong arity" % (next(iter(p.mass)),))
    return SparseDistribution._trusted(bag, p.target_size, p.mass)


def projection_consistency_check(sd, g, u):
    """Compare the marginal of the full associated distribution on the
    minimum sub-decomposition containing u with that sub-decomposition's own
    associated distribution (through the recorded embedding).

    Returns {"ok": bool, "u": ..., "embedding": ...} plus a witness on
    failure.
    """
    u = vertex_set(u, sd.host.n)
    msd = minimum_subdecomposition(sd, u)
    full = associated_distribution(sd, g).dist
    sub = associated_distribution(msd.decomposition, g).dist
    projected = marginal(full, msd.embedding)
    # transport sub onto the embedded vertex names: embedding is monotone,
    # so keys line up positionally
    transported = SparseDistribution(msd.embedding, g.n, dict(sub.mass))
    result = {"ok": projected == transported, "u": list(u), "embedding": list(msd.embedding)}
    if not result["ok"]:
        result["witness"] = first_difference(
            projected.mass, transported.mass, "projected", "sub"
        )
    return result


def isomorphism_transport_check(sd1, sd2, iso, g):
    """Verify that the associated distribution of sd2 is the pullback of
    sd1's under the strong isomorphism iso (vertex_map: sd1 -> sd2)."""
    phi = iso.vertex_map
    d1 = associated_distribution(sd1, g).dist
    d2 = associated_distribution(sd2, g).dist
    transported = {}
    for key, p in d1.mass.items():
        # atom on host1 becomes the atom h2 with h2[phi[v]] = h1[v]
        key2 = [None] * len(key)
        for v, x in enumerate(key):
            key2[phi[v]] = x
        transported[tuple(key2)] = p
    result = {"ok": transported == d2.mass}
    if not result["ok"]:
        result["witness"] = first_difference(transported, d2.mass, "transported", "actual")
    return result


def degree_condition(g):
    """max_degree(g) <= 4|E(g)|/|V(g)|, evaluated in exact integers."""
    if g.n == 0:
        return True
    return max_degree(g) * g.n <= 4 * g.num_edges()


def forest_hom_bound_check(f, g):
    """Check hom(f,g) <= 2^e(f) * n^v(f) * (2e(g)/n^2)^e(f) exactly.

    Requires f to be a forest and g to satisfy the degree condition.
    Returns {"ok", "lhs", "rhs"} with exact rationals.
    """
    if not is_forest(f):
        raise ValueError("source graph is not a forest")
    if not degree_condition(g):
        raise ValueError("target fails the degree condition")
    lhs = Fraction(hom_count(f, g))
    ef = f.num_edges()
    rhs = Fraction(2) ** ef * Fraction(g.n) ** f.n * Fraction(
        2 * g.num_edges(), g.n * g.n
    ) ** ef
    return {"ok": lhs <= rhs, "lhs": lhs, "rhs": rhs}


def sidorenko_gap(h, g, count):
    """Exact Sidorenko gap count/n^v(h) - (2e(g)/n^2)^e(h), where count is
    hom(h, g)."""
    density = Fraction(count, g.n ** h.n)
    edge_density = Fraction(2 * g.num_edges(), g.n * g.n)
    return density - edge_density ** h.num_edges()


def sidorenko_check(h, g):
    """Exact Sidorenko gap hom(h,g)/n^v(h) - (2e(g)/n^2)^e(h)."""
    return sidorenko_gap(h, g, hom_count(h, g))


def entropy_bound_report(sd, g):
    """Entropy of the associated distribution against the support bound and
    the constant-free right-hand side; see bound_report. Raises ValueError,
    before building anything, when g fails the degree condition."""
    if not degree_condition(g):
        raise ValueError("target fails the degree condition")
    return bound_report(associated_distribution(sd, g))


def bound_report(ad):
    """Entropy of a built associated distribution against the support bound
    and the constant-free right-hand side e(H) log2(2e(G)/n^2) + v(H) log2 n.

    The comparison with the right-hand side is informational only (the
    theory guarantees it up to an unspecified additive constant); the
    support bound H(Y) <= log2 hom(H, G) raises InvariantViolation when it
    fails.
    """
    g, host = ad.target, ad.sd.host
    h_bits = entropy(ad.dist)
    n, e_g = g.n, g.num_edges()
    rhs = host.num_edges() * math.log2(2 * e_g / (n * n)) + host.n * math.log2(n)
    count = hom_count(host, g)
    log_hom = math.log2(count)
    if h_bits > log_hom + 1e-9:
        raise InvariantViolation("entropy exceeds the support bound")
    return BoundReport(
        entropy_bits=h_bits,
        rhs_bits=rhs,
        log_hom_bits=log_hom,
        degree_ok=degree_condition(g),
        sidorenko_gap=sidorenko_gap(host, g, count),
    )
