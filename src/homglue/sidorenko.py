"""Distributions on homomorphism sets glued along strong decompositions, one
gluing path at every level (level 0, the branching random walk, glues the
uniform ordered-edge laws on a tree's edges), and the desk-scale
verification suite around Sidorenko's property: degree condition, forest
homomorphism bound, entropy chain, and the brute-force density gap.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .dists import SparseDistribution, entropy, glue_markov_tree
from .graphs import hom_count, is_forest, is_homomorphism, is_tree, max_degree
from .markov import Refused
from .strong import validate_strong, zero_strong


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
    ordered edge of g and every other vertex steps to a uniformly random
    neighbour of its walk parent's image, so every edge of t has the uniform
    ordered-edge marginal, which is what makes these distributions gluable.
    This is level-0 gluing: the associated distribution of zero_strong(t),
    the uniform ordered-edge laws on t's edges glued along its line-graph
    bag tree (every valid bag tree over t's edges gives the same law). That
    decomposition is valid by construction, so it is built unvalidated.
    """
    if not is_tree(t) or t.num_edges() == 0:
        raise ValueError("source must be a tree with at least one edge")
    if g.num_edges() == 0:
        raise Refused("target has no edges")
    return _build(zero_strong(t), g, {})


def associated_distribution(sd, g):
    """The level-k distribution on Hom(host(sd), g).

    Every level glues one law per bag along the decomposition's Markov
    tree, which raises Refused unless they agree exactly across
    every tree edge. At level 0 each bag is a host edge carrying the uniform
    law on g's ordered edges, which glue to the branching random walk (see
    brw_distribution); at level k each bag carries its child's level-(k-1)
    distribution. Equal children (equal StrongDecomposition values) are
    built once per call.

    The distribution is defined for a strong decomposition only: after a
    target without edges (Refused), sd is refused unless validate_strong
    passes it (ValidationFailed, carrying the report). Validity puts every
    host vertex and edge in a bag and makes each child's host the host
    induced on its bag. Gluing keeps exactly the atoms whose projections all
    lie in the bag supports, so as each bag's support is all of Hom(child
    host, g) (at level 0, of K2), the result's is all of Hom(host(sd), g).
    Every atom of each distinct child's distribution must be a homomorphism
    of that child's host; Refused otherwise, which means this code is
    broken.
    """
    if g.num_edges() == 0:
        raise Refused("target has no edges")
    validate_strong(sd).require()
    return AssociatedDistribution(sd, g, _build(sd, g, {}))


def _build(sd, g, built):
    """sd's distribution on Hom(sd.host, g), for a valid sd. built maps each
    child already built in this call to its distribution, which a child
    equal to it reuses; _build depends on (sd, g) alone, so reuse changes
    nothing."""
    m = sd.decomp.markov
    if sd.level == 0:
        # the uniform law on g's ordered edges, one dict shared by every bag,
        # each of which is a host edge
        steps = {key: 1 for a, b in g.edges for key in ((a, b), (b, a))}
        den = 2 * g.num_edges()
        bag_dists = [SparseDistribution._trusted(bag, g.n, steps, den) for bag in m.bags]
    else:
        bag_dists = []
        for bag, child in zip(m.bags, sd.children):
            law = built.get(child)
            fresh = law is None
            if fresh:
                law = built[child] = _build(child, g, built)
            # the child's host is the host induced on the sorted bag, so the
            # law's keys line up positionally with the bag's vertices
            p = SparseDistribution._trusted(bag, law.target_size, law.weight, law.den)
            if fresh:
                _require_homs(child.host, g, p)
            bag_dists.append(p)
    return glue_markov_tree(m, bag_dists)


def _require_homs(h, g, p):
    """Refused unless every support atom of p is a homomorphism h -> g."""
    for key in p.weight:
        if not is_homomorphism(h, g, key):
            raise Refused("support atom %s is not a homomorphism" % (key,))


def degree_condition(g):
    """max_degree(g) <= 4|E(g)|/|V(g)|, evaluated in exact integers; the
    graph on no vertices passes."""
    return max_degree(g) * g.n <= 4 * g.num_edges()


def forest_hom_bound_check(f, g):
    """Check hom(f,g) <= 2^e(f) * n^v(f) * (2e(g)/n^2)^e(f) exactly.

    Requires f to be a forest and g to have a vertex (ValueError otherwise)
    and g to satisfy the degree condition (Refused otherwise). Returns
    {"ok", "lhs", "rhs"} with exact rationals.
    """
    if not is_forest(f):
        raise ValueError("source graph is not a forest")
    _require_vertices(g)
    if not degree_condition(g):
        raise Refused("target fails the degree condition")
    lhs = Fraction(hom_count(f, g))
    ef = f.num_edges()
    rhs = Fraction(2) ** ef * Fraction(g.n) ** f.n * Fraction(
        2 * g.num_edges(), g.n * g.n
    ) ** ef
    return {"ok": lhs <= rhs, "lhs": lhs, "rhs": rhs}


def sidorenko_gap(h, g, count):
    """Exact Sidorenko gap count/n^v(h) - (2e(g)/n^2)^e(h), where count is
    hom(h, g). A target with no vertices is a ValueError."""
    _require_vertices(g)
    density = Fraction(count, g.n ** h.n)
    edge_density = Fraction(2 * g.num_edges(), g.n * g.n)
    return density - edge_density ** h.num_edges()


def sidorenko_check(h, g):
    """Exact Sidorenko gap hom(h,g)/n^v(h) - (2e(g)/n^2)^e(h)."""
    return sidorenko_gap(h, g, hom_count(h, g))


def _require_vertices(g):
    """The densities divide by powers of v(g), so an empty target is refused."""
    if g.n == 0:
        raise ValueError("target has no vertices")


def entropy_bound_report(sd, g):
    """Entropy of the associated distribution against the support bound and
    the constant-free right-hand side; see bound_report. Raises Refused,
    before building anything, when g fails the degree condition."""
    if not degree_condition(g):
        raise Refused("target fails the degree condition")
    return bound_report(associated_distribution(sd, g))


def bound_report(ad):
    """Entropy of a built associated distribution against the support bound
    and the constant-free right-hand side e(H) log2(2e(G)/n^2) + v(H) log2 n.

    The comparison with the right-hand side is informational only (the
    theory guarantees it up to an unspecified additive constant); the
    support bound H(Y) <= log2 hom(H, G) raises Refused when it fails.
    hom(H, G) is the support size: associated_distribution builds only on a
    valid decomposition, whose support is all of Hom(H, G), so no search
    runs here.
    """
    g, host = ad.target, ad.sd.host
    h_bits = entropy(ad.dist)
    n, e_g = g.n, g.num_edges()
    rhs = host.num_edges() * math.log2(2 * e_g / (n * n)) + host.n * math.log2(n)
    count = ad.dist.support_size()
    log_hom = math.log2(count)
    if h_bits > log_hom + 1e-9:
        raise Refused("entropy exceeds the support bound")
    return BoundReport(
        entropy_bits=h_bits,
        rhs_bits=rhs,
        log_hom_bits=log_hom,
        degree_ok=degree_condition(g),
        sidorenko_gap=sidorenko_gap(host, g, count),
    )
