"""Exact finite distributions over vertex assignments, stored support-only
with Fraction masses, plus the gluing operations: pairwise conditional
independent coupling and Markov-tree gluing with its entropy identity.

Probabilities stay exact rationals throughout; floating point appears only
when entropy (in bits) is computed.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .graphs import is_tree, vertex_set
from .markov import MarkovTree


class MarginalMismatch(ValueError):
    """Two distributions disagree on a shared marginal."""

    def __init__(self, message, witness=None, edge=None):
        super().__init__(message)
        self.witness = witness
        self.edge = edge


@dataclass(frozen=True)
class SparseDistribution:
    """Probability mass function over assignments index_set -> 0..target_size-1.

    Keys are value tuples aligned with the sorted index_set; only strictly
    positive atoms are stored, and the masses must sum to exactly 1.

    Distributions are validated where they enter the program: this
    constructor, point_mass, uniform and serialize.distribution_from_json
    check every atom and the total. What the program builds from valid
    distributions (marginals, couplings, BRW laws, re-indexed children) goes
    through the unchecked _trusted constructor instead, and each public
    function checks the total mass of the distribution it returns once
    (ValueError when it is not exactly 1).
    """

    index_set: tuple
    target_size: int
    mass: dict

    def __init__(self, index_set, target_size, mass):
        index_set = vertex_set(index_set)
        if target_size < 0:
            raise ValueError("target_size must be nonnegative")
        norm = {}
        for key, p in mass.items():
            key = tuple(key)
            if len(key) != len(index_set):
                raise ValueError("key %s has wrong arity" % (key,))
            if any(not (0 <= x < target_size) for x in key):
                raise ValueError("key %s has out-of-range value" % (key,))
            p = Fraction(p)
            if p <= 0:
                raise ValueError("mass at %s must be strictly positive" % (key,))
            if key in norm:
                raise ValueError("duplicate key %s" % (key,))
            norm[key] = p
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "mass", norm)
        self._check_total()

    @classmethod
    def _trusted(cls, index_set, target_size, mass):
        """A distribution from parts that are valid by construction: a sorted
        vertex tuple and a dict of strictly positive Fractions keyed by
        in-range value tuples of its arity. Nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "index_set", index_set)
        object.__setattr__(p, "target_size", target_size)
        object.__setattr__(p, "mass", mass)
        return p

    def _check_total(self):
        """self, once its masses are checked to sum to exactly 1 (ValueError
        otherwise). The numerators are summed as integers per denominator,
        so one Fraction is formed per distinct denominator, not per atom."""
        by_den = {}
        for q in self.mass.values():
            d = q.denominator
            by_den[d] = by_den.get(d, 0) + q.numerator
        total = sum(Fraction(n, d) for d, n in by_den.items())
        if total != 1:
            raise ValueError("total mass is %s, not 1" % total)
        return self

    def support_size(self):
        return len(self.mass)

    def __eq__(self, other):
        return (
            isinstance(other, SparseDistribution)
            and self.index_set == other.index_set
            and self.target_size == other.target_size
            and self.mass == other.mass
        )

    def __hash__(self):
        return hash((self.index_set, self.target_size, frozenset(self.mass.items())))


def point_mass(index_set, target_size, key):
    return SparseDistribution(index_set, target_size, {tuple(key): Fraction(1)})


def uniform(index_set, target_size, keys):
    keys = list(keys)
    p = Fraction(1, len(keys))
    return SparseDistribution(index_set, target_size, {tuple(k): p for k in keys})


def _projector(index_set, s):
    """key -> the tuple of key's values at the indices s, in s's order. A bare
    itemgetter returns a scalar for one position, so that case is wrapped."""
    positions = [index_set.index(v) for v in s]
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda key: (key[i],)
    return lambda key: ()


def marginal(p, s):
    """Exact marginal of p onto the index subset s.

    p is trusted as validated; the marginal's atoms are summed without
    further checks, and its total mass is checked once (ValueError unless
    exactly 1).
    """
    s = vertex_set(s)
    if not set(s) <= set(p.index_set):
        raise ValueError("%s is not a subset of the index set" % (s,))
    proj = _projector(p.index_set, s)
    out = {}
    for key, q in p.mass.items():
        k = proj(key)
        out[k] = out[k] + q if k in out else q
    return SparseDistribution._trusted(s, p.target_size, out)._check_total()


def entropy(p):
    """Shannon entropy in bits, summed in sorted-key order."""
    return -sum(
        float(q) * math.log2(float(q)) for _, q in sorted(p.mass.items())
    )


def glue_pair(p12, p23):
    """Conditional independent coupling of two distributions along their
    shared indices: glue_markov_tree on the two-bag tree with bags
    p12.index_set and p23.index_set, whose index sets must therefore be
    non-negative integers.

    The shared marginals must agree exactly (MarginalMismatch otherwise,
    with the first differing key as witness); the result q on the union
    index set satisfies q(y) * m(y_shared) = p12(y_12) * p23(y_23) on every
    atom and reproduces both inputs as marginals. An empty shared set
    yields the product distribution.
    """
    bags = (p12.index_set, p23.index_set)
    ground_size = max(p12.index_set + p23.index_set, default=-1) + 1
    return glue_markov_tree(MarkovTree(ground_size, bags, [(0, 1)]), [p12, p23])


def _couple(p12, p23, overlap):
    """The conditional independent coupling of p12 and p23, given overlap:
    their agreed marginal on exactly their shared indices. Its total mass is
    not checked.

    Each atom p12(y_12) * p23(y_23) / m(y_shared) is written as one Fraction
    of integer products, so it is normalised once.
    """
    idx12, idx23 = p12.index_set, p23.index_set
    in12 = set(idx12)
    only23 = tuple(v for v in idx23 if v not in in12)
    union = vertex_set(idx12 + only23)
    proj12 = _projector(idx12, overlap.index_set)
    proj23 = _projector(idx23, overlap.index_set)
    tail23 = _projector(idx23, only23)
    # key12 + tail23(key23) lists the union's values in idx12 + only23 order
    joined = idx12 + only23
    to_union = _projector(joined, union) if joined != union else None

    by_shared = {}
    for key23, q23 in p23.mass.items():
        by_shared.setdefault(proj23(key23), []).append(
            (tail23(key23), q23.numerator, q23.denominator)
        )

    out = {}
    for key12, q12 in p12.mass.items():
        sk = proj12(key12)
        m = overlap.mass[sk]
        num = q12.numerator * m.denominator
        den = q12.denominator * m.numerator
        for tail, n23, d23 in by_shared.get(sk, ()):
            key = key12 + tail
            if to_union is not None:
                key = to_union(key)
            out[key] = Fraction(num * n23, den * d23)
    return SparseDistribution._trusted(union, p12.target_size, out)


def first_difference(a, b, left="left", right="right"):
    """{"key": list(k), left: str(a[k]), right: str(b[k])} for the first key k in
    sorted order where the mass dicts a and b differ; None if they agree."""
    for key in sorted(set(a) | set(b)):
        pa = a.get(key, Fraction(0))
        pb = b.get(key, Fraction(0))
        if pa != pb:
            return {"key": list(key), left: str(pa), right: str(pb)}
    return None


def _overlap_marginals(m, bag_dists):
    """(edge, ma, mb) per tree edge, in m.tree order: the marginals of the
    edge's two bag distributions on the two bags' overlap."""
    _check_bag_dists(m, bag_dists)
    for a, b in m.tree:
        shared = vertex_set(set(m.bags[a]) & set(m.bags[b]))
        yield (a, b), marginal(bag_dists[a], shared), marginal(bag_dists[b], shared)


def check_marginal_consistency(m, bag_dists):
    """Per-tree-edge exact comparison of the two bag marginals on the
    intersection. Returns a list of {edge, ok, witness} entries."""
    results = []
    for (a, b), ma, mb in _overlap_marginals(m, bag_dists):
        entry = {"edge": [a, b], "ok": ma == mb}
        if not entry["ok"]:
            entry["witness"] = first_difference(ma.mass, mb.mass)
        results.append(entry)
    return results


def _check_bag_dists(m, bag_dists):
    if len(bag_dists) != m.num_bags():
        raise ValueError("one distribution per bag is required")
    for i, bag in enumerate(m.bags):
        if bag_dists[i].index_set != bag:
            raise ValueError(
                "distribution %d has index set %s, bag is %s"
                % (i, bag_dists[i].index_set, bag)
            )
    sizes = {d.target_size for d in bag_dists}
    if len(sizes) > 1:
        raise ValueError("bag distributions disagree on target_size")


def _agreed_marginals(m, bag_dists):
    """{tree edge: the marginal both its bags share on their overlap}.

    Raises MarginalMismatch on the first edge, in m.tree order, whose two
    bag marginals differ.
    """
    agreed = {}
    for edge, ma, mb in _overlap_marginals(m, bag_dists):
        if ma != mb:
            raise MarginalMismatch(
                "marginal mismatch on tree edge %s" % (list(edge),),
                witness=first_difference(ma.mass, mb.mass),
                edge=edge,
            )
        agreed[edge] = ma
    return agreed


def glue_markov_tree(m, bag_dists):
    """Joint distribution over the union of the bags, gluing the bag
    distributions along the Markov tree breadth first from bag 0. This is
    the one gluing path: glue_pair is this on a two-bag tree.

    A bag tree that is not a tree (graphs.is_tree on m.bag_tree) raises
    ValueError first. Every tree edge's two bag marginals are then compared
    once, in m.tree order, before any gluing; the first mismatch raises
    MarginalMismatch carrying that edge and its witness. Each bag is then
    coupled onto the joint glued so far given its overlap with its parent
    bag, whose marginal that comparison computed. A bag whose overlap with
    the bags glued so far is not its overlap with its parent (running
    intersection fails) raises ValueError.

    The bag distributions are trusted as given (they were validated where
    they entered); the joints glued along the way are not checked, and the
    returned joint has its total mass checked once, which raises ValueError
    unless it is exactly 1.

    The result is the junction factorization, whatever the gluing order: it
    reproduces every bag distribution as a marginal and satisfies the
    entropy identity H(joint) = sum_F H(bag_F) - sum_AB H(overlap_AB).
    """
    if not is_tree(m.bag_tree):
        raise ValueError("bag tree on %d bags is not a tree" % m.num_bags())
    agreed = _agreed_marginals(m, bag_dists)
    joint = bag_dists[0]
    glued = set(m.bags[0])
    order = [0]
    for parent in order:  # grows while it is walked: breadth first
        for child in m.bag_neighbors(parent):
            if child in order:
                continue
            overlap = agreed[min(parent, child), max(parent, child)]
            if glued.intersection(m.bags[child]) != set(overlap.index_set):
                raise ValueError(
                    "running intersection fails at bag %d: it meets the glued "
                    "bags outside its parent bag %d" % (child, parent)
                )
            joint = _couple(joint, bag_dists[child], overlap)
            glued.update(m.bags[child])
            order.append(child)
    return joint._check_total()


def junction_factorization(m, bag_dists):
    """Closed-form joint: q(y) = prod_F p_F(y_F) / prod_AB m_AB(y_overlap).

    Built by joining bag supports directly, independent of the pairwise
    gluing path, and through the validating constructor; agrees with
    glue_markov_tree atom-for-atom on valid input.
    """
    agreed = _agreed_marginals(m, bag_dists)

    ground = vertex_set(v for bag in m.bags for v in bag)
    # join supports: partial assignments as dicts keyed on ground elements
    partials = [{}]
    for i, bag in enumerate(m.bags):
        joined = []
        for part in partials:
            for key, _ in sorted(bag_dists[i].mass.items()):
                assign = dict(zip(bag, key))
                if all(part.get(v, assign[v]) == assign[v] for v in assign):
                    merged = dict(part)
                    merged.update(assign)
                    joined.append(merged)
        partials = joined

    out = {}
    target_size = bag_dists[0].target_size
    for part in partials:
        q = Fraction(1)
        for i, bag in enumerate(m.bags):
            q *= bag_dists[i].mass[tuple(part[v] for v in bag)]
        for em in agreed.values():
            q /= em.mass[tuple(part[v] for v in em.index_set)]
        key = tuple(part[v] for v in ground)
        out[key] = out.get(key, Fraction(0)) + q
    return SparseDistribution(ground, target_size, out)
