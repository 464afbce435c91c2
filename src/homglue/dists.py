"""Exact finite distributions over vertex assignments, stored support-only
as positive integer weights over one common denominator, plus the gluing
operations: pairwise conditional independent coupling and Markov-tree
gluing with its entropy identity.

Probabilities stay exact rationals throughout, computed on integers;
fractions.Fraction appears only where distributions enter and in the
read-only mass view. Floating point appears only when entropy (in bits) is
computed.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

from .graphs import bfs, require_ints, vertex_set
from .markov import MarkovTree, Refused

# what SparseDistribution's integer check names
INT_FIELDS = "index set, target size and key values"


@dataclass(frozen=True)
class SparseDistribution:
    """Probability mass function over assignments index_set -> 0..target_size-1.

    Keys are value tuples aligned with index_set, which must be strictly
    ascending: the constructor refuses any other order rather than sort the
    labels apart from the values. Only strictly positive atoms are stored.
    The mass at key is weight[key] / den: positive integer weights over one
    common denominator, in lowest terms (gcd(den, *weights) == 1), so two
    distributions are equal exactly when their fields are. The masses must
    sum to exactly 1, that is the weights to den. mass is a read-only
    {key: Fraction} view of the same law, built on each read.

    Distributions are validated where they enter the program: this
    constructor checks every atom and the total, then stores the masses as
    weights over the lcm of their denominators. A mass whose type is exactly
    Fraction is kept as given (a Fraction is always in lowest terms over a
    positive denominator); any other value, a Fraction subclass included, is
    first converted by Fraction(). The argument mass is a {key: mass}
    mapping or an iterable of (key, mass) pairs. The index set, target size
    and every key value are int-checked first; then the index set's order
    and the target size's sign, then the atoms in their order, so a refusal
    names the first fault. A repeated key is refused here, where a dict
    would have merged it: serialize.distribution_from_json passes a
    document's atoms as pairs. What the program builds from valid
    distributions (marginals, couplings, level-0 edge laws, re-indexed
    children) goes through the unchecked _trusted constructor instead, and
    each public function checks the total mass of the distribution it
    returns once (ValueError when it is not exactly 1).
    """

    index_set: tuple
    target_size: int
    weight: dict
    den: int

    def __init__(self, index_set, target_size, mass):
        index_set = tuple(index_set)
        mass = mass.items() if hasattr(mass, "items") else list(mass)
        require_ints((index_set, (target_size,), *map(itemgetter(0), mass)), INT_FIELDS)
        if any(a >= b for a, b in zip(index_set, index_set[1:])):
            raise ValueError("index set must be strictly ascending, not %s" % (list(index_set),))
        if target_size < 0:
            raise ValueError("target_size must be nonnegative")
        arity = len(index_set)
        norm = {}
        for key, p in mass:
            key = tuple(key)
            if len(key) != arity:
                raise ValueError("key %s has wrong arity" % (key,))
            # the key values are int-checked above
            if key and (min(key) < 0 or max(key) >= target_size):
                raise ValueError("key %s has out-of-range value" % (key,))
            if type(p) is not Fraction:
                p = Fraction(p)
            if p.numerator <= 0:
                raise ValueError("mass at %s must be strictly positive" % (key,))
            if key in norm:
                raise ValueError("duplicate key %s" % (key,))
            norm[key] = p
        # reduced Fractions over the lcm of their denominators are in lowest
        # terms together: a prime's highest power in den divides one mass's
        # denominator, whose numerator and cofactor lack that prime
        den = math.lcm(*{q.denominator for q in norm.values()})
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(
            self, "weight", {k: q.numerator * (den // q.denominator) for k, q in norm.items()}
        )
        object.__setattr__(self, "den", den)
        self._check_total()

    @classmethod
    def _trusted(cls, index_set, target_size, weight, den):
        """A distribution from parts that are valid by construction: a sorted
        vertex tuple, and a dict of positive int weights keyed by in-range
        value tuples of its arity, in lowest terms over the positive int den.
        Nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "index_set", index_set)
        object.__setattr__(p, "target_size", target_size)
        object.__setattr__(p, "weight", weight)
        object.__setattr__(p, "den", den)
        return p

    def _check_total(self):
        """self, once its weights are checked to sum to exactly den
        (ValueError naming the total mass otherwise)."""
        total = sum(self.weight.values())
        if total != self.den:
            raise ValueError("total mass is %s, not 1" % Fraction(total, self.den))
        return self

    @property
    def mass(self):
        """{key: Fraction mass}, read-only; one Fraction per distinct weight."""
        den = self.den
        share = {w: Fraction(w, den) for w in set(self.weight.values())}
        return MappingProxyType({k: share[w] for k, w in self.weight.items()})

    def support_size(self):
        return len(self.weight)

    def __hash__(self):
        return hash((self.index_set, self.target_size, self.den, frozenset(self.weight.items())))


def _projector(index_set, s):
    """key -> the tuple of key's values at the indices s, in s's order. A bare
    itemgetter returns a scalar for one position, so one position and none
    are slices of the key tuple."""
    positions = [index_set.index(v) for v in s]
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return itemgetter(slice(i, i + 1))
    return itemgetter(slice(0))


def marginal(p, s):
    """Exact marginal of p onto the index subset s.

    s must lie inside p's index set (the one caller passes the overlap of
    two bags). p is trusted as validated; the marginal's weights are summed
    without further checks and reduced to lowest terms, and its total mass
    is checked once (ValueError unless exactly 1).
    """
    s = vertex_set(s)
    proj = _projector(p.index_set, s)
    out = {}
    for key, w in p.weight.items():
        k = proj(key)
        out[k] = out[k] + w if k in out else w
    g = math.gcd(p.den, *out.values())
    if g > 1:
        out = {k: w // g for k, w in out.items()}
    return SparseDistribution._trusted(s, p.target_size, out, p.den // g)._check_total()


def entropy(p):
    """Shannon entropy in bits, added left to right in sorted-key order (the
    built-in sum compensates from Python 3.12 on). The keys are sorted alone
    and each weight looked up: they are unique, so the order is the one
    sorting the (key, weight) pairs gives. Each distinct weight w
    becomes the float x = w / den, and x * log2(x), once. Integer true
    division is correctly rounded, so x is the float float(q) makes of the
    atom's Fraction mass q, whether or not w / den is in lowest terms."""
    den, weight = p.den, p.weight
    terms = {}
    for w in set(weight.values()):
        x = w / den
        terms[w] = x * math.log2(x)
    total = 0
    for key in sorted(weight):
        total += terms[weight[key]]
    return -total


def glue_pair(p12, p23):
    """Conditional independent coupling of two distributions along their
    shared indices: glue_markov_tree on the two-bag tree with bags
    p12.index_set and p23.index_set, whose index sets must therefore be
    non-negative integers.

    The shared marginals must agree exactly, target size included (Refused
    otherwise, witnessed by the first differing key, None where only the
    sizes differ); the result q on the union index set satisfies
    q(y) * m(y_shared) = p12(y_12) * p23(y_23) on every atom and reproduces
    both inputs as marginals. An empty shared set yields the product.
    """
    bags = (p12.index_set, p23.index_set)
    ground_size = max(p12.index_set + p23.index_set, default=-1) + 1
    return glue_markov_tree(MarkovTree(ground_size, bags, [(0, 1)]), [p12, p23])


def _couple(p12, p23):
    """The conditional independent coupling of p12 and p23 along their shared
    indices, whose marginals there must agree. Its total mass is not checked.

    Group p23's atoms by their values y_shared on the shared indices, with
    m_s the sum of a group's weights (p23's marginal there is m_s / D23, and
    so is p12's) and L the lcm of the m_s. An atom's mass
    p12(y_12) * p23(y_23) / m(y_shared) is then w12 * (L // m_s) * w23 over
    the denominator D12 * L, reduced to lowest terms by one gcd.
    """
    idx12, idx23 = p12.index_set, p23.index_set
    in12 = set(idx12)
    shared = tuple(v for v in idx23 if v in in12)
    only23 = tuple(v for v in idx23 if v not in in12)
    union = vertex_set(idx12 + only23)
    proj12 = _projector(idx12, shared)
    proj23 = _projector(idx23, shared)
    tail23 = _projector(idx23, only23)
    # key12 + tail23(key23) lists the union's values in idx12 + only23 order
    joined = idx12 + only23
    to_union = _projector(joined, union) if joined != union else None

    groups = {}
    for key23, w23 in p23.weight.items():
        groups.setdefault(proj23(key23), []).append((tail23(key23), w23))
    group_mass = {sk: sum(w for _, w in group) for sk, group in groups.items()}
    common = math.lcm(*group_mass.values())
    factor = {sk: common // ms for sk, ms in group_mass.items()}

    out = {}
    for key12, w12 in p12.weight.items():
        sk = proj12(key12)
        f = w12 * factor[sk]
        for tail, w23 in groups[sk]:
            key = key12 + tail
            if to_union is not None:
                key = to_union(key)
            out[key] = f * w23
    den = p12.den * common
    g = math.gcd(den, *out.values())
    if g > 1:
        den //= g
        out = {k: w // g for k, w in out.items()}
    return SparseDistribution._trusted(union, p12.target_size, out, den)


def first_difference(a, b):
    """{"key": list(k), "left": str(a[k]), "right": str(b[k])} for the first key
    k in sorted order where the mass dicts a and b differ; None if they agree."""
    for key in sorted(set(a) | set(b)):
        pa = a.get(key, Fraction(0))
        pb = b.get(key, Fraction(0))
        if pa != pb:
            return {"key": list(key), "left": str(pa), "right": str(pb)}
    return None


def check_marginal_consistency(m, bag_dists):
    """Per-tree-edge exact comparison of the two bag marginals on the
    intersection, in m.tree order. Returns a list of {edge, ok, witness}
    entries, the witness (first_difference) only where ok is False. As in
    glue_markov_tree, its caller, bag_dists must fit m, unchecked."""
    results = []
    for a, b in m.tree:
        shared = vertex_set(set(m.bags[a]) & set(m.bags[b]))
        ma, mb = marginal(bag_dists[a], shared), marginal(bag_dists[b], shared)
        entry = {"edge": [a, b], "ok": ma == mb}
        if not entry["ok"]:
            entry["witness"] = first_difference(ma.mass, mb.mass)
        results.append(entry)
    return results


def check_bag_dists(m, bag_dists):
    """Raise ValueError unless bag_dists fit m: one law per bag, on the bag,
    all of one target size."""
    if len(bag_dists) != m.num_bags():
        raise ValueError("one distribution per bag is required")
    for i, (bag, p) in enumerate(zip(m.bags, bag_dists)):
        if p.index_set != bag:
            raise ValueError("distribution %d has index set %s, bag is %s" % (i, p.index_set, bag))
    if len({p.target_size for p in bag_dists}) > 1:
        raise ValueError("bag distributions disagree on target_size")


def glue_markov_tree(m, bag_dists):
    """Joint distribution over the union of the bags, gluing the bag
    distributions along the Markov tree in the order of the breadth-first
    walk graphs.bfs(m.bag_tree, [0]). This is the one gluing path: glue_pair
    is this on a two-bag tree.

    m must be a valid Markov tree (validate_markov_tree, which the glue
    command and validate_strong run) and bag_dists one law per bag, on the
    bag (check_bag_dists in glue; _build and glue_pair make them so), all
    unchecked. Every tree edge's two bag marginals are compared once, by
    check_marginal_consistency, before any gluing; the first edge, in m.tree
    order, that is not ok (no edge between laws of two target sizes is) raises
    Refused, whose doc carries that edge and its witness. Each bag after
    bag 0 meets the joint glued so far exactly in its overlap with its walk
    parent, along which it is then coupled on.

    The bag distributions are trusted as given (they were validated where
    they entered); the joints glued along the way are not checked, and the
    returned joint has its total mass checked once, which raises ValueError
    unless it is exactly 1.

    The result is the junction factorization, whatever the gluing order: it
    reproduces every bag distribution as a marginal and satisfies the
    entropy identity H(joint) = sum_F H(bag_F) - sum_AB H(overlap_AB).
    """
    for entry in check_marginal_consistency(m, bag_dists):
        if not entry["ok"]:
            raise Refused(
                "marginal mismatch on tree edge %s" % (entry["edge"],),
                edge=entry["edge"],
                witness=entry["witness"],
            )
    order, _ = bfs(m.bag_tree, [0])
    joint = bag_dists[0]
    for child in order[1:]:
        joint = _couple(joint, bag_dists[child])
    return joint._check_total()
