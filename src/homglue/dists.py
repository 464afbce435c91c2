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
    labels apart from the values. Only strictly positive atoms are stored,
    and weight holds them in ascending key order: the constructor sorts
    them, and every caller of _trusted builds its dict in that order. So
    the readers (entropy, serialize's writer) walk the atoms in stored order
    and sort nothing.
    The mass at key is weight[key] / den: positive integer weights over one
    common denominator, in lowest terms (gcd(den, *weights) == 1), so two
    distributions are equal exactly when their fields are. The masses must
    sum to exactly 1, that is the weights to den. mass is a read-only
    {key: Fraction} view of the same law, built on each read.

    Distributions are validated where they enter the program, and only
    there: this constructor checks every atom and then the total (ValueError
    naming the total mass unless it is exactly 1), and stores the masses as
    weights over the lcm of their denominators. A mass whose type is exactly
    Fraction is kept as given (a Fraction is always in lowest terms over a
    positive denominator); any other value, a Fraction subclass included, is
    first converted by Fraction(). The argument mass is a {key: mass}
    mapping or an iterable of (key, mass) pairs. The index set, target size
    and every key value are int-checked first; then the index set's order
    and the target size's sign, then the atoms in their order, so a refusal
    names the first fault. A repeated key is refused here, where a dict
    would have merged it: serialize.distribution_from_json passes a
    document's atoms as pairs. The weights are stored sorted by key, which
    changes no refusal. What the program builds from valid distributions
    (marginals, couplings, level-0 edge laws, re-indexed children) goes
    through the unchecked _trusted constructor instead: a marginal keeps its
    law's mass, as does the coupling of laws that agree on their overlap,
    exactly in integers.
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
        weight = {k: norm[k].numerator * (den // norm[k].denominator) for k in sorted(norm)}
        total = sum(weight.values())
        if total != den:
            raise ValueError("total mass is %s, not 1" % Fraction(total, den))
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, index_set, target_size, weight, den):
        """A distribution from parts that are valid by construction: a sorted
        vertex tuple, and a dict of positive int weights keyed by in-range
        value tuples of its arity, in ascending key order and in lowest terms
        over the positive int den. Nothing is checked, the order included:
        each caller builds its dict in key order."""
        p = object.__new__(cls)
        object.__setattr__(p, "index_set", index_set)
        object.__setattr__(p, "target_size", target_size)
        object.__setattr__(p, "weight", weight)
        object.__setattr__(p, "den", den)
        return p

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
    without further checks, reduced to lowest terms and sorted by key, the
    order every distribution keeps. Summing keeps p's total, so the
    marginal's mass is 1 as p's is, unchecked.
    """
    s = vertex_set(s)
    proj = _projector(p.index_set, s)
    out = {}
    for key, w in p.weight.items():
        k = proj(key)
        out[k] = out[k] + w if k in out else w
    g = math.gcd(p.den, *out.values())
    out = {k: out[k] // g for k in sorted(out)}
    return SparseDistribution._trusted(s, p.target_size, out, p.den // g)


def entropy(p):
    """Shannon entropy in bits, added left to right over the weights in
    stored order, which is ascending key order (the built-in sum compensates
    from Python 3.12 on, so the loop is written out). Each distinct weight w
    becomes the float x = w / den, and x * log2(x), once. Integer true
    division is correctly rounded, so x is the float float(q) makes of the
    atom's Fraction mass q, whether or not w / den is in lowest terms."""
    den, weight = p.den, p.weight
    terms = {}
    for w in set(weight.values()):
        x = w / den
        terms[w] = x * math.log2(x)
    total = 0
    for w in weight.values():
        total += terms[w]
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
    """Compare, per tree edge in m.tree order, the two bag marginals on the
    edge's intersection exactly, and raise Refused on the first edge whose
    marginals differ (target size included): its doc carries the edge and
    the witness first_difference names, None where only the sizes differ.
    Returns None when every edge agrees. As in glue_markov_tree, its caller,
    bag_dists must fit m, unchecked."""
    for a, b in m.tree:
        shared = vertex_set(set(m.bags[a]) & set(m.bags[b]))
        ma, mb = marginal(bag_dists[a], shared), marginal(bag_dists[b], shared)
        if ma != mb:
            raise Refused(
                "marginal mismatch on tree edge %s" % ([a, b],),
                edge=[a, b],
                witness=first_difference(ma.mass, mb.mass),
            )


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
    """Joint distribution over the union of the bags: couple_markov_tree,
    once check_marginal_consistency has compared every tree edge's two bag
    marginals. This is the checked gluing path, which the glue command takes
    on user laws; glue_pair is this on a two-bag tree.

    m must be a valid Markov tree (validate_markov_tree, which the glue
    command runs) and bag_dists one law per bag, on the bag (check_bag_dists
    in glue; glue_pair makes them so), both unchecked. The check raises
    Refused on the first edge, in m.tree order, whose marginals differ (no
    edge between laws of two target sizes agrees), before any gluing.
    """
    check_marginal_consistency(m, bag_dists)
    return couple_markov_tree(m, bag_dists)


def couple_markov_tree(m, bag_dists):
    """The bag laws glued along the Markov tree in the order of the
    breadth-first walk graphs.bfs(m.bag_tree, [0]): each bag after bag 0
    meets the joint glued so far exactly in its overlap with its walk
    parent, and is coupled onto it conditionally independently given that
    overlap.

    Nothing is checked. m must be a valid Markov tree and bag_dists one law
    per bag, on the bag, agreeing exactly on every tree edge's overlap:
    glue_markov_tree checks that first, and sidorenko._build's laws agree by
    the paper's consistency lemma. Coupling laws that agree keeps the total
    mass exactly, in integers, so the joint's is 1. Should a broken
    invariant let through laws where the joint glued so far holds overlap
    values that the next bag's law lacks, the coupling raises Refused with
    the overlap and those values, not a bare KeyError.

    The joint glued so far keeps its vertices in walk order: bag 0's, then
    each bag's new vertices as the walk meets them. A step groups the bag's
    atoms by their overlap values, with m_s the sum of a group's weights
    (the bag's marginal there is m_s / D, and so is the joint's) and L the
    lcm of the m_s; each joint atom key with weight w then extends to
    key + tail with weight w * (L // m_s) * w_bag over the denominator
    den * L, reduced to lowest terms by one gcd. The bag's law is in key
    order, so each group's tails are in ascending order and the joint stays
    in key order with no sort. At the end the keys are put in ascending
    vertex order, and sorted once, only where the walk order is not
    already ascending.

    The result is the junction factorization, whatever the gluing order: it
    reproduces every bag distribution as a marginal and satisfies the
    entropy identity H(joint) = sum_F H(bag_F) - sum_AB H(overlap_AB).
    """
    order, _ = bfs(m.bag_tree, [0])
    first = bag_dists[0]
    walk, joint, den = first.index_set, first.weight, first.den
    for child in order[1:]:
        p = bag_dists[child]
        met = set(walk)
        shared = tuple(v for v in p.index_set if v in met)
        fresh = tuple(v for v in p.index_set if v not in met)
        on_shared = _projector(p.index_set, shared)
        tail = _projector(p.index_set, fresh)
        groups = {}
        for key, w in p.weight.items():
            groups.setdefault(on_shared(key), []).append((tail(key), w))
        group_mass = {sk: sum(w for _, w in group) for sk, group in groups.items()}
        common = math.lcm(*group_mass.values())
        factor = {sk: common // ms for sk, ms in group_mass.items()}
        joint_on_shared = _projector(walk, shared)
        out = {}
        try:
            for key, w in joint.items():
                sk = joint_on_shared(key)
                f = w * factor[sk]
                for t, wt in groups[sk]:
                    out[key + t] = f * wt
        except KeyError as e:
            raise Refused(
                "laws to couple disagree on their overlap", overlap=list(shared), key=list(e.args[0])
            ) from None
        den *= common
        g = math.gcd(den, *out.values())
        if g > 1:
            den //= g
            out = {k: w // g for k, w in out.items()}
        walk += fresh
        joint = out
    union = vertex_set(walk)
    if walk != union:
        to_union = _projector(walk, union)
        joint = {to_union(k): w for k, w in joint.items()}
        joint = {k: joint[k] for k in sorted(joint)}
    return SparseDistribution._trusted(union, first.target_size, joint, den)
