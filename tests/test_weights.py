"""Distributions stored as integer weights over one common denominator,
against the Fraction pipeline they replaced (the *_reference oracles in
helpers): equal masses atom for atom, byte-equal documents and equal
entropies, on the bundled fixtures and on drawn bag laws. Also the entry
paths' exact messages, value equality across construction paths, and the
read-only mass view."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from homglue import serialize
from homglue.dists import SparseDistribution, entropy, glue_markov_tree, marginal
from homglue.graphs import Graph
from homglue.markov import MarkovTree
from homglue.sidorenko import associated_distribution, brw_distribution
from fixture_builders import bundled_strong_fixtures
from helpers import (
    associated_reference,
    brw_distribution_reference,
    entropy_reference,
    glue_markov_tree_reference,
    marginal_reference,
    random_markov_tree,
    seeded_gnm,
    text_reference,
    uniform,
)


def complete(n):
    return Graph(n, combinations(range(n), 2))


TARGETS = [complete(n) for n in range(2, 6)] + [
    seeded_gnm(seed, 4 + seed % 4, 4 + seed % 3) for seed in range(8)
]


def assert_same_law(p, ref):
    """p equals the Fraction-pipeline law ref: as stored, atom for atom in
    Fractions, as a document byte for byte, and in entropy bit for bit."""
    assert p == ref and hash(p) == hash(ref)
    assert dict(p.mass) == dict(ref.mass)
    assert serialize.distribution_to_text(p) == text_reference(ref)
    assert entropy(p) == entropy_reference(ref)


def level0_hosts(sd):
    if sd.level == 0:
        return [sd.host]
    return [h for child in sd.children for h in level0_hosts(child)]


@pytest.mark.parametrize("name", sorted(bundled_strong_fixtures()))
def test_distribution_pipeline_matches_the_fraction_pipeline_on_every_fixture(name):
    sd = bundled_strong_fixtures()[name]
    m = sd.decomp.markov
    for g in TARGETS:
        for host in level0_hosts(sd):
            assert_same_law(brw_distribution(host, g), brw_distribution_reference(host, g))
        joint = associated_distribution(sd, g).dist
        assert_same_law(joint, associated_reference(sd, g))
        bag_laws = []
        for bag in m.bags:
            law = marginal(joint, bag)
            assert_same_law(law, marginal_reference(joint, bag))
            bag_laws.append(law)
        assert_same_law(glue_markov_tree(m, bag_laws), glue_markov_tree_reference(m, bag_laws))


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 10**9 + 7]
# small and varied, pairwise coprime, and past the 53 bits a float holds
denominators = st.one_of(st.integers(1, 12), st.sampled_from(PRIMES), st.integers(1, 10**30))
raw_masses = st.lists(
    st.builds(Fraction, st.integers(1, 10**30), denominators), min_size=1, max_size=14
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_bags=st.integers(1, 5),
    ground_size=st.integers(1, 5),
    target_size=st.integers(2, 3),
    raw=raw_masses,
)
def test_gluing_drawn_bag_laws_matches_the_fraction_pipeline(seed, num_bags, ground_size, target_size, raw):
    rng = random.Random(seed)
    m = random_markov_tree(rng, num_bags, ground_size)
    ground = tuple(range(ground_size))
    raw = raw[: target_size**ground_size]
    keys = set()
    while len(keys) < len(raw):
        keys.add(tuple(rng.randrange(target_size) for _ in ground))
    total = sum(raw)
    joint = SparseDistribution(ground, target_size, {k: r / total for k, r in zip(sorted(keys), raw)})
    assert_same_law(joint, SparseDistribution(ground, target_size, dict(joint.mass)))
    bag_laws = []
    for bag in m.bags:
        law = marginal(joint, bag)
        assert_same_law(law, marginal_reference(joint, bag))
        bag_laws.append(law)
    glued = glue_markov_tree(m, bag_laws)
    assert_same_law(glued, glue_markov_tree_reference(m, bag_laws))
    for bag, law in zip(m.bags, bag_laws):
        assert marginal(glued, bag) == law


def doc_of(index_set, target_size, atoms):
    return {
        "index_set": index_set,
        "target_size": target_size,
        "mass": [{"key": k, "num": n, "den": d} for k, n, d in atoms],
    }


# (constructor masses, or None, loader atoms, or None, message), one per
# refusal on the index set (0,) or, for keys of three values, (0, 1, 2);
# each message is the one the Fraction-mass entry paths gave
ENTRY_REFUSALS = {
    "wrong-arity": ({(0, 1): Fraction(1)}, [([0, 1], "1", "1")], "key (0, 1) has wrong arity"),
    "out-of-range": ({(2,): Fraction(1)}, [([2], "1", "1")], "key (2,) has out-of-range value"),
    "out-of-range-last": (
        {(0, 1, 2): Fraction(1)},
        [([0, 1, 2], "1", "1")],
        "key (0, 1, 2) has out-of-range value",
    ),
    "negative-middle": (
        {(1, -1, 0): Fraction(1)},
        [([1, -1, 0], "1", "1")],
        "key (1, -1, 0) has out-of-range value",
    ),
    "zero-mass": (
        {(0,): Fraction(0), (1,): Fraction(1)},
        [([0], "0", "3"), ([1], "1", "1")],
        "mass at (0,) must be strictly positive",
    ),
    "negative-mass": (
        {(0,): Fraction(-1, 2), (1,): Fraction(3, 2)},
        [([0], "-1", "2"), ([1], "3", "2")],
        "mass at (0,) must be strictly positive",
    ),
    "duplicate-key": ({(0,): Fraction(1, 2), range(1): Fraction(1, 2)}, None, "duplicate key (0,)"),
    "wrong-total": (
        {(0,): Fraction(1, 4), (1,): Fraction(1, 2)},
        [([0], "1", "4"), ([1], "2", "4")],
        "total mass is 3/4, not 1",
    ),
    "over-total": (
        {(0,): Fraction(2, 3), (1,): Fraction(3, 5)},
        [([0], "2", "3"), ([1], "3", "5")],
        "total mass is 19/15, not 1",
    ),
    "no-atoms": ({}, [], "total mass is 0, not 1"),
    "repeated-atom": (None, [([0], "1", "2"), ([0], "1", "2")], "duplicate key (0,)"),
    "zero-den": (None, [([0], "1", "0")], "a mass has a zero denominator"),
    "int-num": (None, [([0], 1, "1")], "num and den must be strings, not 1"),
    "float-den": (None, [([0], "1", 1.0)], "num and den must be strings, not 1.0"),
    "bool-num": (None, [([0], True, "1")], "num and den must be strings, not true"),
    "null-den": (None, [([0], "1", None)], "num and den must be strings, not null"),
    "list-key": (
        None,
        [([[0]], "1", "1")],
        "index set, target size and key values must be integers, not list",
    ),
}
THREE_VALUE_KEYS = ("out-of-range-last", "negative-middle")


@pytest.mark.parametrize("case", sorted(ENTRY_REFUSALS))
def test_entry_paths_refuse_with_the_exact_message(case):
    mass, atoms, message = ENTRY_REFUSALS[case]
    exact = "^%s$" % re.escape(message)
    index_set = [0, 1, 2] if case in THREE_VALUE_KEYS else [0]
    if mass is not None:
        with pytest.raises(ValueError, match=exact):
            SparseDistribution(index_set, 2, mass)
    if atoms is not None:
        with pytest.raises(ValueError, match=exact):
            serialize.distribution_from_json(doc_of(index_set, 2, atoms))


# (index set, loader atoms, message) of documents with more than one fault:
# the loader passes the atoms to the constructor as pairs, in their order, so
# the first fault in the constructor's order is named (the index set, then
# each atom), where merging the atoms into a dict first met the repeat
MULTI_FAULT_DOCS = {
    "out-of-range-before-repeat": (
        [0],
        [([5], "1", "2"), ([0], "1", "4"), ([0], "1", "4")],
        "key (5,) has out-of-range value",
    ),
    "descending-with-repeat": (
        [1, 0],
        [([0, 1], "1", "2"), ([0, 1], "1", "2")],
        "index set must be strictly ascending, not [1, 0]",
    ),
    "negative-before-repeat": (
        [0],
        [([1], "-1", "2"), ([0], "3", "4"), ([0], "3", "4")],
        "mass at (1,) must be strictly positive",
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_FAULT_DOCS))
def test_documents_with_several_faults_name_the_first(case):
    index_set, atoms, message = MULTI_FAULT_DOCS[case]
    exact = "^%s$" % re.escape(message)
    with pytest.raises(ValueError, match=exact):
        serialize.distribution_from_json(doc_of(index_set, 2, atoms))
    pairs = [(key, Fraction(int(num), int(den))) for key, num, den in atoms]
    with pytest.raises(ValueError, match=exact):
        SparseDistribution(index_set, 2, pairs)


def test_constructor_takes_pairs_or_a_mapping_alike():
    masses = {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 4)}
    want = SparseDistribution((0, 1), 2, masses)
    assert SparseDistribution((0, 1), 2, list(masses.items())) == want
    assert SparseDistribution((0, 1), 2, iter(masses.items())) == want  # read once
    assert SparseDistribution([0, 1], 2, [([1, 1], "1/4"), ([0, 1], 0.5), ([1, 0], "1/4")]) == want
    assert SparseDistribution((0, 1), 2, want.mass) == want  # a read-only mapping
    with pytest.raises(ValueError, match=r"^duplicate key \(0, 1\)$"):
        SparseDistribution((0, 1), 2, [((0, 1), Fraction(1, 2)), ([0, 1], Fraction(1, 2))])


class FractionSubclass(Fraction):
    """A Fraction subclass, which the constructor converts as it converts
    any mass whose type is not exactly Fraction."""


def test_masses_of_every_accepted_type_build_the_law_fractions_build():
    def fields(p):
        return p.index_set, p.weight, p.den

    keys = [(0, 1), (1, 0), (1, 1)]
    want = SparseDistribution((0, 1), 2, dict(zip(keys, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])))
    for masses in (["1/2", "1/4", "2/8"], [FractionSubclass(1, 2), FractionSubclass(2, 8), FractionSubclass(1, 4)]):
        assert fields(SparseDistribution((0, 1), 2, dict(zip(keys, masses)))) == fields(want)
    one = SparseDistribution((0,), 1, {(0,): Fraction(1)})
    for mass in (1, "1", FractionSubclass(3, 3)):
        assert fields(SparseDistribution((0,), 1, {(0,): mass})) == fields(one)


def test_equal_laws_built_along_different_paths_are_equal_and_hash_equal():
    half = SparseDistribution((0,), 2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    ordered = [(a, b) for a in range(3) for b in range(3) if a != b]
    bag = uniform((0, 1), 3, ordered)
    joint = glue_markov_tree(MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)]), [bag, uniform((1, 2), 3, ordered)])
    twelfths = {k: Fraction(1, 12) for k in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))}
    pairs = [
        (SparseDistribution((0,), 2, {(0,): Fraction(2, 4), (1,): Fraction(3, 6)}), half),
        (uniform((0,), 2, [(0,), (1,)]), half),
        (serialize.distribution_from_json(doc_of([0], 2, [([0], "5", "10"), ([1], "1", "2")])), half),
        (marginal(joint, (0, 1)), bag),
        (marginal(joint, (1, 2)), uniform((1, 2), 3, ordered)),
        (marginal(joint, (0, 2)), SparseDistribution((0, 2), 3, {**twelfths, **{(v, v): Fraction(1, 6) for v in range(3)}})),
        (marginal(bag, ()), uniform((), 3, [()])),
        (brw_distribution(complete(2), complete(3)), bag),
    ]
    for p, q in pairs:
        assert p == q and hash(p) == hash(q)
        assert (p.weight, p.den) == (q.weight, q.den)
    assert half != uniform((0,), 3, [(0,), (1,)])
    assert half != SparseDistribution((0,), 2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})


def test_weights_are_in_lowest_terms_over_one_denominator():
    p = SparseDistribution((0,), 3, {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(1, 4)})
    assert (p.weight, p.den) == ({(0,): 2, (1,): 1, (2,): 1}, 4)
    assert p.mass == {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(1, 4)}
    assert serialize.distribution_to_json(p)["mass"][0] == {"key": [0], "num": "1", "den": "2"}


def test_mass_is_read_only():
    p = uniform((0,), 2, [(0,), (1,)])
    with pytest.raises(TypeError):
        p.mass[(0,)] = Fraction(1, 4)
    with pytest.raises(TypeError):
        del p.mass[(1,)]
    assert p == uniform((0,), 2, [(0,), (1,)])
