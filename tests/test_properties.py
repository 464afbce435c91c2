"""Property tests on seeded random Markov trees, bag distributions and
targets: the gluing kernels against their brute-force oracles, the BRW law
against a running-product reference, entropy against the formula it
replaced, and every returned distribution against a rebuild through the
validating constructor. Every way of building a distribution keeps its
atoms in key order, so entropy and the text writer answer as their sorting
references. Generated valid level-1 strong decompositions go through the
validator, the covering and sub-decomposition searches against their
references and the strong isomorphism search against a relabelled copy. Generated level-2 decompositions, and one-step corruptions of them,
go through the validator against a condition-3 reference, and their
distributions through the paper's consistency lemmas, which the library's
build trusts."""

import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from homglue import strong
from homglue.dists import (
    SparseDistribution,
    couple_markov_tree,
    entropy,
    glue_markov_tree,
    glue_pair,
    marginal,
)
from homglue.graphs import Graph, hom_count
from homglue.markov import MarkovTree, TreeDecomposition, minimum_covering_subfamily
from homglue.serialize import distribution_to_text
from homglue.sidorenko import associated_distribution, bound_report, brw_distribution
from homglue.strong import (
    is_strong_isomorphism,
    minimum_subdecomposition,
    StrongDecomposition,
    StrongIsomorphism,
    strong_isomorphism,
    validate_strong,
    zero_strong,
)
from fixture_builders import bundled_strong_fixtures, c4
from helpers import (
    associated_reference,
    brute_force_joint,
    brute_force_min_cover,
    brw_reference,
    condition3_reference,
    consistent_bag_dists,
    cut_square,
    entropy_reference,
    glue_copies,
    isomorphism_transport_check,
    junction_factorization,
    leaf_swaps,
    level0_violations_reference,
    level0_with_bag_tree,
    overlaps,
    minimum_subdecomposition_reference,
    overlaps_are_vertices_and_edges,
    projection_consistency_check,
    random_copy_plan,
    random_graph,
    random_level1,
    random_level2,
    random_markov_tree,
    random_tree,
    relabel_strong,
    rooted_at_largest,
    sorting_entropy_reference,
    sorting_text_reference,
)

# derandomized and without an example database: the same examples on every run
PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# fewer examples where each builds several exact distributions
DISTRIBUTIONS = settings(PROPERTIES, max_examples=25)

seeds = st.integers(0, 2**32 - 1)


def rebuilt(p):
    """p through the validating constructor."""
    return SparseDistribution(p.index_set, p.target_size, p.mass)


def glue_instance(seed, num_bags, ground_size, target_size, atoms):
    rng = random.Random(seed)
    m = random_markov_tree(rng, num_bags, ground_size)
    return m, consistent_bag_dists(rng, m, target_size, atoms)


def random_target(seed, n):
    """G(n, 1/2) with at least one edge."""
    rng = random.Random(seed)
    while True:
        g = random_graph(rng, n, 0.5)
        if g.num_edges():
            return g


@PROPERTIES
@given(
    seed=seeds,
    num_bags=st.integers(1, 5),
    ground_size=st.integers(1, 5),
    target_size=st.integers(2, 3),
    atoms=st.integers(1, 12),
)
def test_glue_markov_tree_equals_both_oracles(seed, num_bags, ground_size, target_size, atoms):
    m, dists = glue_instance(seed, num_bags, ground_size, target_size, atoms)
    joint = glue_markov_tree(m, dists)
    assert joint == junction_factorization(m, dists)
    assert joint == brute_force_joint(m, dists)
    assert rebuilt(joint) == joint


@PROPERTIES
@given(seed=seeds, ground_size=st.integers(2, 5), atoms=st.integers(1, 12), split=st.integers(0, 2**8))
def test_marginal_and_glue_pair_rebuild_equal(seed, ground_size, atoms, split):
    _, (joint,) = glue_instance(seed, 1, ground_size, 3, atoms)
    ground = joint.index_set
    left = tuple(v for v in ground if split >> v & 1 or v == ground[0])
    right = tuple(v for v in ground if not split >> v & 1 or v == ground[-1])
    p12, p23 = marginal(joint, left), marginal(joint, right)
    assert rebuilt(p12) == p12 and rebuilt(p23) == p23
    shared = tuple(sorted(set(left) & set(right)))
    assert marginal(p12, shared) == marginal(p23, shared)
    glued = glue_pair(p12, p23)
    assert rebuilt(glued) == glued
    assert marginal(glued, left) == p12 and marginal(glued, right) == p23


@PROPERTIES
@given(seed=seeds, tree_size=st.integers(2, 5), target_size=st.integers(2, 6))
def test_brw_distribution_equals_running_product_reference(seed, tree_size, target_size):
    t = random_tree(random.Random(seed), tree_size)
    g = random_target(seed, target_size)
    p = brw_distribution(t, g)
    assert p == brw_reference(t, g)
    assert rebuilt(p) == p


@PROPERTIES
@given(seed=seeds, name=st.sampled_from(sorted(bundled_strong_fixtures())), target_size=st.integers(2, 4))
def test_associated_distribution_rebuilds_equal(seed, name, target_size):
    sd = bundled_strong_fixtures()[name]
    dist = associated_distribution(sd, random_target(seed, target_size))
    assert rebuilt(dist) == dist


def assert_in_key_order(p):
    """p stores its atoms in ascending key order, so entropy and the text
    writer, which read them in stored order, answer exactly as their sorting
    references do."""
    assert list(p.weight) == sorted(p.weight)
    assert entropy(p) == sorting_entropy_reference(p)
    assert distribution_to_text(p) == sorting_text_reference(p)


@DISTRIBUTIONS
@given(
    seed=seeds,
    num_bags=st.integers(1, 5),
    ground_size=st.integers(1, 5),
    target_size=st.integers(2, 4),
    atoms=st.integers(1, 12),
)
def test_every_built_distribution_keeps_its_atoms_in_key_order(
    seed, num_bags, ground_size, target_size, atoms
):
    # the constructor on the atoms in a random order, marginals onto random
    # subsets, couplings along random Markov trees (also rooted at their
    # largest vertices, so that the walk meets them out of order) and the
    # associated distributions of random level-1 and level-2 decompositions
    rng = random.Random(seed)
    m, dists = glue_instance(seed, num_bags, ground_size, target_size, atoms)
    joint = junction_factorization(m, dists)
    pairs = list(joint.mass.items())
    rng.shuffle(pairs)
    shuffled = SparseDistribution(joint.index_set, target_size, pairs)
    assert shuffled == joint
    laws = [shuffled, joint]
    ground = joint.index_set
    laws += [marginal(joint, rng.sample(ground, rng.randint(0, len(ground)))) for _ in range(3)]
    for tree in (m, rooted_at_largest(m)):
        bag_laws = [dists[m.bags.index(bag)] for bag in tree.bags]
        glued = couple_markov_tree(tree, bag_laws)
        assert glued == joint
        laws.append(glued)
    g = random_target(seed, target_size)
    laws.append(associated_distribution(random_level1(rng, num_bags, 4), g))
    laws.append(associated_distribution(random_level2(rng, 2, base_bags=2), g))
    for p in laws:
        assert_in_key_order(p)


@PROPERTIES
@given(weights=st.lists(st.integers(1, 10**30), min_size=1, max_size=24), seed=seeds)
def test_entropy_equals_the_reference_exactly(weights, seed):
    # weights up to 10**30 give numerators and denominators past the 53 bits
    # a float holds exactly, so both sides divide big integers
    total = sum(weights)
    p = SparseDistribution((0,), len(weights), {(i,): Fraction(w, total) for i, w in enumerate(weights)})
    _, (joint,) = glue_instance(seed, 1, 3, 3, len(weights))
    for q in (p, joint, marginal(joint, (0, 2))):
        assert entropy(q) == entropy_reference(q)


@PROPERTIES
@given(seed=seeds, num_bags=st.integers(1, 5), size=st.integers(1, 4))
def test_generated_level1_decompositions_validate_and_answer_as_their_references(
    seed, num_bags, size
):
    rng = random.Random(seed)
    sd = random_level1(rng, num_bags, 4)
    assert validate_strong(sd).ok
    m = sd.decomp.markov
    u = rng.sample(range(sd.host.n), min(size, sd.host.n))
    holding = [i for i, bag in enumerate(m.bags) if set(u) <= set(bag)]
    minima = brute_force_min_cover(m, u)
    assert minimum_covering_subfamily(m, u) == ((holding[0],) if holding else minima[0])
    assert holding or len(minima) == 1
    assert minimum_subdecomposition(sd, u) == minimum_subdecomposition_reference(sd, u)


@PROPERTIES
@given(seed=seeds, num_bags=st.integers(1, 5))
def test_strong_isomorphism_finds_a_relabelled_generated_level1_decomposition(seed, num_bags):
    rng = random.Random(seed)
    sd = random_level1(rng, num_bags, 4)
    perm = list(range(sd.host.n))
    rng.shuffle(perm)
    copy = relabel_strong(sd, perm, rng)
    iso = strong_isomorphism(sd, copy)
    assert iso is not None
    assert is_strong_isomorphism(sd, copy, iso.vertex_map)


@PROPERTIES
@given(
    seed=seeds,
    n=st.integers(2, 12),
    shape=st.sampled_from(["spanning", "disjoint", "cycle", "forest"]),
)
def test_level0_validation_gives_the_full_markov_tree_checks_report(seed, n, shape):
    # a spanning tree of the line graph is settled without the Markov-tree
    # checks; every other bag tree still gets their report
    sd, shape = level0_with_bag_tree(random.Random(seed), n, shape)
    expected = level0_violations_reference(sd)
    assert validate_strong(sd).violations == expected
    assert (expected == []) == (shape == "spanning")


def overlap_shape(host, inter):
    if len(inter) == 2:
        return "edge" if inter[1] in host.neighbors(inter[0]) else "pair"
    return {0: "empty", 1: "vertex"}.get(len(inter), "forest")


def test_generated_level2_overlaps_take_both_of_condition3s_paths(monkeypatch):
    # a generator that drifted back to overlaps settled by their shape would
    # leave the general path to the hand-built fixtures alone
    searched = Counter()
    holds = strong._condition3_holds

    def counted(sd, i, j, inter):
        searched[overlap_shape(sd.host, inter)] += 1
        return holds(sd, i, j, inter)

    monkeypatch.setattr(strong, "_condition3_holds", counted)
    rng = random.Random(33)
    shapes = Counter()
    swaps = 0
    for _ in range(30):
        sd = random_level2(rng, rng.randint(2, 4))
        assert validate_strong(sd).ok
        shapes.update(overlap_shape(sd.host, inter) for _, inter in overlaps(sd))
        swaps += len(leaf_swaps(sd))
    assert set(shapes) == {"empty", "vertex", "edge", "pair", "forest"}, shapes
    assert set(searched) == {"pair", "forest"}, searched
    assert swaps > 0


@PROPERTIES
@given(seed=seeds, num_copies=st.integers(2, 4))
def test_generated_level2_decompositions_and_swapped_children_validate_as_the_reference(
    seed, num_copies
):
    rng = random.Random(seed)
    sd = random_level2(rng, num_copies)
    assert validate_strong(sd).violations == condition3_reference(sd) == []
    for (i, j), inter, corrupt in leaf_swaps(sd):
        witness = {"path": [], "edge": [i, j], "intersection": list(inter)}
        expected = [{"kind": "sub-decomposition-not-isomorphic", "witness": witness}]
        assert validate_strong(corrupt).violations == condition3_reference(corrupt) == expected


@PROPERTIES
@given(seed=seeds, num_copies=st.integers(2, 4))
def test_a_cyclic_overlap_in_a_generated_level2_decomposition_is_not_a_forest(seed, num_copies):
    # copies of a cut 4-cycle, the last of which shares all of it
    rng = random.Random(seed)
    base = cut_square(c4(), 0, 2)
    plan = random_copy_plan(rng, base.host, num_copies)
    plan[-1] = (plan[-1][0], range(4))
    sd = glue_copies(base, plan, rng)
    report = validate_strong(sd).violations
    assert report == condition3_reference(sd)
    assert [v["kind"] for v in report] == ["intersection-not-forest"]


@DISTRIBUTIONS
@given(seed=seeds, num_copies=st.integers(2, 3), target_size=st.integers(2, 4))
def test_generated_level2_distributions_meet_the_consistency_lemmas(seed, num_copies, target_size):
    """The associated distribution of a generated level-2 decomposition is
    the reference build (whose gluing checks every overlap's agreement and
    whose atoms are checked to be homomorphisms), its support is all of
    Hom(host, g), it projects onto each minimum sub-decomposition's own law
    (which is its reference's) and a relabelled copy's law is its
    transport."""
    rng = random.Random(seed)
    sd = random_level2(rng, num_copies, base_bags=2)
    g = random_target(seed, target_size)
    dist = associated_distribution(sd, g)
    assert dist == associated_reference(sd, g)
    assert dist.support_size() == hom_count(sd.host, g)
    subsets = [inter for _, inter in overlaps(sd) if inter]
    subsets.append(rng.sample(range(sd.host.n), rng.randint(1, min(4, sd.host.n))))
    for u in subsets:
        assert minimum_subdecomposition(sd, u) == minimum_subdecomposition_reference(sd, u)
        assert projection_consistency_check(sd, g, u)["ok"], u
    perm = list(range(sd.host.n))
    rng.shuffle(perm)
    copy = relabel_strong(sd, perm, rng)
    assert isomorphism_transport_check(sd, copy, StrongIsomorphism(tuple(perm)), g)["ok"]


@PROPERTIES
@given(
    seed=seeds,
    name=st.sampled_from([None] + sorted(bundled_strong_fixtures())),
    num_bags=st.integers(1, 3),
    target_size=st.integers(2, 5),
)
def test_entropy_meets_the_papers_lower_bound_where_overlaps_are_vertices_and_edges(
    seed, name, num_bags, target_size
):
    """H(Y) >= e(H) log2(2e(G)/n^2) + v(H) log2 n, the bound that certifies
    Sidorenko's inequality log2 hom(H, G) >= rhs for the instance, wherever
    every overlap is a disjoint union of vertices and edges, for every
    target G with an edge and with no degree condition. The entropy
    identity gives H(Y) = sum_F H(Y_F) - sum_AB H(Y_{A∩B}), and the right
    side splits the same way over the bags and overlaps. Each edge marginal
    is uniform on G's ordered edges, with entropy log2 2e(G), the right side
    of K2, and a vertex's entropy is at most log2 n, the right side of K1;
    so by subadditivity and induction over the levels no overlap takes more
    than its share.

    At level 0 each of the e(T) - 1 overlaps is one vertex, whose law is
    the degree law pi(v) = deg(v) / 2e(G). The gap is then exactly
    (e(T) - 1) * KL(pi || uniform), with KL(pi || uniform) =
    log2 n - H(pi)."""
    rng = random.Random(seed)
    sd = bundled_strong_fixtures()[name] if name else random_level1(rng, num_bags, 3)
    assume(overlaps_are_vertices_and_edges(sd))
    g = random_target(seed, target_size)
    report = bound_report(sd.host, g, associated_distribution(sd, g))
    gap = report.entropy_bits - report.rhs_bits
    assert gap >= -1e-9
    if sd.level == 0:
        two_e = 2 * g.num_edges()
        h_pi = -sum(d / two_e * math.log2(d / two_e) for d in map(g.degree, range(g.n)) if d)
        assert math.isclose(gap, (sd.host.num_edges() - 1) * (math.log2(g.n) - h_pi), abs_tol=1e-9)


def test_an_overlap_holding_a_path_is_not_vertices_and_edges():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    pieces = Graph(4, [(0, 1), (1, 2), (2, 3)])
    markov = MarkovTree(5, [(0, 1, 2, 3), (1, 2, 3, 4)], [(0, 1)])
    sd = StrongDecomposition(1, path, TreeDecomposition(path, markov), (zero_strong(pieces),) * 2)
    assert not overlaps_are_vertices_and_edges(sd)
    assert overlaps_are_vertices_and_edges(zero_strong(path))
