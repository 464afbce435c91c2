"""Property tests on seeded random Markov trees, bag distributions and
targets: the gluing kernels against their brute-force oracles, the BRW law
against a running-product reference, entropy against the formula it
replaced, and every returned distribution against a rebuild through the
validating constructor. Generated valid level-1 strong decompositions go
through the validator, the covering and sub-decomposition searches against
their references and the strong isomorphism search against a relabelled
copy."""

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from homglue.dists import SparseDistribution, entropy, glue_markov_tree, glue_pair, marginal
from homglue.graphs import Graph
from homglue.markov import MarkovTree, TreeDecomposition, minimum_covering_subfamily
from homglue.sidorenko import associated_distribution, bound_report, brw_distribution
from homglue.strong import (
    is_strong_isomorphism,
    minimum_subdecomposition,
    StrongDecomposition,
    strong_isomorphism,
    validate_strong,
    zero_strong,
)
from fixture_builders import bundled_strong_fixtures
from helpers import (
    brute_force_joint,
    brute_force_min_cover,
    brw_reference,
    consistent_bag_dists,
    entropy_reference,
    junction_factorization,
    minimum_subdecomposition_reference,
    overlaps_are_vertices_and_edges,
    random_graph,
    random_level1,
    random_markov_tree,
    random_tree,
    relabel_strong,
)

# derandomized and without an example database: the same examples on every run
PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

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
    dist = associated_distribution(sd, random_target(seed, target_size)).dist
    assert rebuilt(dist) == dist


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
    sub = minimum_subdecomposition(sd, u)
    ref = minimum_subdecomposition_reference(sd, u)
    assert (sub.decomposition, sub.embedding) == (ref.decomposition, ref.embedding)


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
    report = bound_report(associated_distribution(sd, g))
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
