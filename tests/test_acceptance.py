"""Acceptance suite: one test per criterion, each printing a PASS line with
its figure of merit. Run with `pytest tests/test_acceptance.py -s` to see the
lines; every expected value below was produced by an independent oracle
(exhaustive enumeration, direct formula evaluation, or hand arithmetic)
before being frozen here.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

from homglue.dists import (
    entropy,
    glue_markov_tree,
    glue_pair,
    marginal,
)
from homglue.graphs import (
    connected_graphs_up_to,
    hom_count,
    is_forest,
)
from homglue.markov import (
    MarkovTree,
    minimum_covering_subfamily,
    validate_markov_tree,
)
from homglue.sidorenko import (
    associated_distribution,
    degree_condition,
    forest_hom_bound_check,
    sidorenko_check,
)
from homglue.strong import strong_isomorphism
from fixture_builders import bundled_strong_fixtures, c4, c4_fixture, k3
from helpers import (
    all_graphs_reference,
    bags_containing,
    brute_force_min_cover,
    consistent_bag_dists,
    family_connected,
    helly_intersection,
    isomorphism_transport_check,
    junction_factorization,
    markov_subtrees,
    projection_consistency_check,
    random_joint,
    random_markov_tree,
    random_subtree,
)

TOL = 1e-9


def report(num, name, detail=""):
    print("ACCEPTANCE %2d %-28s PASS %s" % (num, name, detail))


def _instances(rng, count, max_bags, max_ground, max_target):
    out = []
    while len(out) < count:
        m = random_markov_tree(
            rng, rng.randint(1, max_bags), rng.randint(1, max_ground)
        )
        dists = consistent_bag_dists(rng, m, rng.randint(2, max_target), atoms=8)
        out.append((m, dists))
    return out


def test_criterion_1_entropy_identity():
    rng = random.Random(101)
    start = time.time()
    instances = _instances(rng, 50, max_bags=6, max_ground=6, max_target=4)
    worst = 0.0
    for m, dists in instances:
        joint = glue_markov_tree(m, dists)
        rhs = sum(entropy(d) for d in dists)
        for a, b in m.tree:
            shared = tuple(sorted(set(m.bags[a]) & set(m.bags[b])))
            rhs -= entropy(marginal(dists[a], shared))
        worst = max(worst, abs(entropy(joint) - rhs))
        assert abs(entropy(joint) - rhs) <= TOL
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, "entropy identity", "50 instances, worst dev %.2e, %.1fs" % (worst, elapsed))


def test_criterion_2_order_independence():
    rng = random.Random(101)  # same instance stream as criterion 1
    for m, dists in _instances(rng, 50, max_bags=6, max_ground=6, max_target=4):
        assert glue_markov_tree(m, dists) == junction_factorization(m, dists)
    report(2, "order-independence oracle", "50 instances, exact")


def test_criterion_3_kolmogorov_coupling():
    rng = random.Random(202)
    for _ in range(50):
        ground = tuple(range(rng.randint(2, 5)))
        cut = rng.randint(1, len(ground) - 1)
        overlap = rng.randint(0, min(2, cut))
        idx12 = ground[:cut]
        idx23 = ground[cut - overlap :]
        joint = random_joint(rng, ground, rng.randint(2, 3), atoms=8)
        p12 = marginal(joint, idx12)
        p23 = marginal(joint, idx23)
        q = glue_pair(p12, p23)
        shared = tuple(sorted(set(idx12) & set(idx23)))
        m = marginal(p12, shared)
        pos = {v: i for i, v in enumerate(q.index_set)}
        for key, qv in q.mass.items():
            k12 = tuple(key[pos[v]] for v in idx12)
            k23 = tuple(key[pos[v]] for v in idx23)
            ks = tuple(key[pos[v]] for v in shared)
            assert qv * m.mass[ks] == p12.mass[k12] * p23.mass[k23]
        assert marginal(q, idx12) == p12
        assert marginal(q, idx23) == p23
    report(3, "Kolmogorov coupling", "50 pairs, exact identity + marginals")


def test_criterion_4_markov_subtree_marginals():
    rng = random.Random(303)
    checked = 0
    for _ in range(12):
        m = random_markov_tree(rng, rng.randint(1, 5), rng.randint(1, 5))
        dists = consistent_bag_dists(rng, m, 3, atoms=8)
        joint = glue_markov_tree(m, dists)
        for fam in markov_subtrees(m):
            union = tuple(sorted({v for i in fam for v in m.bags[i]}))
            idx = {old: new for new, old in enumerate(fam)}
            sub_m = MarkovTree(
                m.ground_size,
                [m.bags[i] for i in fam],
                [(idx[a], idx[b]) for a, b in m.tree if a in idx and b in idx],
            )
            sub_joint = glue_markov_tree(sub_m, [dists[i] for i in fam])
            assert marginal(joint, union) == sub_joint
            checked += 1
    report(4, "Markov subtree marginals", "%d subtrees, exact" % checked)


def test_criterion_5_minimum_subfamily():
    rng = random.Random(404)
    start = time.time()
    checked = 0
    while checked < 100:
        m = random_markov_tree(rng, rng.randint(2, 8), rng.randint(2, 8))
        size = rng.randint(2, min(4, m.ground_size))
        u = rng.sample(range(m.ground_size), size)
        common = set(range(m.num_bags()))
        for v in u:
            common &= set(bags_containing(m, v))
        if common:
            continue
        minima = brute_force_min_cover(m, u)
        assert len(minima) == 1  # uniqueness
        assert minimum_covering_subfamily(m, u) == minima[0]
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(5, "minimum subfamily", "100 decompositions, %.1fs" % elapsed)


def test_criterion_6_appendix_lemmas():
    rng = random.Random(505)
    subtree_checks = 0
    for _ in range(30):
        m = random_markov_tree(rng, rng.randint(1, 8), rng.randint(1, 6))
        assert validate_markov_tree(m).ok
        for v in range(m.ground_size):
            assert family_connected(m, bags_containing(m, v))
            subtree_checks += 1
    helly_checks = 0
    while helly_checks < 100:
        k = rng.randint(2, 10)
        m = random_markov_tree(rng, k, 3)
        adj = {i: m.bag_tree.neighbors(i) for i in range(k)}
        fams = [random_subtree(rng, adj, k) for _ in range(rng.randint(2, 4))]
        witness = helly_intersection(m, fams)
        pairwise = all(a & b for a, b in combinations(fams, 2))
        if pairwise:
            assert witness == min(frozenset.intersection(*fams))
        else:
            assert witness is None
        helly_checks += 1
    report(
        6,
        "appendix lemmas",
        "%d F(v) subtrees, %d Helly families" % (subtree_checks, helly_checks),
    )


def test_criterion_7_c4_k3_figures_of_merit():
    # oracle values: Hom(C4,K3) enumerated directly below; distribution
    # masses from the coupling formula q = pX*pY/m on the diagonal {0,2}
    homs = [
        key
        for key in product(range(3), repeat=4)
        if key[0] != key[1] and key[1] != key[2] and key[2] != key[3] and key[3] != key[0]
    ]
    assert len(homs) == 18
    expected = {
        key: Fraction(1, 24) if key[0] == key[2] else Fraction(1, 12) for key in homs
    }
    assert sum(expected.values()) == 1

    dist = associated_distribution(c4_fixture(), k3())
    assert dict(dist.mass) == expected
    assert abs(entropy(dist) - 0.5 * math.log2(288)) <= TOL
    assert abs(entropy(dist) - 4.0849625007) <= 1e-9
    assert abs(math.log2(hom_count(c4(), k3())) - 4.1699250014) <= 1e-9
    rhs = 4 * math.log2(Fraction(2, 3)) + 4 * math.log2(3)
    assert abs(rhs - 4.0) <= TOL
    assert sidorenko_check(c4(), k3()) == Fraction(2, 81)
    report(7, "C4/K3 end-to-end", "18 atoms, H=4.0849625007, gap=2/81")


def test_criterion_8_commutes_sweep():
    g = k3()
    proj_checks = 0
    for name, sd in bundled_strong_fixtures().items():
        bags = sd.decomp.markov.bags
        us = set(bags)
        for b1, b2 in combinations(bags, 2):
            inter = tuple(sorted(set(b1) & set(b2)))
            if inter:
                us.add(inter)
        for u in sorted(us):
            assert projection_consistency_check(sd, g, u)["ok"], (name, u)
            proj_checks += 1
    sd = c4_fixture()
    iso = strong_isomorphism(sd.children[0], sd.children[1], {0: 0, 2: 1})
    assert iso is not None
    assert isomorphism_transport_check(sd.children[0], sd.children[1], iso, g)["ok"]
    report(8, "commutes sweep", "%d projections + transport" % proj_checks)


def _sweep_targets():
    return [g for g in connected_graphs_up_to(5) if g.num_edges() >= 1]


def test_criterion_9_sidorenko_sweep():
    start = time.time()
    targets = _sweep_targets()
    pairs = 0
    for name, sd in bundled_strong_fixtures().items():
        for g in targets:
            assert sidorenko_check(sd.host, g) >= 0, (name, g)
            pairs += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(9, "sidorenko sweep", "%d pairs >= 0, %.1fs" % (pairs, elapsed))


def test_criterion_10_forest_bound():
    start = time.time()
    forests = [f for f in all_graphs_reference(5) if is_forest(f)]
    targets = [g for g in all_graphs_reference(5) if degree_condition(g)]
    checks = 0
    for f in forests:
        for g in targets:
            assert forest_hom_bound_check(f, g)["ok"], (f, g)
            checks += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(10, "forest hom bound", "%d pairs, %.1fs" % (checks, elapsed))


def test_criterion_11_support_bound():
    pairs = 0
    for name, sd in bundled_strong_fixtures().items():
        for g in _sweep_targets():
            dist = associated_distribution(sd, g)
            bound = math.log2(hom_count(sd.host, g))
            assert entropy(dist) <= bound + TOL, (name, g)
            pairs += 1
    report(11, "support bound", "%d fixture/target pairs" % pairs)
