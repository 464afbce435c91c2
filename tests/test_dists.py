import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import homglue
from homglue import cli, dists, serialize
from homglue.dists import (
    SparseDistribution,
    check_marginal_consistency,
    entropy,
    first_difference,
    glue_markov_tree,
    glue_pair,
    marginal,
)
from homglue.graphs import Graph
from homglue.markov import MarkovTree, Refused
from homglue.sidorenko import associated_distribution
from fixture_builders import bad_markov_tree, bundled_strong_fixtures, k3
from helpers import (
    brute_force_joint,
    consistent_bag_dists,
    entropy_reference,
    glue_document,
    junction_factorization,
    markov_subtrees,
    random_joint,
    random_markov_tree,
    uniform,
)

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def ordered_edges_k3():
    return [(a, b) for a in range(3) for b in range(3) if a != b]


def uniform_edge_dist(index_set):
    return uniform(index_set, 3, ordered_edges_k3())


def test_distribution_validation():
    with pytest.raises(ValueError):
        SparseDistribution((0,), 2, {(0,): Fraction(1, 2)})  # mass 1/2
    with pytest.raises(ValueError):
        SparseDistribution((0,), 2, {(0,): Fraction(1, 2), (2,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        SparseDistribution((0,), 2, {(0, 1): Fraction(1)})  # wrong arity


def test_wrong_total_mass_is_refused_where_a_law_enters_under_optimize():
    # python -O strips asserts; the total-mass check, which runs where a law
    # enters (the constructor, which the document loader calls), must still
    # fire
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    script = (
        "from fractions import Fraction\n"
        "from homglue.dists import SparseDistribution\n"
        "from homglue.serialize import distribution_from_json\n"
        "atoms = [((x,), Fraction(1, 4)) for x in range(3)]\n"
        "doc = {'index_set': [0], 'target_size': 4,\n"
        "       'mass': [{'key': [x], 'num': '1', 'den': '4'} for x in range(3)]}\n"
        "for build in (lambda: SparseDistribution((0,), 4, atoms),\n"
        "              lambda: distribution_from_json(doc)):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "total mass is 3/4, not 1\n" * 2


def test_marginal_identity_and_product():
    p = uniform_edge_dist((0, 1))
    assert marginal(p, (0, 1)) == p

    prod = glue_pair(
        uniform((0,), 2, [(0,), (1,)]), uniform((1,), 2, [(0,), (1,)])
    )
    assert marginal(prod, (0,)) == uniform((0,), 2, [(0,), (1,)])
    with pytest.raises(ValueError):
        marginal(p, (0, 5))


def test_marginal_brw_path_on_k3():
    # BRW(path 0-1-2, K3): 12 atoms of mass 1/12; marginal onto the endpoints
    # puts 1/6 on each equal pair and 1/12 on each unequal ordered pair
    from homglue.sidorenko import brw_distribution
    from fixture_builders import path3

    p = brw_distribution(path3(), k3())
    assert set(p.mass.values()) == {Fraction(1, 12)}
    ends = marginal(p, (0, 2))
    for a in range(3):
        for b in range(3):
            expected = Fraction(1, 6) if a == b else Fraction(1, 12)
            assert ends.mass[(a, b)] == expected


def test_entropy_values():
    assert entropy(uniform((0,), 5, [(3,)])) == 0.0
    twelve = uniform((0, 1), 4, [(i, j) for i in range(4) for j in range(3)])
    assert entropy(twelve) == pytest.approx(math.log2(12), abs=1e-9)
    mixed = SparseDistribution(
        (0,),
        18,
        {(i,): Fraction(1, 24) for i in range(12)}
        | {(i,): Fraction(1, 12) for i in range(12, 18)},
    )
    assert entropy(mixed) == pytest.approx(0.5 * math.log2(288), abs=1e-9)


def test_entropy_at_most_log_support():
    rng = random.Random(2)
    from helpers import random_joint

    for _ in range(30):
        p = random_joint(rng, (0, 1, 2), 3, atoms=rng.randint(1, 8))
        assert entropy(p) <= math.log2(p.support_size()) + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_entropy_equals_the_reference_exactly_on_every_fixture_host(n):
    target = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    for name, sd in bundled_strong_fixtures().items():
        dist = associated_distribution(sd, target)
        assert entropy(dist) == entropy_reference(dist), name


def test_entropy_adds_left_to_right_on_book_k5():
    # the built-in sum compensates from Python 3.12 on and changes the last
    # bits here; entropy_reference, which the property tests use, also adds
    # left to right
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    dist = associated_distribution(bundled_strong_fixtures()["book"], k5)
    total = 0.0
    for _, q in sorted(dist.mass.items()):
        total = total + float(q) * math.log2(float(q))
    assert entropy(dist) == -total
    assert math.copysign(1.0, entropy(uniform((0,), 2, [(1,)]))) == -1.0  # -0.0


def test_glue_pair_k3_paths():
    p12 = uniform_edge_dist((0, 1))
    p23 = uniform_edge_dist((1, 2))
    q = glue_pair(p12, p23)
    assert q.index_set == (0, 1, 2)
    assert q.support_size() == 12
    assert set(q.mass.values()) == {Fraction(1, 12)}
    assert marginal(q, (0, 1)) == p12
    assert marginal(q, (1, 2)) == p23
    # exact conditional independence on every atom
    m = marginal(p12, (1,))
    for key, qv in q.mass.items():
        assert qv * m.mass[(key[1],)] == p12.mass[(key[0], key[1])] * p23.mass[
            (key[1], key[2])
        ]


def test_glue_pair_mismatch():
    p = SparseDistribution((0,), 2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    q = SparseDistribution((0,), 2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    with pytest.raises(Refused) as e:
        glue_pair(p, q)
    assert e.value.doc["witness"]["key"] == [0]


def test_glue_pair_is_the_junction_factorization_on_the_two_bag_tree():
    rng = random.Random(41)
    cases = [((0, 1), (2,)), ((0, 1, 2), (0, 1, 2))]  # empty overlap, identical sets
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [v for v in range(n) if rng.random() < 0.6]
        cases.append((tuple(a), tuple(v for v in range(n) if v not in a or rng.random() < 0.4)))
    for a, b in cases:
        ground = tuple(sorted(set(a) | set(b)))
        joint = random_joint(rng, ground, rng.randint(1, 3), atoms=rng.randint(1, 6))
        p12, p23 = marginal(joint, a), marginal(joint, b)
        m = MarkovTree(len(ground), [a, b], [(0, 1)])
        glued = glue_pair(p12, p23)
        assert glued == junction_factorization(m, [p12, p23])
        assert glued == brute_force_joint(m, [p12, p23])
        if set(a) == set(b):
            assert glued == p12


def test_glue_pair_mismatch_witness_and_target_size():
    p = uniform((0, 1), 2, [(0, 0), (1, 1)])
    q = SparseDistribution((1, 2), 2, {(0, 1): Fraction(1, 3), (1, 0): Fraction(2, 3)})
    with pytest.raises(Refused) as e:
        glue_pair(p, q)
    assert e.value.doc["witness"] == first_difference(
        marginal(p, (1,)).mass, marginal(q, (1,)).mass
    )
    assert e.value.doc["witness"] == {"key": [0], "left": "1/2", "right": "1/3"}
    assert first_difference(p.mass, dict(p.mass)) is None
    with pytest.raises(ValueError):
        glue_pair(p, uniform((1, 2), 3, [(0, 1)]))


def test_coupling_laws_that_disagree_on_their_overlap_is_refused():
    # no atom of the second law has the first's value 0 at index 1
    p12 = SparseDistribution((0, 1), 2, {(0, 0): Fraction(1)})
    p23 = SparseDistribution((1, 2), 2, {(1, 0): Fraction(1)})
    m = MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)])
    with pytest.raises(Refused) as e:
        dists.couple_markov_tree(m, [p12, p23])
    assert e.value.doc == {
        "error": "laws to couple disagree on their overlap",
        "overlap": [1],
        "key": [0],
    }


def test_coupling_disagreeing_laws_after_a_walk_out_of_vertex_order_is_refused():
    # the walk meets vertices 2 and 3, then 1, then 0; the joint's atoms on
    # (2, 3, 1) are (0, 0, 1) and (1, 1, 0), and the last law has no atom
    # with 0 at vertex 1
    m = MarkovTree(4, [(2, 3), (1, 2), (0, 1)], [(0, 1), (1, 2)])
    half = Fraction(1, 2)
    laws = [
        SparseDistribution((2, 3), 2, {(0, 0): half, (1, 1): half}),
        SparseDistribution((1, 2), 2, {(0, 1): half, (1, 0): half}),
        SparseDistribution((0, 1), 2, {(0, 1): Fraction(1)}),
    ]
    with pytest.raises(Refused) as e:
        dists.couple_markov_tree(m, laws)
    assert e.value.doc == {
        "error": "laws to couple disagree on their overlap",
        "overlap": [1],
        "key": [0],
    }


# Markov trees whose gluing walk meets the vertices out of ascending order,
# or whose steps add no vertex or share none
WALK_CASES = {
    # bag 0 holds the largest vertices: the walk meets 2, 3, 1, 0
    "chain-from-the-top": MarkovTree(4, [(2, 3), (1, 2), (0, 1)], [(0, 1), (1, 2)]),
    # the edges of a star centred on its largest vertex: 0, 3, 1, 2
    "star-on-the-top": MarkovTree(4, [(0, 3), (1, 3), (2, 3)], [(0, 1), (0, 2)]),
    # each later bag lies inside the joint glued so far
    "bag-inside-the-joint": MarkovTree(3, [(0, 1, 2), (1, 2), (0, 2)], [(0, 1), (0, 2)]),
    "one-vertex-bag": MarkovTree(3, [(1, 2), (1,), (0, 1)], [(0, 1), (1, 2)]),
    # bags sharing no vertex glue to the product: 2, 3, 0, 1
    "empty-overlap": MarkovTree(4, [(2, 3), (0, 1)], [(0, 1)]),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_coupling_at_the_walks_edge_cases_is_the_junction_factorization_in_key_order(name, seed):
    m = WALK_CASES[name]
    laws = consistent_bag_dists(random.Random(seed), m, 3, atoms=12)
    joint = dists.couple_markov_tree(m, laws)
    assert joint == junction_factorization(m, laws)
    assert list(joint.weight) == sorted(joint.weight)
    assert glue_markov_tree(m, laws) == joint


def test_glue_markov_tree_single_bag():
    m = MarkovTree(2, [(0, 1)])
    p = uniform_edge_dist((0, 1))
    assert glue_markov_tree(m, [p]) == p


def test_glue_markov_tree_two_bags_entropy_identity():
    m = MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)])
    dists = [uniform_edge_dist((0, 1)), uniform_edge_dist((1, 2))]
    joint = glue_markov_tree(m, dists)
    assert joint.support_size() == 12
    assert entropy(joint) == pytest.approx(
        math.log2(6) + math.log2(6) - math.log2(3), abs=1e-9
    )
    assert joint == junction_factorization(m, dists)


def test_glue_markov_tree_product_case():
    # three bags in a path with disjoint... overlapping singleton supports:
    # product-form inputs glue to the product distribution
    m = MarkovTree(3, [(0,), (1,), (2,)], [(0, 1), (1, 2)])
    dists = [
        uniform((i,), 2, [(0,), (1,)]) for i in range(3)
    ]
    joint = glue_markov_tree(m, dists)
    assert joint.support_size() == 8
    assert set(joint.mass.values()) == {Fraction(1, 8)}
    assert entropy(joint) == pytest.approx(3.0, abs=1e-9)


def test_check_marginal_consistency():
    m = MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)])
    good = [uniform_edge_dist((0, 1)), uniform_edge_dist((1, 2))]
    assert check_marginal_consistency(m, good) is None

    skew = SparseDistribution(
        (1, 2),
        3,
        {(a, b): (Fraction(1, 4) if (a, b) == (0, 1) else Fraction(3, 20))
         for (a, b) in ordered_edges_k3()},
    )
    with pytest.raises(Refused, match=r"^marginal mismatch on tree edge \[0, 1\]$") as e:
        check_marginal_consistency(m, [good[0], skew])
    # vertex 1 is 0 with mass 1/3 in the uniform law, 1/4 + 3/20 in skew
    assert e.value.doc == {
        "error": "marginal mismatch on tree edge [0, 1]",
        "edge": [0, 1],
        "witness": {"key": [0], "left": "1/3", "right": "2/5"},
    }

    disjoint = MarkovTree(2, [(0,), (1,)], [(0, 1)])
    halves = [uniform((0,), 2, [(0,), (1,)]), uniform((1,), 2, [(0,), (1,)])]
    # an empty intersection is trivially consistent
    assert check_marginal_consistency(disjoint, halves) is None


def test_glue_reports_failing_edge():
    m = MarkovTree(2, [(0, 1), (0,)], [(0, 1)])
    p = uniform((0, 1), 2, [(0, 0), (1, 1)])
    q = SparseDistribution((0,), 2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    with pytest.raises(Refused) as e:
        glue_markov_tree(m, [p, q])
    assert e.value.doc["edge"] == [0, 1]


def test_glue_reports_the_first_of_two_failing_edges_in_tree_order(monkeypatch):
    # bag 1's law on {1, 2} is skewed, so it disagrees with both neighbours
    m = MarkovTree(4, [(0, 1), (1, 2), (2, 3)], [(1, 2), (0, 1)])
    laws = [
        uniform((0, 1), 2, [(0, 0), (1, 1)]),
        SparseDistribution((1, 2), 2, {(0, 0): Fraction(1, 3), (1, 1): Fraction(2, 3)}),
        uniform((2, 3), 2, [(0, 0), (1, 1)]),
    ]
    doc = {
        "error": "marginal mismatch on tree edge [0, 1]",
        "edge": [0, 1],
        "witness": {"key": [0], "left": "1/2", "right": "1/3"},
    }
    # the check stops at the first disagreeing edge: its two marginals are
    # the only ones taken
    calls = []
    monkeypatch.setattr(dists, "marginal", lambda p, s: calls.append(s) or marginal(p, s))
    with pytest.raises(Refused) as e:
        check_marginal_consistency(m, laws)
    assert e.value.doc == doc
    assert calls == [(1,), (1,)]
    with pytest.raises(Refused) as e:
        glue_markov_tree(m, laws)
    assert e.value.doc == doc


def test_disagreement_is_reported_before_a_running_intersection_failure():
    # bag 2 meets the glued bags outside its parent, and its law on {2}
    # disagrees with bag 1's: agreement is checked on every edge first
    m = bad_markov_tree()
    dists = [
        uniform((0, 1), 2, [(0, 0), (1, 1)]),
        SparseDistribution((2,), 2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}),
        uniform((0, 2), 2, [(0, 0), (1, 1)]),
    ]
    with pytest.raises(Refused) as e:
        glue_markov_tree(m, dists)
    assert e.value.doc["edge"] == [1, 2]


def test_every_glue_checks_agreement_through_check_marginal_consistency(
    monkeypatch, tmp_path, capsys
):
    # the benchmark's tracer wraps dists.check_marginal_consistency by name,
    # so the glue command's gluing and glue_pair must call it through the
    # module global, once per glue; _build couples a validated
    # decomposition's bag laws without it
    checks = []
    check = dists.check_marginal_consistency

    def counted_check(m, bag_dists):
        checks.append(m.num_bags())
        return check(m, bag_dists)

    monkeypatch.setattr(dists, "check_marginal_consistency", counted_check)
    m = MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)])
    doc = tmp_path / "glue.json"
    laws = [uniform_edge_dist((0, 1)), uniform_edge_dist((1, 2))]
    doc.write_text(json.dumps(glue_document(m, laws)))
    assert cli.main(["glue", str(doc)]) == 0
    capsys.readouterr()
    assert checks == [2]
    glue_pair(uniform((0,), 2, [(0,), (1,)]), uniform((1,), 2, [(0,), (1,)]))
    assert checks == [2, 2]

    with open(os.path.join(FIXDIR, "book.json")) as f:
        book = serialize.strong_from_json(json.load(f))
    associated_distribution(book, k3())
    assert checks == [2, 2]


def test_randomized_glue_properties():
    rng = random.Random(17)
    for _ in range(40):
        m = random_markov_tree(rng, rng.randint(1, 5), rng.randint(1, 5))
        dists = consistent_bag_dists(rng, m, rng.randint(2, 3))
        joint = glue_markov_tree(m, dists)
        # bag marginal reproduction, exact
        for i, bag in enumerate(m.bags):
            assert marginal(joint, bag) == dists[i]
        # closed-form agreement, atom for atom
        assert joint == junction_factorization(m, dists)
        assert joint == brute_force_joint(m, dists)
        # entropy identity
        lhs = entropy(joint)
        rhs = sum(entropy(d) for d in dists)
        for a, b in m.tree:
            shared = tuple(sorted(set(m.bags[a]) & set(m.bags[b])))
            rhs -= entropy(marginal(dists[a], shared))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_markov_subtree_marginals_preserved():
    rng = random.Random(29)
    for _ in range(10):
        m = random_markov_tree(rng, rng.randint(2, 5), rng.randint(2, 4))
        dists = consistent_bag_dists(rng, m, 2)
        joint = glue_markov_tree(m, dists)
        for fam in markov_subtrees(m):
            union = tuple(sorted({v for i in fam for v in m.bags[i]}))
            sub_m = _restrict(m, fam)
            sub_joint = glue_markov_tree(sub_m, [dists[i] for i in fam])
            assert marginal(joint, union) == sub_joint


def _restrict(m, fam):
    idx = {old: new for new, old in enumerate(fam)}
    return MarkovTree(
        m.ground_size,
        [m.bags[i] for i in fam],
        [(idx[a], idx[b]) for a, b in m.tree if a in idx and b in idx],
    )
