import gc
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

import homglue
from homglue import sidorenko
from homglue.dists import SparseDistribution, entropy, glue_markov_tree, marginal
from homglue.graphs import Graph, hom_count, is_homomorphism, isomorphisms_pinned
from homglue.sidorenko import (
    associated_distribution,
    brw_distribution,
    degree_condition,
    entropy_bound_report,
    forest_hom_bound_check,
    sidorenko_check,
)
from homglue.markov import (
    MarkovTree,
    Refused,
    TreeDecomposition,
    ValidationFailed,
    line_graph,
    validate_markov_tree,
)
from homglue.strong import StrongDecomposition, strong_isomorphism, validate_strong, zero_strong
from fixture_builders import (
    book,
    book_fixture,
    bundled_strong_fixtures,
    c4,
    c4_fixture,
    k2,
    k3,
    path3,
    star,
)

from helpers import (
    associated_reference,
    brw_reference,
    isomorphism_transport_check,
    projection_consistency_check,
    random_graph,
    small_trees,
    spanning_trees,
    uniform,
)


def test_brw_k2_on_k3_is_uniform_ordered_edges():
    p = brw_distribution(k2(), k3())
    assert p == uniform((0, 1), 3, [(a, b) for a in range(3) for b in range(3) if a != b])


def test_brw_path_on_k3():
    p = brw_distribution(path3(), k3())
    assert p.support_size() == 12
    assert set(p.mass.values()) == {Fraction(1, 12)}
    assert all(is_homomorphism(path3(), k3(), key) for key in p.mass)


def test_brw_path_on_path_matches_oracle():
    # independent oracle: enumerate all 27 maps, keep homomorphisms, apply
    # the walk formula starting from the root edge (0,1)
    g = path3()  # target a-b-c with b the middle vertex
    expected = {}
    for key in product(range(3), repeat=3):
        if not (g.has_edge(key[0], key[1]) and g.has_edge(key[1], key[2])):
            continue
        prob = Fraction(1, 4) * Fraction(1, g.degree(key[1]))
        expected[key] = prob
    p = brw_distribution(path3(), g)
    assert dict(p.mass) == expected
    # the walks through the middle vertex split over two neighbors
    assert expected[(0, 1, 0)] == Fraction(1, 8)
    assert expected[(1, 0, 1)] == Fraction(1, 4)


def test_brw_edge_marginals_uniform():
    # what makes the gluing hypothesis hold at level 0
    targets = [k3(), c4(), path3(), star(3)]
    trees = [k2(), path3(), star(3), Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])]
    for t in trees:
        for g in targets:
            p = brw_distribution(t, g)
            expect = uniform(
                (0, 1),
                g.n,
                [(a, b) for a, b in g.edges] + [(b, a) for a, b in g.edges],
            )
            for u, v in t.edges:
                m = marginal(p, (u, v))
                assert dict(m.mass) == dict(expect.mass)


def test_brw_is_gluing_along_every_spanning_tree_of_the_line_graph():
    # the level-0 statement: BRW is the gluing of uniform ordered-edge laws
    # on t's edges along any valid bag tree over them, which is what level 0
    # of associated_distribution glues along the decomposition's own tree
    targets = [k3(), Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])]
    checked = 0
    for t in small_trees(6):
        walks = [brw_reference(t, g) for g in targets]
        for st in spanning_trees(line_graph(t)):
            m = MarkovTree(t.n, t.edges, st)
            if not validate_markov_tree(m).ok:
                continue
            sd = StrongDecomposition(0, t, TreeDecomposition(t, m))
            for g, walk in zip(targets, walks):
                ordered = [(a, b) for a, b in g.edges] + [(b, a) for a, b in g.edges]
                laws = [uniform(bag, g.n, ordered) for bag in m.bags]
                assert glue_markov_tree(m, laws) == walk
                assert associated_distribution(sd, g).dist == walk
            checked += 1
    assert checked == 183


def test_brw_rejects_bad_input():
    with pytest.raises(ValueError):
        brw_distribution(c4(), k3())
    with pytest.raises(ValueError):
        brw_distribution(k2(), Graph(3))


def test_associated_distribution_level0_is_brw():
    from fixture_builders import path_fixture

    ad = associated_distribution(path_fixture(), k3())
    assert ad.dist == brw_reference(path3(), k3())


def test_associated_c4_on_k3():
    ad = associated_distribution(c4_fixture(), k3())
    assert ad.dist.support_size() == 18
    # atoms with equal images on the shared diagonal {0,2} get 1/24; when the
    # diagonal images differ (forcing k1 == k3 in K3) the atom gets 1/12
    closed = [k for k in ad.dist.mass if k[0] == k[2]]
    assert len(closed) == 12
    for key, p in ad.dist.mass.items():
        assert p == (Fraction(1, 24) if key in closed else Fraction(1, 12))
    assert entropy(ad.dist) == pytest.approx(0.5 * math.log2(288), abs=1e-9)


def test_associated_book_on_k3():
    ad = associated_distribution(book_fixture(), k3())
    assert ad.dist.support_size() == hom_count(book(), k3())
    assert entropy(ad.dist) <= math.log2(ad.dist.support_size()) + 1e-9


def test_associated_support_is_homomorphisms():
    for name, sd in bundled_strong_fixtures().items():
        for g in (k3(), c4()):
            ad = associated_distribution(sd, g)
            for key in ad.dist.mass:
                assert is_homomorphism(sd.host, g, key), (name, key)


def _reference_targets():
    """K3, C4, K5 and seeded G(n, 1/2) targets meeting the degree
    condition, each with at least one edge."""
    targets = [k3(), c4(), Graph(5, combinations(range(5), 2))]
    rng = random.Random(12)
    while len(targets) < 9:
        g = random_graph(rng, rng.randint(4, 8), 0.5)
        if g.num_edges() and degree_condition(g):
            targets.append(g)
    return targets


def test_associated_matches_reference_and_counts_homs():
    # the reference rebuilds every child and checks every joint atom; the
    # library builds each distinct child once and checks supports on the bags
    for name, sd in bundled_strong_fixtures().items():
        for g in _reference_targets():
            dist = associated_distribution(sd, g).dist
            assert dist == associated_reference(sd, g), (name, g)
            # BRW has full support and gluing joins supports
            assert dist.support_size() == hom_count(sd.host, g), (name, g)


def test_each_distinct_child_is_built_once(monkeypatch):
    calls = []
    build = sidorenko._build

    def counted(sd, g, built):
        if sd.level == 0:
            calls.append(sd)
        return build(sd, g, built)

    monkeypatch.setattr(sidorenko, "_build", counted)
    # book's two level-1 children are equal, c4's two level-0 children differ
    for sd in (book_fixture(), c4_fixture()):
        calls.clear()
        assert associated_distribution(sd, k3()).dist == associated_reference(sd, k3())
        assert len(calls) == 2


def test_non_homomorphic_child_atom_raises_before_gluing(monkeypatch):
    build = sidorenko._build

    def with_bad_atom(sd, g, built):
        if sd.level:
            return build(sd, g, built)
        # move the first atom's mass to a copy sending t's first edge to a loop
        t = sd.host
        p = brw_reference(t, g)
        mass = dict(p.mass)
        key = next(iter(mass))
        q = mass.pop(key)
        a, b = t.edges[0]
        bad = key[:b] + (key[a],) + key[b + 1 :]
        mass[bad] = mass.get(bad, 0) + q
        return SparseDistribution(p.index_set, p.target_size, mass)

    def no_gluing(m, bag_dists):
        raise AssertionError("glued a law with a non-homomorphism atom")

    monkeypatch.setattr(sidorenko, "_build", with_bad_atom)
    monkeypatch.setattr(sidorenko, "glue_markov_tree", no_gluing)
    for sd in (c4_fixture(), book_fixture()):
        with pytest.raises(Refused, match="is not a homomorphism"):
            associated_distribution(sd, k3())


def _assert_refused(sd, kind):
    """associated_distribution refuses sd with validate_strong's report, whose
    one violation is of kind."""
    with pytest.raises(ValidationFailed) as e:
        associated_distribution(sd, k3())
    assert e.value.report == validate_strong(sd)
    assert [v["kind"] for v in e.value.report.violations] == [kind]


def test_child_host_missing_a_bag_edge_raises_invariant_violation():
    # book's second square child is replaced by a consistent decomposition
    # of the square less its edge (2, 3), which bag (0, 1, 4, 5) sends to
    # host edge (4, 5) and no other bag holds; validation refuses it
    sd = book_fixture()
    missing = Graph(4, [(0, 1), (0, 2), (1, 3)])
    markov = MarkovTree(4, [(0, 1, 2), (0, 1, 3)], [(0, 1)])
    child = StrongDecomposition(
        1,
        missing,
        decomp=TreeDecomposition(missing, markov),
        children=(
            zero_strong(Graph(3, [(0, 1), (0, 2)])),  # H[{0,1,2}]: path 1-0-2
            zero_strong(Graph(3, [(0, 1), (1, 2)])),  # H[{0,1,3}]: path 0-1-3
        ),
    )
    broken = StrongDecomposition(2, sd.host, decomp=sd.decomp, children=(sd.children[0], child))
    _assert_refused(broken, "child-host-mismatch")


def test_child_host_edge_outside_the_host_raises_invariant_violation():
    # the matching {0-1, 2-3} in one bag whose child is the path 0-1-2-3
    # would glue 24 atoms on K3, not its 36 homomorphisms
    host = Graph(4, [(0, 1), (2, 3)])
    markov = MarkovTree(4, [(0, 1, 2, 3)])
    broken = StrongDecomposition(
        1,
        host,
        decomp=TreeDecomposition(host, markov),
        children=(zero_strong(Graph(4, [(0, 1), (1, 2), (2, 3)])),),
    )
    _assert_refused(broken, "child-host-mismatch")


def test_level0_bag_off_the_host_edges_raises_invariant_violation():
    # path 0-1-2 with bags (0, 1) and (0, 2): the level-0 bags would be the
    # placed edges, so host edge (1, 2) would lie in no bag
    host = path3()
    markov = MarkovTree(3, [(0, 1), (0, 2)], [(0, 1)])
    broken = StrongDecomposition(0, host, TreeDecomposition(host, markov))
    _assert_refused(broken, "base-bags-not-host-edges")


def test_host_vertex_in_no_bag_raises_invariant_violation():
    # c4's decomposition under a host with an isolated vertex 4
    sd = c4_fixture()
    host = Graph(5, sd.host.edges)
    markov = MarkovTree(5, sd.decomp.markov.bags, sd.decomp.markov.tree)
    broken = StrongDecomposition(
        1, host, decomp=TreeDecomposition(host, markov), children=sd.children
    )
    _assert_refused(broken, "uncovered-element")


def _glued_nodes(sd):
    """Every level >= 1 node of a strong decomposition, root first."""
    if sd.level > 0:
        yield sd
        for child in sd.children:
            yield from _glued_nodes(child)


def test_entropy_identity_at_each_gluing_step():
    g = k3()
    for sd in (c4_fixture(), book_fixture()):
        nodes = list(_glued_nodes(sd))
        assert nodes, "no gluing steps"
        for node in nodes:
            m = node.decomp.markov
            bag_dists = [
                SparseDistribution(bag, g.n, associated_distribution(child, g).dist.mass)
                for bag, child in zip(m.bags, node.children)
            ]
            lhs = entropy(associated_distribution(node, g).dist)
            rhs = sum(entropy(d) for d in bag_dists)
            for a, b in m.tree:
                shared = tuple(sorted(set(m.bags[a]) & set(m.bags[b])))
                rhs -= entropy(marginal(bag_dists[a], shared))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_non_homomorphic_atom_raises_invariant_violation(monkeypatch):
    monkeypatch.setattr(sidorenko, "is_homomorphism", lambda h, g, key: False)
    with pytest.raises(Refused):
        associated_distribution(c4_fixture(), k3())


def test_non_homomorphic_atom_raises_under_optimize():
    # the check must not be an assert, which python -O strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    script = (
        "import homglue.sidorenko as s\n"
        "from fixture_builders import c4_fixture, k3\n"
        "s.is_homomorphism = lambda h, g, key: False\n"
        "try:\n"
        "    s.associated_distribution(c4_fixture(), k3())\n"
        "except s.Refused:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])},
    )
    assert proc.returncode == 0, proc.stderr


def test_searches_leave_no_reference_cycle():
    # a nested function that calls itself holds its own closure cell: a cycle
    # that outlives the call until the cyclic collector runs
    calls = {
        "hom_count": lambda: hom_count(c4(), k3()),
        "isomorphisms_pinned": lambda: list(isomorphisms_pinned(c4(), c4())),
        "dropped generator": lambda: next(isomorphisms_pinned(c4(), c4())),
        "brw_distribution": lambda: brw_distribution(path3(), k3()),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()


def test_child_smaller_than_its_bag_raises_wrong_arity():
    # the children's laws are keyed positionally on their bags, which a
    # child host with fewer vertices than its bag cannot be
    sd = c4_fixture()
    children = (zero_strong(k2()),) + sd.children[1:]
    broken = StrongDecomposition(1, sd.host, decomp=sd.decomp, children=children)
    _assert_refused(broken, "child-host-mismatch")


def test_entropy_above_support_bound_raises_invariant_violation(monkeypatch):
    # hom(C4, K3) = 18 atoms; an entropy one bit above log2(18) breaks the bound
    monkeypatch.setattr(sidorenko, "entropy", lambda p: math.log2(18) + 1)
    with pytest.raises(Refused, match="^entropy exceeds the support bound$"):
        entropy_bound_report(c4_fixture(), k3())


def test_bound_report_runs_no_hom_search(monkeypatch):
    expected = entropy_bound_report(c4_fixture(), k3())

    def refuse(h, g):
        raise AssertionError("hom_count called")

    monkeypatch.setattr(sidorenko, "hom_count", refuse)
    assert entropy_bound_report(c4_fixture(), k3()) == expected


def test_projection_consistency_bag_and_full():
    sd = c4_fixture()
    g = k3()
    assert projection_consistency_check(sd, g, (0, 1, 2))["ok"]
    assert projection_consistency_check(sd, g, (0, 1, 2, 3))["ok"]


def test_projection_consistency_book_shared_edge():
    result = projection_consistency_check(book_fixture(), k3(), (0, 1))
    assert result["ok"]
    assert result["embedding"] == [0, 1]


def test_projection_consistency_sweep():
    for name, sd in bundled_strong_fixtures().items():
        bags = sd.decomp.markov.bags
        us = {bag for bag in bags}
        for b1, b2 in combinations(bags, 2):
            inter = tuple(sorted(set(b1) & set(b2)))
            if inter:
                us.add(inter)
        for u in sorted(us):
            assert projection_consistency_check(sd, k3(), u)["ok"], (name, u)


def test_isomorphism_transport():
    sd = c4_fixture()
    g = k3()
    ident = strong_isomorphism(sd, sd)
    assert isomorphism_transport_check(sd, sd, ident, g)["ok"]
    iso = strong_isomorphism(sd.children[0], sd.children[1], {0: 0, 2: 1})
    assert iso is not None
    assert isomorphism_transport_check(sd.children[0], sd.children[1], iso, g)["ok"]


def test_degree_condition():
    assert degree_condition(k3())
    assert not degree_condition(star(5))
    assert degree_condition(Graph(4))
    assert degree_condition(Graph(0))


def test_forest_hom_bound_examples():
    r = forest_hom_bound_check(path3(), k3())
    assert r == {"ok": True, "lhs": 12, "rhs": 48}
    r = forest_hom_bound_check(k2(), k3())
    assert r == {"ok": True, "lhs": 6, "rhs": 12}
    r = forest_hom_bound_check(Graph(1), k3())
    assert r == {"ok": True, "lhs": 3, "rhs": 3}
    with pytest.raises(ValueError):
        forest_hom_bound_check(c4(), k3())
    with pytest.raises(ValueError):
        forest_hom_bound_check(k2(), star(5))


def test_entropy_bound_report_c4_k3():
    rep = entropy_bound_report(c4_fixture(), k3())
    assert rep.entropy_bits == pytest.approx(0.5 * math.log2(288), abs=1e-9)
    assert rep.rhs_bits == pytest.approx(4.0, abs=1e-9)
    assert rep.log_hom_bits == pytest.approx(math.log2(18), abs=1e-9)
    assert rep.degree_ok
    assert rep.sidorenko_gap == Fraction(2, 81)


def test_entropy_bound_report_edge_equalities():
    from fixture_builders import edge_fixture

    rep = entropy_bound_report(edge_fixture(), k3())
    assert rep.entropy_bits == pytest.approx(math.log2(6), abs=1e-9)
    assert rep.rhs_bits == pytest.approx(math.log2(6), abs=1e-9)
    assert rep.log_hom_bits == pytest.approx(math.log2(6), abs=1e-9)
    assert rep.sidorenko_gap == 0


def test_empty_target_is_refused():
    # the densities divide by powers of v(g): refused, not ZeroDivisionError
    with pytest.raises(ValueError, match="^target has no vertices$"):
        sidorenko_check(k2(), Graph(0))
    with pytest.raises(ValueError, match="^target has no vertices$"):
        forest_hom_bound_check(k2(), Graph(0))


def test_sidorenko_check_examples():
    assert sidorenko_check(c4(), k3()) == Fraction(2, 81)
    assert sidorenko_check(path3(), k2()) == 0
    for g in (k2(), k3(), c4()):
        assert sidorenko_check(k2(), g) == 0
