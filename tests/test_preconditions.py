"""The program meets every precondition its routines trust.

couple_markov_tree, minimum_covering_subfamily, retraction, isomorphisms,
connected_graphs_up_to, marginal, strong_isomorphism,
minimum_subdecomposition, induced_subgraph and induced_edges check nothing
that their callers establish: a valid Markov tree with bag laws that fit it
and agree on every tree edge, a kept family that induces a subtree, pins
inside both graphs, a sweep within the committed table, a marginal onto a
subset of the index set, valid decompositions, a nonempty set of host
vertices, vertices of the graph and, for induced_edges, a sorted tuple of
distinct ones. The checks at the CLI's entry points
(validate_markov_tree, check_bag_dists and check_marginal_consistency for
glue, validate_strong for the rest, min-subdec's --u check) and the sweep's
own --max-n refusal are what make those hold. Where sidorenko._build
couples a decomposition's bag laws, their agreement rests on the paper's
consistency lemma alone: a condition-3 verdict that passed an invalid
decomposition would show here as a call outside its precondition.

Each routine is wrapped wherever the package calls it
(helpers.record_preconditions). Every subcommand then runs over the
fixtures, level-2 and level-3 decompositions (among them condition 3's
worst cases, families A and B), a level-1 decomposition whose adjacent bags
are disjoint, random valid level-1 decompositions, random level-2
decompositions (helpers.random_level2, whose overlaps reach condition 3's
search) with each leaf child swapped for a rival that condition 3 refuses,
random glue instances and a few invalid inputs, among them empty, negative
and out-of-range --u values that min-subdec must refuse with exit 2, and
every call must have met its precondition. Every routine must have been
called, so that a change in the traffic cannot leave a wrapper with nothing
to check.
"""

import json
import random
from itertools import combinations

from homglue import cli, serialize
from homglue.graphs import CONNECTED_CLASSES, Graph
from homglue.markov import MarkovTree, TreeDecomposition
from homglue.strong import StrongDecomposition

from fixture_builders import (
    bad_condition3_fixture,
    bad_markov_tree,
    bundled_strong_fixtures,
    c4,
    family_a,
    family_b,
    hexagon_level2,
    k2,
    k3,
    matching_level1,
    mixed_levels_condition3,
)
from helpers import (
    PRECONDITIONS,
    consistent_bag_dists,
    cut_square,
    glue_copies,
    glue_document,
    leaf_swaps,
    overlaps,
    random_graph,
    random_level1,
    random_level2,
    random_markov_tree,
    record_preconditions,
)


def unjoined(sd):
    """sd with the edges of its top bag tree dropped, which validate_strong
    refuses."""
    m = sd.decomp.markov
    td = TreeDecomposition(sd.host, MarkovTree(m.ground_size, m.bags))
    return StrongDecomposition(sd.level, sd.host, td, sd.children)


def _write(directory, name, doc):
    path = directory / (name + ".json")
    path.write_text(json.dumps(doc))
    return str(path)


# the exit codes of a run that computes an answer or refuses its input
ANSWERED = (0, 1)


def _strong_commands(path, targets, subsets, n):
    yield ["validate", path], ANSWERED
    for target in targets:
        yield ["assoc", path, target], ANSWERED
        yield ["entropy-report", path, target], ANSWERED
    for u in subsets:
        yield ["min-subdec", path, "--u", ",".join(map(str, u))], ANSWERED
    # none, a negative vertex, one past the last, one in range beside one out
    for u in ("", ",", "-1", str(n), "0,%d" % n):
        yield ["min-subdec", path, "--u", u], (2,)
    yield ["sidorenko-sweep", path, "--max-n", "3"], ANSWERED


def _commands(directory):
    """The argv of every run, with the exit codes it may give: each
    subcommand over the fixtures and random valid inputs, written under
    directory."""
    rng = random.Random(2024)
    targets = [
        _write(directory, name, serialize.graph_to_json(g))
        for name, g in (("k2", k2()), ("k3", k3()), ("edgeless3", Graph(3)))
    ]
    targets.append(_write(directory, "gnp", serialize.graph_to_json(random_graph(rng, 4, 0.6))))

    strongs = dict(bundled_strong_fixtures())
    strongs["bad_condition3"] = bad_condition3_fixture()
    strongs["mixed_levels"] = mixed_levels_condition3()
    strongs["hexagon"] = hexagon_level2()
    # adjacent bags that share no vertex: condition 3 has nothing to pin
    strongs["matching"] = matching_level1()
    strongs["c4-unjoined"] = unjoined(strongs["c4"])
    strongs["hexagon-unjoined"] = unjoined(strongs["hexagon"])
    for draw in range(8):
        strongs["level1-%d" % draw] = random_level1(rng, rng.randint(1, 4), 4)
    for name, sd in strongs.items():
        path = _write(directory, name, serialize.strong_to_json(sd))
        vertices = range(sd.host.n)
        pairs = list(combinations(vertices, 2))
        subsets = [(v,) for v in vertices] + rng.sample(pairs, min(8, len(pairs)))
        subsets += [tuple(vertices)]
        yield from _strong_commands(path, targets, subsets, sd.host.n)
    # level-2 draws, some of whose overlaps reach condition 3's search, and
    # the corruptions that swap a leaf child for a rival, on the two smallest
    # targets; a 4-cycle's copies sharing a path, whose rival swapped in
    # carries a law that disagrees there
    level2 = [random_level2(rng, rng.randint(2, 3), base_bags=2) for _ in range(4)]
    level2.append(glue_copies(cut_square(c4(), 0, 2), [(0, (0, 1, 2))], rng))
    for draw, sd in enumerate(level2):
        for k, doc in enumerate([sd] + [corrupt for _, _, corrupt in leaf_swaps(sd)]):
            path = _write(directory, "level2-%d-%d" % (draw, k), serialize.strong_to_json(doc))
            subsets = [inter for _, inter in overlaps(doc) if inter] + [tuple(range(doc.host.n))]
            yield from _strong_commands(path, targets[:2], subsets, doc.host.n)
    # condition 3's worst cases fail validation, which every subcommand runs
    # first, so one run of each will do
    for name, build in (("family-a", family_a), ("family-b", family_b)):
        sd = build(5, (2, 1, 1), (1, 1, 2))
        path = _write(directory, name, serialize.strong_to_json(sd))
        yield from _strong_commands(path, targets[:1], [tuple(range(sd.host.n))], sd.host.n)
    edge = str(directory / "edge.json")
    yield ["sidorenko-sweep", edge, "--max-n", "6"], ANSWERED
    yield ["sidorenko-sweep", edge, "--max-n", str(max(CONNECTED_CLASSES) + 1)], ANSWERED

    instances = [
        (m, consistent_bag_dists(rng, m, rng.randint(2, 3)))
        for m in (random_markov_tree(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(12))
    ]
    bad = bad_markov_tree()
    instances.append((bad, consistent_bag_dists(rng, bad, 2)))
    no_edges = MarkovTree(3, [(0, 1), (1, 2)])
    instances.append((no_edges, consistent_bag_dists(rng, no_edges, 2)))
    # laws from two joints, which need not agree on the overlap
    two = MarkovTree(3, [(0, 1), (1, 2)], [(0, 1)])
    instances.append((two, [consistent_bag_dists(rng, two, 2)[i] for i in (0, 1)]))
    for i, (m, bag_dists) in enumerate(instances):
        path = _write(directory, "glue-%d" % i, glue_document(m, bag_dists))
        yield ["glue", path], ANSWERED
        yield ["validate", _write(directory, "markov-%d" % i, serialize.markov_to_json(m))], ANSWERED


def test_every_call_meets_the_precondition_its_routine_trusts(monkeypatch, tmp_path, capsys):
    traffic = record_preconditions(monkeypatch)
    codes = set()
    for argv, allowed in _commands(tmp_path):
        code = cli.main(argv)
        capsys.readouterr()
        assert code in allowed, argv
        codes.add(code)
    assert codes == {0, 1, 2}
    for key, held in traffic.items():
        assert all(held), "%s.%s was called outside its precondition" % key
    called = {(module.__name__, name) for module, name in PRECONDITIONS}
    assert set(traffic) == called, called - set(traffic)
