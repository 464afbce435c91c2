import json
import random
from fractions import Fraction

import pytest

from homglue import serialize
from homglue.dists import SparseDistribution
from homglue.graphs import Graph
from homglue.markov import MarkovTree, TreeDecomposition
from homglue.fixtures import bundled_strong_fixtures, c4, load_fixture_bundle, write_fixture_dir
from helpers import random_joint


def test_graph_round_trip():
    g = c4()
    doc = serialize.graph_to_json(g)
    assert doc == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}
    assert serialize.graph_from_json(json.loads(json.dumps(doc))) == g


def test_markov_round_trip():
    m = MarkovTree(4, [(0, 1, 2), (0, 2, 3)], [(0, 1)])
    assert serialize.markov_from_json(serialize.markov_to_json(m)) == m


def test_tree_decomposition_round_trip():
    d = TreeDecomposition(c4(), MarkovTree(4, [(0, 1, 2), (0, 2, 3)], [(0, 1)]))
    assert serialize.tree_decomposition_from_json(
        serialize.tree_decomposition_to_json(d)
    ) == d


def test_strong_round_trip():
    for name, sd in bundled_strong_fixtures().items():
        doc = json.loads(json.dumps(serialize.strong_to_json(sd)))
        assert serialize.strong_from_json(doc) == sd, name


def test_distribution_round_trip():
    p = SparseDistribution(
        (0, 2),
        3,
        {(0, 1): Fraction(1, 3), (1, 2): Fraction(1, 3), (2, 0): Fraction(1, 3)},
    )
    doc = serialize.distribution_to_json(p)
    assert [e["key"] for e in doc["mass"]] == [[0, 1], [1, 2], [2, 0]]
    assert all(e["den"] == "3" for e in doc["mass"])
    assert serialize.distribution_from_json(json.loads(json.dumps(doc))) == p


def json_route(p):
    return json.dumps(serialize.distribution_to_json(p), indent=1, sort_keys=True)


def test_distribution_text_matches_the_json_route_byte_for_byte():
    big = 2**64
    cases = [
        SparseDistribution((), 0, {(): Fraction(1)}),  # empty index set, key ()
        SparseDistribution((), 3, {(): Fraction(1)}),
        SparseDistribution((4,), 5, {(2,): Fraction(1)}),  # a single atom
        SparseDistribution(
            (0, 3),
            2,
            {(0, 1): Fraction(big + 1, 3 * big + 7), (1, 1): Fraction(2 * big + 6, 3 * big + 7)},
        ),
        SparseDistribution(
            (1,), 2, {(0,): Fraction(1, big * big + 1), (1,): Fraction(big * big, big * big + 1)}
        ),
    ]
    rng = random.Random(41)
    for _ in range(40):
        ground = tuple(sorted(rng.sample(range(8), rng.randint(1, 5))))
        cases.append(random_joint(rng, ground, rng.randint(1, 4), atoms=rng.randint(1, 20)))
    for p in cases:
        assert serialize.distribution_to_text(p) == json_route(p)


@pytest.mark.parametrize(
    "keys, target_size",
    [([[True, 1], [0, 0]], 2), ([[True, 0.5], [0, 2]], 2.5)],
    ids=["bools", "floats"],
)
def test_distribution_text_spells_non_integer_values_as_json(keys, target_size):
    # the loader accepts any value in range, so bools and floats can reach the writer
    p = serialize.distribution_from_json(
        {
            "index_set": [0, 1],
            "target_size": target_size,
            "mass": [{"key": k, "num": "1", "den": "2"} for k in keys],
        }
    )
    assert serialize.distribution_to_text(p) == json_route(p)


@pytest.mark.parametrize("n", [True, False, -1, 2.0, "3", serialize.MAX_GRAPH_VERTICES + 1, 10**8])
def test_graph_from_json_rejects_a_bad_vertex_count(n):
    with pytest.raises(ValueError, match="n must be an integer from 0 to"):
        serialize.graph_from_json({"n": n, "edges": []})


def test_graph_from_json_accepts_the_largest_vertex_count():
    n = serialize.MAX_GRAPH_VERTICES
    assert serialize.graph_from_json({"n": n, "edges": [[0, n - 1]]}).num_edges() == 1


@pytest.mark.parametrize("k", [True, False, -1, 2.0, "3", serialize.MAX_GRAPH_VERTICES + 1, 10**8])
def test_markov_from_json_rejects_a_bad_ground_size(k):
    with pytest.raises(ValueError, match="ground_size must be an integer from 0 to"):
        serialize.markov_from_json({"ground_size": k, "bags": [[0]], "tree": []})


def test_markov_from_json_accepts_the_largest_ground_size():
    k = serialize.MAX_GRAPH_VERTICES
    m = serialize.markov_from_json({"ground_size": k, "bags": [[0], [k - 1]], "tree": [[1, 0]]})
    assert m.ground_size == k and m.tree == ((0, 1),)


def test_detect_kind():
    assert serialize.detect_kind({"n": 1, "edges": []}) == "graph"
    assert serialize.detect_kind({"ground_size": 1, "bags": [[0]], "tree": []}) == "markov"
    assert serialize.detect_kind({"host": {}, "markov": {}}) == "tree-decomposition"
    assert serialize.detect_kind({"level": 0, "host": {}, "payload": {}}) == "strong-decomposition"
    assert serialize.detect_kind({"index_set": [], "target_size": 1, "mass": []}) == "distribution"
    with pytest.raises(ValueError):
        serialize.detect_kind({"what": 1})


def test_graph_invalid_on_load():
    with pytest.raises(ValueError):
        serialize.graph_from_json({"n": 2, "edges": [[0, 5]]})


def test_fixture_bundle_validates_structures_and_skips_distributions(tmp_path):
    write_fixture_dir(str(tmp_path))
    dist = SparseDistribution((0,), 2, {(1,): Fraction(1)})
    (tmp_path / "dist.json").write_text(json.dumps(serialize.distribution_to_json(dist)))
    # one negative fixture per validated kind, each failing in turn
    for name in ("bad_condition3", "bad_markov_tree", "bad_tree_decomposition"):
        with pytest.raises(ValueError, match=name):
            load_fixture_bundle(str(tmp_path))
        (tmp_path / (name + ".json")).unlink()
    bundle = load_fixture_bundle(str(tmp_path))
    assert bundle["dist"] == dist
    assert bundle["k3"] == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert bundle["c4"] == bundled_strong_fixtures()["c4"]
