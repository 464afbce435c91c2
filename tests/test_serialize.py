import json
from fractions import Fraction

import pytest

from homglue import serialize
from homglue.dists import SparseDistribution
from homglue.graphs import Graph
from homglue.markov import MarkovTree, TreeDecomposition
from homglue.fixtures import bundled_strong_fixtures, c4, load_fixture_bundle, write_fixture_dir


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
