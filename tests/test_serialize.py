import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homglue import serialize
from homglue.dists import SparseDistribution
from homglue.markov import MarkovTree, TreeDecomposition
from fixture_builders import bundled_strong_fixtures, c4
from helpers import random_joint, text_reference


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


def test_distribution_text_matches_the_reference_byte_for_byte():
    # helpers.text_reference lays out through json.dumps the masses it reads
    # off the Fraction view; distribution_to_json is read back from
    # distribution_to_text, so a round trip through it checks no layout
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
        # a writer that made one string per target value would not finish
        SparseDistribution((0, 2), 10**12, {(10, 99): Fraction(1, 3), (42, 17): Fraction(2, 3)}),
    ]
    rng = random.Random(41)
    for _ in range(40):
        ground = tuple(sorted(rng.sample(range(8), rng.randint(1, 5))))
        cases.append(random_joint(rng, ground, rng.randint(1, 4), atoms=rng.randint(1, 20)))
    for p in cases:
        assert serialize.distribution_to_text(p) == text_reference(p)


def indent1(v):
    return json.dumps(v, indent=1, sort_keys=True)


# Strings with non-ASCII letters, quotes, backslashes and control characters
# beside whatever else hypothesis draws.
TEXTS = st.text(st.sampled_from('aé"\\\n\t\x00\x1f\u2028\U0001f600') | st.characters(), max_size=8)
# The values the CLI's answers hold: no floats (a float is written by
# bound_report_to_json as a decimal string first).
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | TEXTS
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), min_size=1, max_size=5)
    | st.dictionaries(TEXTS, inner, max_size=5),
    max_leaves=40,
)
WRITER = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@WRITER
@given(JSON_VALUES)
def test_json_text_is_json_dumps_with_indent_1_and_sorted_keys(v):
    assert serialize.json_text(v) == indent1(v)


@settings(WRITER, max_examples=60)
@given(st.lists(st.sampled_from(["list", "tuple", "dict"]), min_size=33, max_size=80), SCALARS)
def test_json_text_nests_deeper_than_its_indent_table(kinds, leaf):
    v = leaf
    for kind in kinds:
        v = {"k": v, "a": [1, 2]} if kind == "dict" else [v, [3]] if kind == "list" else (v,)
    assert serialize.json_text(v) == indent1(v)


def test_json_text_has_no_depth_limit():
    depth = 2 * sys.getrecursionlimit()
    v = [0]
    for _ in range(depth - 1):
        v = [v]
    opening = "".join("[\n" + " " * (d + 1) for d in range(depth))
    closing = "".join("\n" + " " * d + "]" for d in reversed(range(depth)))
    assert serialize.json_text(v) == opening + "0" + closing


def test_json_text_refuses_what_json_dumps_refuses():
    loop = [1]
    loop.append({"a": loop})
    with pytest.raises(ValueError, match="Circular reference detected"):
        serialize.json_text(loop)
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        serialize.json_text([object()])
    with pytest.raises(TypeError, match="keys must be str, not tuple"):
        serialize.json_text({(1,): 2})
    # a value reached twice without a cycle is written twice
    shared = [[1, "a"]]
    assert serialize.json_text([shared, shared]) == indent1([shared, shared])


class Text(str):
    pass


def test_json_text_refuses_floats_non_str_keys_and_subclasses():
    # the CLI's answers hold none of these, so the writer has no branch for them
    for value in (1.5, math.nan, -0.0, Text("a"), {"a": Text("b")}, [True, 2.0]):
        with pytest.raises(TypeError, match="^Object of type (float|Text) is not JSON serializable$"):
            serialize.json_text(value)
    for key in (1.5, None, 7, True, Text("a")):
        with pytest.raises(TypeError, match="^keys must be str, not (float|NoneType|int|bool|Text)$"):
            serialize.json_text({key: [1]})


@pytest.mark.parametrize(
    "index_set, keys, target_size",
    [
        ([0, 1], [[True, 1], [0, 0]], 2),
        ([0, 1], [[1, 0.5], [0, 1]], 2),
        ([0, True], [[1, 1], [0, 0]], 2),
        ([0, 1.0], [[1, 1], [0, 0]], 2),
        ([0, 1], [[1, 1], [0, 0]], 2.5),
        ([0, 1], [[1, 1], [0, 0]], True),
    ],
    ids=["bools", "floats", "bool-index", "float-index", "float-target", "bool-target"],
)
def test_distribution_from_json_refuses_non_integer_values(index_set, keys, target_size):
    # a bool or a float would pass every range check and be glued as a value
    doc = {
        "index_set": index_set,
        "target_size": target_size,
        "mass": [{"key": k, "num": "1", "den": "2"} for k in keys],
    }
    with pytest.raises(ValueError, match="integer"):
        serialize.distribution_from_json(doc)


@pytest.mark.parametrize("index_set", [[1, 0], [0, 0]], ids=["descending", "repeated"])
def test_distribution_from_json_refuses_an_index_set_that_is_not_strictly_ascending(index_set):
    # keys are read positionally: sorting [1, 0] would turn "x1 is always 0"
    # into "x0 is always 0"
    doc = {
        "index_set": index_set,
        "target_size": 2,
        "mass": [{"key": k, "num": "1", "den": "2"} for k in ([0, 0], [0, 1])],
    }
    with pytest.raises(ValueError) as e:
        serialize.distribution_from_json(doc)
    assert str(e.value) == "index set must be strictly ascending, not %s" % index_set


@pytest.mark.parametrize(
    "num, den",
    [(1.9, "2"), (True, "2"), ("1", 2), ("1", None), (None, "2"), ("1", False)],
    ids=["float-num", "bool-num", "int-den", "null-den", "null-num", "bool-den"],
)
def test_distribution_from_json_refuses_a_num_or_den_that_is_not_a_string(num, den):
    # int() would truncate 1.9 to 1 and read true as 1: masses never stated
    doc = {
        "index_set": [0],
        "target_size": 2,
        "mass": [{"key": [0], "num": num, "den": den}, {"key": [1], "num": num, "den": den}],
    }
    with pytest.raises(ValueError, match="num and den must be strings, not "):
        serialize.distribution_from_json(doc)


def test_distribution_from_json_refuses_a_zero_denominator():
    doc = {"index_set": [0], "target_size": 2, "mass": [{"key": [0], "num": "1", "den": "0"}]}
    with pytest.raises(ValueError, match="zero denominator"):
        serialize.distribution_from_json(doc)


@pytest.mark.parametrize(
    "load, doc",
    [
        (serialize.graph_from_json, {"n": 3, "edges": [[True, 2]]}),
        (serialize.graph_from_json, {"n": 3, "edges": [[0, 2.0]]}),
        (serialize.markov_from_json, {"ground_size": 2, "bags": [[0, True]], "tree": []}),
        (serialize.markov_from_json, {"ground_size": 2, "bags": [[0], [1.0]], "tree": [[0, 1]]}),
        (serialize.markov_from_json, {"ground_size": 2, "bags": [[0], [1]], "tree": [[0, 1.0]]}),
        (serialize.markov_from_json, {"ground_size": 2, "bags": [[0], [1]], "tree": [[False, 1]]}),
    ],
    ids=["edge-bool", "edge-float", "bag-bool", "bag-float", "tree-float", "tree-bool"],
)
def test_structure_loaders_refuse_non_integer_values(load, doc):
    with pytest.raises(ValueError, match="must be integers, not"):
        load(doc)


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


BAD_LEVELS = ["1", None, True, False, 1.0, 0.0, -1]


@pytest.mark.parametrize("level", BAD_LEVELS, ids=[json.dumps(v) for v in BAD_LEVELS])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_strong_from_json_refuses_a_level_that_is_not_a_nonnegative_int(level, depth):
    doc = serialize.strong_to_json(bundled_strong_fixtures()["book"])
    node = doc
    for _ in range(depth):
        node = node["payload"]["children"][0]
    node["level"] = level
    with pytest.raises(ValueError, match="level must be an integer from 0 to"):
        serialize.strong_from_json(doc)


def test_strong_from_json_keeps_the_payload_shape_messages():
    fixtures = bundled_strong_fixtures()
    path = serialize.strong_to_json(fixtures["path3"])
    c4_doc = serialize.strong_to_json(fixtures["c4"])
    childless = dict(c4_doc["payload"], children=[])
    for doc, message in (
        (dict(path, level=1), "level k>0 requires decomp and children"),
        (dict(c4_doc, level=0), "level 0 requires a base payload only"),
        (dict(c4_doc, level=0, payload=childless), "level 0 requires a base payload only"),
        (dict(c4_doc, payload=childless), "one child per bag is required"),
    ):
        with pytest.raises(ValueError, match="^%s$" % message):
            serialize.strong_from_json(doc)


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
