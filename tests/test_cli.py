import argparse
import ast
import gc
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import homglue
from homglue import cli, graphs, serialize, strong
from homglue.cli import main
from homglue.dists import check_marginal_consistency, glue_markov_tree
from homglue.graphs import Graph, is_connected
from homglue.markov import MarkovTree, TreeDecomposition
from homglue.sidorenko import associated_distribution
from homglue.strong import StrongDecomposition, zero_strong

from fixture_builders import (
    bad_markov_tree,
    book,
    bundled_strong_fixtures,
    c4_fixture,
    mixed_levels_condition3,
    write_fixture_dir,
)
from helpers import (
    all_graphs_reference,
    consistent_bag_dists,
    glue_document,
    seeded_gnm,
    text_reference,
    uniform,
)

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@pytest.fixture(scope="module")
def fixdir(tmp_path_factory):
    # the committed fixtures/ directory is authoritative; regenerate into a
    # temp dir and use that, so tests do not depend on repo state
    d = tmp_path_factory.mktemp("fixtures")
    write_fixture_dir(str(d))
    return str(d)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_committed_fixtures_match_generated(fixdir):
    generated = sorted(os.listdir(fixdir))
    committed = sorted(f for f in os.listdir(FIXDIR) if f.endswith(".json"))
    assert generated == committed
    for fn in generated:
        with open(os.path.join(fixdir, fn)) as a, open(os.path.join(FIXDIR, fn)) as b:
            assert a.read() == b.read(), fn


def test_validate_good_fixture(fixdir, capsys):
    code, doc = run(capsys, "validate", os.path.join(fixdir, "c4.json"))
    assert code == 0
    assert doc["ok"] is True


def test_answers_leave_no_reference_cycle(fixdir, capsys):
    # json.dumps with indent builds its encoder from nested functions that
    # refer to one another: a reference cycle per answer, which outlives the
    # call until the cyclic collector runs
    path = {name: os.path.join(fixdir, name + ".json") for name in ("c4", "book", "bad_markov_tree")}
    commands = (
        ["validate", path["c4"]],
        ["validate", path["bad_markov_tree"]],
        ["min-subdec", path["book"], "--u", "0,1"],
        ["sidorenko-sweep", path["c4"], "--max-n", "3"],
        ["entropy-report", path["c4"], os.path.join(fixdir, "k3.json")],
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for argv in commands:
            main(argv)
            assert gc.collect() == 0, argv
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_validate_bad_markov(fixdir, capsys):
    code, doc = run(capsys, "validate", os.path.join(fixdir, "bad_markov_tree.json"))
    assert code == 1
    assert doc["violations"][0]["kind"] == "running-intersection"
    assert doc["violations"][0]["witness"] == {"a": 0, "b": 2, "c": 1, "element": 0}


def test_validate_bad_condition3(fixdir, capsys):
    code, doc = run(capsys, "validate", os.path.join(fixdir, "bad_condition3.json"))
    assert code == 1
    assert doc["violations"][0]["kind"] == "sub-decomposition-not-isomorphic"


@pytest.mark.parametrize(
    "name, kinds",
    [
        ("bad_markov_tree", ["running-intersection"]),
        ("bad_tree_decomposition", ["uncovered-edge", "uncovered-edge"]),
        ("bad_condition3", ["sub-decomposition-not-isomorphic"]),
    ],
)
def test_validate_exits_1_on_every_committed_negative_fixture(capsys, name, kinds):
    code, doc = run(capsys, "validate", os.path.join(FIXDIR, name + ".json"))
    assert code == 1
    assert doc["ok"] is False
    assert [v["kind"] for v in doc["violations"]] == kinds


def _fixture_doc(name):
    with open(os.path.join(FIXDIR, name + ".json")) as fh:
        return json.load(fh)


def _swap_base_bags(doc):
    doc["payload"]["base"]["bags"] = [[0, 1], [0, 2]]
    return doc


def _drop_last_host_edge(doc):
    doc["host"]["edges"].pop()
    return doc


def _wrap_at_level_2(child):
    host = child["host"]
    markov = {"ground_size": host["n"], "bags": [list(range(host["n"]))], "tree": []}
    return {
        "level": 2,
        "host": host,
        "payload": {"decomp": {"host": host, "markov": markov}, "children": [child]},
    }


def _c4_twice_at_level_2(c4):
    """c4 in both of two bags holding all of its host: they share a 4-cycle."""
    host = c4["host"]
    markov = {"ground_size": 4, "bags": [[0, 1, 2, 3], [0, 1, 2, 3]], "tree": [[0, 1]]}
    return {
        "level": 2,
        "host": host,
        "payload": {"decomp": {"host": host, "markov": markov}, "children": [c4, c4]},
    }


def _path4_with_bag_tree(tree):
    edges = [[0, 1], [1, 2], [2, 3]]
    return {
        "level": 0,
        "host": {"n": 4, "edges": edges},
        "payload": {"base": {"ground_size": 4, "bags": edges, "tree": tree}},
    }


@pytest.mark.parametrize(
    "doc, kinds",
    [
        (_swap_base_bags(_fixture_doc("path3")), ["base-bags-not-host-edges"]),
        (_drop_last_host_edge(_fixture_doc("c4")), ["decomp-host-mismatch"]),
        (_wrap_at_level_2(_fixture_doc("path3")), ["child-level-mismatch"]),
        # bags 0 and 2, (0, 1) and (2, 3), share no vertex, and the path
        # between bags 0 and 1 runs through bag 2, which misses vertex 1
        (
            _path4_with_bag_tree([[0, 2], [1, 2]]),
            ["base-tree-not-in-line-graph", "running-intersection"],
        ),
        (_c4_twice_at_level_2(_fixture_doc("c4")), ["intersection-not-forest"]),
        # the minimum sub-decompositions holding {0, 1, 2} have levels 0 and 1
        (
            serialize.strong_to_json(mixed_levels_condition3()),
            ["sub-decomposition-not-isomorphic"],
        ),
    ],
    ids=[
        "base-bags-not-host-edges",
        "decomp-host-mismatch",
        "child-level-mismatch",
        "base-tree-not-in-line-graph",
        "intersection-not-forest",
        "sub-decomposition-levels-differ",
    ],
)
def test_validate_exits_1_on_each_one_step_corruption(tmp_path, capsys, doc, kinds):
    # one broken condition per document, each a kind or branch no committed
    # fixture reaches
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert out["kind"] == "strong-decomposition"
    assert [v["kind"] for v in out["violations"]] == kinds


def test_assoc_past_a_condition_3_fault_is_refused_without_a_traceback(capsys, monkeypatch):
    # were condition 3 to pass bad_condition3, its bag laws on K2 would
    # disagree on an overlap: the coupling refuses them, exit 1
    monkeypatch.setattr(strong, "_condition3_holds", lambda *args: True)
    argv = ["assoc", os.path.join(FIXDIR, "bad_condition3.json"), os.path.join(FIXDIR, "k2.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "error": "laws to couple disagree on their overlap",
        "key": [0, 0],
        "overlap": [0, 2],
    }
    assert captured.err == ""


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize("command", ["validate", "glue"])
def test_json_nested_past_the_recursion_limit_exits_2_without_traceback(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "homglue.cli", command, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: cannot read")


def test_recursion_while_loading_is_unreadable_input(fixdir, tmp_path, capsys, monkeypatch):
    # a JSON decoder that nests deeper than the recursion limit hands the
    # loaders documents they cannot recurse through
    def too_deep(doc):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(serialize.LOADERS, "strong-decomposition", too_deep)
    monkeypatch.setattr(serialize, "markov_from_json", too_deep)
    path = os.path.join(fixdir, "c4.json")
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"markov": {}, "bag_dists": []}))
    for argv in (["validate", path], ["assoc", path, path], ["glue", str(instance)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read %s: maximum recursion depth exceeded\n" % argv[1]


def test_a_document_of_the_wrong_kind_exits_2_with_one_line(fixdir, capsys):
    c4_path, k3_path = os.path.join(fixdir, "c4.json"), os.path.join(fixdir, "k3.json")
    for argv, message in (
        (["assoc", k3_path, k3_path], "%s is not a strong decomposition" % k3_path),
        (["assoc", c4_path, c4_path], "%s is not a graph" % c4_path),
        (["entropy-report", c4_path, c4_path], "%s is not a graph" % c4_path),
        (["min-subdec", k3_path, "--u", "0"], "%s is not a strong decomposition" % k3_path),
        (["sidorenko-sweep", k3_path], "%s is not a strong decomposition" % k3_path),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


def test_assoc_c4_k3(fixdir, tmp_path, capsys):
    out = tmp_path / "dist.json"
    code, summary = run(
        capsys,
        "assoc",
        os.path.join(fixdir, "c4.json"),
        os.path.join(fixdir, "k3.json"),
        "--out",
        str(out),
    )
    assert code == 0
    assert summary["atoms"] == 18
    assert summary["bound_report"]["entropy_bits"].startswith("4.084962500")
    assert summary["bound_report"]["sidorenko_gap"] == {"num": "2", "den": "81"}
    dist = json.loads(out.read_text())
    assert len(dist["mass"]) == 18


def test_assoc_edge_fixture(fixdir, capsys):
    code, dist = run(
        capsys, "assoc", os.path.join(fixdir, "edge.json"), os.path.join(fixdir, "k3.json")
    )
    assert code == 0
    assert len(dist["mass"]) == 6
    assert all(e["num"] == "1" and e["den"] == "6" for e in dist["mass"])


def test_assoc_edgeless_target(fixdir, capsys):
    code, doc = run(
        capsys,
        "assoc",
        os.path.join(fixdir, "book.json"),
        os.path.join(fixdir, "edgeless3.json"),
    )
    assert code == 1
    assert doc["error"] == "target has no edges"


def test_entropy_report_refuses_a_target_failing_the_degree_condition(fixdir, tmp_path, capsys):
    # K1,4: max degree 4 on 5 vertices, 4 * 5 > 4 * 4 edges
    path = tmp_path / "k14.json"
    path.write_text(json.dumps(serialize.graph_to_json(Graph(5, [(0, v) for v in range(1, 5)]))))
    code = main(["entropy-report", os.path.join(fixdir, "c4.json"), str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == '{\n "error": "target fails the degree condition"\n}\n'
    assert captured.err == ""


def k3_edge_instance():
    return {
        "markov": {"ground_size": 3, "bags": [[0, 1], [1, 2]], "tree": [[0, 1]]},
        "bag_dists": [
            {
                "index_set": idx,
                "target_size": 3,
                "mass": [
                    {"key": [a, b], "num": "1", "den": "6"}
                    for a in range(3)
                    for b in range(3)
                    if a != b
                ],
            }
            for idx in ([0, 1], [1, 2])
        ],
    }


def json_route(p):
    """The distribution document as json.dumps lays it out, masses read off
    p's Fractions (helpers.text_reference), with the newline the CLI ends
    every document with."""
    return text_reference(p) + "\n"


def test_glue_command(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(k3_edge_instance()))
    code, dist = run(capsys, "glue", str(path))
    assert code == 0
    assert len(dist["mass"]) == 12
    assert all(e["den"] == "12" for e in dist["mass"])


def _without_law_1(bag_dists):
    del bag_dists[1]


def _law_1_on_bag_0(bag_dists):
    bag_dists[1]["index_set"] = [0, 1]


def _law_1_on_four_values(bag_dists):
    bag_dists[1]["target_size"] = 4


@pytest.mark.parametrize(
    "misfit, message",
    [
        (_without_law_1, "one distribution per bag is required"),
        (_law_1_on_bag_0, "distribution 1 has index set (0, 1), bag is (1, 2)"),
        (_law_1_on_four_values, "bag distributions disagree on target_size"),
    ],
    ids=["missing-law", "wrong-index-set", "two-target-sizes"],
)
def test_glue_with_one_law_for_two_bags_exits_1_with_one_line(tmp_path, capsys, misfit, message):
    # the glue command checks that the laws fit the bags once, after the
    # Markov tree's validation and before any gluing
    instance = k3_edge_instance()
    misfit(instance["bag_dists"])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["glue", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize(
    "m, violation",
    [
        (
            bad_markov_tree(),
            {"kind": "running-intersection", "witness": {"a": 0, "b": 2, "c": 1, "element": 0}},
        ),
        (
            MarkovTree(3, [(0, 1), (1, 2)]),
            {"kind": "tree-structure", "witness": {"num_bags": 2, "tree": []}},
        ),
    ],
    ids=["running-intersection", "no-tree-edges"],
)
def test_glue_refuses_an_invalid_markov_tree_with_its_report(tmp_path, capsys, m, violation):
    # the bag laws agree on every tree edge, so only the validator glue runs
    # first can refuse: glue_markov_tree trusts its Markov tree
    bag_dists = consistent_bag_dists(random.Random(5), m, 2)
    assert check_marginal_consistency(m, bag_dists) is None
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(glue_document(m, bag_dists)))
    assert main(["glue", str(path)]) == 1
    captured = capsys.readouterr()
    report = {"ok": False, "violations": [violation]}
    assert captured.out == json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert captured.err == ""


@pytest.mark.parametrize("n", [3, 4, 5])
def test_assoc_out_file_is_the_json_route(fixdir, tmp_path, capsys, n):
    target = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    tpath = tmp_path / "k.json"
    tpath.write_text(json.dumps(serialize.graph_to_json(target)))
    for name, sd in bundled_strong_fixtures().items():
        out = tmp_path / (name + ".json")
        code = main(["assoc", os.path.join(fixdir, name + ".json"), str(tpath), "--out", str(out)])
        capsys.readouterr()
        assert code == 0, name
        assert out.read_text() == json_route(associated_distribution(sd, target)), name


def test_glue_out_file_is_the_json_route(tmp_path, capsys):
    instance = k3_edge_instance()
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    out = tmp_path / "joint.json"
    assert main(["glue", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    m = serialize.markov_from_json(instance["markov"])
    bags = [serialize.distribution_from_json(d) for d in instance["bag_dists"]]
    assert out.read_text() == json_route(glue_markov_tree(m, bags))


def test_oversized_graph_is_a_parse_failure_before_it_is_built(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(serialize, "Graph", lambda *a: built.append(a))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 100000000, "edges": []}))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert built == []
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot parse")
    assert "n must be an integer from 0 to %d" % serialize.MAX_GRAPH_VERTICES in captured.err


def test_oversized_ground_set_is_a_parse_failure_before_validation(tmp_path, capsys):
    markov = {"ground_size": 3000000, "bags": [[0]], "tree": []}
    for command, doc in (("validate", markov), ("glue", {"markov": markov, "bag_dists": []})):
        path = tmp_path / (command + ".json")
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main([command, str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2, command
        assert elapsed < 0.5, command
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot parse")
        assert "ground_size must be an integer from 0 to %d" % serialize.MAX_GRAPH_VERTICES in captured.err


@pytest.mark.parametrize("tree", [[[1, 1]], [[0, 2]], [[-1, 0]]])
def test_validate_markov_tree_with_a_bad_tree_edge_exits_2(tmp_path, capsys, tree):
    path = tmp_path / "markov.json"
    path.write_text(json.dumps({"ground_size": 2, "bags": [[0], [0, 1]], "tree": tree}))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot parse")


def _broken_glue_instance(field, value, atom=False):
    """k3_edge_instance with field set to value in its first bag distribution,
    or in that distribution's first atom when atom is true."""
    instance = k3_edge_instance()
    dist = instance["bag_dists"][0]
    (dist["mass"][0] if atom else dist)[field] = value
    return instance


def _point_mass_doc(index_set, target_size, key, den="1", num=None):
    """A one-atom distribution document whose mass is num/den, with num
    equal to den unless given."""
    return {
        "index_set": index_set,
        "target_size": target_size,
        "mass": [{"key": key, "num": den if num is None else num, "den": den}],
    }


UNLOADABLE = {
    "zero-den": _point_mass_doc([0], 2, [0], den="0"),
    "float-num": _point_mass_doc([0], 2, [0], num=1.9),
    "bool-num": _point_mass_doc([0], 2, [0], num=True),
    "int-den": _point_mass_doc([0], 2, [0], num="1", den=1),
    "null-den": _point_mass_doc([0], 2, [0], num="1", den=None),
    "bool-key": _point_mass_doc([0], 2, [True]),
    "float-target": _point_mass_doc([0], 2.5, [1]),
    "bool-edge": {"n": 3, "edges": [[True, 2]]},
    "float-bag": {"ground_size": 2, "bags": [[0], [1.0]], "tree": [[0, 1]]},
    "descending-index": _point_mass_doc([1, 0], 2, [0, 1]),
    "repeated-index": _point_mass_doc([0, 0], 2, [0, 1]),
}
UNGLUEABLE = {
    "zero-den": _broken_glue_instance("den", "0", atom=True),
    "float-num": _broken_glue_instance("num", 1.9, atom=True),
    "bool-num": _broken_glue_instance("num", True, atom=True),
    "int-den": _broken_glue_instance("den", 6, atom=True),
    "null-num": _broken_glue_instance("num", None, atom=True),
    "bool-key": _broken_glue_instance("key", [True, 0], atom=True),
    "float-key": _broken_glue_instance("key", [0, 1.0], atom=True),
    "float-target": _broken_glue_instance("target_size", 2.5),
    "bool-index": _broken_glue_instance("index_set", [0, True]),
    "descending-index": _broken_glue_instance("index_set", [1, 0]),
    "repeated-index": _broken_glue_instance("index_set", [0, 0]),
    "float-tree": {
        **k3_edge_instance(),
        "markov": {"ground_size": 3, "bags": [[0, 1], [1, 2]], "tree": [[0, 1.0]]},
    },
}


@pytest.mark.parametrize(
    "command, doc",
    [("validate", d) for d in UNLOADABLE.values()] + [("glue", d) for d in UNGLUEABLE.values()],
    ids=["validate-" + k for k in UNLOADABLE] + ["glue-" + k for k in UNGLUEABLE],
)
def test_zero_denominators_and_non_integer_values_exit_2_without_traceback(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "homglue.cli", command, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: cannot parse")


def test_glue_refuses_a_law_with_a_negative_target_size(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_broken_glue_instance("target_size", -1)))
    assert main(["glue", str(path)]) == 2
    message = "error: cannot parse %s: target_size must be nonnegative\n" % path
    assert capsys.readouterr() == ("", message)


def test_validate_refuses_a_document_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text("[]")
    assert main(["validate", str(path)]) == 2
    message = "error: cannot parse %s: document is not a JSON object\n" % path
    assert capsys.readouterr() == ("", message)


def _one_bag_glue_instance(atoms):
    """A glue document of one bag on vertex 0 whose law lists atoms, each a
    (key, num, den)."""
    return {
        "markov": {"ground_size": 1, "bags": [[0]], "tree": []},
        "bag_dists": [
            {
                "index_set": [0],
                "target_size": 2,
                "mass": [{"key": k, "num": n, "den": d} for k, n, d in atoms],
            }
        ],
    }


@pytest.mark.parametrize(
    "atoms, message",
    [
        ([([0], "1", "2"), ([1], "1", "2"), ([0], "1", "2")], "duplicate key (0,)"),
        (
            [([0], "1", "4"), ([1], "1", "2"), ([0.0], "1", "2")],
            "index set, target size and key values must be integers, not float",
        ),
        (
            [([0], "1", "4"), ([1], "1", "2"), ([True], "1", "4")],
            "index set, target size and key values must be integers, not bool",
        ),
    ],
    ids=["repeated", "float-repeat", "bool-repeat"],
)
def test_glue_refuses_a_repeated_key_instead_of_merging_it(tmp_path, capsys, atoms, message):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_one_bag_glue_instance(atoms)))
    assert main(["glue", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse %s: %s\n" % (path, message)


def test_glue_refuses_a_den_that_int_reads_but_the_writer_never_writes(tmp_path, capsys):
    # int() reads "6\n" as 6; the loader takes only ASCII digits after an
    # optional minus, and its one-line message escapes the newline
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_broken_glue_instance("den", "6\n", atom=True)))
    assert main(["glue", str(path)]) == 2
    message = 'num and den must be integers in ASCII digits, not "6\\n"'
    assert capsys.readouterr() == ("", "error: cannot parse %s: %s\n" % (path, message))


def test_glue_reports_the_first_mismatching_edge_in_sorted_order(tmp_path, capsys):
    # edges (0,1) and (1,2) both mismatch; the report names (0,1) and its witness
    def dist(idx, masses):
        return {
            "index_set": idx,
            "target_size": 2,
            "mass": [
                {"key": list(k), "num": str(q.numerator), "den": str(q.denominator)}
                for k, q in masses.items()
            ],
        }

    half, third = Fraction(1, 2), Fraction(1, 3)
    instance = {
        "markov": {"ground_size": 4, "bags": [[0, 1], [1, 2], [2, 3]], "tree": [[1, 2], [0, 1]]},
        "bag_dists": [
            dist([0, 1], {(0, 0): half, (1, 1): half}),
            dist([1, 2], {(0, 0): third, (1, 1): 2 * third}),
            dist([2, 3], {(0, 0): Fraction(3, 4), (1, 0): Fraction(1, 4)}),
        ],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, doc = run(capsys, "glue", str(path))
    assert code == 1
    assert doc == {
        "error": "marginal mismatch on tree edge [0, 1]",
        "edge": [0, 1],
        "witness": {"key": [0], "left": "1/2", "right": "1/3"},
    }


def test_min_subdec_command(fixdir, capsys):
    code, doc = run(
        capsys, "min-subdec", os.path.join(fixdir, "book.json"), "--u", "0,1"
    )
    assert code == 0
    assert doc["embedding"] == [0, 1]
    assert doc["decomposition"]["host"]["edges"] == [[0, 1]]


def test_sidorenko_sweep(fixdir, capsys):
    code, doc = run(
        capsys, "sidorenko-sweep", os.path.join(fixdir, "c4.json"), "--max-n", "3"
    )
    assert code == 0
    k3_rows = [r for r in doc["rows"] if r["target"]["n"] == 3 and len(r["target"]["edges"]) == 3]
    assert k3_rows[0]["gap"] == {"num": "2", "den": "81"}
    assert k3_rows[0]["hom_count"] == 18
    assert all(r["gap_nonnegative"] for r in doc["rows"])


def test_sidorenko_sweep_edge_all_zero(fixdir, capsys):
    code, doc = run(
        capsys, "sidorenko-sweep", os.path.join(fixdir, "edge.json"), "--max-n", "4"
    )
    assert code == 0
    assert all(r["gap"]["num"] == "0" for r in doc["rows"])


def test_sidorenko_sweep_cap(fixdir, capsys):
    code, doc = run(
        capsys, "sidorenko-sweep", os.path.join(fixdir, "c4.json"), "--max-n", "20"
    )
    assert code == 1
    assert "exceeds limit" in doc["error"]


def test_sidorenko_sweep_from_the_table_matches_the_generator(fixdir, capsys, monkeypatch):
    paths = [os.path.join(fixdir, name + ".json") for name in ("c4", "book")]
    from_table = []
    for path in paths:
        code = main(["sidorenko-sweep", path, "--max-n", "6"])
        from_table.append((code, capsys.readouterr().out))
    generated = all_graphs_reference(6)
    monkeypatch.setattr(
        cli,
        "connected_graphs_up_to",
        lambda max_n: [g for g in generated if g.n <= max_n and is_connected(g)],
    )
    for path, (code, out) in zip(paths, from_table):
        assert main(["sidorenko-sweep", path, "--max-n", "6"]) == code, path
        assert capsys.readouterr().out == out, path
        assert len(json.loads(out)["rows"]) == 142  # every class but K1


def test_sidorenko_sweep_negative_max_n_is_a_parse_failure(fixdir, capsys):
    path = os.path.join(fixdir, "c4.json")
    assert main(["sidorenko-sweep", path, "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-n must be at least 0, not -1\n"
    code, doc = run(capsys, "sidorenko-sweep", path, "--max-n", "0")
    assert code == 0
    assert doc["rows"] == []


def test_sidorenko_sweep_invalid_decomposition_exits_1_with_the_validation_report(
    fixdir, tmp_path, capsys
):
    path = os.path.join(fixdir, "bad_condition3.json")
    assert main(["validate", path]) == 1
    validated = json.loads(capsys.readouterr().out)
    out = tmp_path / "sweep.json"
    for max_n in ("1", "3"):
        for extra in ([], ["--out", str(out)]):
            code = main(["sidorenko-sweep", path, "--max-n", max_n, *extra])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == ""
            assert json.loads(captured.out) == {k: v for k, v in validated.items() if k != "kind"}
            assert not out.exists()


def test_entropy_report_command(fixdir, capsys):
    code, doc = run(
        capsys,
        "entropy-report",
        os.path.join(fixdir, "c4.json"),
        os.path.join(fixdir, "k3.json"),
    )
    assert code == 0
    assert doc["rhs_bits"] == "4.000000000000"


def test_bound_reports_past_the_hom_search_cap(fixdir, tmp_path, capsys, monkeypatch):
    # 24^6 candidate maps exceed DEFAULT_HOM_CAP, but the bound report reads
    # hom(book, G) off the support of the distribution already built
    g = seeded_gnm(1, 24, 60)
    target = tmp_path / "g.json"
    target.write_text(json.dumps(serialize.graph_to_json(g)))
    decomp = os.path.join(fixdir, "book.json")
    code, summary = run(capsys, "assoc", decomp, str(target), "--out", str(tmp_path / "d.json"))
    assert code == 0
    code, report = run(capsys, "entropy-report", decomp, str(target))
    assert code == 0
    monkeypatch.setattr(graphs, "DEFAULT_HOM_CAP", 24**6)
    log_hom = "%.12f" % math.log2(graphs.hom_count(book(), g))
    assert summary["bound_report"]["log_hom_bits"] == report["log_hom_bits"] == log_hom


def test_entropy_report_on_a_long_level0_path(tmp_path, capsys):
    # a path on 1 100 vertices is glued bag by bag, with no recursion per
    # vertex; on K2 its law is the two alternating maps, each of mass 1/2
    path = Graph(1100, [(v, v + 1) for v in range(1099)])
    decomp = tmp_path / "path.json"
    decomp.write_text(json.dumps(serialize.strong_to_json(zero_strong(path))))
    target = tmp_path / "k2.json"
    target.write_text(json.dumps(serialize.graph_to_json(Graph(2, [(0, 1)]))))
    code, report = run(capsys, "entropy-report", str(decomp), str(target))
    assert code == 0
    for field in ("entropy_bits", "rhs_bits", "log_hom_bits"):
        assert report[field] == "1.000000000000", field
    assert report["sidorenko_gap"] == {"num": "0", "den": "1"}


def test_a_two_bag_path_past_the_recursion_limit_validates_and_answers(tmp_path, capsys):
    # each of two bags holds the whole path on 1 200 vertices, and their
    # children split it into one bag and into two. The two-bag child's own
    # children are equal, which settles its condition 3; the top's differ,
    # so condition 3 pins all 1 200 vertices between their minimum
    # sub-decompositions, both the path's level-0 decomposition, and the
    # isomorphism search places them one by one, with no recursion per
    # vertex
    n = 1200
    path = Graph(n, [(v, v + 1) for v in range(n - 1)])
    level0 = zero_strong(path)

    def whole(bags):
        markov = MarkovTree(n, [range(n)] * bags, [(k, k + 1) for k in range(bags - 1)])
        return StrongDecomposition(1, path, TreeDecomposition(path, markov), (level0,) * bags)

    sd = StrongDecomposition(2, path, whole(2).decomp, (whole(1), whole(2)))
    decomp = tmp_path / "two_bags.json"
    decomp.write_text(json.dumps(serialize.strong_to_json(sd)))
    code, report = run(capsys, "validate", str(decomp))
    assert code == 0 and report["ok"] is True
    code, sub = run(capsys, "min-subdec", str(decomp), "--u", "0,5")
    assert code == 0
    assert sub["embedding"] == list(range(6))
    assert sub["decomposition"]["host"]["edges"] == [[v, v + 1] for v in range(5)]


def test_assoc_builds_the_bound_report_only_for_the_summary(fixdir, tmp_path, capsys, monkeypatch):
    # the summary, bound report included, is written only beside --out
    calls = []
    bound_report = cli.bound_report
    monkeypatch.setattr(cli, "bound_report", lambda *args: calls.append(args) or bound_report(*args))
    argv = ["assoc", os.path.join(fixdir, "c4.json"), os.path.join(fixdir, "k3.json")]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["mass"]) == 18
    assert calls == []
    code, summary = run(capsys, *argv, "--out", str(tmp_path / "dist.json"))
    assert code == 0 and "bound_report" in summary
    assert len(calls) == 1


def test_entropy_report_invalid_decomposition_exits_1_without_traceback(fixdir):
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "homglue.cli",
            "entropy-report",
            os.path.join(fixdir, "bad_condition3.json"),
            os.path.join(fixdir, "k3.json"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["violations"][0]["kind"] == "sub-decomposition-not-isomorphic"


def test_min_subdec_bad_vertex_list_is_a_parse_failure(fixdir, capsys):
    code = main(["min-subdec", os.path.join(fixdir, "c4.json"), "--u", "0,x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --u")


# int() reads each of these as vertex 1; --u takes ASCII digits after an
# optional minus, as the loader takes num and den
@pytest.mark.parametrize("u", ["0_1", "\u0661", "+1", " 1", "1 ", "0,+1", "--1", "-"])
def test_min_subdec_reads_vertices_as_ascii_digits_only(fixdir, capsys, u):
    code = main(["min-subdec", os.path.join(fixdir, "c4.json"), "--u=" + u])
    message = "error: --u must be a comma-separated list of integers, not %r\n" % u
    assert (code, capsys.readouterr()) == (2, ("", message))


@pytest.mark.parametrize("u", ["6", "-1", "0,6"])
def test_min_subdec_vertex_out_of_range_is_a_parse_failure(fixdir, capsys, u):
    code = main(["min-subdec", os.path.join(fixdir, "book.json"), "--u=" + u])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    bad = u.split(",")[-1]
    assert captured.err == "error: --u vertex %s out of range for n=6\n" % bad


def test_min_subdec_disconnected_bag_tree_exits_1_with_one_line(tmp_path, capsys):
    # validated before it is searched: the report, as assoc prints it
    doc = serialize.strong_to_json(c4_fixture())
    doc["payload"]["decomp"]["markov"]["tree"] = []
    path = tmp_path / "c4_disconnected.json"
    path.write_text(json.dumps(doc))
    code = main(["min-subdec", str(path), "--u", "1,3"])
    captured = capsys.readouterr()
    report = {
        "ok": False,
        "violations": [
            {"kind": "tree-structure", "witness": {"num_bags": 2, "path": [], "tree": []}}
        ],
    }
    assert code == 1
    assert captured.out == json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert captured.err == ""


def test_min_subdec_invalid_decomposition_exits_1_with_the_validation_report(fixdir, tmp_path, capsys):
    path = os.path.join(fixdir, "bad_condition3.json")
    assert main(["validate", path]) == 1
    validated = json.loads(capsys.readouterr().out)
    out = tmp_path / "sub.json"
    for extra in ([], ["--out", str(out)]):
        code = main(["min-subdec", path, "--u", "0,3", *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert json.loads(captured.out) == {k: v for k, v in validated.items() if k != "kind"}
        assert not out.exists()


def test_validate_graph_ok_and_distribution_unsupported(fixdir, tmp_path, capsys):
    code, doc = run(capsys, "validate", os.path.join(fixdir, "k3.json"))
    assert code == 0
    assert doc == {"kind": "graph", "ok": True, "violations": []}
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(serialize.distribution_to_json(uniform((0,), 2, [(1,)]))))
    assert main(["validate", str(dist)]) == 2
    assert capsys.readouterr().out == ""


def test_deterministic_output(fixdir, capsys):
    args = ["sidorenko-sweep", os.path.join(fixdir, "c4.json"), "--max-n", "3"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def _run_process(*argv):
    """The CLI in a subprocess, so a traceback would show on stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "homglue.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


OUT_COMMANDS = {
    "assoc": lambda fix, inst: ["assoc", fix("c4"), fix("k3")],
    "glue": lambda fix, inst: ["glue", inst],
    "min-subdec": lambda fix, inst: ["min-subdec", fix("c4"), "--u", "0,2"],
    "sidorenko-sweep": lambda fix, inst: ["sidorenko-sweep", fix("c4"), "--max-n", "3"],
    "entropy-report": lambda fix, inst: ["entropy-report", fix("c4"), fix("k3")],
}


def out_argv(fixdir, tmp_path, command):
    """The argv of command in OUT_COMMANDS, without --out."""
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(k3_edge_instance()))
    return OUT_COMMANDS[command](lambda name: os.path.join(fixdir, name + ".json"), str(instance))


@pytest.mark.parametrize("target", ["directory", "missing-parent", "empty"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_to_an_unwritable_path_exits_2_with_one_line(fixdir, tmp_path, command, target):
    argv = out_argv(fixdir, tmp_path, command)
    out = {
        "directory": str(tmp_path),
        "missing-parent": str(tmp_path / "no" / "such" / "x.json"),
        "empty": "",
    }[target]
    proc = _run_process(*argv, "--out", out)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: cannot write %s:" % out)


@pytest.mark.parametrize("via", ["path", "symlink"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_rewrites_an_existing_file_in_place(fixdir, tmp_path, capsys, command, via):
    argv = out_argv(fixdir, tmp_path, command)
    code = main(argv)
    answer = capsys.readouterr().out.encode()
    target = tmp_path / "out.json"
    target.write_bytes(b"x" * 1_000_000)  # far longer than any answer
    target.chmod(0o640)
    inode = target.stat().st_ino
    out = target
    if via == "symlink":
        out = tmp_path / "link.json"
        out.symlink_to(target)
    assert main(argv + ["--out", str(out)]) == code
    capsys.readouterr()
    assert out.is_symlink() == (via == "symlink")
    assert target.read_bytes() == answer
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_to_dev_null_exits_0(fixdir, tmp_path, capsys, command):
    # /dev/null cannot be truncated; only a regular file is
    assert main(out_argv(fixdir, tmp_path, command) + ["--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_a_write_that_fails_part_way_leaves_an_empty_file(fixdir, tmp_path):
    # The child caps the size of the files it writes at 1 000 bytes and
    # ignores SIGXFSZ, so a write past the cap fails with EFBIG; book's
    # answer on K3 is far longer. The limit acts on the child alone.
    child = (
        "import resource, signal, sys\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "from homglue.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    (tmp_path / "f").write_bytes(b"x" * 5000)
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    book, k3 = (os.path.join(fixdir, name + ".json") for name in ("book", "k3"))
    proc = subprocess.run(
        [sys.executable, "-c", child, "assoc", book, k3, "--out", "f"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: cannot write f: [Errno 27] File too large\n"
    assert (tmp_path / "f").read_bytes() == b""


@pytest.mark.parametrize("level", ["1", None, True, False, 1.0, 0.0, -1])
def test_a_level_that_is_not_a_nonnegative_int_exits_2(fixdir, tmp_path, capsys, level):
    k3_path = os.path.join(fixdir, "k3.json")
    for name, depth in (("path3", 0), ("c4", 0), ("c4", 1)):
        doc = serialize.strong_to_json(bundled_strong_fixtures()[name])
        (doc["payload"]["children"][0] if depth else doc)["level"] = level
        path = str(tmp_path / ("%s-%d.json" % (name, depth)))
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (["validate", path], ["assoc", path, k3_path], ["min-subdec", path, "--u", "0"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cannot parse %s: level must be" % path)
            assert captured.err.count("\n") == 1


def test_level0_ground_size_mismatch_exits_2(fixdir, tmp_path, capsys):
    # a base Markov tree over more vertices than its host has
    path_doc = serialize.strong_to_json(bundled_strong_fixtures()["path3"])
    path_doc["payload"]["base"]["ground_size"] = 4
    c4_doc = serialize.strong_to_json(bundled_strong_fixtures()["c4"])
    c4_doc["payload"]["children"][1]["payload"]["base"]["ground_size"] = 4
    for name, doc in (("path3", path_doc), ("c4", c4_doc)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        for argv in (
            ["validate", str(path)],
            ["assoc", str(path), os.path.join(fixdir, "k3.json")],
            ["min-subdec", str(path), "--u", "0"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: cannot parse %s: ground set size does not match host vertex count\n" % path
            )


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _out_bytes(path):
    """The bytes written to path, which is then removed; None if none were."""
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def test_one_parser_answers_interleaved_calls_as_a_fresh_process_does(
    fixdir, tmp_path, capsys, monkeypatch
):
    # usage text is wrapped to the terminal width, so both sides get one
    monkeypatch.setenv("COLUMNS", "80")
    fix = lambda name: os.path.join(fixdir, name + ".json")
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(k3_edge_instance()))
    out = tmp_path / "out.json"
    calls = [
        ["validate", fix("c4")],
        ["assoc", fix("c4"), fix("k3"), "--out", str(out)],
        ["min-subdec", fix("book")],
        ["assoc", fix("c4"), fix("k3")],
        ["glue", str(instance), "--out", str(out)],
        ["sidorenko-sweep", fix("c4"), "--max-n", "x"],
        ["glue", str(instance)],
        ["min-subdec", fix("book"), "--u", "0,1", "--out", str(out)],
        [],
        ["min-subdec", fix("book"), "--u", "0,1"],
        ["sidorenko-sweep", fix("c4"), "--max-n", "3", "--out", str(out)],
        ["entropy-report", fix("c4"), fix("k3"), "--out", str(out)],
        ["sidorenko-sweep", fix("c4"), "--max-n", "3"],
        ["min-subdec", "--help"],
        ["entropy-report", fix("c4"), fix("k3")],
        ["validate", fix("bad_markov_tree")],
        ["assoc", fix("c4")],
    ]
    usage_errors = 0
    for argv in calls:
        code, stdout, stderr = _in_process(capsys, argv)
        written = _out_bytes(out)
        usage_errors += code == 2 and stderr.startswith("usage: homglue")
        proc = _run_process(*argv)
        assert (code, stdout, stderr) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert written == _out_bytes(out), argv
    assert usage_errors == 4


def test_main_builds_no_parser(fixdir, capsys, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    assert main(["validate", os.path.join(fixdir, "c4.json")]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    with pytest.raises(SystemExit) as e:
        main(["min-subdec", os.path.join(fixdir, "c4.json")])
    assert e.value.code == 2
    assert "the following arguments are required: --u" in capsys.readouterr().err


def _parsed(capsys, parse, argv):
    """(namespace as a dict or None, exit code or None, stdout, stderr) of
    parse(argv)."""
    try:
        namespace, code = vars(parse(argv)), None
    except SystemExit as e:
        namespace, code = None, e.code
    captured = capsys.readouterr()
    return namespace, code, captured.out, captured.err


# (argv, whether the top-level parser reads it itself)
PARSES = [
    (["validate", "doc.json"], False),
    (["assoc", "doc.json", "g.json", "--out", "o.json"], False),
    (["glue", "instance.json", "--out", "o.json"], False),
    (["min-subdec", "doc.json", "--u", "0,1", "--out", "o.json"], False),
    (["min-subdec", "doc.json", "--u=0"], False),
    (["sidorenko-sweep", "doc.json", "--max-n", "3", "--out", "o.json"], False),
    (["entropy-report", "doc.json", "g.json", "--out", "o.json"], False),
    (["validate", "--", "doc.json"], False),
    *[([command, "-h"], False) for command in sorted(cli._SUBPARSERS)],
    ([], True),
    (["-h"], True),
    (["nope"], True),
    (["validate"], False),
    (["min-subdec", "doc.json"], False),
    (["validate", "doc.json", "--nope"], True),
    (["assoc", "doc.json", "g.json", "extra.json"], True),
    (["sidorenko-sweep", "doc.json", "--max-n", "x"], False),
]


def test_main_parses_every_command_line_as_the_full_parser_does(capsys, monkeypatch):
    # usage text is wrapped to the terminal width, so both sides get one
    monkeypatch.setenv("COLUMNS", "80")
    full = cli._PARSER.parse_args
    fallbacks = []
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: fallbacks.append(argv) or full(argv))
    assert set(cli._SUBPARSERS) == {
        "validate", "assoc", "glue", "min-subdec", "sidorenko-sweep", "entropy-report"
    }
    for argv, falls_back in PARSES:
        del fallbacks[:]
        assert _parsed(capsys, cli._parse_args, argv) == _parsed(capsys, full, argv), argv
        assert fallbacks == ([argv] if falls_back else []), argv


def _one_bag_chain_text(levels):
    """The JSON text of the path 0-1-2 decomposed into one bag at every
    level from levels down to 1, over its level-0 decomposition; written
    as text, since json.dumps nests past the recursion limit here."""
    p3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
    text = json.dumps(serialize.strong_to_json(zero_strong(Graph(3, p3["edges"]))))
    markov = {"ground_size": 3, "bags": [[0, 1, 2]], "tree": []}
    opening = ['{"level": %d, "host": %s, "payload": {"decomp": %s, "children": ['
               % (k, json.dumps(p3), json.dumps({"host": p3, "markov": markov}))
               for k in range(levels, 0, -1)]
    return "".join(opening) + text + "]}}" * levels


def test_a_one_bag_chain_300_levels_deep_answers_in_a_fresh_process(fixdir, tmp_path):
    # the loader, the validator and the builds below them take no frame per
    # level beyond the JSON decoder's, which answers such a chain up to 327
    # levels under the default recursion limit
    path = tmp_path / "chain.json"
    path.write_text(_one_bag_chain_text(300))
    answers = []
    for argv in (
        ["validate", str(path)],
        ["min-subdec", str(path), "--u", "0"],
        ["assoc", str(path), os.path.join(fixdir, "k3.json")],
    ):
        proc = _run_process(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        answers.append(json.loads(proc.stdout))
    assert answers[0]["ok"] is True
    assert answers[1]["embedding"] == [0, 1]


def test_every_name_the_bench_tracer_wraps_resolves_on_its_module():
    # trace mode looks up each name of bench/tracer.py's LAYERS table on the
    # module homglue.<layer>; the table is read off the file, not run
    with open(os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    missing = [
        "%s.%s" % (layer, name)
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module("homglue." + layer), name, None))
    ]
    assert layers and missing == []
