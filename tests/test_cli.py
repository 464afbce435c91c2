import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import homglue
from homglue import serialize
from homglue.cli import main
from homglue.dists import glue_markov_tree, point_mass
from homglue.fixtures import bundled_strong_fixtures, c4_fixture, write_fixture_dir
from homglue.graphs import Graph
from homglue.sidorenko import associated_distribution

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


def test_validate_bad_markov(fixdir, capsys):
    code, doc = run(capsys, "validate", os.path.join(fixdir, "bad_markov_tree.json"))
    assert code == 1
    assert doc["violations"][0]["kind"] == "running-intersection"
    assert doc["violations"][0]["witness"] == {"a": 0, "b": 2, "c": 1, "element": 0}


def test_validate_bad_condition3(fixdir, capsys):
    code, doc = run(capsys, "validate", os.path.join(fixdir, "bad_condition3.json"))
    assert code == 1
    assert doc["violations"][0]["kind"] == "sub-decomposition-not-isomorphic"


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2


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
    """The distribution document as json.dumps lays it out, with the newline
    the CLI ends every document with."""
    return json.dumps(serialize.distribution_to_json(p), indent=1, sort_keys=True) + "\n"


def test_glue_command(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(k3_edge_instance()))
    code, dist = run(capsys, "glue", str(path))
    assert code == 0
    assert len(dist["mass"]) == 12
    assert all(e["den"] == "12" for e in dist["mass"])


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
        assert out.read_text() == json_route(associated_distribution(sd, target).dist), name


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


def test_entropy_report_command(fixdir, capsys):
    code, doc = run(
        capsys,
        "entropy-report",
        os.path.join(fixdir, "c4.json"),
        os.path.join(fixdir, "k3.json"),
    )
    assert code == 0
    assert doc["rhs_bits"] == "4.000000000000"


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


def test_assoc_non_homomorphic_atom_is_a_json_error_under_optimize(fixdir):
    # python -O strips asserts; the support check must still fire
    src = os.path.dirname(os.path.dirname(os.path.abspath(homglue.__file__)))
    script = (
        "import sys\n"
        "import homglue.sidorenko as s\n"
        "from homglue.cli import main\n"
        "s.is_homomorphism = lambda h, g, key: False\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-c",
            script,
            "assoc",
            os.path.join(fixdir, "c4.json"),
            os.path.join(fixdir, "k3.json"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "not a homomorphism" in json.loads(proc.stdout)["error"]


def test_min_subdec_disconnected_bag_tree_exits_1_with_one_line(tmp_path, capsys):
    doc = serialize.strong_to_json(c4_fixture())
    doc["payload"]["decomp"]["markov"]["tree"] = []
    path = tmp_path / "c4_disconnected.json"
    path.write_text(json.dumps(doc))
    code = main(["min-subdec", str(path), "--u", "1,3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: bag tree is disconnected\n"


def test_validate_graph_ok_and_distribution_unsupported(fixdir, tmp_path, capsys):
    code, doc = run(capsys, "validate", os.path.join(fixdir, "k3.json"))
    assert code == 0
    assert doc == {"kind": "graph", "ok": True, "violations": []}
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(serialize.distribution_to_json(point_mass((0,), 2, (1,)))))
    assert main(["validate", str(dist)]) == 2
    assert capsys.readouterr().out == ""


def test_deterministic_output(fixdir, capsys):
    args = ["sidorenko-sweep", os.path.join(fixdir, "c4.json"), "--max-n", "3"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
