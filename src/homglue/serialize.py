"""JSON encoding and decoding for every document kind the CLI handles.

Formats:
  Graph               {"n": int, "edges": [[u, v], ...]}            (u < v, sorted)
  MarkovTree          {"ground_size": k, "bags": [[...], ...], "tree": [[i, j], ...]}
  TreeDecomposition   {"host": Graph, "markov": MarkovTree}
  StrongDecomposition {"level": k, "host": Graph,
                       "payload": {"base": MarkovTree}
                                | {"decomp": TreeDecomposition,
                                   "children": [StrongDecomposition, ...]}}
  SparseDistribution  {"index_set": [...], "target_size": n,
                       "mass": [{"key": [...], "num": str, "den": str}, ...]}
All round trips are bit-exact.
"""

import json
from fractions import Fraction
from itertools import chain

from .dists import SparseDistribution
from .graphs import Graph
from .markov import MarkovTree, TreeDecomposition
from .strong import StrongDecomposition


def graph_to_json(g):
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


# Largest vertex count a graph document, and largest ground set a Markov
# tree, may declare. Graph allocates one adjacency list per vertex and
# validation reports every uncovered ground element, so both sizes are
# bounded before anything is built; every fixture and benchmark input is far
# below it.
MAX_GRAPH_VERTICES = 10_000


def _bounded_size(doc, key):
    """doc[key], refused with ValueError unless it is an int (not a bool)
    from 0 to MAX_GRAPH_VERTICES."""
    size = doc[key]
    if type(size) is not int or not 0 <= size <= MAX_GRAPH_VERTICES:
        raise ValueError(
            "%s must be an integer from 0 to %d, not %s"
            % (key, MAX_GRAPH_VERTICES, json.dumps(size))
        )
    return size


def graph_from_json(doc):
    return Graph(_bounded_size(doc, "n"), [tuple(e) for e in doc["edges"]])


def markov_to_json(m):
    return {
        "ground_size": m.ground_size,
        "bags": [list(b) for b in m.bags],
        "tree": [list(e) for e in m.tree],
    }


def markov_from_json(doc):
    return MarkovTree(
        _bounded_size(doc, "ground_size"),
        [tuple(b) for b in doc["bags"]],
        [tuple(e) for e in doc["tree"]],
    )


def tree_decomposition_to_json(d):
    return {"host": graph_to_json(d.host), "markov": markov_to_json(d.markov)}


def tree_decomposition_from_json(doc):
    return TreeDecomposition(
        graph_from_json(doc["host"]), markov_from_json(doc["markov"])
    )


def strong_to_json(sd):
    out = {"level": sd.level, "host": graph_to_json(sd.host)}
    if sd.level == 0:
        out["payload"] = {"base": markov_to_json(sd.base)}
    else:
        out["payload"] = {
            "decomp": tree_decomposition_to_json(sd.decomp),
            "children": [strong_to_json(c) for c in sd.children],
        }
    return out


def strong_from_json(doc):
    host = graph_from_json(doc["host"])
    payload = doc["payload"]
    if "base" in payload:
        return StrongDecomposition(doc["level"], host, base=markov_from_json(payload["base"]))
    return StrongDecomposition(
        doc["level"],
        host,
        decomp=tree_decomposition_from_json(payload["decomp"]),
        children=tuple(strong_from_json(c) for c in payload["children"]),
    )


def distribution_to_json(p):
    return {
        "index_set": list(p.index_set),
        "target_size": p.target_size,
        "mass": [
            {"key": list(k), "num": str(q.numerator), "den": str(q.denominator)}
            for k, q in sorted(p.mass.items())
        ],
    }


def distribution_to_text(p):
    """json.dumps(distribution_to_json(p), indent=1, sort_keys=True), byte for
    byte, written directly instead of through json's pure-Python indenting
    encoder: every atom fills one template with a slot per key value."""
    index_set, items = p.index_set, sorted(p.mass.items())
    if not all(type(x) is int for x in chain(index_set, *p.mass)):
        # bools and floats take their JSON spelling
        index_set = tuple(map(json.dumps, index_set))
        items = [(tuple(map(json.dumps, k)), q) for k, q in items]
    atom = (
        '{\n   "den": "%d",\n   "key": '
        + _list_text(["%s"] * len(index_set), 3)
        + ',\n   "num": "%d"\n  }'
    )
    atoms = [atom % (q.denominator, *k, q.numerator) for k, q in items]
    return '{\n "index_set": %s,\n "mass": %s,\n "target_size": %s\n}' % (
        _list_text(map(str, index_set), 1),
        _list_text(atoms, 1),
        json.dumps(p.target_size),
    )


def _list_text(texts, depth):
    """A JSON list of already-encoded items as json.dumps(indent=1) lays it
    out at nesting depth depth."""
    sep = "\n" + " " * (depth + 1)
    body = ("," + sep).join(texts)
    return "[%s%s\n%s]" % (sep, body, " " * depth) if body else "[]"


def distribution_from_json(doc):
    mass = {
        tuple(e["key"]): Fraction(int(e["num"]), int(e["den"])) for e in doc["mass"]
    }
    return SparseDistribution(doc["index_set"], doc["target_size"], mass)


def report_to_json(report):
    return {"ok": report.ok, "violations": report.violations}


def bound_report_to_json(r):
    return {
        "entropy_bits": "%.12f" % r.entropy_bits,
        "rhs_bits": "%.12f" % r.rhs_bits,
        "log_hom_bits": "%.12f" % r.log_hom_bits,
        "degree_ok": r.degree_ok,
        "sidorenko_gap": {
            "num": str(r.sidorenko_gap.numerator),
            "den": str(r.sidorenko_gap.denominator),
        },
    }


def detect_kind(doc):
    """Identify a document by its keys: graph, markov, tree-decomposition,
    strong-decomposition, or distribution."""
    if not isinstance(doc, dict):
        raise ValueError("document is not a JSON object")
    if "payload" in doc:
        return "strong-decomposition"
    if "host" in doc and "markov" in doc:
        return "tree-decomposition"
    if "ground_size" in doc:
        return "markov"
    if "index_set" in doc:
        return "distribution"
    if "n" in doc and "edges" in doc:
        return "graph"
    raise ValueError("unrecognized document kind")


LOADERS = {
    "graph": graph_from_json,
    "markov": markov_from_json,
    "tree-decomposition": tree_decomposition_from_json,
    "strong-decomposition": strong_from_json,
    "distribution": distribution_from_json,
}
