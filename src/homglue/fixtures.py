"""Bundled desk-scale fixtures: positive decompositions at levels 0, 1 and 2,
small target graphs, and negative fixtures that trip each validator condition.
"""

import json
import os

from .graphs import Graph
from .markov import MarkovTree, TreeDecomposition
from .strong import StrongDecomposition, validate_document, zero_strong
from . import serialize


def k2():
    return Graph(2, [(0, 1)])


def k3():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def book():
    """Two 4-cycles sharing the edge {0, 1}: the level-2 fixture host."""
    return Graph(6, [(0, 1), (0, 2), (2, 3), (1, 3), (0, 4), (4, 5), (1, 5)])


def edge_fixture():
    return zero_strong(k2())


def path_fixture():
    return zero_strong(path3())


def star_fixture():
    return zero_strong(star(3))


def c4_fixture():
    """Level-1 decomposition of C4 with bags {0,1,2} and {0,2,3}."""
    host = c4()
    markov = MarkovTree(4, [(0, 1, 2), (0, 2, 3)], [(0, 1)])
    children = (
        zero_strong(Graph(3, [(0, 1), (1, 2)])),  # H[{0,1,2}]: path 0-1-2
        zero_strong(Graph(3, [(0, 2), (1, 2)])),  # H[{0,2,3}] relabeled: path 0-2-1
    )
    return StrongDecomposition(
        1, host, decomp=TreeDecomposition(host, markov), children=children
    )


def square_child():
    """Level-1 decomposition of the 4-cycle 0-2-3-1-0 (both book squares
    relabel to this shape), with bags {0,1,2} and {1,2,3}."""
    host = Graph(4, [(0, 1), (0, 2), (2, 3), (1, 3)])
    markov = MarkovTree(4, [(0, 1, 2), (1, 2, 3)], [(0, 1)])
    children = (
        zero_strong(Graph(3, [(0, 1), (0, 2)])),  # H[{0,1,2}]: path 1-0-2
        zero_strong(Graph(3, [(1, 2), (0, 2)])),  # H[{1,2,3}] relabeled: path 2-3-1
    )
    return StrongDecomposition(
        1, host, decomp=TreeDecomposition(host, markov), children=children
    )


def book_fixture():
    """Level-2 decomposition of the book graph: one bag per square."""
    host = book()
    markov = MarkovTree(6, [(0, 1, 2, 3), (0, 1, 4, 5)], [(0, 1)])
    return StrongDecomposition(
        2,
        host,
        decomp=TreeDecomposition(host, markov),
        children=(square_child(), square_child()),
    )


def bad_markov_tree():
    """Running-intersection violation: bags {0,1},{2},{0,2} on a path."""
    return MarkovTree(3, [(0, 1), (2,), (0, 2)], [(0, 1), (1, 2)])


def uncovered_tree_decomposition():
    """C4 with bags {0,1},{2,3}: edges 12 and 03 uncovered."""
    host = c4()
    return TreeDecomposition(host, MarkovTree(4, [(0, 1), (2, 3)], [(0, 1)]))


def bad_condition3_fixture():
    """Level-1 decomposition of C5 (cycle 0-1-2-4-3-0) whose two minimum
    sub-decompositions containing the bag intersection {0, 2} are a 3-path
    and a 4-path: condition 3 fails while everything else validates."""
    host = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
    markov = MarkovTree(5, [(0, 1, 2), (0, 2, 3, 4)], [(0, 1)])
    children = (
        zero_strong(Graph(3, [(0, 1), (1, 2)])),  # H[{0,1,2}]: path 0-1-2
        zero_strong(Graph(4, [(0, 2), (2, 3), (1, 3)])),  # H[{0,2,3,4}] relabeled
    )
    return StrongDecomposition(
        1, host, decomp=TreeDecomposition(host, markov), children=children
    )


def bundled_strong_fixtures():
    """Name -> valid strong decomposition, the positive fixture set."""
    return {
        "edge": edge_fixture(),
        "path3": path_fixture(),
        "star3": star_fixture(),
        "c4": c4_fixture(),
        "book": book_fixture(),
    }


def write_fixture_dir(directory):
    """Write every bundled fixture (and the negatives) as JSON documents."""
    os.makedirs(directory, exist_ok=True)

    def dump(name, doc):
        with open(os.path.join(directory, name + ".json"), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for name, sd in bundled_strong_fixtures().items():
        dump(name, serialize.strong_to_json(sd))
    dump("k2", serialize.graph_to_json(k2()))
    dump("k3", serialize.graph_to_json(k3()))
    dump("edgeless3", serialize.graph_to_json(Graph(3)))
    dump("bad_markov_tree", serialize.markov_to_json(bad_markov_tree()))
    dump(
        "bad_tree_decomposition",
        serialize.tree_decomposition_to_json(uncovered_tree_decomposition()),
    )
    dump("bad_condition3", serialize.strong_to_json(bad_condition3_fixture()))


def load_fixture_bundle(directory):
    """Load every JSON document in a directory, keyed by file stem.

    Each structural document must pass its module's validator (ValueError
    naming the file otherwise), so negative fixtures do not load.
    """
    bundle = {}
    for fn in sorted(os.listdir(directory)):
        if not fn.endswith(".json"):
            continue
        with open(os.path.join(directory, fn)) as fh:
            doc = json.load(fh)
        kind = serialize.detect_kind(doc)
        obj = serialize.LOADERS[kind](doc)
        report = validate_document(kind, obj)
        if report is not None and not report.ok:
            raise ValueError("fixture %s fails validation: %s" % (fn, report.violations))
        bundle[fn[:-5]] = obj
    return bundle
