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
                      (index_set strictly ascending; key i is the value at
                       index_set[i]; each key listed once)
All round trips are bit-exact. One strong decomposition load builds one
object per distinct graph, Markov tree, tree decomposition and
sub-decomposition of the document (see strong_from_json and _Load); every
occurrence still passes every check. Every CLI answer is laid out as
json.dumps(doc, indent=1, sort_keys=True) lays it out: a distribution by
distribution_to_text, every other answer by json_text.
distribution_to_text joins its atoms' text from column iterators (fixed
text, key values, den and num, each a repeat or a map over the keys or
weights as the distribution stores them, in key order), so no Python code
runs per atom.
"""

import json
import math
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .dists import SparseDistribution
from .graphs import Graph, require_ints
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
    return _graph_from_json(doc, Graph)


def _graph_from_json(doc, graph):
    """The Graph of a graph document, built by graph(n, edges) once n and
    every endpoint are checked to be ints: Graph, or a _Load's table."""
    n = _bounded_size(doc, "n")
    require_ints(doc["edges"], "edge endpoints")
    return graph(n, tuple(map(tuple, doc["edges"])))


def markov_to_json(m):
    return {
        "ground_size": m.ground_size,
        "bags": [list(b) for b in m.bags],
        "tree": [list(e) for e in m.tree],
    }


def markov_from_json(doc):
    return _markov_from_json(doc, MarkovTree)


def _markov_from_json(doc, markov):
    """The MarkovTree of a Markov tree document, built by markov(ground_size,
    bags, tree) once ground_size and every bag element and tree endpoint
    are checked to be ints: MarkovTree, or a _Load's table."""
    ground_size = _bounded_size(doc, "ground_size")
    require_ints(doc["bags"], "bag elements")
    require_ints(doc["tree"], "tree edge endpoints")
    return markov(ground_size, tuple(map(tuple, doc["bags"])), tuple(map(tuple, doc["tree"])))


def tree_decomposition_to_json(d):
    return {"host": graph_to_json(d.host), "markov": markov_to_json(d.markov)}


def tree_decomposition_from_json(doc):
    return _tree_decomposition_from_json(doc, _Load())


def _tree_decomposition_from_json(doc, load):
    return load.decomp(
        _graph_from_json(doc["host"], load.graph), _markov_from_json(doc["markov"], load.markov)
    )


def strong_to_json(sd):
    out = {"level": sd.level, "host": graph_to_json(sd.host)}
    if sd.level == 0:
        out["payload"] = {"base": markov_to_json(sd.decomp.markov)}
    else:
        out["payload"] = {
            "decomp": tree_decomposition_to_json(sd.decomp),
            "children": [strong_to_json(c) for c in sd.children],
        }
    return out


class _Load:
    """The tables of one load, which make its equal parts one object.

    Graphs and Markov trees are keyed by the ints read for them, looked up
    only once every one of those is checked to be an int: a bool or a
    float equal to an int seen before is refused, as it is anywhere. The
    checks that come later, those of Graph and of MarkovTree, are functions
    of the key alone, so a key seen before has passed them already. Tree
    decompositions and strong decompositions are keyed by their level and
    the identities of their parts, which the tables already share, and
    their constructors' checks are functions of that key too. The tables
    hold every part they name, so no identity in a key is reused while
    they live.
    """

    def __init__(self):
        self.graphs, self.markovs, self.decomps, self.strongs = {}, {}, {}, {}

    def graph(self, n, edges):
        g = self.graphs.get((n, edges))
        if g is None:
            g = self.graphs[n, edges] = Graph(n, edges)
        return g

    def markov(self, ground_size, bags, tree):
        key = ground_size, bags, tree
        m = self.markovs.get(key)
        if m is None:
            m = self.markovs[key] = MarkovTree(ground_size, bags, tree, self.graph)
        return m

    def decomp(self, host, markov):
        key = id(host), id(markov)
        d = self.decomps.get(key)
        if d is None:
            d = self.decomps[key] = TreeDecomposition(host, markov)
        return d

    def strong(self, level, host, decomp, children=()):
        key = level, id(host), id(decomp), tuple(map(id, children))
        sd = self.strongs.get(key)
        if sd is None:
            sd = self.strongs[key] = StrongDecomposition(level, host, decomp, children)
        return sd


def strong_from_json(doc):
    """The StrongDecomposition of a strong decomposition document.

    A document restates small pieces many times: every level states its
    host twice (host and payload.decomp.host), most bag trees are one or
    two edges, and the bags of a higher-order decomposition carry copies of
    one lower-level decomposition. So one load keeps one _Load, and every
    graph, Markov tree, tree decomposition and sub-decomposition equal, as
    read, to an earlier one is that earlier object: validate_strong then
    checks a repeated child once. Every occurrence still passes, in the
    same order, every check that comes before its lookup: the sizes' and
    the int check of every value it holds. The tables live for this call
    alone; two loads share no object.
    """
    return _strong_from_json(doc, _Load())


def _strong_from_json(doc, load):
    host = _graph_from_json(doc["host"], load.graph)
    payload = doc["payload"]
    level = _bounded_size(doc, "level")
    if "base" in payload:
        markov = _markov_from_json(payload["base"], load.markov)
        return load.strong(level, host, load.decomp(host, markov))
    decomp = _tree_decomposition_from_json(payload["decomp"], load)
    children = tuple(_strong_from_json(c, load) for c in payload["children"])
    if not children:  # a decomp payload needs children; level 0 is spelt with base
        raise ValueError(
            "one child per bag is required" if level else "level 0 requires a base payload only"
        )
    return load.strong(level, host, decomp, children)


def distribution_to_json(p):
    """The distribution document of p, read back from distribution_to_text,
    which alone decides its layout."""
    return json.loads(distribution_to_text(p))


def _mass_texts(p):
    """({w: num}, {w: den}) over the distinct weights w of p: the decimal
    strings of the mass w / p.den in lowest terms."""
    nums, dens = {}, {}
    for w in set(p.weight.values()):
        g = math.gcd(w, p.den)
        nums[w] = str(w // g)
        dens[w] = str(p.den // g)
    return nums, dens


def distribution_to_text(p):
    """The distribution document of p, the one place its layout is decided:
    {"index_set", "mass", "target_size"} with one {"den", "key", "num"} atom
    per key in ascending key order, its mass in lowest terms, laid out as
    json.dumps(doc, indent=1, sort_keys=True) lays it out, byte for byte,
    but written directly instead of through json's pure-Python indenting
    encoder.

    The atoms' text is one join over columns zipped atom by atom, each read
    in the order p.weight stores its atoms, which is ascending key order:
    the fixed text between two slots is a repeat, each key position maps the
    keys through itemgetter and a table of value strings, and den and num
    map the weights through the tables of _mass_texts. So no Python code
    runs per atom. The value table holds only the values that occur, never
    one string per target value: target_size is unbounded.
    """
    keys, ws = p.weight.keys(), p.weight.values()
    nums, dens = _mass_texts(p)
    seen = set(chain.from_iterable(keys))
    values = dict(zip(seen, map(str, seen)))
    n = len(p.index_set)
    columns = [
        chain(('{\n   "den": "',), repeat(',\n  {\n   "den": "')),
        map(dens.__getitem__, ws),
    ]
    if n:
        columns.append(repeat('",\n   "key": [\n    '))
        for i in range(n):
            if i:
                columns.append(repeat(",\n    "))
            columns.append(map(values.__getitem__, map(itemgetter(i), keys)))
        columns.append(repeat('\n   ],\n   "num": "'))
    else:
        columns.append(repeat('",\n   "key": [],\n   "num": "'))
    columns += [map(nums.__getitem__, ws), repeat('"\n  }')]
    atoms = "".join(chain.from_iterable(zip(*columns)))
    return '{\n "index_set": %s,\n "mass": %s,\n "target_size": %s\n}' % (
        _list_text(map(str, p.index_set), 1),
        _list_text((atoms,), 1),
        p.target_size,
    )


def _list_text(texts, depth):
    """A JSON list of already-encoded items as json.dumps(indent=1) lays it
    out at nesting depth depth."""
    sep = "\n" + " " * (depth + 1)
    body = ("," + sep).join(texts)
    return "[%s%s\n%s]" % (sep, body, " " * depth) if body else "[]"


# "\n" and the indent of nesting depths 0..31; deeper ones are made on demand
_NEWLINES = tuple("\n" + " " * d for d in range(32))
_INT = frozenset((int,))


def _newline(depth):
    return _NEWLINES[depth] if depth < len(_NEWLINES) else "\n" + " " * depth


def json_text(doc):
    """json.dumps(doc, indent=1, sort_keys=True), byte for byte, for a
    document made of what the CLI's answers hold: str, int, bool and None
    values in lists, tuples and dicts with str keys. It has no depth limit.

    json.dumps ignores its C encoder when it indents, and its pure-Python
    encoder runs a generator per open list or dict. Here one loop walks doc
    with its own stack of open containers, so nesting is bounded by memory
    alone, and appends each item's text, separator and indent included, to
    one list that is joined at the end. A list of ints alone is written in
    one join, and strings go through json's own C escaping. A circular
    reference is a ValueError, as in json.dumps; any other value or key
    (a float, a subclass of one of these types) is a TypeError.
    """
    out = []
    open_ids = set()  # the ids of the containers being written
    # one frame per open container: its (key text, value) pairs left, its
    # id, the index in out of its first item, the separator before each of
    # its items and the text that closes it. The first frame holds doc alone.
    stack = [(iter((("", doc),)), None, 0, "", "")]
    while True:
        pairs, cid, first, sep, closer = stack[-1]
        for prefix, value in pairs:
            t = type(value)
            if t is str:
                out.append(sep + prefix + encode_basestring_ascii(value))
            elif t is int:
                out.append(sep + prefix + int.__repr__(value))
            elif t is list or t is tuple or t is dict:
                if not value:
                    out.append(sep + prefix + ("{}" if t is dict else "[]"))
                    continue
                depth = len(stack)  # the depth of value's items
                indent = _newline(depth)
                if t is not dict and _INT.issuperset(map(type, value)):
                    body = ("," + indent).join(map(int.__repr__, value))
                    out.append("%s%s[%s%s%s]" % (sep, prefix, indent, body, _newline(depth - 1)))
                    continue
                if id(value) in open_ids:
                    raise ValueError("Circular reference detected")
                open_ids.add(id(value))
                if t is dict:
                    out.append(sep + prefix + "{")
                    items = iter([(_key_text(k), v) for k, v in sorted(value.items())])
                    bracket = "}"
                else:
                    out.append(sep + prefix + "[")
                    items = zip(repeat(""), value)
                    bracket = "]"
                stack.append((items, id(value), len(out), "," + indent, _newline(depth - 1) + bracket))
                break
            else:
                out.append(sep + prefix + _literal_text(value))
        else:
            stack.pop()
            if not stack:
                return "".join(out)
            open_ids.discard(cid)
            out[first] = out[first][1:]  # no comma before the first item
            out.append(closer)


def _literal_text(value):
    """The JSON text of None, True or False; TypeError for any other value."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _key_text(key):
    """A dict key, which must be a str, quoted and followed by ": "."""
    if type(key) is not str:
        raise TypeError("keys must be str, not %s" % type(key).__name__)
    return encode_basestring_ascii(key) + ": "


def distribution_from_json(doc):
    """The SparseDistribution of a distribution document. Its atoms go to the
    constructor as (key, mass) pairs, in their order, so the constructor
    checks them all, a repeated key included."""
    try:
        mass = [(e["key"], _mass(e["num"], e["den"])) for e in doc["mass"]]
    except ZeroDivisionError:
        raise ValueError("a mass has a zero denominator")
    return SparseDistribution(doc["index_set"], doc["target_size"], mass)


def is_ascii_integer(text):
    """Whether the string text is ASCII digits after an optional minus, the
    form the writers give an integer. int() reads more: other scripts'
    digits, blanks around the digits, underscores between them or a plus
    sign."""
    digits = text.removeprefix("-")
    # on ASCII text, isdigit holds exactly for 0-9
    return digits.isascii() and digits.isdigit()


def _mass(num, den):
    """The fraction num/den of two integers written as strings of ASCII
    digits after an optional minus (is_ascii_integer), as the writer emits
    them. Anything but a string (a bool, a float, an int, null) is refused
    with ValueError: int() would truncate a float and read a bool as 0 or 1.
    So is any other string, though int() reads some."""
    for part in (num, den):
        if type(part) is not str:
            raise ValueError("num and den must be strings, not %s" % json.dumps(part))
        if not is_ascii_integer(part):
            raise ValueError(
                "num and den must be integers in ASCII digits, not %s" % json.dumps(part)
            )
    return Fraction(int(num), int(den))


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
