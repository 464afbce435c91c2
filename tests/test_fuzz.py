"""Mutated documents never escape the CLI.

Each committed fixture, and a glue instance, is loaded as JSON and has one
to three of its nodes replaced (by null, a bool, a float, NaN, a huge int,
an empty list or object, an out-of-range pair or another node of the same
document), deleted or duplicated in its list. Every subcommand then reads
the result wherever a document goes. Whatever the mutation, cli.main must
answer with exit 0, 1 or 2: no exception may leave it. The routines behind
the validators trust their preconditions, so each call of one must also
have met its precondition (helpers.record_preconditions): no malformed
input may reach them unvalidated.

Failures are split by cause. The document is also loaded as the CLI loads
it, through serialize.detect_kind and serialize.LOADERS, or for glue the
Markov-tree and distribution loaders. validate must exit 2 exactly when that
load fails or the document's kind has no validator, and glue exactly when
its load fails: a document that loads is answered with 0 or 1.

A second mutator keeps glue documents loadable but breaks the fit of their
laws to the Markov tree (one law dropped or duplicated, or one law's index
set shifted by one), which glue must refuse with exit 1 before gluing.
"""

import contextlib
import copy
import io
import json
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from homglue import serialize
from homglue.cli import main
from homglue.markov import MarkovTree

from helpers import (
    consistent_bag_dists,
    glue_document,
    random_markov_tree,
    record_preconditions,
)

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _documents():
    m = MarkovTree(4, [(0, 1), (1, 2), (1, 3)], [(0, 1), (1, 2)])
    docs = {"glue": glue_document(m, consistent_bag_dists(random.Random(3), m, 3, atoms=2))}
    for name in sorted(os.listdir(FIXDIR)):
        if name.endswith(".json"):
            with open(os.path.join(FIXDIR, name)) as fh:
                docs[name[: -len(".json")]] = json.load(fh)
    return docs


DOCUMENTS = _documents()
C4, K3 = (os.path.join(FIXDIR, name + ".json") for name in ("c4", "k3"))

VALUES = [None, True, False, 0.5, math.nan, 10**30, -(10**30), -1, 0, 1, 2, [], {}, [-1, 0]]
ANOTHER_NODE = object()


def _nodes(doc, path=()):
    """The path of every node under doc (doc itself excluded): a tuple of
    the keys and indices leading to it."""
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(name, seed, count):
    """The document name with count of its nodes mutated, each picked
    uniformly by random.Random(seed): hypothesis draws small indices far
    more often than large ones, which would leave the deep nodes alone."""
    rng = random.Random(seed)
    doc = copy.deepcopy(DOCUMENTS[name])
    for _ in range(count):
        nodes = list(_nodes(doc))
        action = rng.choice(["replace", "delete", "duplicate"])
        if action != "replace":
            # list members: a document without one of its keys only fails to parse
            nodes = [path for path in nodes if type(path[-1]) is int] or nodes
        if not nodes:
            break
        path = rng.choice(nodes)
        parent, key = _at(doc, path[:-1]), path[-1]
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:  # a replacement, as is a duplicate outside a list
            value = rng.choice(VALUES + [ANOTHER_NODE])
            if value is ANOTHER_NODE:
                value = _at(doc, rng.choice(nodes))
            parent[key] = copy.deepcopy(value)
    return doc


# what the CLI reads as a document it cannot load, and the kinds it validates
LOAD_ERRORS = (KeyError, TypeError, ValueError, RecursionError)
VALIDATED = {"graph", "markov", "tree-decomposition", "strong-decomposition"}


def _kind(doc):
    kind = serialize.detect_kind(doc)
    serialize.LOADERS[kind](doc)
    return kind


def _glue_instance(doc):
    m = serialize.markov_from_json(doc["markov"])
    return m, [serialize.distribution_from_json(law) for law in doc["bag_dists"]]


def loaded(path, load):
    """load(doc) for the JSON document in the file path, or None when
    reading or loading it raises one of LOAD_ERRORS."""
    try:
        with open(path) as fh:
            return load(json.load(fh))
    except LOAD_ERRORS:
        return None


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """The file each example's document is written to."""
    return str(tmp_path_factory.mktemp("fuzz") / "doc.json")


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(DOCUMENTS)),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
)
def test_no_mutated_document_escapes_the_cli(path, name, seed, count):
    doc = mutated(name, seed, count)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    runs = [
        ["validate", path],
        ["assoc", path, K3],
        ["assoc", C4, path],
        ["min-subdec", path, "--u", "0,1"],
        ["sidorenko-sweep", path, "--max-n", "3"],
        ["entropy-report", path, K3],
        ["entropy-report", C4, path],
        ["glue", path],
    ]
    kind = loaded(path, _kind)
    unreadable = {"validate": kind not in VALIDATED, "glue": loaded(path, _glue_instance) is None}
    quiet = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        traffic = record_preconditions(patch)
        for argv in runs:
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                code = main(argv)
            assert code in (0, 1, 2), (argv, doc)
            if argv[0] in unreadable:
                assert (code == 2) == unreadable[argv[0]], (argv, code, kind, doc)
    for key, held in traffic.items():
        assert all(held), ("%s.%s was called outside its precondition" % key, doc)


def misfit(seed):
    """A random glue document whose laws load but do not fit its Markov
    tree: one law is dropped or duplicated, or one law's index set is
    shifted up by one (its keys keep their length), all drawn by
    random.Random(seed). Every bag is nonempty, so a shift moves it."""
    rng = random.Random(seed)
    m = random_markov_tree(rng, rng.randint(1, 4), rng.randint(1, 4))
    doc = glue_document(m, consistent_bag_dists(rng, m, rng.randint(2, 3), atoms=3))
    laws = doc["bag_dists"]
    i = rng.randrange(len(laws))
    action = rng.choice(["drop", "duplicate", "shift"])
    if action == "drop":
        del laws[i]
    elif action == "duplicate":
        laws.insert(i, copy.deepcopy(laws[i]))
    else:
        laws[i]["index_set"] = [v + 1 for v in laws[i]["index_set"]]
    return doc


@settings(max_examples=60, deadline=5000, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_glue_refuses_loadable_laws_that_misfit_the_tree(path, seed):
    doc = misfit(seed)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert loaded(path, _glue_instance) is not None, doc
    quiet = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        traffic = record_preconditions(patch)
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            code = main(["glue", path])
    assert code == 1, (code, doc)
    assert all(all(held) for held in traffic.values()), (traffic, doc)
