"""Output digests of every subcommand. Those of assoc, entropy-report and
glue were recorded from the program as it stood when every distribution
held one Fraction per atom (the broken-descending-index and
broken-repeated-index glue cases when index sets out of order were first
refused); those of validate, min-subdec and sidorenko-sweep from the
program as it stood when every answer went through json.dumps(indent=1,
sort_keys=True) and every minimum sub-decomposition was rebuilt by a
retraction. Any change to an atom, a
mass, an entropy bit, a hom count, a gap, a witness, a sub-decomposition,
an embedding, a message or an exit code changes a digest.

A case's digest is the first 16 hex digits of the sha256 of its exit code,
stdout, stderr (with the case directory written as <dir>) and the bytes of
its --out file, when one was written. Every case of a subcommand with an
--out option runs once without it and once with it.
"""

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction
from itertools import combinations, product

from homglue import serialize
from homglue.cli import main
from homglue.graphs import Graph

from fixture_builders import bundled_strong_fixtures, write_fixture_dir
from helpers import seeded_gnm
from test_cli import k3_edge_instance

TARGETS = {
    "K4": Graph(4, combinations(range(4), 2)),
    "K5": Graph(5, combinations(range(5), 2)),
    "G5-6": seeded_gnm(5, 5, 6),
    "G6-9": seeded_gnm(6, 6, 9),
    "G7-8": seeded_gnm(7, 7, 8),
}
FIXTURE_TARGETS = ("k2", "k3", "edgeless3")


def _dist_doc(index_set, target_size, masses):
    return {
        "index_set": list(index_set),
        "target_size": target_size,
        "mass": [
            {"key": list(k), "num": str(q.numerator), "den": str(q.denominator)}
            for k, q in masses.items()
        ],
    }


def _consistent_instance(bags, tree, ground_size, target_size, scale):
    """The bag marginals of one joint law whose atom i has mass proportional
    to a Fraction with a numerator and a denominator near scale, so that
    the bag laws carry mixed, large denominators."""
    raw = {}
    for i, key in enumerate(product(range(target_size), repeat=ground_size)):
        if i % 3 != 1:
            raw[key] = Fraction(scale + 7 * i * i + 1, scale + 11 * i + 3)
    total = sum(raw.values())
    bag_dists = []
    for bag in bags:
        marginal = {}
        for key, q in raw.items():
            k = tuple(key[v] for v in bag)
            marginal[k] = marginal.get(k, 0) + q / total
        bag_dists.append(_dist_doc(bag, target_size, marginal))
    return {"markov": {"ground_size": ground_size, "bags": bags, "tree": tree}, "bag_dists": bag_dists}


def _broken(field, value, atom=False):
    """k3_edge_instance with field set to value in its first bag law, or in
    that law's first atom when atom is true."""
    instance = k3_edge_instance()
    dist = instance["bag_dists"][0]
    (dist["mass"][0] if atom else dist)[field] = value
    return instance


# glue instances that fail to load, each pinned here: test_cli's own table
# of refusals may grow without moving a digest
BROKEN_GLUE = {
    "zero-den": _broken("den", "0", atom=True),
    "float-num": _broken("num", 1.9, atom=True),
    "bool-num": _broken("num", True, atom=True),
    "int-den": _broken("den", 6, atom=True),
    "null-num": _broken("num", None, atom=True),
    "bool-key": _broken("key", [True, 0], atom=True),
    "float-key": _broken("key", [0, 1.0], atom=True),
    "float-target": _broken("target_size", 2.5),
    "bool-index": _broken("index_set", [0, True]),
    "descending-index": _broken("index_set", [1, 0]),
    "repeated-index": _broken("index_set", [0, 0]),
    "float-tree": {
        **k3_edge_instance(),
        "markov": {"ground_size": 3, "bags": [[0, 1], [1, 2]], "tree": [[0, 1.0]]},
    },
}


def glue_instances():
    half, third = Fraction(1, 2), Fraction(1, 3)
    instances = {
        "k3-edge": k3_edge_instance(),
        "mismatch": {
            "markov": {"ground_size": 4, "bags": [[0, 1], [1, 2], [2, 3]], "tree": [[1, 2], [0, 1]]},
            "bag_dists": [
                _dist_doc([0, 1], 2, {(0, 0): half, (1, 1): half}),
                _dist_doc([1, 2], 2, {(0, 0): third, (1, 1): 2 * third}),
                _dist_doc([2, 3], 2, {(0, 0): Fraction(3, 4), (1, 0): Fraction(1, 4)}),
            ],
        },
        "wrong-total": {
            "markov": {"ground_size": 1, "bags": [[0]], "tree": []},
            "bag_dists": [_dist_doc([0], 2, {(0,): Fraction(1, 4), (1,): half})],
        },
        "path-small": _consistent_instance([[0, 1], [1, 2], [2, 3]], [[0, 1], [1, 2]], 4, 2, 5),
        "star-coprime": _consistent_instance(
            [[0, 1], [1, 2], [1, 3]], [[0, 1], [0, 2]], 4, 3, 1009
        ),
        "wide-huge": _consistent_instance([[0, 1, 2], [1, 2, 3]], [[0, 1]], 4, 2, 10**30),
        "reordered-huge": _consistent_instance(
            [[1, 2], [0, 1], [2, 3]], [[0, 1], [0, 2]], 4, 3, 10**25 + 13
        ),
    }
    instances.update(("broken-" + k, v) for k, v in BROKEN_GLUE.items())
    return instances


def _run(argv, directory):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue().replace(directory, "<dir>")):
        h.update(part.encode() + b"\0")
    if "--out" in argv and os.path.exists(argv[-1]):
        with open(argv[-1], "rb") as fh:
            h.update(fh.read())
        os.remove(argv[-1])
    return h.hexdigest()[:16]


def output_digests(directory):
    """{case: digest} over every case, with the inputs written under the
    directory directory."""
    write_fixture_dir(directory)
    path = {name: os.path.join(directory, name + ".json") for name in FIXTURE_TARGETS}
    for name, g in TARGETS.items():
        path[name] = os.path.join(directory, "target-%s.json" % name)
        with open(path[name], "w") as fh:
            json.dump(serialize.graph_to_json(g), fh)
    cases = {}
    for fixture in sorted(bundled_strong_fixtures()):
        decomp = os.path.join(directory, fixture + ".json")
        for target in FIXTURE_TARGETS + tuple(TARGETS):
            for command in ("assoc", "entropy-report"):
                cases["%s %s %s" % (command, fixture, target)] = [command, decomp, path[target]]
    for name, instance in glue_instances().items():
        ipath = os.path.join(directory, "glue-%s.json" % name)
        with open(ipath, "w") as fh:
            json.dump(instance, fh)
        cases["glue " + name] = ["glue", ipath]
    return _digests_with_and_without_out(cases, directory)


def _digests_with_and_without_out(cases, directory):
    out = os.path.join(directory, "out.json")
    digests = {}
    for case, argv in cases.items():
        digests[case] = _run(argv, directory)
        digests[case + " --out"] = _run(argv + ["--out", out], directory)
    return digests


# A Markov tree whose bag tree is a triangle: its tree-structure witness
# lists the bag tree's edges as pairs.
CYCLIC_BAG_TREE = {
    "ground_size": 3,
    "bags": [[0, 1], [1, 2], [0, 2]],
    "tree": [[0, 1], [1, 2], [0, 2]],
}


def structure_digests(directory):
    """{case: digest} over validate on every fixture and on CYCLIC_BAG_TREE,
    min-subdec on every strong fixture and every set of one to three of its
    host's vertices, and sidorenko-sweep on every fixture at every --max-n
    from -1 to 7, with the inputs written under the directory directory."""
    write_fixture_dir(directory)
    fixtures = sorted(f[: -len(".json")] for f in os.listdir(directory))
    path = {name: os.path.join(directory, name + ".json") for name in fixtures}
    path["cyclic-bag-tree"] = os.path.join(directory, "cyclic-bag-tree.json")
    with open(path["cyclic-bag-tree"], "w") as fh:
        json.dump(CYCLIC_BAG_TREE, fh)
    digests = {
        "validate " + name: _run(["validate", path[name]], directory)
        for name in fixtures + ["cyclic-bag-tree"]
    }
    cases = {}
    for name, sd in sorted(bundled_strong_fixtures().items()):
        for size in (1, 2, 3):
            for u in combinations(range(sd.host.n), size):
                u = ",".join(map(str, u))
                cases["min-subdec %s %s" % (name, u)] = ["min-subdec", path[name], "--u", u]
    for name in fixtures:
        for max_n in range(-1, 8):
            cases["sidorenko-sweep %s %d" % (name, max_n)] = [
                "sidorenko-sweep", path[name], "--max-n", str(max_n)
            ]
    digests.update(_digests_with_and_without_out(cases, directory))
    return digests


DIGESTS = {
    "assoc book k2": "d1d5d40d30eaec51",
    "assoc book k2 --out": "b2f16f4735c3aac3",
    "entropy-report book k2": "df7703cc9d928581",
    "entropy-report book k2 --out": "f45270cb42c903ab",
    "assoc book k3": "9c0acc5cfb7dd9cb",
    "assoc book k3 --out": "aa15c030b6c94031",
    "entropy-report book k3": "4946c72372cdc0a9",
    "entropy-report book k3 --out": "050580e8621c1c1a",
    "assoc book edgeless3": "17af867bc339e0b7",
    "assoc book edgeless3 --out": "17af867bc339e0b7",
    "entropy-report book edgeless3": "17af867bc339e0b7",
    "entropy-report book edgeless3 --out": "17af867bc339e0b7",
    "assoc book K4": "1adcfda4fd528cca",
    "assoc book K4 --out": "9c535fc6a50ce501",
    "entropy-report book K4": "d11ae64457b2b3eb",
    "entropy-report book K4 --out": "210e2dafbb1af2a0",
    "assoc book K5": "544dfe7c6f3a22e0",
    "assoc book K5 --out": "d888851fdf549654",
    "entropy-report book K5": "2e066214853f8932",
    "entropy-report book K5 --out": "247d9e0d1e5b85ff",
    "assoc book G5-6": "854fac95ebc47bbc",
    "assoc book G5-6 --out": "1d13f4621ba0409d",
    "entropy-report book G5-6": "4c51fac3c61cf71e",
    "entropy-report book G5-6 --out": "fb372101a2675e87",
    "assoc book G6-9": "7c411ed63e91d08e",
    "assoc book G6-9 --out": "2814d6e8047de6b6",
    "entropy-report book G6-9": "deb9ca649fd55f39",
    "entropy-report book G6-9 --out": "4c59e689b169db21",
    "assoc book G7-8": "872bcdc968f74ca1",
    "assoc book G7-8 --out": "196294c6f21cf881",
    "entropy-report book G7-8": "5519cee5eb5fe2c3",
    "entropy-report book G7-8 --out": "24f7dff4daee51c7",
    "assoc c4 k2": "6e56d0307dfc485f",
    "assoc c4 k2 --out": "3b932ccaba7eae62",
    "entropy-report c4 k2": "8be09765a40f7baa",
    "entropy-report c4 k2 --out": "28aae74db6a4f739",
    "assoc c4 k3": "85c0adfcbba4a85b",
    "assoc c4 k3 --out": "999a537b4fa6d802",
    "entropy-report c4 k3": "acf4b642cc991037",
    "entropy-report c4 k3 --out": "875e3b1cb2bad26c",
    "assoc c4 edgeless3": "17af867bc339e0b7",
    "assoc c4 edgeless3 --out": "17af867bc339e0b7",
    "entropy-report c4 edgeless3": "17af867bc339e0b7",
    "entropy-report c4 edgeless3 --out": "17af867bc339e0b7",
    "assoc c4 K4": "027f7429f379cd49",
    "assoc c4 K4 --out": "b6c3786baec98163",
    "entropy-report c4 K4": "e01b2eaa099d79cd",
    "entropy-report c4 K4 --out": "413ebc83d894b4b9",
    "assoc c4 K5": "ee366646b82b6556",
    "assoc c4 K5 --out": "7332fa4e4d1338d1",
    "entropy-report c4 K5": "aa981f25083e76ca",
    "entropy-report c4 K5 --out": "6c6eb7524bd6e15e",
    "assoc c4 G5-6": "31c143a8810263a0",
    "assoc c4 G5-6 --out": "255519390cfd5fda",
    "entropy-report c4 G5-6": "b75dc6f67e22e30a",
    "entropy-report c4 G5-6 --out": "091f64652a11e2d0",
    "assoc c4 G6-9": "9e014800e845b09b",
    "assoc c4 G6-9 --out": "6ea1c32f3128c68a",
    "entropy-report c4 G6-9": "9616b6fce30c54aa",
    "entropy-report c4 G6-9 --out": "8a724cdbfed61b5a",
    "assoc c4 G7-8": "d5a9e7c196d89014",
    "assoc c4 G7-8 --out": "260b8f967eb89d07",
    "entropy-report c4 G7-8": "58d823ce4f1a9950",
    "entropy-report c4 G7-8 --out": "b6dd036703832c37",
    "assoc edge k2": "1ee147abc479e976",
    "assoc edge k2 --out": "5de33d2b826ecbea",
    "entropy-report edge k2": "203f2f1181345934",
    "entropy-report edge k2 --out": "2d79097c87dd7d97",
    "assoc edge k3": "f33a981c9708f1c2",
    "assoc edge k3 --out": "54960786a6544d15",
    "entropy-report edge k3": "911ced2841c8e099",
    "entropy-report edge k3 --out": "6093779997986aaa",
    "assoc edge edgeless3": "17af867bc339e0b7",
    "assoc edge edgeless3 --out": "17af867bc339e0b7",
    "entropy-report edge edgeless3": "17af867bc339e0b7",
    "entropy-report edge edgeless3 --out": "17af867bc339e0b7",
    "assoc edge K4": "958af4c6a6c0bb38",
    "assoc edge K4 --out": "ea88f99469f95f2f",
    "entropy-report edge K4": "a70ceea51b96a52b",
    "entropy-report edge K4 --out": "8e3f44b48a5a365f",
    "assoc edge K5": "6636cdcac0026ff0",
    "assoc edge K5 --out": "d4dbcc53c98c26a1",
    "entropy-report edge K5": "d95748bcdf5a93f8",
    "entropy-report edge K5 --out": "2e994d9b35e3e108",
    "assoc edge G5-6": "d96f5806ad6dc1d1",
    "assoc edge G5-6 --out": "d347136adefdc827",
    "entropy-report edge G5-6": "a70ceea51b96a52b",
    "entropy-report edge G5-6 --out": "8e3f44b48a5a365f",
    "assoc edge G6-9": "08666f5ee8acf5e8",
    "assoc edge G6-9 --out": "41eb4f9f0afc5eac",
    "entropy-report edge G6-9": "3a4c28fc12e13323",
    "entropy-report edge G6-9 --out": "2e629d7d11a2e6c8",
    "assoc edge G7-8": "1c137d6f3148452a",
    "assoc edge G7-8 --out": "9d4cc94ffa31c0e2",
    "entropy-report edge G7-8": "1aa6bb197b3d247b",
    "entropy-report edge G7-8 --out": "cad33e1aaf3e5b67",
    "assoc path3 k2": "d944dc18cd6b57c7",
    "assoc path3 k2 --out": "d535e53e3ce26431",
    "entropy-report path3 k2": "203f2f1181345934",
    "entropy-report path3 k2 --out": "2d79097c87dd7d97",
    "assoc path3 k3": "23542d6c94387226",
    "assoc path3 k3 --out": "4328da3515c8c44b",
    "entropy-report path3 k3": "a70ceea51b96a52b",
    "entropy-report path3 k3 --out": "8e3f44b48a5a365f",
    "assoc path3 edgeless3": "17af867bc339e0b7",
    "assoc path3 edgeless3 --out": "17af867bc339e0b7",
    "entropy-report path3 edgeless3": "17af867bc339e0b7",
    "entropy-report path3 edgeless3 --out": "17af867bc339e0b7",
    "assoc path3 K4": "1e4160ceaa7d8403",
    "assoc path3 K4 --out": "46a72fd21e7d493f",
    "entropy-report path3 K4": "2ce709cd45ae1a3a",
    "entropy-report path3 K4 --out": "dcc2793d409a54e4",
    "assoc path3 K5": "376f91f6561e2aa1",
    "assoc path3 K5 --out": "0be24132b72b4da0",
    "entropy-report path3 K5": "8e55789750911176",
    "entropy-report path3 K5 --out": "7e65dea5ae013c37",
    "assoc path3 G5-6": "53b07231cc6f266b",
    "assoc path3 G5-6 --out": "57d13a4ead8c8cc9",
    "entropy-report path3 G5-6": "7904bd805eda5169",
    "entropy-report path3 G5-6 --out": "8947f7d9843a2842",
    "assoc path3 G6-9": "6ecf2cb4fddf2b63",
    "assoc path3 G6-9 --out": "38fa921e3a4f6738",
    "entropy-report path3 G6-9": "7e53585fd80daadc",
    "entropy-report path3 G6-9 --out": "513d09dd1ddca0b1",
    "assoc path3 G7-8": "1a12bc47331cecda",
    "assoc path3 G7-8 --out": "3ac6fe2b2ffbea32",
    "entropy-report path3 G7-8": "9d5de0cc42a386de",
    "entropy-report path3 G7-8 --out": "ef3b532057be0ae9",
    "assoc star3 k2": "6563803eeff3854b",
    "assoc star3 k2 --out": "c3c89f3f1fd3c996",
    "entropy-report star3 k2": "203f2f1181345934",
    "entropy-report star3 k2 --out": "2d79097c87dd7d97",
    "assoc star3 k3": "6f7c0c942d38685a",
    "assoc star3 k3 --out": "530809dcb2e2f6a9",
    "entropy-report star3 k3": "0e9a0549ee71ded9",
    "entropy-report star3 k3 --out": "b0557de9470efe23",
    "assoc star3 edgeless3": "17af867bc339e0b7",
    "assoc star3 edgeless3 --out": "17af867bc339e0b7",
    "entropy-report star3 edgeless3": "17af867bc339e0b7",
    "entropy-report star3 edgeless3 --out": "17af867bc339e0b7",
    "assoc star3 K4": "3ea833fbc5b7f46a",
    "assoc star3 K4 --out": "c1c02fba152469e0",
    "entropy-report star3 K4": "3508c4e46169438c",
    "entropy-report star3 K4 --out": "e7a26b36a62d7986",
    "assoc star3 K5": "dac00aa3f1aecd9f",
    "assoc star3 K5 --out": "85a92248b136de0f",
    "entropy-report star3 K5": "b02314e30f5731e3",
    "entropy-report star3 K5 --out": "924feedf5a61b4ac",
    "assoc star3 G5-6": "d7e372e50d94f0bf",
    "assoc star3 G5-6 --out": "9f5a115f7dfd8954",
    "entropy-report star3 G5-6": "1c6c25d1a0bdb910",
    "entropy-report star3 G5-6 --out": "51d0e50b132696ad",
    "assoc star3 G6-9": "c63f32eab4b0d323",
    "assoc star3 G6-9 --out": "9147144f8f5879ce",
    "entropy-report star3 G6-9": "470a67cc18a37803",
    "entropy-report star3 G6-9 --out": "78ad401f5541154d",
    "assoc star3 G7-8": "95d5f7df0d07a0e1",
    "assoc star3 G7-8 --out": "186833459ae62376",
    "entropy-report star3 G7-8": "b190d6dff21de84a",
    "entropy-report star3 G7-8 --out": "18cf579f8766cab5",
    "glue k3-edge": "23542d6c94387226",
    "glue k3-edge --out": "18e1ed8bdb1262b3",
    "glue mismatch": "86b6058d38a263e0",
    "glue mismatch --out": "86b6058d38a263e0",
    "glue wrong-total": "bf0e26100d9bc11e",
    "glue wrong-total --out": "bf0e26100d9bc11e",
    "glue path-small": "f23cf63893c760ac",
    "glue path-small --out": "4c6b02c38d072e57",
    "glue star-coprime": "62c2fd607472973b",
    "glue star-coprime --out": "7088bdd92e22e7f8",
    "glue wide-huge": "7ee7a7cc140b2692",
    "glue wide-huge --out": "93f7091b8a84f85f",
    "glue reordered-huge": "892fd8e62bbecfb0",
    "glue reordered-huge --out": "21479b97cab1a2d9",
    "glue broken-zero-den": "5cd99e04b7c18cb8",
    "glue broken-zero-den --out": "5cd99e04b7c18cb8",
    "glue broken-float-num": "fe53829d1fd3ff5b",
    "glue broken-float-num --out": "fe53829d1fd3ff5b",
    "glue broken-bool-num": "0ead6dd263436d0f",
    "glue broken-bool-num --out": "0ead6dd263436d0f",
    "glue broken-int-den": "17dd4b90e361ba15",
    "glue broken-int-den --out": "17dd4b90e361ba15",
    "glue broken-null-num": "76ef3711baca1ef2",
    "glue broken-null-num --out": "76ef3711baca1ef2",
    "glue broken-bool-key": "f4b00c4b21f0f71b",
    "glue broken-bool-key --out": "f4b00c4b21f0f71b",
    "glue broken-float-key": "fd0825b885f4ecdb",
    "glue broken-float-key --out": "fd0825b885f4ecdb",
    "glue broken-float-target": "b87e76b22ab1f391",
    "glue broken-float-target --out": "b87e76b22ab1f391",
    "glue broken-bool-index": "434c776996f0e5fe",
    "glue broken-bool-index --out": "434c776996f0e5fe",
    "glue broken-descending-index": "5f0acb79dcd21bf9",
    "glue broken-descending-index --out": "5f0acb79dcd21bf9",
    "glue broken-repeated-index": "4173b3cab6a3816f",
    "glue broken-repeated-index --out": "4173b3cab6a3816f",
    "glue broken-float-tree": "3627dc05bbfc6548",
    "glue broken-float-tree --out": "3627dc05bbfc6548",
}

# The digests of structure_digests.
STRUCTURE_DIGESTS = {
    "validate bad_condition3": "749ad9d3b12d8936",
    "validate bad_markov_tree": "2ac2445177c00713",
    "validate bad_tree_decomposition": "28a572b857ff6d41",
    "validate book": "b1f80132c77d2b28",
    "validate c4": "b1f80132c77d2b28",
    "validate edge": "b1f80132c77d2b28",
    "validate edgeless3": "378fc9418a7f357a",
    "validate k2": "378fc9418a7f357a",
    "validate k3": "378fc9418a7f357a",
    "validate path3": "b1f80132c77d2b28",
    "validate star3": "b1f80132c77d2b28",
    "validate cyclic-bag-tree": "5cd64dc910c2de9d",
    "min-subdec book 0": "fa6f62040059eb78",
    "min-subdec book 0 --out": "871de534236823fd",
    "min-subdec book 1": "fa6f62040059eb78",
    "min-subdec book 1 --out": "871de534236823fd",
    "min-subdec book 2": "243c311fd3aebbf8",
    "min-subdec book 2 --out": "1e6066ad4569309e",
    "min-subdec book 3": "99f92a2e11c480f0",
    "min-subdec book 3 --out": "4c06c1768d6da319",
    "min-subdec book 4": "a9d422d10a3b8276",
    "min-subdec book 4 --out": "2999c1a1b72bc940",
    "min-subdec book 5": "65b9ce41b052c5ae",
    "min-subdec book 5 --out": "efaca32eed8ed8fc",
    "min-subdec book 0,1": "fa6f62040059eb78",
    "min-subdec book 0,1 --out": "871de534236823fd",
    "min-subdec book 0,2": "243c311fd3aebbf8",
    "min-subdec book 0,2 --out": "1e6066ad4569309e",
    "min-subdec book 0,3": "47e3f515c6c10440",
    "min-subdec book 0,3 --out": "5b6d0c0d0de33a6e",
    "min-subdec book 0,4": "a9d422d10a3b8276",
    "min-subdec book 0,4 --out": "2999c1a1b72bc940",
    "min-subdec book 0,5": "40bcedc4aa2d5678",
    "min-subdec book 0,5 --out": "4bf6ba45f472e861",
    "min-subdec book 1,2": "69e72898debbd1f6",
    "min-subdec book 1,2 --out": "5a13f6db68ed95e9",
    "min-subdec book 1,3": "99f92a2e11c480f0",
    "min-subdec book 1,3 --out": "4c06c1768d6da319",
    "min-subdec book 1,4": "43fe81bfb6c1a7cb",
    "min-subdec book 1,4 --out": "91bb1e8923008709",
    "min-subdec book 1,5": "65b9ce41b052c5ae",
    "min-subdec book 1,5 --out": "efaca32eed8ed8fc",
    "min-subdec book 2,3": "acb462f10aa0d8f1",
    "min-subdec book 2,3 --out": "ade65881720df5d2",
    "min-subdec book 2,4": "b6f819d070a289ce",
    "min-subdec book 2,4 --out": "41f282a9e25dd024",
    "min-subdec book 2,5": "b6f819d070a289ce",
    "min-subdec book 2,5 --out": "41f282a9e25dd024",
    "min-subdec book 3,4": "b6f819d070a289ce",
    "min-subdec book 3,4 --out": "41f282a9e25dd024",
    "min-subdec book 3,5": "b6f819d070a289ce",
    "min-subdec book 3,5 --out": "41f282a9e25dd024",
    "min-subdec book 4,5": "4420a41c84bd199d",
    "min-subdec book 4,5 --out": "8583f991cad3988b",
    "min-subdec book 0,1,2": "69e72898debbd1f6",
    "min-subdec book 0,1,2 --out": "5a13f6db68ed95e9",
    "min-subdec book 0,1,3": "47e3f515c6c10440",
    "min-subdec book 0,1,3 --out": "5b6d0c0d0de33a6e",
    "min-subdec book 0,1,4": "43fe81bfb6c1a7cb",
    "min-subdec book 0,1,4 --out": "91bb1e8923008709",
    "min-subdec book 0,1,5": "40bcedc4aa2d5678",
    "min-subdec book 0,1,5 --out": "4bf6ba45f472e861",
    "min-subdec book 0,2,3": "47e3f515c6c10440",
    "min-subdec book 0,2,3 --out": "5b6d0c0d0de33a6e",
    "min-subdec book 0,2,4": "b6f819d070a289ce",
    "min-subdec book 0,2,4 --out": "41f282a9e25dd024",
    "min-subdec book 0,2,5": "b6f819d070a289ce",
    "min-subdec book 0,2,5 --out": "41f282a9e25dd024",
    "min-subdec book 0,3,4": "b6f819d070a289ce",
    "min-subdec book 0,3,4 --out": "41f282a9e25dd024",
    "min-subdec book 0,3,5": "b6f819d070a289ce",
    "min-subdec book 0,3,5 --out": "41f282a9e25dd024",
    "min-subdec book 0,4,5": "40bcedc4aa2d5678",
    "min-subdec book 0,4,5 --out": "4bf6ba45f472e861",
    "min-subdec book 1,2,3": "d7f29cf4d16c55c9",
    "min-subdec book 1,2,3 --out": "98133efe162e9d4e",
    "min-subdec book 1,2,4": "b6f819d070a289ce",
    "min-subdec book 1,2,4 --out": "41f282a9e25dd024",
    "min-subdec book 1,2,5": "b6f819d070a289ce",
    "min-subdec book 1,2,5 --out": "41f282a9e25dd024",
    "min-subdec book 1,3,4": "b6f819d070a289ce",
    "min-subdec book 1,3,4 --out": "41f282a9e25dd024",
    "min-subdec book 1,3,5": "b6f819d070a289ce",
    "min-subdec book 1,3,5 --out": "41f282a9e25dd024",
    "min-subdec book 1,4,5": "59ff1ef6ee021851",
    "min-subdec book 1,4,5 --out": "f41673421b9951b5",
    "min-subdec book 2,3,4": "b6f819d070a289ce",
    "min-subdec book 2,3,4 --out": "41f282a9e25dd024",
    "min-subdec book 2,3,5": "b6f819d070a289ce",
    "min-subdec book 2,3,5 --out": "41f282a9e25dd024",
    "min-subdec book 2,4,5": "b6f819d070a289ce",
    "min-subdec book 2,4,5 --out": "41f282a9e25dd024",
    "min-subdec book 3,4,5": "b6f819d070a289ce",
    "min-subdec book 3,4,5 --out": "41f282a9e25dd024",
    "min-subdec c4 0": "fa6f62040059eb78",
    "min-subdec c4 0 --out": "871de534236823fd",
    "min-subdec c4 1": "fa6f62040059eb78",
    "min-subdec c4 1 --out": "871de534236823fd",
    "min-subdec c4 2": "0b92d1fb0643a6a9",
    "min-subdec c4 2 --out": "081dbda05fffe8e3",
    "min-subdec c4 3": "700c3cceaae2890e",
    "min-subdec c4 3 --out": "cde3ee8cbcb8d333",
    "min-subdec c4 0,1": "fa6f62040059eb78",
    "min-subdec c4 0,1 --out": "871de534236823fd",
    "min-subdec c4 0,2": "b1efd03633fa003a",
    "min-subdec c4 0,2 --out": "e027e17813406c32",
    "min-subdec c4 0,3": "700c3cceaae2890e",
    "min-subdec c4 0,3 --out": "cde3ee8cbcb8d333",
    "min-subdec c4 1,2": "0b92d1fb0643a6a9",
    "min-subdec c4 1,2 --out": "081dbda05fffe8e3",
    "min-subdec c4 1,3": "0ef89a9087cadf2c",
    "min-subdec c4 1,3 --out": "52cfc6319156c3ad",
    "min-subdec c4 2,3": "acb462f10aa0d8f1",
    "min-subdec c4 2,3 --out": "ade65881720df5d2",
    "min-subdec c4 0,1,2": "b1efd03633fa003a",
    "min-subdec c4 0,1,2 --out": "e027e17813406c32",
    "min-subdec c4 0,1,3": "0ef89a9087cadf2c",
    "min-subdec c4 0,1,3 --out": "52cfc6319156c3ad",
    "min-subdec c4 0,2,3": "0a089fbf235a7140",
    "min-subdec c4 0,2,3 --out": "74963b2e3b3876ef",
    "min-subdec c4 1,2,3": "0ef89a9087cadf2c",
    "min-subdec c4 1,2,3 --out": "52cfc6319156c3ad",
    "min-subdec edge 0": "fa6f62040059eb78",
    "min-subdec edge 0 --out": "871de534236823fd",
    "min-subdec edge 1": "fa6f62040059eb78",
    "min-subdec edge 1 --out": "871de534236823fd",
    "min-subdec edge 0,1": "fa6f62040059eb78",
    "min-subdec edge 0,1 --out": "871de534236823fd",
    "min-subdec path3 0": "fa6f62040059eb78",
    "min-subdec path3 0 --out": "871de534236823fd",
    "min-subdec path3 1": "fa6f62040059eb78",
    "min-subdec path3 1 --out": "871de534236823fd",
    "min-subdec path3 2": "0b92d1fb0643a6a9",
    "min-subdec path3 2 --out": "081dbda05fffe8e3",
    "min-subdec path3 0,1": "fa6f62040059eb78",
    "min-subdec path3 0,1 --out": "871de534236823fd",
    "min-subdec path3 0,2": "b1efd03633fa003a",
    "min-subdec path3 0,2 --out": "e027e17813406c32",
    "min-subdec path3 1,2": "0b92d1fb0643a6a9",
    "min-subdec path3 1,2 --out": "081dbda05fffe8e3",
    "min-subdec path3 0,1,2": "b1efd03633fa003a",
    "min-subdec path3 0,1,2 --out": "e027e17813406c32",
    "min-subdec star3 0": "fa6f62040059eb78",
    "min-subdec star3 0 --out": "871de534236823fd",
    "min-subdec star3 1": "fa6f62040059eb78",
    "min-subdec star3 1 --out": "871de534236823fd",
    "min-subdec star3 2": "243c311fd3aebbf8",
    "min-subdec star3 2 --out": "1e6066ad4569309e",
    "min-subdec star3 3": "700c3cceaae2890e",
    "min-subdec star3 3 --out": "cde3ee8cbcb8d333",
    "min-subdec star3 0,1": "fa6f62040059eb78",
    "min-subdec star3 0,1 --out": "871de534236823fd",
    "min-subdec star3 0,2": "243c311fd3aebbf8",
    "min-subdec star3 0,2 --out": "1e6066ad4569309e",
    "min-subdec star3 0,3": "700c3cceaae2890e",
    "min-subdec star3 0,3 --out": "cde3ee8cbcb8d333",
    "min-subdec star3 1,2": "69e72898debbd1f6",
    "min-subdec star3 1,2 --out": "5a13f6db68ed95e9",
    "min-subdec star3 1,3": "115002dcd7dee40b",
    "min-subdec star3 1,3 --out": "0aa84fe52edec0a8",
    "min-subdec star3 2,3": "fb5961bcf4b554fa",
    "min-subdec star3 2,3 --out": "30842e46937ccc50",
    "min-subdec star3 0,1,2": "69e72898debbd1f6",
    "min-subdec star3 0,1,2 --out": "5a13f6db68ed95e9",
    "min-subdec star3 0,1,3": "115002dcd7dee40b",
    "min-subdec star3 0,1,3 --out": "0aa84fe52edec0a8",
    "min-subdec star3 0,2,3": "fb5961bcf4b554fa",
    "min-subdec star3 0,2,3 --out": "30842e46937ccc50",
    "min-subdec star3 1,2,3": "fb5961bcf4b554fa",
    "min-subdec star3 1,2,3 --out": "30842e46937ccc50",
    "sidorenko-sweep bad_condition3 -1": "3446b9f31d3e5d94",
    "sidorenko-sweep bad_condition3 -1 --out": "3446b9f31d3e5d94",
    "sidorenko-sweep bad_condition3 0": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 0 --out": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 1": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 1 --out": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 2": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 2 --out": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 3": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 3 --out": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 4": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 4 --out": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 5": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 5 --out": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 6": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 6 --out": "3d12168b1074c1d1",
    "sidorenko-sweep bad_condition3 7": "a6eae4bb5c5292c7",
    "sidorenko-sweep bad_condition3 7 --out": "a6eae4bb5c5292c7",
    "sidorenko-sweep bad_markov_tree -1": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree -1 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 0": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 0 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 1": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 1 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 2": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 2 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 3": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 3 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 4": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 4 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 5": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 5 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 6": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 6 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 7": "dc5b84091f1cd817",
    "sidorenko-sweep bad_markov_tree 7 --out": "dc5b84091f1cd817",
    "sidorenko-sweep bad_tree_decomposition -1": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition -1 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 0": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 0 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 1": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 1 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 2": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 2 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 3": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 3 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 4": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 4 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 5": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 5 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 6": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 6 --out": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 7": "5f5847a897237a10",
    "sidorenko-sweep bad_tree_decomposition 7 --out": "5f5847a897237a10",
    "sidorenko-sweep book -1": "3446b9f31d3e5d94",
    "sidorenko-sweep book -1 --out": "3446b9f31d3e5d94",
    "sidorenko-sweep book 0": "4206eb60cd48cb70",
    "sidorenko-sweep book 0 --out": "2c49348b5f194216",
    "sidorenko-sweep book 1": "4206eb60cd48cb70",
    "sidorenko-sweep book 1 --out": "2c49348b5f194216",
    "sidorenko-sweep book 2": "e13b99ac4bc0cea0",
    "sidorenko-sweep book 2 --out": "a05b1bd27f703ffc",
    "sidorenko-sweep book 3": "743363d8dda9b2c4",
    "sidorenko-sweep book 3 --out": "e46481785a844764",
    "sidorenko-sweep book 4": "120057ce902807ad",
    "sidorenko-sweep book 4 --out": "c3ce802e4712e3ff",
    "sidorenko-sweep book 5": "666fab09f5ddb1de",
    "sidorenko-sweep book 5 --out": "c613a473c7ad523f",
    "sidorenko-sweep book 6": "5a09aab9290e7545",
    "sidorenko-sweep book 6 --out": "83603f643b3cc90a",
    "sidorenko-sweep book 7": "a6eae4bb5c5292c7",
    "sidorenko-sweep book 7 --out": "a6eae4bb5c5292c7",
    "sidorenko-sweep c4 -1": "3446b9f31d3e5d94",
    "sidorenko-sweep c4 -1 --out": "3446b9f31d3e5d94",
    "sidorenko-sweep c4 0": "2b9d0f0e23a3054c",
    "sidorenko-sweep c4 0 --out": "9d3e5839717ea8f3",
    "sidorenko-sweep c4 1": "2b9d0f0e23a3054c",
    "sidorenko-sweep c4 1 --out": "9d3e5839717ea8f3",
    "sidorenko-sweep c4 2": "937c69e463eff2ad",
    "sidorenko-sweep c4 2 --out": "5f525844fdd6c980",
    "sidorenko-sweep c4 3": "ccfb474740246d74",
    "sidorenko-sweep c4 3 --out": "2b99cdce80a6e2e4",
    "sidorenko-sweep c4 4": "0a97a4665c3edb85",
    "sidorenko-sweep c4 4 --out": "7ed7baae64c4e3a2",
    "sidorenko-sweep c4 5": "e167d5959ebaaeda",
    "sidorenko-sweep c4 5 --out": "b58cae489752e55c",
    "sidorenko-sweep c4 6": "d9efb72d79955088",
    "sidorenko-sweep c4 6 --out": "071dc48b16f590e1",
    "sidorenko-sweep c4 7": "a6eae4bb5c5292c7",
    "sidorenko-sweep c4 7 --out": "a6eae4bb5c5292c7",
    "sidorenko-sweep edge -1": "3446b9f31d3e5d94",
    "sidorenko-sweep edge -1 --out": "3446b9f31d3e5d94",
    "sidorenko-sweep edge 0": "6346f7bcda1cc9d4",
    "sidorenko-sweep edge 0 --out": "b9e74eadcfa07f12",
    "sidorenko-sweep edge 1": "6346f7bcda1cc9d4",
    "sidorenko-sweep edge 1 --out": "b9e74eadcfa07f12",
    "sidorenko-sweep edge 2": "5c767a3c80b02388",
    "sidorenko-sweep edge 2 --out": "1e46e6f22a1f2711",
    "sidorenko-sweep edge 3": "eface0375fce1ac1",
    "sidorenko-sweep edge 3 --out": "6117d9532f55d5b2",
    "sidorenko-sweep edge 4": "7f52a47b11a5e8ec",
    "sidorenko-sweep edge 4 --out": "0e24d50efcd859ac",
    "sidorenko-sweep edge 5": "412500d6d1949d8e",
    "sidorenko-sweep edge 5 --out": "7e62162aac61e15f",
    "sidorenko-sweep edge 6": "d446336cc34452a0",
    "sidorenko-sweep edge 6 --out": "206346703713ca15",
    "sidorenko-sweep edge 7": "a6eae4bb5c5292c7",
    "sidorenko-sweep edge 7 --out": "a6eae4bb5c5292c7",
    "sidorenko-sweep edgeless3 -1": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 -1 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 0": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 0 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 1": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 1 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 2": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 2 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 3": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 3 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 4": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 4 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 5": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 5 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 6": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 6 --out": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 7": "4f34d048080dcb89",
    "sidorenko-sweep edgeless3 7 --out": "4f34d048080dcb89",
    "sidorenko-sweep k2 -1": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 -1 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 0": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 0 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 1": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 1 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 2": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 2 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 3": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 3 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 4": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 4 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 5": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 5 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 6": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 6 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 7": "4dd3853a2e7da86e",
    "sidorenko-sweep k2 7 --out": "4dd3853a2e7da86e",
    "sidorenko-sweep k3 -1": "3713d5e69a784821",
    "sidorenko-sweep k3 -1 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 0": "3713d5e69a784821",
    "sidorenko-sweep k3 0 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 1": "3713d5e69a784821",
    "sidorenko-sweep k3 1 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 2": "3713d5e69a784821",
    "sidorenko-sweep k3 2 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 3": "3713d5e69a784821",
    "sidorenko-sweep k3 3 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 4": "3713d5e69a784821",
    "sidorenko-sweep k3 4 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 5": "3713d5e69a784821",
    "sidorenko-sweep k3 5 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 6": "3713d5e69a784821",
    "sidorenko-sweep k3 6 --out": "3713d5e69a784821",
    "sidorenko-sweep k3 7": "3713d5e69a784821",
    "sidorenko-sweep k3 7 --out": "3713d5e69a784821",
    "sidorenko-sweep path3 -1": "3446b9f31d3e5d94",
    "sidorenko-sweep path3 -1 --out": "3446b9f31d3e5d94",
    "sidorenko-sweep path3 0": "b835d1bd16f9f3cb",
    "sidorenko-sweep path3 0 --out": "206b218698f2d45e",
    "sidorenko-sweep path3 1": "b835d1bd16f9f3cb",
    "sidorenko-sweep path3 1 --out": "206b218698f2d45e",
    "sidorenko-sweep path3 2": "171ec30bcba9ca8c",
    "sidorenko-sweep path3 2 --out": "5a26f5f1dc049e5f",
    "sidorenko-sweep path3 3": "042dc17a6e554101",
    "sidorenko-sweep path3 3 --out": "be10cedd54ec1be4",
    "sidorenko-sweep path3 4": "a7730422409b8e8c",
    "sidorenko-sweep path3 4 --out": "f281cef6ee9c607b",
    "sidorenko-sweep path3 5": "d68772f6538603e7",
    "sidorenko-sweep path3 5 --out": "825b7162175691aa",
    "sidorenko-sweep path3 6": "4ad17d2b849fea21",
    "sidorenko-sweep path3 6 --out": "9d9e10b7b3956060",
    "sidorenko-sweep path3 7": "a6eae4bb5c5292c7",
    "sidorenko-sweep path3 7 --out": "a6eae4bb5c5292c7",
    "sidorenko-sweep star3 -1": "3446b9f31d3e5d94",
    "sidorenko-sweep star3 -1 --out": "3446b9f31d3e5d94",
    "sidorenko-sweep star3 0": "67995df32a67439f",
    "sidorenko-sweep star3 0 --out": "39f6549e1b4d3faf",
    "sidorenko-sweep star3 1": "67995df32a67439f",
    "sidorenko-sweep star3 1 --out": "39f6549e1b4d3faf",
    "sidorenko-sweep star3 2": "b895bea711f79a94",
    "sidorenko-sweep star3 2 --out": "4d4bf03ab76a4ff5",
    "sidorenko-sweep star3 3": "e052d85156ce2dba",
    "sidorenko-sweep star3 3 --out": "e4c8a351ee97b677",
    "sidorenko-sweep star3 4": "06964851ef092a80",
    "sidorenko-sweep star3 4 --out": "0bd67f8383838630",
    "sidorenko-sweep star3 5": "d763217d805e4b74",
    "sidorenko-sweep star3 5 --out": "e6bbd5d9f221b02a",
    "sidorenko-sweep star3 6": "4c784f9bd76ac8dd",
    "sidorenko-sweep star3 6 --out": "f99c19fb58bb39d9",
    "sidorenko-sweep star3 7": "a6eae4bb5c5292c7",
    "sidorenko-sweep star3 7 --out": "a6eae4bb5c5292c7",
}


def test_assoc_entropy_report_and_glue_outputs_keep_their_digests(tmp_path):
    assert output_digests(str(tmp_path)) == DIGESTS


def test_validate_min_subdec_and_sweep_outputs_keep_their_digests(tmp_path):
    assert structure_digests(str(tmp_path)) == STRUCTURE_DIGESTS
