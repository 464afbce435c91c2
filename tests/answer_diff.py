"""Compare the CLI answers of two source trees on one corpus.

    python3 tests/answer_diff.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of this repository, or their src/
directories. The corpus is written to a temporary directory with this
checkout's tests and package:

- every command line of test_preconditions._commands (each subcommand over
  the fixtures, random level-1 and level-2 decompositions and their
  corruptions, glue instances and refused --u values), and again with
  --out for each subcommand that takes it;
- validate, min-subdec and sidorenko-sweep --max-n 6 over
  helpers.random_level1 and helpers.random_level2 draws at fixed seeds
  (hosts with and without a cycle, so both of hom_count's paths), and
  assoc and entropy-report over the same draws on K2 and K3;
- sidorenko-sweep --max-n 6 over the level-0 decompositions of seeded
  random trees on 2 to 10 vertices;
- validate, min-subdec and assoc over the fixtures/bad_*.json documents;
- validate, min-subdec and assoc over level-0 documents whose bag tree
  leaves the host's line graph, holds a cycle or falls apart, so fails
  running intersection (helpers.level0_with_bag_tree);
- glue over seeded instances whose bag 0 holds their largest vertex
  (helpers.rooted_at_largest), so the gluing walk meets the vertices out
  of ascending order;
- command lines that the argument parser refuses or answers with help.

Each tree runs the whole corpus in one fresh interpreter (python -I, so
nothing but the standard library and that tree's src/ is importable),
through homglue.cli.main in process, and records per case the exit code,
stdout, stderr and the text of the --out file, the corpus directory's path
replaced by "<corpus>". The report gives the number of cases and, per
subcommand, the first case whose record differs, and ends with a summary
line; the exit code is 1 when some case differs. Standard library only,
outside the test suite.
"""

import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SUBCOMMANDS = ("validate", "assoc", "glue", "min-subdec", "sidorenko-sweep", "entropy-report")
TAKES_OUT = set(SUBCOMMANDS) - {"validate"}
OUT = "out.json"


def _src(tree):
    """The directory holding the package homglue in the checkout tree."""
    src = os.path.join(tree, "src")
    return os.path.abspath(src if os.path.isdir(os.path.join(src, "homglue")) else tree)


def corpus(directory):
    """The argv of every case, its files written under directory."""
    sys.path[:0] = [HERE, _src(os.path.dirname(HERE))]
    from homglue import serialize
    from homglue.strong import zero_strong
    from helpers import (
        consistent_bag_dists,
        glue_document,
        level0_with_bag_tree,
        overlaps,
        random_level1,
        random_level2,
        random_markov_tree,
        random_tree,
        rooted_at_largest,
    )
    import test_preconditions

    directory = pathlib.Path(directory)
    out = str(directory / OUT)
    cases = [argv for argv, _ in test_preconditions._commands(directory)]
    cases += [argv + ["--out", out] for argv in cases if argv[0] in TAKES_OUT]
    # written by test_preconditions._commands
    k2, k3 = str(directory / "k2.json"), str(directory / "k3.json")

    def write(name, doc):
        path = str(directory / (name + ".json"))
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    fixtures = pathlib.Path(HERE).parent / "fixtures"
    bad = [write(f.stem, json.loads(f.read_text())) for f in sorted(fixtures.glob("bad_*.json"))]
    rng = random.Random("answer-diff:level0")
    for shape in ("disjoint", "cycle", "forest") * 4:
        sd, _ = level0_with_bag_tree(rng, rng.randint(4, 9), shape)
        bad.append(write("level0-%d" % len(bad), serialize.strong_to_json(sd)))
    for path in bad:
        cases.append(["validate", path])
        cases += [["min-subdec", path, "--u", u] for u in ("0", "0,1", "1,2,3")]
        cases += [["assoc", path, k3], ["assoc", path, k3, "--out", out]]
    rng = random.Random("answer-diff:glue")
    for draw in range(16):
        m = rooted_at_largest(random_markov_tree(rng, rng.randint(2, 6), rng.randint(2, 6)))
        path = write("glue-top-%d" % draw, glue_document(m, consistent_bag_dists(rng, m, 3, 12)))
        cases += [["glue", path], ["glue", path, "--out", out]]
    for seed in range(24):
        rng = random.Random("answer-diff:%d" % seed)
        if seed % 2:
            sd = random_level2(rng, rng.randint(2, 4))
        else:
            sd = random_level1(rng, rng.randint(1, 5), 4)
        path = write("draw-%d" % seed, serialize.strong_to_json(sd))
        n = sd.host.n
        subsets = [[v] for v in range(n)] + [list(inter) for _, inter in overlaps(sd) if inter]
        subsets += [sorted(rng.sample(range(n), min(k, n))) for k in (2, 3, n)]
        cases.append(["validate", path])
        cases.append(["sidorenko-sweep", path, "--max-n", "6"])
        for target in (k2, k3):
            cases += [["assoc", path, target], ["entropy-report", path, target]]
        cases.append(["assoc", path, k2, "--out", out])
        for u in subsets:
            cases.append(["min-subdec", path, "--u", ",".join(map(str, u))])
            cases.append(["min-subdec", path, "--u", ",".join(map(str, u)), "--out", out])
    # 6^10 <= DEFAULT_HOM_CAP: ten host vertices is the cap's limit at the
    # sweep's six target vertices
    rng = random.Random("answer-diff:trees")
    for draw in range(12):
        tree = zero_strong(random_tree(rng, rng.randint(2, 10)))
        path = write("tree-%d" % draw, serialize.strong_to_json(tree))
        cases.append(["sidorenko-sweep", path, "--max-n", "6"])
    c4 = str(directory / "c4.json")
    cases += [
        [],
        ["-h"],
        ["nope"],
        ["--", "validate", c4],
        ["validate"],
        ["min-subdec", c4],
        ["validate", c4, "--nope"],
        ["assoc", c4, c4, c4],
        ["sidorenko-sweep", c4, "--max-n", "x"],
        ["validate", "--", c4],
    ]
    cases += [[command, "-h"] for command in SUBCOMMANDS]
    return cases


def work(src, cases_path, results_path):
    """Run every case of the JSON list in cases_path through the
    homglue.cli in src, writing one record per case to results_path."""
    sys.path.insert(0, src)
    from homglue import cli

    with open(cases_path) as fh:
        directory, cases = json.load(fh)
    out = os.path.join(directory, OUT)
    results = []
    for argv in cases:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        written = None
        if os.path.exists(out):
            with open(out) as fh:
                written = fh.read()
        record = [code, stdout.getvalue(), stderr.getvalue(), written]
        results.append([x.replace(directory, "<corpus>") if isinstance(x, str) else x for x in record])
    with open(results_path, "w") as fh:
        json.dump(results, fh)


def _run(tree, cases_path, directory):
    results_path = os.path.join(directory, "results.json")
    subprocess.run(
        [sys.executable, "-I", os.path.abspath(__file__), "--work", _src(tree), cases_path, results_path],
        check=True,
        env={**os.environ, "COLUMNS": "80"},
    )
    with open(results_path) as fh:
        return json.load(fh)


def _subcommand(argv):
    return argv[0] if argv and argv[0] in SUBCOMMANDS else "(no subcommand)"


def main(tree_a, tree_b):
    with tempfile.TemporaryDirectory() as workdir:
        directory = os.path.join(workdir, "corpus")
        os.mkdir(directory)
        cases = corpus(directory)
        cases_path = os.path.join(workdir, "cases.json")
        with open(cases_path, "w") as fh:
            json.dump([directory, cases], fh)
        a = _run(tree_a, cases_path, workdir)
        b = _run(tree_b, cases_path, workdir)
    counts, firsts = {}, {}
    for argv, ra, rb in zip(cases, a, b):
        name = _subcommand(argv)
        counts[name] = counts.get(name, 0) + 1
        if ra != rb and name not in firsts:
            fields = ("exit code", "stdout", "stderr", "--out")
            field = next(f for f, x, y in zip(fields, ra, rb) if x != y)
            shown = [arg.replace(directory, "<corpus>") for arg in argv]
            firsts[name] = "%s differs on %s" % (field, " ".join(shown))
    differing = sum(ra != rb for ra, rb in zip(a, b))
    for name in sorted(counts):
        print("%s: %d cases, %s" % (name, counts[name], firsts.get(name, "no difference")))
    print("answer_diff: %d cases, %d differing" % (len(cases), differing))
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--work"]:
        work(*sys.argv[2:])
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__.split("\n\n")[1])
