"""Command-line front end.

Subcommands: validate, assoc, glue, min-subdec, sidorenko-sweep,
entropy-report. Answers are JSON on standard output, exit 0. A failure ends
in one of four ways:

- an input its validator refuses (markov.ValidationFailed): the validation
  report as JSON on standard output, exit 1;
- an input the theory does not cover, a guard or a broken invariant
  (markov.Refused): its doc, {"error": ...}, as JSON on standard output,
  exit 1;
- any other ValueError from the library: one "error:" line on standard
  error, exit 1;
- unreadable or unrecognized input, a bad argument or an --out file that
  cannot be written: one "error:" line on standard error, exit 2.
"""

import argparse
import contextlib
import json
import os
import stat
import sys

from . import serialize
from .dists import check_bag_dists, glue_markov_tree
from .markov import Refused, ValidationFailed, validate_markov_tree
from .sidorenko import (
    associated_distribution,
    bound_report,
    degree_condition,
    entropy_bound_report,
    sidorenko_gap,
)
from .strong import minimum_subdecomposition, validate_document, validate_strong
from .graphs import CONNECTED_CLASSES, connected_graphs_up_to, hom_count

# The sweep's targets come from the committed table, so its limit is the
# table's.
SWEEP_VERTEX_LIMIT = max(CONNECTED_CLASSES)


def _read(path, parse):
    """parse(doc) for the JSON document doc in the file path.

    A file that cannot be opened or decoded, or a document nested past the
    recursion limit (in the decoder or in parse), is "cannot read"; a
    document that parse refuses is "cannot parse".
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        try:
            return parse(doc)
        except (KeyError, TypeError, ValueError) as e:
            raise _InputError("cannot parse %s: %s" % (path, e))
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        raise _InputError("cannot read %s: %s" % (path, e))


def _any_kind(doc):
    kind = serialize.detect_kind(doc)
    return kind, serialize.LOADERS[kind](doc)


def _load(path, kind):
    """The object in the file path, which must hold a document of kind."""
    found, obj = _read(path, _any_kind)
    if found != kind:
        raise _InputError("%s is not a %s" % (path, kind.replace("-", " ")))
    return obj


def _glue_instance(doc):
    m = serialize.markov_from_json(doc["markov"])
    return m, [serialize.distribution_from_json(d) for d in doc["bag_dists"]]


class _InputError(Exception):
    pass


def _emit(doc, out=None):
    """Write the JSON document doc as json.dumps(doc, indent=1, sort_keys=True)
    lays it out, through serialize.json_text: json's C encoder does not
    indent, and its pure-Python one runs a generator per list and dict."""
    _write(serialize.json_text(doc), out)


def _write(text, out):
    """Write a JSON document's text and a newline to the file out, or to
    stdout when out is None. A file that cannot be written is an input error.

    An existing file is rewritten in place, then truncated to the length
    written: truncating it to zero first, as open(out, "w") does, costs more
    than the write itself on some file systems. Its inode, mode and links
    stay as they were. Only a regular file is truncated (/dev/null, a FIFO or
    a terminal cannot be). A write that fails leaves the file empty, never
    part of the new text beside the old one's tail.
    """
    text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as e:
        raise _InputError("cannot write %s: %s" % (out, e))
    fh = open(fd, "w", closefd=False)
    try:
        fh.write(text)
        fh.flush()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, fh.tell())
    except OSError as e:
        # closing flushes what the failed write left buffered; only then can
        # nothing more reach the file
        with contextlib.suppress(OSError):
            fh.close()
        with contextlib.suppress(OSError):
            os.ftruncate(fd, 0)
        raise _InputError("cannot write %s: %s" % (out, e))
    finally:
        fh.close()
        os.close(fd)


def cmd_validate(args):
    kind, obj = _read(args.path, _any_kind)
    report = validate_document(kind, obj)
    if report is None:
        raise _InputError("no validator for document kind %r" % kind)
    _emit({"kind": kind, **serialize.report_to_json(report)})
    return 0 if report.ok else 1


def cmd_assoc(args):
    sd = _load(args.decomp, "strong-decomposition")
    g = _load(args.target, "graph")
    dist = associated_distribution(sd, g)
    # the summary is written only beside an --out file
    bound = bound_report(sd.host, g, dist) if args.out is not None and degree_condition(g) else None
    _write(serialize.distribution_to_text(dist), out=args.out)
    if args.out is not None:
        summary = {"atoms": dist.support_size()}
        if bound is not None:
            summary["bound_report"] = serialize.bound_report_to_json(bound)
        _emit(summary)
    return 0


def cmd_glue(args):
    m, bag_dists = _read(args.instance, _glue_instance)
    validate_markov_tree(m).require()
    check_bag_dists(m, bag_dists)
    joint = glue_markov_tree(m, bag_dists)
    _write(serialize.distribution_to_text(joint), out=args.out)
    return 0


def cmd_min_subdec(args):
    sd = _load(args.decomp, "strong-decomposition")
    entries = [x for x in args.u.split(",") if x != ""]
    try:
        # int() alone would read "0_1", "+1" or " 1" as a vertex
        if not all(map(serialize.is_ascii_integer, entries)):
            raise ValueError
        u = [int(x) for x in entries]
    except ValueError:
        raise _InputError("--u must be a comma-separated list of integers, not %r" % args.u)
    if not u:
        raise _InputError("--u must list at least one vertex")
    for x in u:
        if not 0 <= x < sd.host.n:
            raise _InputError("--u vertex %d out of range for n=%d" % (x, sd.host.n))
    validate_strong(sd).require()
    sub, embedding = minimum_subdecomposition(sd, u)
    _emit(
        {"decomposition": serialize.strong_to_json(sub), "embedding": list(embedding)},
        out=args.out,
    )
    return 0


def cmd_sidorenko_sweep(args):
    sd = _load(args.decomp, "strong-decomposition")
    if args.max_n < 0:
        raise _InputError("--max-n must be at least 0, not %d" % args.max_n)
    if args.max_n > SWEEP_VERTEX_LIMIT:
        raise Refused("max-n %d exceeds limit %d" % (args.max_n, SWEEP_VERTEX_LIMIT))
    validate_strong(sd).require()
    host = sd.host
    rows = []
    for g in connected_graphs_up_to(args.max_n):
        if g.num_edges() == 0:
            continue
        count = hom_count(host, g)
        gap = sidorenko_gap(host, g, count)
        rows.append(
            {
                "target": serialize.graph_to_json(g),
                "hom_count": count,
                "gap": {"num": str(gap.numerator), "den": str(gap.denominator)},
                "gap_nonnegative": gap >= 0,
                "degree_ok": degree_condition(g),
            }
        )
    _emit({"host": serialize.graph_to_json(host), "rows": rows}, out=args.out)
    return 0 if all(r["gap_nonnegative"] for r in rows) else 1


def cmd_entropy_report(args):
    sd = _load(args.decomp, "strong-decomposition")
    g = _load(args.target, "graph")
    report = entropy_bound_report(sd, g)
    _emit(serialize.bound_report_to_json(report), out=args.out)
    return 0


def build_parser():
    """The homglue argument parser, and its map from each subcommand's name
    to that subcommand's own parser (argparse's choices for it)."""
    parser = argparse.ArgumentParser(
        prog="homglue",
        description="Markov-tree gluing, strong tree decompositions, and "
        "Sidorenko-style bound checks at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, help="validate a JSON document")
    p.add_argument("path")

    p = add("assoc", cmd_assoc, help="associated distribution of a decomposition")
    p.add_argument("decomp")
    p.add_argument("target")
    p.add_argument("--out", default=None)

    p = add("glue", cmd_glue, help="glue bag distributions along a Markov tree")
    p.add_argument("instance", help='JSON with "markov" and "bag_dists"')
    p.add_argument("--out", default=None)

    p = add("min-subdec", cmd_min_subdec, help="minimum sub-decomposition containing --u")
    p.add_argument("decomp")
    p.add_argument("--u", required=True, help="comma-separated vertex list")
    p.add_argument("--out", default=None)

    p = add("sidorenko-sweep", cmd_sidorenko_sweep, help="gap table over small connected targets")
    p.add_argument("decomp")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--out", default=None)

    p = add("entropy-report", cmd_entropy_report, help="entropy/bound report for one target")
    p.add_argument("decomp")
    p.add_argument("target")
    p.add_argument("--out", default=None)

    return parser, sub.choices


# Built once per process: setting up argparse costs more than most jobs.
# parse_args keeps no state between calls, and usage text is formatted
# when it is printed, so every call parses as a fresh parser would.
_PARSER, _SUBPARSERS = build_parser()


def _parse_args(argv):
    """_PARSER.parse_args(argv), with the same namespace, output and exit.

    When argv[0] names a subcommand, _PARSER hands all of argv[1:] to that
    subcommand's parser and sets command to its name; a subparser's usage
    text, errors and help are its own either way. So that parser reads
    argv[1:] directly, which skips the top-level pass over argv. Only
    arguments it leaves unrecognised are _PARSER's to report, and then, as
    when argv[0] names no subcommand, _PARSER parses argv itself.
    """
    if argv:
        sub = _SUBPARSERS.get(argv[0])
        if sub is not None:
            args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if not rest:
                return args
    return _PARSER.parse_args(argv)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except Refused as e:
        _emit(e.doc)
        return 1
    except ValidationFailed as e:
        _emit(serialize.report_to_json(e.report))
        return 1
    except _InputError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
