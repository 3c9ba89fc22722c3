"""Command-line interface.

Exit codes: 0 success, 1 negative decision, 2 input error, 3 size limit,
4 internal error (a result failed its own correctness check).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dot as dotmod
from . import textfmt
from .atoms import classify_primitive, find_atoms
from .blocks import block_tree
from .errors import GraphError, InternalError, ParseError, SizeLimitError
from .fixtures import expansion_corpus, run_fixture_cases, run_random_checks
from .graph import normalize, point_maps, validate, with_halvable_edges
from .groups import (MAX_GROUP_ORDER, chain_generators, orbits,
                     semiregular_subgroups)
from .iso import MAX_VERTICES, are_isomorphic, count_automorphisms
from .quotient import all_quotients, expand_step, regular_cover_test
from .reduction import load_sidecar_steps, reduction_series

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _write_all(listed, unlisted=()):
    """Write every (path, text) pair of both lists or none, then print the
    paths of `listed`."""
    textfmt.write_texts([*listed, *unlisted])
    for path, _ in listed:
        print(f"wrote {path}")


def _read(path, args):
    g = textfmt.parse_file(path)
    if args.halvable_input:
        g = with_halvable_edges(g)
    return g


def _prepared(path, args):
    return normalize(_read(path, args))


def _json_text(value, newline="\n"):
    """`json.dumps(value, indent=2, sort_keys=True)`, with `newline` a
    newline and the indent of value's own level.  The library's indenting
    encoder is made of nested functions that name each other, so each call
    would leave a cycle for the collector; the items are laid out here and
    each scalar is encoded alone, which makes none."""
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        ends = "{}"
    else:
        items, ends = [_json_text(v, inner) for v in value], "[]"
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


def cmd_validate(args):
    g = _read(args.file, args)
    problems = validate(g)
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return EXIT_NO
    print("ok")
    return EXIT_OK


def cmd_iso(args):
    g1, g2 = _read(args.file1, args), _read(args.file2, args)
    witness = are_isomorphic(g1, g2, max_vertices=args.max_vertices)
    if witness is None:
        print("not isomorphic")
        return EXIT_NO
    print("isomorphic")
    if args.witness:
        for h in sorted(witness):
            print(f"  {h} -> {witness[h]}")
    return EXIT_OK


def cmd_aut(args):
    g = _read(args.file, args)
    if args.semiregular is not None:
        subs = semiregular_subgroups(g, order=args.semiregular,
                                     max_order=args.max_group_order)
        print(f"semiregular subgroups of order {args.semiregular}: {len(subs)}")
        for i, s in enumerate(subs):
            print(f"subgroup {i}:")
            for x in s.elements:
                print(f"  {point_maps(g, x)[0]}")
        return EXIT_OK
    print(f"automorphism group order: {count_automorphisms(g)}")
    print("vertex orbits:")
    for orb in orbits(g, chain_generators(g)):
        print("  " + " ".join(orb))
    return EXIT_OK


def cmd_blocks(args):
    g = _read(args.file, args)
    bt = block_tree(g)
    if args.dot:
        print(dotmod.block_tree_to_dot(bt), end="")
        return EXIT_OK
    for i, ref in enumerate(bt.blocks):
        vs = " ".join(sorted(ref.vertices))
        print(f"block {i}: vertices {vs} ({len(ref.darts) // 2} edges)")
    print("articulations: " + (" ".join(sorted(bt.articulations)) or "-"))
    kind, what = bt.center
    print(f"center: {kind} {what}")
    return EXIT_OK


def cmd_atoms(args):
    g = _prepared(args.file, args)
    found = find_atoms(g)
    if args.dot:
        print(dotmod.atoms_to_dot(g, found), end="")
        return EXIT_OK
    cls = classify_primitive(g)
    if not found:
        print(f"primitive: {cls.tag}"
              + (f"({cls.n})" if cls.n else ""))
        return EXIT_OK
    for i, a in enumerate(found):
        print(f"atom {i}: {a.kind} boundary={','.join(a.boundary)} "
              f"symmetry={a.symmetry} "
              f"vertices={','.join(sorted(a.vertices))}")
    return EXIT_OK


def cmd_reduce(args):
    g = _prepared(args.file, args)
    series = reduction_series(g)
    if args.dot:
        print(dotmod.reduction_tree_to_dot(series), end="")
        return EXIT_OK
    base, _ = os.path.splitext(args.file)
    sidecar = {"version": 1, "levels": []}
    outputs = []
    for i, step in enumerate(series.steps):
        outputs.append((f"{base}.g{i + 1}.g", textfmt.serialize(step.target)))
        sidecar["levels"].append({
            "level": i,
            "classes": [{
                "color": cls.color,
                "kind": cls.rep.kind,
                "symmetry": cls.rep.symmetry,
                "boundary": list(cls.rep.ordered_boundary()),
                "members": len(cls.members),
                "graph": textfmt.serialize(cls.rep.as_graph()),
            } for cls in step.classes],
        })
    sidecar["primitive"] = series.primitive.tag
    outputs.append((f"{base}.reduction.json",
                    _json_text(sidecar) + "\n"))
    _write_all(outputs)
    print(f"levels: {series.depth}, primitive: {series.primitive.tag}")
    return EXIT_OK


def cmd_quotients(args):
    g = _prepared(args.file, args)
    qs = all_quotients(g, via=args.via, max_order=args.max_group_order)
    base, _ = os.path.splitext(args.file)
    outputs, index = [], []
    for i, q in enumerate(qs):
        out = f"{base}.q{i}.g"
        outputs.append((out, textfmt.serialize(q)))
        index.append({"file": os.path.basename(out),
                      "vertices": q.n_vertices,
                      "halfedges": len(q.halfedges)})
    payload = {"via": args.via, "quotients": index}
    _write_all(outputs, [(f"{base}.quotients.json",
                          _json_text(payload) + "\n")])
    print(f"{len(qs)} quotients (via {args.via})")
    return EXIT_OK


def cmd_expand(args):
    text = textfmt.read_text(args.sidecar)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"sidecar is not valid JSON: {exc}")
    steps = load_sidecar_steps(payload)
    h = _read(args.quotient, args)
    level = args.level if args.level is not None else len(steps)
    if not 0 <= level <= len(steps):
        raise GraphError(f"level must be in 0..{len(steps)}")
    current = [h]
    for step in reversed(steps[:level]):
        nxt = []
        for hh in current:
            nxt.extend(expand_step(hh, step))
        current = nxt
    base, _ = os.path.splitext(args.quotient)
    _write_all([(f"{base}.x{i}.g", textfmt.serialize(hh))
                for i, hh in enumerate(current)])
    print(f"{len(current)} expansions")
    return EXIT_OK


def cmd_cover(args):
    g = _prepared(args.gfile, args)
    h = _prepared(args.hfile, args)
    witness = regular_cover_test(g, h, max_order=args.max_group_order)
    if witness is None:
        print("no")
        return EXIT_NO
    print(f"yes (group order {witness.order})")
    for x in witness.elements:
        print(f"  {point_maps(g, x)[0]}")
    return EXIT_OK


def cmd_dot(args):
    g = _read(args.file, args)
    print(dotmod.graph_to_dot(g), end="")
    return EXIT_OK


def cmd_fixtures(args):
    if args.action == "run":
        failures = run_fixture_cases() + run_random_checks(args.seed)
        return EXIT_OK if failures == 0 else EXIT_NO
    outdir = args.dir or os.environ.get("REGCOVER_FIXTURE_DIR") or "fixtures-out"
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise GraphError(f"cannot write to {outdir}: {exc.strerror}")
    _write_all([(os.path.join(outdir, f"{name}.g"), textfmt.serialize(g))
                for name, g in expansion_corpus()])
    return EXIT_OK


def _positive(text):
    """argparse type of a count or a limit: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="regcover",
        description="Regular graph covers via 3-connected reduction.")
    ap.add_argument("--max-vertices", type=_positive, default=MAX_VERTICES,
                    help="vertex cap of the iso command's inputs "
                         "(default %(default)s)")
    ap.add_argument("--max-group-order", type=_positive,
                    default=MAX_GROUP_ORDER,
                    help="cap on the group listed by aut --semiregular, "
                         "quotients and cover (default %(default)s)")
    ap.add_argument("--halvable-input", action="store_true",
                    help="retype undirected input edges as halvable")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized fixture checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file's invariants")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("iso", help="isomorphism test between two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("aut", help="automorphism group order and orbits")
    p.add_argument("file")
    p.add_argument("--semiregular", type=_positive, metavar="K",
                   help="list semiregular subgroups of order K")
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("blocks", help="block-tree and center")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("atoms", help="list atoms with kind and symmetry")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_atoms)

    p = sub.add_parser("reduce", help="write the reduction series")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("quotients", help="write all regular quotients")
    p.add_argument("file")
    p.add_argument("--via", choices=("bruteforce", "reduction"),
                   default="bruteforce")
    p.set_defaults(fn=cmd_quotients)

    p = sub.add_parser("expand", help="replay a reduction sidecar against "
                                      "a quotient of the primitive graph")
    p.add_argument("sidecar")
    p.add_argument("quotient")
    p.add_argument("--level", type=int)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("cover", help="does the first graph regularly cover "
                                     "the second?")
    p.add_argument("gfile")
    p.add_argument("hfile")
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("dot", help="render a graph file as DOT")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser("fixtures", help="golden fixture corpus")
    p.add_argument("action", choices=("run", "write"))
    p.add_argument("--dir")
    p.set_defaults(fn=cmd_fixtures)

    return ap


@functools.cache
def _parser():
    """The parser every `main` call reads, built once: an argparse parser
    and its actions refer to each other, so one built per call would be
    left for the cyclic collector."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except GraphError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
