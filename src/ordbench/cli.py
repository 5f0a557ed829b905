"""Command-line front end.

All reports are plain UTF-8 text, one fact per line, byte-identical across
runs for identical inputs.  Exit status: 0 on success, 1 when a theorem
verifier found a disagreement or an explicitly requested law failed, 2 for
usage and input errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import MissingBlock, OrdbenchError, UnknownLaw
from .lattice import catalog
from .connection import AdjointConnection, find_left_adjoint, find_right_adjoint
from .laws import LAW_IDS, SUITE_ORDER, eval_law, parse_predicate, run_suite, search_counterexample
from .posetgen import MAX_GENERATED_SIZE
from .quantale import is_principal, is_weak_principal, zn_ideal_quantale
from .textio import parse_file


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_map(m) -> str:
    return " ".join(
        f"{m.source.labels[x]}->{m.target.labels[m.values[x]]}" for x in range(m.source.size)
    )


def _blocks(doc, kind: str, path) -> list[str]:
    """Names of the file's blocks of one kind, in file order; none is an input error."""
    names = [name for k, name in doc.order if k == kind]
    if not names:
        raise MissingBlock(f"{path}: no {kind} block")
    return names


def cmd_check(args) -> int:
    doc = parse_file(args.file)
    for kind, name in doc.order:
        if kind == "poset":
            L = doc.posets[name]
            print(
                f"poset {name}: elements={L.size} lattice={_yn(L.is_lattice)} "
                f"bounded={_yn(L.is_bounded)} modular={_yn(L.is_modular)} "
                f"distributive={_yn(L.is_distributive)}"
            )
        elif kind == "map":
            m = doc.maps[name]
            print(f"map {name}: {m.source.name} -> {m.target.name} monotone=yes")
        elif kind == "conn":
            c = doc.connections[name]
            print(f"conn {name}: {c.source.name} -> {c.target.name} connection=yes")
        elif kind == "quantale":
            q = doc.quantales[name]
            unit = q.lattice.labels[q.unit] if q.unit is not None else "none"
            print(
                f"quantale {name}: over={q.lattice.name} unit={unit} "
                f"integral={_yn(q.is_integral)}"
            )
    return 0


def cmd_adjoints(args) -> int:
    doc = parse_file(args.file)
    for name in _blocks(doc, "conn", args.file):
        c = doc.connections[name]
        print(f"conn {name}: {c.source.name} -> {c.target.name}")
        left = find_left_adjoint(c)
        right = find_right_adjoint(c)
        print(f"left: {_render_map(left) if left is not None else 'absent'}")
        print(f"right: {_render_map(right) if right is not None else 'absent'}")
    return 0


def cmd_laws(args) -> int:
    doc = parse_file(args.file)
    requested = args.law or []
    for law_id in requested:
        if law_id not in LAW_IDS:
            raise UnknownLaw(f"unknown law {law_id!r}")
    failed = False
    for name in _blocks(doc, "conn", args.file):
        c = doc.connections[name]
        print(f"conn {name}: {c.source.name} -> {c.target.name}")
        left = find_left_adjoint(c)
        right = find_right_adjoint(c)
        if left is None and right is None:
            for law_id in requested:  # default output lists applicable laws only
                print(f"{law_id} skipped reason: connection has no adjoint maps")
            continue
        ac = AdjointConnection(left, right)
        for law_id in requested or LAW_IDS:
            report = eval_law(law_id, ac)
            if report.skipped is not None and not requested:
                continue  # default output lists applicable laws only
            print(report.line())
            if report.holds is False:
                failed = True
    return 1 if failed else 0


def cmd_verify(args) -> int:
    suites = list(SUITE_ORDER) if args.suite == "all" else [args.suite]
    corpus = catalog()
    disagreements = 0
    for suite in suites:
        result = run_suite(suite, corpus)
        for line in result.lines():
            print(line)
        disagreements += result.disagreements
    print(f"result: {'pass' if disagreements == 0 else 'fail'}")
    return 0 if disagreements == 0 else 1


def cmd_quantale(args) -> int:
    if args.zn is not None:
        quantales = [(f"Zn{args.zn}", zn_ideal_quantale(args.zn))]
    else:
        doc = parse_file(args.file)
        quantales = [(name, doc.quantales[name]) for name in _blocks(doc, "quantale", args.file)]
    for name, q in quantales:
        L = q.lattice
        unit = L.labels[q.unit] if q.unit is not None else "none"
        print(f"quantale {name}: elements={L.size} unit={unit} integral={_yn(q.is_integral)}")
        if not args.principal:
            continue
        for e in range(L.size):
            rep_i, rep_ii = is_principal(q, e)
            lm0, rm0 = is_weak_principal(q, e)
            principal = bool(rep_i.holds and rep_ii.holds)
            weak = bool(lm0.holds and rm0.holds)
            print(f"elem {L.labels[e]}: principal={_yn(principal)} weak-principal={_yn(weak)}")
            if not principal:
                print(f"  {rep_i.line()}")
                print(f"  {rep_ii.line()}")
            if not weak:
                print(f"  {lm0.line()}")
                print(f"  {rm0.line()}")
    return 0


def cmd_search(args) -> int:
    result = search_counterexample(
        parse_predicate(args.predicate),
        args.max_size,
        modular_only=args.modular,
        include_generated=args.all_lattices,
    )
    print(result.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordbench",
        description="Finite order-theory workbench: lattices, adjoint connections, law checking.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="parse and validate a poset/lattice/quantale file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("adjoints", help="print both adjoint maps of each connection in a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_adjoints)

    p = sub.add_parser("laws", help="evaluate connection laws on each connection in a file")
    p.add_argument("file")
    p.add_argument("--law", action="append", metavar="ID", help="law to evaluate (repeatable)")
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("verify", help="run a theorem suite exhaustively over the catalog")
    p.add_argument("--suite", required=True, choices=list(SUITE_ORDER) + ["all"])
    p.add_argument(
        "--catalog",
        action="store_true",
        help="use the built-in lattice catalog (the default and only corpus)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("quantale", help="report principal / weak-principal elements")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--zn", type=int, metavar="N", help="ideals of the integers mod N")
    group.add_argument("file", nargs="?", help="quantale file")
    p.add_argument("--principal", action="store_true", help="print per-element verdicts")
    p.set_defaults(fn=cmd_quantale)

    p = sub.add_parser("search", help="search for a connection satisfying a law predicate")
    p.add_argument("--predicate", required=True, help="e.g. \"LM0 & !(LF0 & RF0)\"")
    p.add_argument("--max-size", type=int, required=True, dest="max_size")
    p.add_argument("--modular", action="store_true", help="restrict to modular lattices")
    p.add_argument(
        "--all-lattices",
        action="store_true",
        dest="all_lattices",
        help=f"also search every generated lattice up to isomorphism (size <= {MAX_GENERATED_SIZE})",
    )
    p.set_defaults(fn=cmd_search)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except OrdbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
