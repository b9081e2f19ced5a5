"""Command-line interface.

Exit codes: 0 success, 1 domain error (bad graph, bad parameters, parse
failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from plumbjsj import arith, diagram, graph, graphfile, reduction, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbjsj",
        description="Validate, reduce, and compute with decorated plumbing graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report decoration/goodness/shape violations")
    p.add_argument("file")

    p = sub.add_parser("consistent", help="decide consistency of a graph file")
    p.add_argument("file")

    p = sub.add_parser("reduce", help="reduce a graph to its tree of consistent leaves")
    p.add_argument("file")
    p.add_argument("--all-paths", action="store_true", dest="all_paths",
                   help="break every minimal inconsistent path, not just the least")
    p.add_argument("--oracle", action="store_true",
                   help="append the maximal consistent subgraphs (subset oracle)")
    p.add_argument("--dot", metavar="PATH", help="also write the tree as DOT")

    p = sub.add_parser("subgraphs", help="maximal consistent subgraphs (subset oracle)")
    p.add_argument("file")

    p = sub.add_parser("count", help="count Legendrian chain realizations")
    p.add_argument("exponents", type=int, nargs="+", metavar="A")

    p = sub.add_parser("lens", help="lens-space continued fractions")
    lens_sub = p.add_subparsers(dest="lens_command", required=True)
    q = lens_sub.add_parser("expand", help="negative continued fraction of -p/q")
    q.add_argument("p", type=int)
    q.add_argument("q", type=int)

    p = sub.add_parser("bundle", help="torus-bundle monodromy words")
    bundle_sub = p.add_subparsers(dest="bundle_command", required=True)
    q = bundle_sub.add_parser("word", help="matrix and counts of a monodromy word")
    q.add_argument("sign", choices=["+", "-"])
    q.add_argument("exponents", type=int, nargs="+", metavar="A")
    q = bundle_sub.add_parser(
        "factor", help="the unique normal-form word with this matrix, within the bounds"
    )
    q.add_argument("entries", type=int, nargs=4, metavar="M")
    q.add_argument("--max-n", type=int, default=6, dest="max_n",
                   help="report a word with at most max_n + 1 exponents (default 6)")
    q.add_argument("--max-a", type=int, default=12, dest="max_a",
                   help="report a word with no exponent above max_a (default 12)")

    p = sub.add_parser("slopes", help="mixed-torus slope calculus for chain length n")
    p.add_argument("n", type=int)
    p.add_argument("--split", type=int, metavar="S",
                   help="print the two meridional slopes after splitting with slope S")
    return parser


def _load(path: str) -> graph.PlumbingGraph:
    return graphfile.parse_graph_file(Path(path).read_text(), name=path)


def _cmd_validate(args, out) -> int:
    g = _load(args.file)
    result = graph.validate_graph(g)
    if result.is_valid:
        print("valid", file=out)
    else:
        for violation in result.violations:
            print(f"violation {violation}", file=out)
        print("invalid", file=out)
    return 0


def _cmd_consistent(args, out) -> int:
    g = _load(args.file)
    print("consistent" if graph.is_consistent(g) else "inconsistent", file=out)
    return 0


def _cmd_reduce(args, out) -> int:
    g = _load(args.file)
    # The oracle first: it refuses an over-size graph at once, before the
    # tree (which can be exponential too) is built.
    oracle = reduction.maximal_consistent_subgraphs(g) if args.oracle else None
    tree = reduction.reduce_to_tree(g, explore_all_paths=args.all_paths)
    text = report.render_report(tree, oracle=oracle)
    out.write(text)
    if args.dot:
        Path(args.dot).write_text(report.emit_dot(tree))
    return 0


def _cmd_subgraphs(args, out) -> int:
    g = _load(args.file)
    for subset in reduction.maximal_consistent_subgraphs(g):
        print("{" + ",".join(str(v) for v in subset) + "}", file=out)
    return 0


def _cmd_count(args, out) -> int:
    total, tight, vot = diagram.count_structures(args.exponents)
    print(
        f"total={total} universally_tight={tight} virtually_overtwisted={vot}",
        file=out,
    )
    return 0


def _cmd_lens(args, out) -> int:
    a = arith.neg_cf_expand(args.p, args.q)
    print("a=[" + ",".join(str(x) for x in a) + "]", file=out)
    return 0


def _cmd_bundle(args, out) -> int:
    if args.bundle_command == "word":
        word = arith.MonodromyWord(1 if args.sign == "+" else -1, tuple(args.exponents))
        m = arith.monodromy_matrix(word)
        tight, vot = diagram.bundle_counts(word)
        print(
            f"matrix=[[{m.m11},{m.m12}],[{m.m21},{m.m22}]] trace={m.trace}"
            f" tight={tight} virtually_overtwisted={vot}",
            file=out,
        )
    else:
        m = arith.IntMatrix2(*args.entries)
        word = arith.factor_monodromy(m, max_n=args.max_n, max_a=args.max_a)
        print("not found" if word is None else f"word={word}", file=out)
    return 0


def _cmd_slopes(args, out) -> int:
    if args.split is not None:
        result = arith.split_slopes(args.n, args.split)
        print(
            f"plus={arith.format_slope(result.plus_side)}"
            f" minus={arith.format_slope(result.minus_side)}",
            file=out,
        )
        return 0
    slopes = arith.mixed_torus_slopes(args.n)
    raw = " ".join(arith.format_slope(s) for s in slopes.raw)
    normalized = " ".join(arith.format_slope(s) for s in slopes.normalized)
    print(f"raw={raw}", file=out)
    print(f"normalized={normalized}", file=out)
    print(f"gluing_det={arith.gluing_matrix(args.n).det}", file=out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "consistent": _cmd_consistent,
    "reduce": _cmd_reduce,
    "subgraphs": _cmd_subgraphs,
    "count": _cmd_count,
    "lens": _cmd_lens,
    "bundle": _cmd_bundle,
    "slopes": _cmd_slopes,
}


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation, returning (exit status, captured stdout).

    Usage errors exit with status 2, domain errors (bad files, invalid
    parameters) with status 1; both leave their message on stderr.
    """
    parser = _build_parser()
    out = io.StringIO()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), out.getvalue()
    try:
        status = _COMMANDS[args.command](args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, out.getvalue()
    return status, out.getvalue()


def main(argv=None) -> int:
    status, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
