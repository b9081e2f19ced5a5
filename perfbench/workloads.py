"""The four workloads: how each builds its inputs, runs one op and checks it.

An op is one graph on the graph workloads, and one p-row of pairs or one
word on ``arith_roundtrip``.  ``op`` is the only timed code; it reaches the
library through ``lib`` attribute lookups so that the traced run's wrappers
see every call.  ``record`` gives each answer a hashable key (a digest for
long outputs): answers to one input with equal keys share one verdict, so any
byte that differs between repeats is checked again.  ``check`` raises
``CheckError`` on a wrong answer.  On ``deep_reduce`` it also compares the
stdout and DOT digests with the reference ones in ``REFERENCE``, written by
``digests.py`` for a range of seeds: those outputs must stay byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import inputs


class Workload(NamedTuple):
    why: str
    setup: Callable  # (lib, rng, workdir, size) -> list of items
    op: Callable  # (lib, item) -> answer
    record: Callable  # (item, answer) -> (hashable key, answer to check)
    check: Callable  # (item, answer) -> None, raises CheckError
    size: int  # items per input pool
    # The tail is reported at a fixed percentile per workload, so that runs
    # of a faster program, which collect more samples, compare at the same
    # one.  The run goes on past ``--seconds`` until at least
    # run.TAIL_BEYOND samples lie beyond it (four passes of deep_reduce's ten
    # inputs at 75) and records how many do.
    tail_percentile: float


# ---------------------------------------------------------------------------
# family_sweep
# ---------------------------------------------------------------------------


def _family_setup(lib, rng, workdir, size):
    return inputs.family_sample(rng, size)


def _family_op(lib, item):
    _, verts, edges = item
    g = lib.graph.PlumbingGraph(verts, edges)
    cons = lib.graph.is_consistent(g)
    _, _, signs, _, cedges = g.compact()
    prop = lib.kernel.propagation_consistent(len(signs), signs, cedges)
    paths = lib.kernel.paths_consistent(len(signs), signs, cedges)
    oracle = lib.reduction.maximal_consistent_subgraphs(g)
    leaves = lib.reduction.reduce_to_tree(g).leaves()
    return cons, prop, paths, tuple(oracle), tuple(leaves)


def _family_check(item, answer):
    _, verts, edges = item
    checks.check_family(verts, edges, answer)


# ---------------------------------------------------------------------------
# deep_reduce and oracle_wide: CLI ``reduce`` on graph files
# ---------------------------------------------------------------------------


REFERENCE = Path(__file__).resolve().parent / "baseline" / "deep_reduce_digests.json"


class GraphInput(NamedTuple):
    shape: str
    verts: dict
    edges: list
    argv: list
    dot: Path | None
    digest: str  # of verts and edges, not of the file the library writes


def _write_inputs(lib, workdir, graphs, flags, with_dot):
    """Write each graph with the library's writer; return the CLI items."""
    items = []
    for i, (shape, verts, edges) in enumerate(graphs):
        path = Path(workdir) / f"g{i:03d}.txt"
        path.write_text(lib.graphfile.write_graph_file(lib.graph.PlumbingGraph(verts, edges)))
        dot = Path(workdir) / f"g{i:03d}.dot" if with_dot else None
        argv = ["reduce", str(path), *flags] + (["--dot", str(dot)] if dot else [])
        key = digest(repr((sorted(verts.items()), edges)))
        items.append(GraphInput(shape, verts, edges, argv, dot, key))
    return items


def _cli_op(lib, item):
    status, stdout = lib.cli.run_command(item.argv)
    return status, stdout, item.dot.read_text() if item.dot else None


def digest(text):
    """A short content digest: the first 16 hex digits of its SHA-256."""
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli_record(item, answer):
    status, stdout, dot = answer
    return (status, digest(stdout), digest(dot)), answer


def cli_check(item, answer):
    status, stdout, dot = answer
    checks.check_reduce_output(
        item.verts,
        item.edges,
        status,
        stdout,
        dot,
        all_paths_on_path=item.shape == "path" and "--all-paths" in item.argv,
    )


@functools.cache
def reference_outputs():
    """{input digest: [stdout digest, DOT digest]} for deep_reduce."""
    return json.loads(REFERENCE.read_text())["outputs"] if REFERENCE.exists() else {}


def _deep_check(item, answer):
    cli_check(item, answer)
    expected = reference_outputs().get(item.digest)
    if expected is not None:
        _, stdout, dot = answer
        checks.require([digest(stdout), digest(dot)] == expected,
                       "stdout or DOT differs from the reference digest")


def _deep_setup(lib, rng, workdir, size):
    graphs = [
        (t[0], *inputs.deep_graph(rng, t)) for t in inputs.DEEP_TEMPLATES[:size]
    ]
    return _write_inputs(lib, workdir, graphs, ["--all-paths", "--oracle"], with_dot=True)


def _oracle_setup(lib, rng, workdir, size):
    graphs = [
        (shape, *inputs.oracle_graph(rng, shape, n)) for shape, n in inputs.ORACLE_STRATA[:size]
    ]
    return _write_inputs(lib, workdir, graphs, ["--oracle"], with_dot=False)


# ---------------------------------------------------------------------------
# arith_roundtrip
# ---------------------------------------------------------------------------


def _arith_setup(lib, rng, workdir, size):
    rows = [("row", p, qs) for p, qs in inputs.arith_rows(size)]
    return rows + [("word", w) for w in inputs.arith_words(rng)]


def _arith_op(lib, item):
    arith, diagram = lib.arith, lib.diagram
    if item[0] == "row":
        _, p, qs = item
        out = []
        for q in qs:
            a = arith.neg_cf_expand(p, q)
            out.append((q, a, arith.neg_cf_evaluate(a), diagram.count_structures(a)))
        return out
    sign, exponents = item[1]
    word = arith.MonodromyWord(sign, exponents)
    found = arith.factor_monodromy(arith.monodromy_matrix(word), max_n=6, max_a=12)
    return found, diagram.bundle_counts(word)


def _arith_record(item, answer):
    if item[0] == "row":
        answer = tuple((q, tuple(a), v, c) for q, a, v, c in answer)
    return answer, answer


def _arith_check(item, answer):
    if item[0] == "row":
        checks.check_cf_row(item[1], answer)
    else:
        checks.check_word(item[1], answer)


def _keep(item, answer):
    return answer, answer


WORKLOADS = {
    "family_sweep": Workload(
        "acceptance-sweep traffic: thousands of tiny library calls on <= 6-vertex"
        " graphs; loads graph validation/build and kernel call overhead, renders nothing",
        # p99, not p99.9: the 99.9th percentile of ~60,000 ops sits among the
        # host's scheduling stalls and spread twice as much as the median.
        _family_setup, _family_op, _keep, _family_check, size=2000, tail_percentile=99,
    ),
    "deep_reduce": Workload(
        "CLI reduce --all-paths --oracle --dot on 12-16 vertex paths and cycles with"
        " ~10^3-node trees; loads reduction and report rendering, oracle stays small",
        _deep_setup, _cli_op, _cli_record, _deep_check, size=len(inputs.DEEP_TEMPLATES),
        tail_percentile=75,
    ),
    "oracle_wide": Workload(
        "CLI reduce --oracle on mostly-extreme 16-20 vertex graphs with small trees;"
        " a few huge 2^n subset-kernel calls, bypasses rendering",
        _oracle_setup, _cli_op, _cli_record, cli_check, size=len(inputs.ORACLE_STRATA),
        tail_percentile=75,
    ),
    "arith_roundtrip": Workload(
        "continued-fraction round trips, monodromy factoring at the CLI defaults and"
        " chain counts; the only load on arith and diagram, bypasses every graph layer",
        _arith_setup, _arith_op, _arith_record, _arith_check,
        size=inputs.ARITH_P_RANGE[1] - inputs.ARITH_P_RANGE[0], tail_percentile=95,
    ),
}
