"""Answer checks, written independently of the library.

Consistency is decided here with a signed union-find (Harary's balance test
with the vertex signs as anchors) rather than with the library's propagation
or path kernels, so a wrong kernel cannot vouch for itself.  The checks run
outside the timed span.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

_ANCHOR = object()


class CheckError(AssertionError):
    """An op returned a wrong answer."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def consistent(verts, edges, subset):
    """Whether ``subset`` induces a consistent subgraph: every r extreme, and
    in each component holding a signed vertex, vertex and edge signs balance."""
    subset = set(subset)
    if any(abs(verts[v][1]) != -verts[v][0] - 2 for v in subset):
        return False
    parent = {v: v for v in subset}
    parent[_ANCHOR] = _ANCHOR
    parity = dict.fromkeys(parent, 0)  # parity to parent: 1 = opposite sign
    bad = set()

    def find(x):
        p = 0
        path = []
        while parent[x] is not x:
            path.append(x)
            p ^= parity[x]
            x = parent[x]
        root, acc = x, p
        for y in path:  # compress, keeping each node's parity to the root
            nxt = acc ^ parity[y]
            parent[y], parity[y], acc = root, acc, nxt
        return root, p

    def union(x, y, odd):
        (rx, px), (ry, py) = find(x), find(y)
        if rx is ry:
            if px ^ py != odd:
                bad.add(rx)
            return
        parent[rx], parity[rx] = ry, px ^ py ^ odd
        if rx in bad:
            bad.add(ry)

    for v in subset:
        r = verts[v][1]
        if r:
            union(v, _ANCHOR, int(r < 0))
    for u, v, s in edges:
        if u in subset and v in subset:
            union(u, v, int(s < 0))
    return find(_ANCHOR)[0] not in bad


def check_maximal_sets(verts, edges, sets):
    """Each set is consistent and gains no vertex without losing that."""
    for s in sets:
        require(consistent(verts, edges, s), f"oracle set {s} is inconsistent")
        for v in set(verts) - set(s):
            require(
                not consistent(verts, edges, set(s) | {v}),
                f"oracle set {s} extends by vertex {v}",
            )


def check_leaves(verts, edges, leaves, oracle):
    for leaf in leaves:
        require(consistent(verts, edges, leaf), f"leaf {leaf} is inconsistent")
        require(
            any(set(leaf) <= set(o) for o in oracle), f"leaf {leaf} is in no oracle set"
        )


# ---------------------------------------------------------------------------
# Parsing the CLI's report and DOT output
# ---------------------------------------------------------------------------


def _parse_set(text):
    body = text.strip()[1:-1]
    return tuple(int(x) for x in body.split(",")) if body else ()


def parse_report(text):
    """(node count, child-line count, leaves, oracle) from ``reduce`` stdout."""
    nodes = children = 0
    sections = {"leaves:": [], "oracle:": []}
    current = None
    for line in text.splitlines():
        if line.startswith("node "):
            nodes += 1
        elif line.startswith("  child "):
            children += 1
        elif line in sections:
            current = sections[line]
        elif current is not None and line.startswith("  {"):
            current.append(_parse_set(line))
        else:
            raise CheckError(f"unexpected report line {line!r}")
    return nodes, children, sections["leaves:"], sections["oracle:"]


def check_reduce_output(verts, edges, status, stdout, dot, all_paths_on_path):
    """Checks on one ``reduce --oracle`` run: exit 0, leaves consistent and
    inside a maximal oracle set, DOT agreeing with the report, and on a path
    reduced with --all-paths the maximal leaves equal to the oracle."""
    require(status == 0, f"exit status {status}")
    nodes, children, leaves, oracle = parse_report(stdout)
    require(nodes >= 1 and leaves and oracle, "report lacks nodes, leaves or oracle")
    check_maximal_sets(verts, edges, oracle)
    check_leaves(verts, edges, leaves, oracle)
    if all_paths_on_path:
        maximal = [l for l in leaves if not any(set(l) < set(m) for m in leaves)]
        require(sorted(maximal) == sorted(oracle), "maximal leaves differ from the oracle")
    if dot is not None:
        lines = dot.splitlines()
        require(lines[0] == "digraph reduction {" and lines[-1] == "}", "malformed DOT")
        require(sum("->" in l for l in lines) == children, "DOT edges differ from report")
        require(sum("[label=\"{" in l for l in lines) == nodes, "DOT nodes differ from report")


def check_family(verts, edges, answer):
    cons, prop, paths, oracle, leaves = answer
    everything = tuple(sorted(verts))
    require(prop == paths, "propagation and path enumeration disagree")
    all_extreme = all(abs(r) == -b - 2 for b, r in verts.values())
    require(cons == (all_extreme and paths), "is_consistent disagrees with the kernels")
    require(cons == consistent(verts, edges, everything), "is_consistent is wrong")
    if cons:
        require(list(oracle) == [everything], "consistent graph has a smaller oracle set")
    check_maximal_sets(verts, edges, oracle)
    check_leaves(verts, edges, leaves, oracle)


def check_cf_row(p, answer):
    for q, a, value, counts in answer:
        require(all(x >= 2 for x in a), f"expansion of {p}/{q} has a term below 2")
        require(value == Fraction(-p, q), f"round trip of {p}/{q} gave {value}")
        total, tight, vot = counts
        require(total == prod(x - 1 for x in a) and total == tight + vot, f"counts {counts}")


def check_word(word, answer):
    sign, exponents = word
    found, (tight, vot) = answer
    require(found is not None, f"no factorisation found for {word}")
    require((found.sign, found.exponents) == word, f"factor gave {found} for {word}")
    require(tight == prod(a - 1 for a in exponents), "bundle tight count")
    require(vot == tight - (1 + sign), "bundle virtually overtwisted count")
