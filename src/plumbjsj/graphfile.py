"""Line-based text format for plumbing graphs.

    # comment
    vertex <id> b=<int> r=<int>
    edge <u> <v> sign=<+1|-1>

Vertices must be declared before any edge referencing them; edge signs are
mandatory.  The writer emits a canonical form that parses back to an equal
graph.
"""

from __future__ import annotations

from plumbjsj.graph import PlumbingGraph


class GraphParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _int_field(token: str, key: str, line_no: int) -> int:
    prefix = key + "="
    if not token.startswith(prefix):
        raise GraphParseError(line_no, f"expected {prefix}<int>, got {token!r}")
    try:
        return int(token[len(prefix) :])
    except ValueError:
        raise GraphParseError(line_no, f"bad integer in {token!r}") from None


def parse_graph_file(text: str, name: str | None = None) -> PlumbingGraph:
    vertices: dict[int, tuple[int, int]] = {}
    edges: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 4:
                raise GraphParseError(line_no, "expected: vertex <id> b=<int> r=<int>")
            try:
                vid = int(tokens[1])
            except ValueError:
                raise GraphParseError(line_no, f"bad vertex id {tokens[1]!r}") from None
            if vid < 0:
                raise GraphParseError(line_no, f"vertex id must be non-negative: {vid}")
            if vid in vertices:
                raise GraphParseError(line_no, f"duplicate vertex {vid}")
            vertices[vid] = (
                _int_field(tokens[2], "b", line_no),
                _int_field(tokens[3], "r", line_no),
            )
        elif kind == "edge":
            if len(tokens) != 4:
                raise GraphParseError(line_no, "expected: edge <u> <v> sign=<+1|-1>")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise GraphParseError(line_no, "bad edge endpoint") from None
            for w in (u, v):
                if w not in vertices:
                    raise GraphParseError(line_no, f"unknown vertex {w}")
            if u == v:
                raise GraphParseError(line_no, f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in edges:
                raise GraphParseError(line_no, f"parallel edge between {key[0]} and {key[1]}")
            s = _int_field(tokens[3], "sign", line_no)
            if s not in (1, -1):
                raise GraphParseError(line_no, f"bad sign token {tokens[3]!r}")
            edges[key] = s
        else:
            raise GraphParseError(line_no, f"unknown directive {kind!r}")
    return PlumbingGraph(vertices, [(u, v, s) for (u, v), s in edges.items()], name=name)


def write_graph_file(g: PlumbingGraph) -> str:
    lines = []
    for v in sorted(g.vertices):
        b, r = g.vertices[v]
        lines.append(f"vertex {v} b={b} r={r}")
    for u, v, s in sorted(g.edges):
        lines.append(f"edge {u} {v} sign={'+1' if s > 0 else '-1'}")
    return "\n".join(lines) + "\n"
