"""Deterministic text and DOT rendering of reduction trees."""

from __future__ import annotations

from operator import attrgetter

from plumbjsj.reduction import NonExtreme, ReductionTree, TreeEdge


def _set_str(vertex_set) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertex_set)) + "}"


def _layout(tree: ReductionTree):
    """(node order, each node's "{...}" label, each parent's out-edges sorted
    by child).  Every node's label and sort key is formatted once."""
    keys = {s: tuple(sorted(s)) for s in tree.nodes}
    labels = {s: "{" + ",".join(map(str, key)) + "}" for s, key in keys.items()}
    order = sorted(tree.nodes, key=lambda s: (-len(s), keys[s]))
    return order, labels, _children_by_parent(tree)


def _children_by_parent(tree: ReductionTree) -> dict[frozenset[int], list[TreeEdge]]:
    """Each parent's out-edges, sorted by their child's sorted tuple, in one
    pass over the edges.  A parent's children all drop one vertex from it,
    so a child sorts before another exactly when its deleted vertex is the
    larger: sorting by deleted vertex, descending, gives the same order."""
    out: dict[frozenset[int], list[TreeEdge]] = {}
    for edge in tree.edges:
        out.setdefault(edge.parent, []).append(edge)
    for edges in out.values():
        edges.sort(key=attrgetter("datum.deleted_vertex"), reverse=True)
    return out


def render_report(tree: ReductionTree, oracle=None) -> str:
    """One block per node, then the leaves, then (optionally) the oracle's
    maximal consistent subgraphs.  Byte-identical across runs."""
    order, labels, children = _layout(tree)
    # Edges share data (see reduce_to_tree), so each distinct datum's text
    # is formatted once, keyed by identity: the tree keeps every datum alive.
    texts: dict[int, str] = {}
    lines = []
    for vertex_set in order:
        node = tree.nodes[vertex_set]
        status = "consistent" if node.consistent else "inconsistent"
        lines.append(f"node {labels[vertex_set]} status={status}")
        for edge in children.get(vertex_set, ()):
            d = edge.datum
            text = texts.get(id(d))
            if text is None:
                text = texts[id(d)] = (
                    f" delete={d.deleted_vertex} rule={d.rule}"
                    f" lambda+={d.lambda_plus} lambda-={d.lambda_minus}"
                )
            lines.append(f"  child {labels[edge.child]}{text}")
    lines.append("leaves:")
    for leaf in tree.leaves():
        lines.append(f"  {_set_str(leaf)}")
    if oracle is not None:
        lines.append("oracle:")
        for subset in oracle:
            lines.append(f"  {_set_str(subset)}")
    return "\n".join(lines) + "\n"


def emit_dot(tree: ReductionTree) -> str:
    """Render the reduction tree in the DOT language, stable across runs."""
    order, labels, children = _layout(tree)
    ids = {vertex_set: f"n{i}" for i, vertex_set in enumerate(order)}
    lines = ["digraph reduction {"]
    for vertex_set in order:
        node = tree.nodes[vertex_set]
        status = "consistent" if node.consistent else "inconsistent"
        lines.append(f'  {ids[vertex_set]} [label="{labels[vertex_set]}\\n{status}"];')
    for vertex_set in order:
        for edge in children.get(vertex_set, ()):
            rule = "non-extreme" if isinstance(edge.datum.rule, NonExtreme) else "path-break"
            lines.append(
                f"  {ids[edge.parent]} -> {ids[edge.child]}"
                f' [label="delete v={edge.datum.deleted_vertex} ({rule})"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
