import pytest

from plumbjsj.graph import PlumbingGraph
from plumbjsj.graphfile import GraphParseError, parse_graph_file, write_graph_file


def test_single_vertex():
    g = parse_graph_file("vertex 0 b=-2 r=0")
    assert g.vertices == {0: (-2, 0)} and not g.edges


def test_two_chain():
    text = "vertex 0 b=-3 r=1\nvertex 1 b=-3 r=-1\nedge 0 1 sign=+1"
    g = parse_graph_file(text)
    assert g.vertices == {0: (-3, 1), 1: (-3, -1)}
    assert g.edges == frozenset({(0, 1, 1)})


def test_comments_and_blanks():
    text = "# heading\n\nvertex 3 b=-2 r=0\n  # indented comment\n"
    g = parse_graph_file(text)
    assert g.vertices == {3: (-2, 0)}


def test_unknown_vertex_line_number():
    with pytest.raises(GraphParseError) as exc:
        parse_graph_file("edge 0 1 sign=+1")
    assert exc.value.line_no == 1
    assert "unknown vertex 0" in str(exc.value)


def test_duplicate_vertex():
    with pytest.raises(GraphParseError) as exc:
        parse_graph_file("vertex 0 b=-2 r=0\nvertex 0 b=-2 r=0")
    assert exc.value.line_no == 2


def test_bad_sign_token():
    text = "vertex 0 b=-2 r=0\nvertex 1 b=-2 r=0\nedge 0 1 sign=0"
    with pytest.raises(GraphParseError) as exc:
        parse_graph_file(text)
    assert exc.value.line_no == 3


def test_bad_directive():
    with pytest.raises(GraphParseError):
        parse_graph_file("node 0 b=-2 r=0")


def test_bad_field():
    with pytest.raises(GraphParseError):
        parse_graph_file("vertex 0 b=x r=0")
    with pytest.raises(GraphParseError):
        parse_graph_file("vertex 0 r=0 b=-2")


def test_structural_error_surfaces_as_parse_error():
    text = "vertex 0 b=-2 r=0\nvertex 1 b=-2 r=0\nedge 0 1 sign=+1\nedge 1 0 sign=-1"
    with pytest.raises(GraphParseError) as exc:
        parse_graph_file(text)
    assert exc.value.line_no == 4
    assert "parallel edge between 0 and 1" in str(exc.value)


def test_self_loop_line_number():
    text = "vertex 0 b=-2 r=0\n# loop\nedge 0 0 sign=+1"
    with pytest.raises(GraphParseError) as exc:
        parse_graph_file(text)
    assert exc.value.line_no == 3
    assert "self-loop at vertex 0" in str(exc.value)


def test_round_trip():
    g = PlumbingGraph(
        {0: (-3, 1), 2: (-2, 0), 5: (-3, -1)},
        [(2, 0, 1), (2, 5, -1)],
    )
    text = write_graph_file(g)
    assert text.endswith("\n")
    assert parse_graph_file(text) == g
    # The writer is canonical: writing the reparse reproduces the bytes.
    assert write_graph_file(parse_graph_file(text)) == text
