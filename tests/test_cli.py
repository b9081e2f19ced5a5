from pathlib import Path

import pytest

from test_tree_internals import signed_path

from plumbjsj import reduction
from plumbjsj.arith import MonodromyWord, monodromy_matrix
from plumbjsj.cli import run_command
from plumbjsj.graph import PlumbingGraph
from plumbjsj.graphfile import write_graph_file

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


class TestValidate:
    def test_valid(self):
        status, out = run_command(["validate", fixture("consistent2.txt")])
        assert status == 0 and out == "valid\n"

    def test_invalid(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertex 0 b=-1 r=0\n")
        status, out = run_command(["validate", str(path)])
        assert status == 0
        assert out.splitlines()[-1] == "invalid"
        assert "violation" in out

    def test_parse_error_is_domain_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("edge 0 1 sign=+1\n")
        status, _ = run_command(["validate", str(path)])
        assert status == 1

    def test_missing_file(self):
        status, _ = run_command(["validate", "/nonexistent/file.txt"])
        assert status == 1


class TestConsistent:
    def test_consistent(self):
        status, out = run_command(["consistent", fixture("consistent2.txt")])
        assert (status, out) == (0, "consistent\n")

    def test_inconsistent(self):
        status, out = run_command(["consistent", fixture("chain3.txt")])
        assert (status, out) == (0, "inconsistent\n")


class TestReduce:
    def test_report_shape(self):
        status, out = run_command(["reduce", fixture("chain3.txt"), "--oracle"])
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "node {0,1,2} status=inconsistent"
        leaves = lines[lines.index("leaves:") + 1 : lines.index("oracle:")]
        oracle = lines[lines.index("oracle:") + 1 :]
        assert leaves == oracle == ["  {0,1}", "  {0,2}", "  {1,2}"]

    def test_dot_output(self, tmp_path):
        dot_path = tmp_path / "tree.dot"
        status, _ = run_command(
            ["reduce", fixture("chain3.txt"), "--dot", str(dot_path)]
        )
        assert status == 0
        dot = dot_path.read_text()
        assert dot.startswith("digraph reduction {") and dot.count("->") == 3

    def test_all_paths_flag(self):
        status, out = run_command(["reduce", fixture("chain4.txt"), "--all-paths"])
        assert status == 0
        assert "leaves:" in out

    def test_long_chain(self, tmp_path):
        # Two signed vertices joined by a negative edge, then 1,998 unsigned
        # ones: the path search from vertex 1 walks the whole chain, deeper
        # than Python's recursion limit.
        n = 2000
        g = PlumbingGraph(
            {0: (-3, 1), 1: (-3, 1), **{i: (-2, 0) for i in range(2, n)}},
            [(0, 1, -1)] + [(i, i + 1, 1) for i in range(1, n - 1)],
        )
        path = tmp_path / "chain2000.txt"
        path.write_text(write_graph_file(g))
        status, out = run_command(["reduce", str(path)])
        assert status == 0
        lines = out.splitlines()
        assert sum(line.startswith("node ") for line in lines) == 3
        rest = ",".join(map(str, range(2, n)))
        assert lines[lines.index("leaves:") + 1 :] == [f"  {{0,{rest}}}", f"  {{1,{rest}}}"]

    @pytest.mark.parametrize("flags", [[], ["--all-paths"]])
    def test_oversize_oracle_refused_before_reducing(self, flags, tmp_path, monkeypatch, capsys):
        # A 23-vertex path: its --all-paths tree takes minutes, the oracle
        # refuses it outright.
        path = tmp_path / "path23.txt"
        path.write_text(write_graph_file(signed_path(("+-0" * 8)[:23])))

        def refuse(*args, **kwargs):
            raise AssertionError("reduce_to_tree called before the oracle's size check")

        monkeypatch.setattr(reduction, "reduce_to_tree", refuse)
        status, out = run_command(["reduce", str(path), "--oracle", *flags])
        assert (status, out) == (1, "")
        assert "subset enumeration limited to 22 vertices, got 23" in capsys.readouterr().err


class TestSubgraphs:
    def test_listing(self):
        status, out = run_command(["subgraphs", fixture("chain3.txt")])
        assert status == 0
        assert out == "{0,1}\n{0,2}\n{1,2}\n"


class TestArithCommands:
    def test_count(self):
        status, out = run_command(["count", "4", "2"])
        assert (status, out) == (0, "total=3 universally_tight=2 virtually_overtwisted=1\n")

    def test_lens_expand(self):
        status, out = run_command(["lens", "expand", "7", "2"])
        assert (status, out) == (0, "a=[4,2]\n")

    def test_lens_expand_rejects(self):
        status, _ = run_command(["lens", "expand", "4", "2"])
        assert status == 1

    def test_bundle_word(self):
        status, out = run_command(["bundle", "word", "-", "3", "2"])
        assert status == 0
        assert out == "matrix=[[-5,-3],[2,1]] trace=-4 tight=2 virtually_overtwisted=2\n"

    def test_bundle_factor(self):
        status, out = run_command(["bundle", "factor", "5", "3", "--", "-2", "-1"])
        assert (status, out) == (0, "word=+[3,2]\n")

    def test_bundle_factor_not_found(self):
        status, out = run_command(
            ["bundle", "factor", "--max-n", "0", "--max-a", "3", "--", "2", "1", "1", "1"]
        )
        assert (status, out) == (0, "not found\n")

    def test_bundle_factor_no_word_at_defaults(self):
        # No word has this matrix (its first column (2, 1) has q < 0).
        status, out = run_command(["bundle", "factor", "2", "1", "1", "1"])
        assert (status, out) == (0, "not found\n")

    def test_bundle_factor_long_word(self):
        exponents = (3,) + (2, 5, 4) * 9 + (7, 2)
        m = monodromy_matrix(MonodromyWord(-1, exponents))
        entries = [str(x) for x in (m.m11, m.m12, m.m21, m.m22)]
        # The defaults bound the answer to 7 exponents; this word has 30.
        status, out = run_command(["bundle", "factor", "--", *entries])
        assert (status, out) == (0, "not found\n")
        status, out = run_command(["bundle", "factor", "--max-n", "40", "--", *entries])
        assert (status, out) == (0, f"word=-[{','.join(map(str, exponents))}]\n")

    def test_slopes(self):
        status, out = run_command(["slopes", "1"])
        assert status == 0
        assert out == "raw=-1/2 -1/1 inf\nnormalized=-1/1 inf 1/1\ngluing_det=-1\n"

    def test_slopes_split(self):
        status, out = run_command(["slopes", "2", "--split", "0"])
        assert (status, out) == (0, "plus=0/1 minus=-1/2\n")

    def test_slopes_split_out_of_range(self):
        status, _ = run_command(["slopes", "2", "--split", "5"])
        assert status == 1


class TestUsageErrors:
    def test_no_command(self):
        status, _ = run_command([])
        assert status == 2

    def test_unknown_command(self):
        status, _ = run_command(["frobnicate"])
        assert status == 2

    def test_missing_argument(self):
        status, _ = run_command(["consistent"])
        assert status == 2


@pytest.mark.parametrize(
    "name",
    ["chain3.txt", "chain4.txt", "cycle3.txt", "consistent2.txt", "star_hub.txt"],
)
def test_reduce_deterministic_on_fixtures(name, tmp_path):
    runs = []
    for i in range(2):
        dot_path = tmp_path / f"tree{i}.dot"
        status, out = run_command(
            ["reduce", fixture(name), "--oracle", "--dot", str(dot_path)]
        )
        assert status == 0
        runs.append((out, dot_path.read_text()))
    assert runs[0] == runs[1]
