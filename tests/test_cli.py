import io
import random
import shlex
from pathlib import Path

import pytest

from conftest import (
    CLI_MAIN, clique, matching, path, prism, random_colored, random_graph, run_isolated, star,
)
from motifcount import cli, motif
from motifcount.cli import main
from motifcount.graphs import ColoredGraph, Graph, encode_graph6, format_edge_list, parse_graph6
from motifcount.oracle import brute_count


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err



C5 = encode_graph6(Graph(5, [(i, (i + 1) % 5) for i in range(5)]))


class TestCount:
    def test_sub_fixture(self, capsys):
        code, out, _ = run(
            ["count", "--kind", "sub", "--pattern", "DDW", "--host", C5], capsys
        )
        assert code == 0 and out.strip() == "5"

    def test_engines_agree(self, capsys):
        # the planner's kernels and the oracle
        values = set()
        for engine in ("auto", "brute"):
            code, out, _ = run(
                [
                    "count",
                    "--kind",
                    "hom",
                    "--pattern",
                    "BW",
                    "--host",
                    "CR",
                    "--engine",
                    engine,
                ],
                capsys,
            )
            assert code == 0
            values.add(out.strip())
        assert values == {"10"}

    def test_pattern_past_the_treewidth_guard(self):
        # the 11-edge matching: 22 vertices, all cleared by the reduction
        # rules
        proc = run_isolated(CLI_MAIN, "count", "--kind", "hom", "--pattern",
                            encode_graph6(matching(11)), "--host", "Bw")
        assert proc.returncode == 0
        assert proc.stdout.strip() == str(6**11)  # (2m)^11 on K3

    def test_one_vertex_inline(self, capsys):
        # "@" is the graph6 of K1, not an empty @file path
        code, out, _ = run(
            ["count", "--kind", "hom", "--pattern", "@", "--host", "C~"], capsys
        )
        assert code == 0 and out.strip() == "4"

    def test_colored_from_files(self, tmp_path, capsys):
        pat = tmp_path / "pattern.txt"
        pat.write_text("n 2\ne 0 1\nc 0 1\nc 1 2\n")
        host = tmp_path / "host.txt"
        host.write_text("n 3\ne 0 1\ne 1 2\nc 0 1\nc 1 2\nc 2 1\n")
        code, out, _ = run(
            [
                "colored-count",
                "--kind",
                "emb",
                "--pattern",
                f"@{pat}",
                "--host",
                f"@{host}",
            ],
            capsys,
        )
        assert code == 0 and out.strip() == "2"

    def test_colored_count_alias(self, capsys):
        # colored queries go through colored-count only
        code, out, err = run(
            ["count", "--kind", "emb", "--pattern", "A_", "--host", "A_", "--colored"], capsys
        )
        assert code == 2 and out == "" and "unrecognized arguments: --colored" in err

    def test_files_with_leading_comments(self, tmp_path, capsys):
        g6 = tmp_path / "k3.g6"
        g6.write_text("# a triangle\nBw\n")
        edges = tmp_path / "k2.txt"
        edges.write_text("  # an indented note\nn 2\ne 0 1\n")
        code, out, _ = run(
            ["count", "--kind", "hom", "--pattern", f"@{edges}", "--host", f"@{g6}"], capsys
        )
        assert code == 0 and out.strip() == "6"

    @pytest.mark.parametrize("kind", ["hom", "emb", "sub"])
    @pytest.mark.parametrize("engine", ["auto", "brute"])
    def test_colored_kinds_match_the_oracle(self, tmp_path, capsys, kind, engine):
        rng = random.Random(53)
        h = ColoredGraph(path(2), (0, 1, 0))  # two colour-preserving automorphisms
        g = random_colored(rng, 8, 2, 0.6)
        for name, x in (("h", h), ("g", g)):
            (tmp_path / name).write_text(format_edge_list(x))
        code, out, _ = run(["colored-count", "--kind", kind, "--engine", engine,
                            "--pattern", f"@{tmp_path / 'h'}", "--host", f"@{tmp_path / 'g'}"],
                           capsys)
        if kind == "hom":
            want = brute_count("colored-hom", h, g)
        else:
            want = brute_count("colored-emb", h, g) // (2 if kind == "sub" else 1)
        assert want > 0
        assert code == 0 and out.strip() == str(want)

    def test_colored_sub_of_a_monochromatic_star(self):
        # K1,11 in one colour: its 11 leaves are one twin class
        proc = run_isolated(CLI_MAIN, "colored-count", "--kind", "sub", "--pattern",
                            encode_graph6(star(11)), "--host", "Bw")
        assert proc.returncode == 0 and proc.stdout.strip() == "0"


class TestSpasm:
    def test_eight_lines_with_coefficients(self, capsys):
        code, out, _ = run(["spasm", "DDW"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(len(l.split()) == 2 for l in lines)


INDSUB_P5_C5_IN_HOM = """\
basis hom
1/2 DBg
-1/2 DBk
-1 DBw
-1 DJc
-2/5 DLo
1 DB{
1/2 DFw
2 DJk
1/2 DK{
3 DLs
-1/2 DF{
-1 DJ{
-9/2 DL{
-3 DNw
4 DN{
5/2 D]{
-5/2 D^{
2/5 D~{
"""


class TestBasisEval:
    def test_round_trip_through_files(self, tmp_path, capsys):
        f = tmp_path / "p.motif"
        f.write_text("basis sub\n1 DDW\n")
        code, out, _ = run(
            ["basis", "--from", "sub", "--to", "hom", "--input", str(f)], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "basis hom"
        assert len(out.strip().splitlines()) == 9  # basis line + 8 terms

    def test_eval_walk_fixture(self, tmp_path, capsys):
        f = tmp_path / "p.motif"
        f.write_text("basis hom\n1 DBg\n")
        code, out, _ = run(
            ["eval", "--param", str(f), "--host", "Bw"], capsys
        )
        assert code == 0 and out.strip() == "48"

    def test_eval_brute_is_the_oracle_in_the_own_basis(self, tmp_path, capsys, monkeypatch):
        # IndSub(P5) + IndSub(C5) by the oracle alone: no basis change runs
        f = tmp_path / "p.motif"
        f.write_text("basis indsub\n1 DhC\n1 Dhc\n")
        g = random_graph(random.Random(61), 9)
        want = brute_count("indsub", path(4), g) + brute_count("indsub", parse_graph6("Dhc"), g)
        code, out, _ = run(["eval", "--param", str(f), "--host", encode_graph6(g)], capsys)
        assert code == 0 and out.strip() == str(want) and want > 0

        def no_basis_change(*args):
            raise AssertionError("eval --engine brute changed basis")

        monkeypatch.setattr(motif, "change_basis", no_basis_change)
        code, out, _ = run(["eval", "--param", str(f), "--host", encode_graph6(g),
                            "--engine", "brute"], capsys)
        assert code == 0 and out.strip() == str(want)

    def test_eval_hom_of_k12(self, tmp_path):
        # K12 is one twin class; Hom(K12, K3) = 0
        f = tmp_path / "p.motif"
        f.write_text(f"basis hom\n1 {encode_graph6(clique(12))}\n")
        proc = run_isolated(CLI_MAIN, "eval", "--param", str(f), "--host", "Bw")
        assert proc.returncode == 0 and proc.stdout.strip() == "0"

    def test_indsub_to_hom_fixture(self, tmp_path, capsys):
        # IndSub(P5) + IndSub(C5), P5 the 5-vertex path
        f = tmp_path / "p.motif"
        f.write_text("basis indsub\n1 DhC\n1 Dhc\n")
        code, out, _ = run(
            ["basis", "--from", "indsub", "--to", "hom", "--input", str(f)], capsys
        )
        assert code == 0
        assert out == INDSUB_P5_C5_IN_HOM

    def test_strembed_to_emb_fixture(self, tmp_path, capsys):
        # StrEmb(P4) - 1/2 StrEmb(K3), P4 the 4-vertex path
        f = tmp_path / "p.motif"
        f.write_text("basis strembed\n1 Ch\n-1/2 Bw\n")
        code, out, _ = run(
            ["basis", "--from", "strembed", "--to", "emb", "--input", str(f)], capsys
        )
        assert code == 0
        assert out == "basis emb\n-1/2 Bw\n1 CL\n-2 CN\n-1 C]\n3 C^\n-1 C~\n"

    def test_basis_mismatch_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "p.motif"
        f.write_text("basis sub\n1 A_\n")
        code, _, err = run(
            ["basis", "--from", "hom", "--to", "sub", "--input", str(f)], capsys
        )
        assert code == 2 and err.strip()


def colored_edge_list(n, edges, colors) -> str:
    lines = [f"n {n}"] + [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines + [f"c {v} {c}" for v, c in enumerate(colors)]) + "\n"


# `decompose --guarded` output, pinned byte for byte: the bench colourings of
# P6 and C6, the swept and hanging patterns of test_colored, and the
# monochromatic 8-matching (one class carrying an 8-flower, so c = 16)
GUARDED_DUMPS = {
    "P3": (
        colored_edge_list(3, [(0, 1), (1, 2)], (0, 1, 0)),
        "0 parent=- bag={1} guard={}\n"
        "1 parent=0 bag={0,1,2} guard={0,1,2}\n",
    ),
    "P6": (
        colored_edge_list(6, [(i, i + 1) for i in range(5)], (0, 1, 2, 0, 1, 2)),
        "0 parent=- bag={2,5} guard={2,5}\n"
        "1 parent=0 bag={1,2,4,5} guard={1,2,4,5}\n"
        "2 parent=1 bag={0,1,2,3,4} guard={0,1,2,3,4}\n",
    ),
    "C6": (
        colored_edge_list(6, [(i, (i + 1) % 6) for i in range(6)], (0, 1, 0, 1, 0, 1)),
        "0 parent=- bag={1,3,5} guard={1,3,5}\n"
        "1 parent=0 bag={0,1,2,3,4,5} guard={0,1,2,3,4,5}\n",
    ),
    "swept": (
        colored_edge_list(7, [(0, 5), (2, 5), (2, 6), (3, 5)], (2, 0, 1, 2, 0, 1, 1)),
        "0 parent=- bag={0,3} guard={0,3}\n"
        "1 parent=0 bag={0,2,3,5,6} guard={0,2,3,5,6}\n"
        "2 parent=0 bag={1,4} guard={}\n",
    ),
    "hanging": (
        colored_edge_list(5, [(1, 3), (3, 4)], (0, 0, 2, 2, 0)),
        "0 parent=- bag={2,3} guard={}\n"
        "1 parent=0 bag={0,1,3,4} guard={1,3,4}\n",
    ),
    "matching8": (
        encode_graph6(matching(8)),
        "0 parent=- bag={%s} guard={%s}\n" % ((",".join(map(str, range(16))),) * 2),
    ),
}


class TestDecompose:
    def test_plain(self, capsys):
        # the elimination plan the kernels run: width, order, and per vertex
        # its message scope and its parent in the elimination forest
        plans = {
            "DDW": "width=1 order=0,1,3,2,4\n0 scope={3} parent=3\n1 scope={4} parent=4\n"
                   "3 scope={2} parent=2\n2 scope={4} parent=4\n4 scope={} parent=-\n",
            "Bw": "width=2 order=0,1,2\n0 scope={1,2} parent=1\n1 scope={2} parent=2\n"
                  "2 scope={} parent=-\n",
            "?": "width=-1 order=\n",
            encode_graph6(matching(2)): "width=1 order=0,1,2,3\n0 scope={1} parent=1\n"
                                        "1 scope={} parent=-\n2 scope={3} parent=3\n"
                                        "3 scope={} parent=-\n",
        }
        for graph, want in plans.items():
            assert run(["decompose", graph], capsys) == (0, want, ""), graph

    @pytest.mark.parametrize("flag", ["--nice", "--width2"])
    def test_removed_normal_forms_are_usage_errors(self, flag, capsys):
        code, out, err = run(["decompose", "DDW", flag], capsys)
        assert code == 2 and out == "" and f"unrecognized arguments: {flag}" in err

    def test_guarded(self, tmp_path, capsys):
        for name, (source, want) in GUARDED_DUMPS.items():
            if source.startswith("n "):
                f = tmp_path / f"{name}.txt"
                f.write_text(source)
                source = f"@{f}"
            code, out, _ = run(["decompose", "--guarded", source], capsys)
            assert code == 0 and out == want, name

    def test_needs_a_graph(self, capsys):
        code, out, err = run(["decompose"], capsys)
        assert code == 2 and out == ""
        assert err == "error: decompose needs a graph argument\n"

    def test_guarded_takes_no_graph_argument(self, tmp_path, capsys):
        f = tmp_path / "p3.txt"
        f.write_text(GUARDED_DUMPS["P3"][0])
        code, out, err = run(["decompose", "Bw", "--guarded", f"@{f}"], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")


class TestErrors:
    def test_usage_exit_2(self, capsys):
        code, _, _ = run(["count", "--kind", "bogus", "--pattern", "A_", "--host", "A_"], capsys)
        assert code == 2

    def test_threads_is_not_an_option(self, capsys):
        code, _, err = run(
            ["count", "--kind", "hom", "--pattern", "A_", "--host", "A_", "--threads", "2"],
            capsys,
        )
        assert code == 2 and "--threads" in err

    def test_missing_motif_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.motif")
        for argv in (
            ["eval", "--param", missing, "--host", "A_"],
            ["basis", "--to", "hom", "--input", missing],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2
            assert err.startswith(f"error: cannot read {missing}")

    def test_domain_exit_1(self, capsys):
        code, _, err = run(
            ["count", "--kind", "hom", "--pattern", "A", "--host", "A_"], capsys
        )
        assert code == 1
        assert err.strip().count("\n") == 0  # single-line diagnostic

    def test_supergraph_guard_exit_1(self, tmp_path, capsys):
        # IndSub of the 8-vertex path: 21 non-edges, 2^21 supergraphs
        p8 = encode_graph6(Graph(8, [(i, i + 1) for i in range(7)]))
        f = tmp_path / "p.motif"
        f.write_text(f"basis indsub\n1 {p8}\n")
        code, _, err = run(["basis", "--to", "hom", "--input", str(f)], capsys)
        assert code == 1
        assert "supergraph enumeration capped" in err

    @pytest.mark.parametrize("command", ["count-sub", "count-emb", "eval", "decompose",
                                         "count-sub-13", "spasm-13"])
    def test_oversized_pattern_exit_1(self, tmp_path, command):
        big = encode_graph6(Graph(21))
        # the edgeless 13-vertex graph: Bell(13) = 27,644,437 partitions, past
        # the partition budget
        edgeless13 = encode_graph6(Graph(13))
        f = tmp_path / "p.motif"
        f.write_text(f"basis sub\n1 {big}\n")
        argv = {
            "count-sub": ["count", "--kind", "sub", "--pattern", big, "--host", "Bw"],
            "count-emb": ["count", "--kind", "emb", "--pattern", big, "--host", "Bw"],
            "eval": ["eval", "--param", str(f), "--host", "Bw"],
            "count-sub-13": ["count", "--kind", "sub", "--pattern", edgeless13, "--host", "Bw"],
            "spasm-13": ["spasm", edgeless13],
            # cubic on 20 vertices: no reduction rule applies, so the one
            # kernel component passes TREEWIDTH_GUARD
            "decompose": ["decompose", encode_graph6(prism(10))],
        }[command]
        proc = run_isolated(CLI_MAIN, *argv)
        assert proc.returncode == 1
        assert "capped" in proc.stderr

    @pytest.mark.parametrize("engine", ["auto", "brute"])
    def test_oversized_colored_pattern_exit_1(self, tmp_path, engine):
        # one colour class of 21 vertices, past the canonical search's cap
        big = encode_graph6(Graph(21))
        host = tmp_path / "host.txt"
        host.write_text("n 1\n")
        proc = run_isolated(CLI_MAIN, "colored-count", "--kind", "sub", "--engine", engine,
                            "--pattern", big, "--host", f"@{host}")
        assert proc.returncode == 1
        assert "capped" in proc.stderr

    def test_dense_memory_guard_falls_back(self, tmp_path, capsys):
        # 20000^2 float64 entries per factor: the matrix engine refuses
        # before allocating, and the dict DP answers
        host = tmp_path / "host.txt"
        host.write_text("n 20000\ne 0 1\n")
        code, out, err = run(
            ["count", "--kind", "hom", "--pattern", "Bw", "--host", f"@{host}"], capsys
        )
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("exc", [AssertionError, MemoryError, RecursionError])
    def test_internal_failure_is_one_line(self, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(cli, "count_pattern", fail)
        code, out, err = run(["count", "--kind", "sub", "--pattern", "A_", "--host", "A_"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {exc.__name__}: boom\n"

    def test_colored_indsub_rejected(self, capsys):
        code, out, err = run(
            ["colored-count", "--kind", "indsub", "--pattern", "A_", "--host", "A_"], capsys
        )
        assert code == 2 and out == ""
        assert err == "error: colored-count does not support kind 'indsub'\n"

    @pytest.mark.parametrize("command", ["count", "colored-count", "eval"])
    @pytest.mark.parametrize("engine", ["dp", "mm"])
    def test_removed_engines_are_usage_errors(self, tmp_path, capsys, command, engine):
        # the planner picks each term's kernel; --engine keeps auto and brute
        f = tmp_path / "p.motif"
        f.write_text("basis sub\n1 A_\n")
        source = ["--param", str(f)] if command == "eval" else [
            "--kind", "sub", "--pattern", "A_"]
        code, out, err = run([command, *source, "--host", "A_", "--engine", engine], capsys)
        assert code == 2 and out == ""
        assert f"argument --engine: invalid choice: '{engine}'" in err

    @pytest.mark.parametrize("command", ["count", "eval", "spasm", "decompose"])
    def test_coloured_file_to_a_plain_command_is_usage_error(self, tmp_path, capsys, command):
        # P3 coloured (0, 1, 0) has no colour-respecting copy in K3, but 3
        # uncoloured ones: a plain command must not drop the colours
        pat = tmp_path / "p3.txt"
        pat.write_text("n 3\ne 0 1\ne 1 2\nc 0 0\nc 1 1\nc 2 0\n")
        f = tmp_path / "p.motif"
        f.write_text("basis sub\n1 BW\n")
        argv = {
            "count": ["count", "--kind", "sub", "--pattern", f"@{pat}", "--host", "Bw"],
            "eval": ["eval", "--param", str(f), "--host", f"@{pat}"],
            "spasm": ["spasm", f"@{pat}"],
            "decompose": ["decompose", f"@{pat}"],
        }[command]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: @{pat} is coloured")
        assert "colored-count" in err and "decompose --guarded" in err

    @pytest.mark.parametrize("term, message", [
        ("1/0 A_", "line 3: bad rational '1/0'"),
        ("1 A", "line 3: byte offset 1: "),
    ])
    def test_bad_motif_term_names_its_line(self, tmp_path, capsys, term, message):
        f = tmp_path / "p.motif"
        f.write_text(f"basis hom\n1 A_\n{term}\n")
        code, out, err = run(["eval", "--param", str(f), "--host", "Bw"], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestSelftest:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(l.startswith("PASS ") for l in lines)


class TestReadme:
    def test_command_line_examples_run(self, capsys):
        # every example of README's command-line block that needs no file
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                    if "@" not in line and ".motif" not in line]
        assert len(examples) >= 4
        for argv in examples:
            assert run(argv, capsys)[0] == 0, argv
