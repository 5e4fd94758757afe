"""Golden transcript of the command line.

Seeded inputs (random.Random(18)) go into a fresh directory: plain and
1-3-coloured graphs as graph6 and edge-list files, and one motif file per
basis.  Each of the ~180 commands of `commands` then runs in-process
through cli.main from that directory, and its argv, exit code, stdout and
stderr are compared with tests/cli_transcript.txt.  An argparse usage error
is recorded by its exit code alone, because argparse's wording varies
between Python versions.

Regenerate the golden file after an intended change of output with

    PYTHONPATH=src python3 tests/test_cli_transcript.py
"""

import contextlib
import io
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from conftest import random_colored, random_graph
from motifcount.cli import main
from motifcount.graphs import encode_graph6, format_edge_list

GOLDEN = Path(__file__).with_name("cli_transcript.txt")
BASES = ("hom", "sub", "indsub", "emb", "strembed")


def _write_inputs(root: Path) -> dict:
    """Write the seeded input files into root; returns their names by role."""
    rng = random.Random(18)
    files: dict = {}

    def put(role, name, text):
        (root / name).write_text(text, encoding="ascii")
        files.setdefault(role, []).append(name)

    def plain(role, prefix, sizes, p=0.5):
        for i, n in enumerate(sizes):
            g = random_graph(rng, n, p)
            # graph6 and edge-list files alternate
            if i % 2:
                put(role, f"{prefix}{i}.txt", format_edge_list(g))
            else:
                put(role, f"{prefix}{i}.g6", encode_graph6(g) + "\n")

    def colored(role, prefix, sizes, p=0.5):
        for i, n in enumerate(sizes):
            put(role, f"{prefix}{i}.txt",
                format_edge_list(random_colored(rng, n, 1 + i % 3, p)))

    # small enough for the brute-force oracle
    plain("small_patterns", "sp", [2, 3, 4, 4], 0.6)
    plain("small_hosts", "sh", [5, 6, 7, 8], 0.5)
    # the planner's kernels alone
    plain("patterns", "p", [5, 6, 6, 5], 0.5)
    plain("hosts", "h", [9, 10, 11, 12], 0.4)
    colored("small_colored_patterns", "scp", [2, 3, 4, 4], 0.6)
    colored("small_colored_hosts", "sch", [5, 6, 7, 8], 0.5)
    colored("colored_patterns", "cp", [5, 6, 6, 5], 0.5)
    colored("colored_hosts", "ch", [9, 10, 11, 12], 0.5)
    for basis in BASES:
        lines = [f"basis {basis}"]
        for _ in range(3):
            g = random_graph(rng, rng.randint(2, 5), 0.6)
            coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            lines.append(f"{coeff} {encode_graph6(g)}")
        put("motifs", f"{basis}.motif", "\n".join(lines) + "\n")
    # error inputs
    put("errors", "bad_line.motif", "basis hom\n1 A_\n1/0 Bw\n")
    # P3 coloured (0, 1, 0): no copy in K3 respects its colours
    put("errors", "coloured_p3.txt", "n 3\ne 0 1\ne 1 2\nc 0 0\nc 1 1\nc 2 0\n")
    put("errors", "k10.g6", encode_graph6(random_graph(rng, 10, 1.0)) + "\n")
    return files


def commands(files: dict) -> list:
    """Every argv of the transcript, in order."""
    out = []
    engines = ("auto", "brute")
    for kind in BASES:
        for pat, host in zip(files["small_patterns"], files["small_hosts"]):
            for engine in engines:
                out.append(["count", "--kind", kind, "--pattern", f"@{pat}",
                            "--host", f"@{host}", "--engine", engine])
        for pat, host in zip(files["patterns"], files["hosts"]):
            if kind in ("indsub", "strembed") and pat.startswith("p1"):
                continue  # a 6-vertex IndSub row canonicalises up to 2^15 supergraphs
            out.append(["count", "--kind", kind, "--pattern", f"@{pat}", "--host", f"@{host}"])
    for kind in ("hom", "emb", "sub"):
        for pat, host in zip(files["small_colored_patterns"], files["small_colored_hosts"]):
            for engine in engines:
                out.append(["colored-count", "--kind", kind, "--pattern", f"@{pat}",
                            "--host", f"@{host}", "--engine", engine])
        for pat, host in zip(files["colored_patterns"], files["colored_hosts"]):
            out.append(["colored-count", "--kind", kind, "--pattern", f"@{pat}",
                        "--host", f"@{host}"])
    for motif in files["motifs"]:
        for host in files["small_hosts"][1:3]:
            for engine in engines:
                out.append(["eval", "--param", motif, "--host", f"@{host}", "--engine", engine])
        out.append(["eval", "--param", motif, "--host", f"@{files['hosts'][3]}"])
    for motif, source in zip(files["motifs"], BASES):
        for target in BASES:
            out.append(["basis", "--from", source, "--to", target, "--input", motif])
    for pat in files["small_patterns"] + files["patterns"][:2]:
        out.append(["spasm", f"@{pat}"])
    for pat in files["small_patterns"] + files["patterns"]:
        out.append(["decompose", f"@{pat}"])
    for pat in files["small_colored_patterns"] + files["colored_patterns"]:
        out.append(["decompose", "--guarded", f"@{pat}"])
    out.append(["selftest"])
    coloured = "@coloured_p3.txt"
    out += [
        ["count", "--kind", "hom", "--pattern", "?x", "--host", "Bw"],
        ["count", "--kind", "hom", "--pattern", "A", "--host", "Bw"],
        ["eval", "--param", "bad_line.motif", "--host", "Bw"],
        ["count", "--kind", "hom", "--pattern", "@k10.g6", "--host", "@k10.g6",
         "--engine", "brute"],
        ["count", "--kind", "sub", "--pattern", coloured, "--host", "Bw"],
        ["count", "--kind", "sub", "--pattern", "BW", "--host", coloured],
        ["eval", "--param", "hom.motif", "--host", coloured],
        ["spasm", coloured],
        ["decompose", coloured],
        ["count", "--kind", "bogus", "--pattern", "A_", "--host", "A_"],
        ["colored-count", "--kind", "indsub", "--pattern", "A_", "--host", "A_"],
    ]
    return out


def transcript(root: Path) -> str:
    """Run every command from root and return the transcript text."""
    files = _write_inputs(root)
    blocks = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in commands(files):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            if code == 2 and err.startswith("usage:"):
                err = "(argparse usage error)\n"
            blocks.append(f"$ {' '.join(argv)}\nexit {code}\n--- stdout\n{stdout.getvalue()}"
                          f"--- stderr\n{err}")
    finally:
        os.chdir(cwd)
    return "\n".join(blocks)


def test_transcript_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(transcript(Path(d)), encoding="ascii")
