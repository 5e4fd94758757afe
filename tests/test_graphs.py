import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_graphs_up_to,
    clique,
    cycle,
    matching,
    path,
    prism,
    random_colored,
    random_graph,
    relabel,
    run_isolated,
    star,
    twin_rich,
)
from motifcount import graphs as graphs_module
from motifcount.graphs import (
    CapacityError,
    ColoredGraph,
    Graph,
    GraphFormatError,
    automorphism_count,
    canonical_form,
    connected_components,
    disjoint_union,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    parse_graph_file,
    quotient,
    tensor_product,
)
from motifcount.motif import MotifParameter


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, chosen)


def bit_list_parse_graph6(text: str) -> Graph:
    """The reference decoder: one list entry per body bit."""
    if not text:
        raise GraphFormatError("empty graph6 string")
    for off, ch in enumerate(text):
        if not (63 <= ord(ch) <= 126):
            raise GraphFormatError(
                f"byte offset {off}: character {ch!r} outside graph6 range 63..126"
            )
    if text[0] == "~":
        if len(text) < 4:
            raise GraphFormatError("byte offset 0: truncated multi-byte size prefix")
        if text[1] == "~":
            raise GraphFormatError("byte offset 1: 36-bit sizes not supported")
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body, body_off = text[4:], 4
    else:
        n, body, body_off = ord(text[0]) - 63, text[1:], 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"byte offset {body_off + min(len(body), need)}: expected {need} "
            f"data bytes for {n} vertices, got {len(body)}"
        )
    bits = []
    for ch in body:
        bits.extend((ord(ch) - 63 >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    for k in range(nbits, len(bits)):
        if bits[k]:
            raise GraphFormatError(f"byte offset {body_off + k // 6}: nonzero trailing padding bit")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [e for e, bit in zip(pairs, bits) if bit])


def decoded(parse, text: str):
    """parse(text), or the text of the GraphFormatError it raises."""
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


class TestGraph6:
    def test_known_decodings(self):
        assert parse_graph6("A_") == Graph(2, [(0, 1)])
        assert canonical_form(parse_graph6("BW")).key == canonical_form(path(2)).key
        assert parse_graph6("Bw") == clique(3)
        assert parse_graph6("CR") == Graph(4, [(0, 2), (1, 3), (2, 3)])

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    def test_multibyte_round_trip(self):
        g = Graph(70, [(0, 69), (5, 42)])
        text = encode_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    def test_differential_against_the_bit_list_decoder(self):
        # seeded random graphs on both sides of the 1-byte size prefix (n <= 62)
        # and the `~` prefix, then corrupted copies: the same Graph, or the
        # same error text with the same byte offset
        rng = random.Random(61)
        for n in [0, 1, 2, 5, 6, 7, 62, 63, 64, 100, 131] + [rng.randint(0, 140) for _ in range(30)]:
            g = random_graph(rng, n, rng.choice([0.0, 0.05, 0.5, 1.0]))
            text = encode_graph6(g)
            assert parse_graph6(text) == bit_list_parse_graph6(text) == g
            for _ in range(6):
                cut = rng.randrange(len(text) + 1)
                for bad in (text[:cut],
                            text[:cut] + chr(rng.randint(32, 130)) + text[cut + 1:],
                            text + chr(rng.randint(63, 126))):
                    assert decoded(parse_graph6, bad) == decoded(bit_list_parse_graph6, bad)

    def test_seeded_round_trip_builds_a_checked_graph(self):
        # the decoder builds its Graph without re-normalising the edges; the
        # result must be the one the checking constructor gives
        rng = random.Random(67)
        for n in [0, 1, 2, 62, 63, 120] + [rng.randint(0, 80) for _ in range(40)]:
            g = random_graph(rng, n, rng.random())
            decoded_g = parse_graph6(encode_graph6(g))
            assert decoded_g == g and hash(decoded_g) == hash(g)
            assert type(decoded_g.edges) is frozenset
            assert all(0 <= u < v < n for u, v in decoded_g.edges)
            assert Graph(decoded_g.n, decoded_g.edges) == decoded_g

    def test_errors_name_byte_offsets(self):
        with pytest.raises(GraphFormatError, match="offset"):
            parse_graph6("B\x20")
        with pytest.raises(GraphFormatError):
            parse_graph6("")
        with pytest.raises(GraphFormatError):
            parse_graph6("C")  # truncated data


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(relabel(g, perm)).key == canonical_form(g).key

    def test_distinguishes_classes(self):
        assert canonical_form(path(3)).key != canonical_form(star(3)).key

    def test_key_is_least_graph6_over_relabelings(self):
        # pins the keys that the CLI prints and graph_order_key sorts by
        rng = random.Random(3)
        twins = [twin_rich(random.Random(i), 6, 1).graph for i in range(30)]
        for g in all_graphs_up_to(5) + twins:
            perm = list(range(g.n))
            rng.shuffle(perm)
            least = min(
                encode_graph6(relabel(g, p)) for p in itertools.permutations(range(g.n))
            )
            assert canonical_form(relabel(g, perm)).key == least


def least_relabeling(h: ColoredGraph) -> tuple:
    """(least (colors, graph6) over all relabelings of h, number of
    relabelings reaching it), straight from the definitions: a relabeling
    p puts vertex p[i] at position i."""
    n = h.n
    adj = [[h.graph.has_edge(u, v) for v in range(n)] for u in range(n)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    reached = Counter(
        (tuple(h.colors[v] for v in p), "".join("01"[adj[p[i]][p[j]]] for i, j in pairs))
        for p in itertools.permutations(range(n))
    )
    (colors, bits), count = min(reached.items())
    bits += "0" * (-len(bits) % 6)
    g6 = chr(63 + n) + "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
    return (colors, g6), count


def symmetric_unions() -> list:
    """6-vertex graphs whose automorphisms move more than twins, numbered
    piece by piece, so that v % 2 colors copies of a 2-vertex piece alike
    and v % 3 copies of a 3-vertex one."""
    p3, k1 = path(2), Graph(1)
    pendant = disjoint_union(disjoint_union(matching(1), p3), k1)  # 2M2, a pendant on one edge, K1
    return [
        disjoint_union(clique(3), clique(3)),
        matching(3),
        disjoint_union(p3, p3),
        disjoint_union(matching(1), cycle(4)),
        disjoint_union(k1, cycle(5)),
        pendant,
        cycle(6),
        prism(3),
    ]


class TestAutomorphisms:
    def test_key_and_aut_match_the_definition(self):
        # pins the least key and the tie count through twin, least-part and
        # automorphism pruning on every 6-vertex case, colored or not
        rng = random.Random(29)
        cases = [random_colored(rng, 6, rng.randint(1, 3)) for _ in range(16)]
        cases += [twin_rich(rng, 6, rng.randint(1, 3)) for _ in range(16)]
        for g in symmetric_unions():
            for colors in ([0] * 6, [v % 2 for v in range(6)], [v % 3 for v in range(6)]):
                perm = list(range(6))
                rng.shuffle(perm)
                relabeled = [0] * 6
                for v in range(6):
                    relabeled[perm[v]] = colors[v]
                cases.append(ColoredGraph(relabel(g, perm), relabeled))
        for h in cases:
            key, aut = least_relabeling(h)
            assert (canonical_form(h).key, automorphism_count(h)) == (key, aut), h
            if not any(h.colors):
                cf = canonical_form(h.graph)
                assert (cf.key, cf.aut) == (key[1], aut), h

    def test_known_groups(self):
        assert automorphism_count(clique(3)) == 6
        assert automorphism_count(path(4)) == 2
        assert automorphism_count(Graph(1)) == 1
        assert automorphism_count(cycle(4)) == 8
        assert automorphism_count(star(3)) == 6

    def test_matches_brute_force(self):
        rng = random.Random(5)
        graphs = [random_graph(rng, rng.randint(1, 6)) for _ in range(30)]
        graphs += [twin_rich(rng, rng.randint(1, 7), 1).graph for _ in range(30)]
        for g in graphs:
            brute = sum(
                1
                for perm in itertools.permutations(range(g.n))
                if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)
            )
            assert automorphism_count(g) == brute

    def test_closed_forms_up_to_the_cap(self):
        # twin classes and the automorphisms found at tied leaves make these
        # quick; a separate process, so that a hang fails the test at its
        # timeout
        proc = run_isolated(
            "from math import factorial as f\n"
            "from conftest import clique, cycle, matching, star\n"
            "from motifcount.graphs import ColoredGraph, Graph, automorphism_count as aut\n"
            "from motifcount.graphs import disjoint_union\n"
            "for n in range(21):\n"
            "    assert aut(Graph(n)) == aut(clique(n)) == f(n), n\n"
            "    if n > 2:\n"
            "        assert aut(star(n - 1)) == f(n - 1), n\n"
            "    for a in range(1, n // 2 + 1):\n"
            "        kab = Graph(n, [(u, v) for u in range(a) for v in range(a, n)])\n"
            "        assert aut(kab) == f(a) * f(n - a) * (2 if 2 * a == n else 1), (a, n)\n"
            "for k in range(11):\n"
            "    assert aut(matching(k)) == 2**k * f(k), k\n"
            "copies = Graph(0)\n"
            "for k in range(1, 6):\n"
            "    copies = disjoint_union(copies, cycle(4))\n"
            "    assert aut(copies) == 8**k * f(k), k\n"
            "copies = Graph(0)\n"
            "for k in range(1, 5):\n"
            "    copies = disjoint_union(copies, cycle(5))\n"
            "    assert aut(copies) == 10**k * f(k), k\n"
            # each edge's ends coloured apart: only whole edges move
            "assert aut(ColoredGraph(matching(10), [0, 1] * 10)) == f(10)\n"
        )
        assert proc.returncode == 0, proc.stderr


class TestCapacity:
    @pytest.mark.parametrize(
        "call",
        [
            "canonical_form(Graph(21))",
            "automorphism_count(Graph(21))",
            pytest.param("canonical_form(ColoredGraph(Graph(21), [0] * 21))",
                         id="colored_canonical_form"),
            pytest.param("automorphism_count(ColoredGraph(Graph(21), [0] * 21))",
                         id="colored_automorphism_count"),
            "hom_closure([Graph(21)])",
        ],
    )
    def test_every_symmetry_entry_point_refuses_past_the_cap(self, call):
        proc = run_isolated(
            "from motifcount import hom_closure\n"
            "from motifcount.graphs import *\n"
            f"try:\n    {call}\nexcept CapacityError as exc:\n    print(exc)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "patterns are capped at n=20"

    def test_refused_before_refinement(self, monkeypatch):
        # the guard comes first: refinement alone is cubic in the order, and
        # the adjacency rows of a long path are quadratic in memory
        def never(*args):
            raise AssertionError("oversized graph reached refinement")

        monkeypatch.setattr(graphs_module, "_refined", never)
        monkeypatch.setattr(graphs_module, "_rows", never)
        oversized = [path(1000), ColoredGraph(path(20), [v % 3 for v in range(21)])]
        for g in oversized:
            for call in (canonical_form, automorphism_count):
                with pytest.raises(CapacityError, match="capped at n=20"):
                    call(g)
        with pytest.raises(CapacityError, match="capped at n=20"):
            MotifParameter("sub", {path(1000): 1})


class TestProducts:
    def test_tensor_vertex_count(self):
        p = tensor_product(clique(3), cycle(4))
        assert p.n == 12

    def test_hom_multiplicativity_witness(self):
        # K2 x K2 = two disjoint edges
        p = tensor_product(clique(2), clique(2))
        assert p.n == 4 and len(p.edges) == 2


class TestQuotient:
    def test_path_quotients(self):
        p = path(4)  # vertices 0..4 consecutively
        assert quotient(p, [{0, 4}, {1}, {2}, {3}]) == Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert quotient(p, [{0, 2, 4}, {1, 3}]) == Graph(2, [(0, 1)])

    def test_edges_inside_a_block_vanish(self):
        assert quotient(clique(2), [{0, 1}]) == Graph(1)
        assert quotient(path(3), [{0, 1}, {2, 3}]) == Graph(2, [(0, 1)])


class TestColored:
    def test_iso_respects_colors(self):
        a = ColoredGraph(path(1), (0, 1))
        b = ColoredGraph(path(1), (1, 0))
        c = ColoredGraph(path(1), (0, 0))
        assert canonical_form(a).key == canonical_form(b).key
        assert canonical_form(a).key != canonical_form(c).key

    def test_colored_form_is_a_colored_graph(self):
        # the colors in canonical order and the graph6 of the canonical
        # graph, kept in the one canonical_form cache beside the plain form
        h = ColoredGraph(path(3), (1, 0, 0, 2))
        cf = canonical_form(h)
        assert isinstance(cf.graph, ColoredGraph)
        assert cf.key == (cf.graph.colors, encode_graph6(cf.graph.graph))
        assert sorted(cf.graph.colors) == sorted(h.colors)
        assert canonical_form(cf.graph) == cf
        misses = canonical_form.cache_info().misses
        assert canonical_form(ColoredGraph(path(3), (1, 0, 0, 2))) is cf
        assert canonical_form.cache_info().misses == misses
        mono = canonical_form(ColoredGraph(path(3), (0,) * 4))
        assert mono != canonical_form(path(3))
        assert (mono.graph.graph, mono.key[1]) == (canonical_form(path(3)).graph,
                                                    canonical_form(path(3)).key)

    def test_colored_automorphisms(self):
        mono = ColoredGraph(clique(3), (0, 0, 0))
        colorful = ColoredGraph(clique(3), (0, 1, 2))
        assert automorphism_count(mono) == 6
        assert automorphism_count(colorful) == 1

    def test_colored_automorphisms_match_brute_force(self):
        rng = random.Random(7)
        cases = [random_colored(rng, rng.randint(0, 6), rng.randint(1, 3)) for _ in range(60)]
        cases += [twin_rich(rng, rng.randint(0, 7), rng.randint(2, 3)) for _ in range(60)]
        for h in cases:
            brute = sum(
                1
                for p in itertools.permutations(range(h.n))
                if _maps_colored_iso(h, h, p)
            )
            assert automorphism_count(h) == brute

    def test_isomorphism_matches_brute_force(self):
        rng = random.Random(11)
        for i, make in itertools.product(range(90), (random_colored, twin_rich)):
            n = rng.randint(1, 6)
            a = make(rng, n, rng.randint(1, 3))
            perm = list(range(n))
            rng.shuffle(perm)
            colors = [0] * n
            for v in range(n):
                colors[perm[v]] = a.colors[v]
            if i % 3 == 1:  # one vertex recolored
                colors[rng.randrange(n)] += 1
            if i % 3 == 2:  # unrelated graph on as many vertices
                b = make(rng, n, rng.randint(1, 3))
            else:
                b = ColoredGraph(relabel(a.graph, perm), colors)
            brute = any(
                _maps_colored_iso(a, b, p) for p in itertools.permutations(range(n))
            )
            assert (canonical_form(a).key == canonical_form(b).key) == brute


def _maps_colored_iso(h: ColoredGraph, g: ColoredGraph, p) -> bool:
    """Whether v -> p[v] is a color-preserving isomorphism from h to g."""
    return (
        len(h.graph.edges) == len(g.graph.edges)
        and all(h.colors[v] == g.colors[p[v]] for v in range(h.n))
        and all(g.graph.has_edge(p[u], p[v]) for u, v in h.graph.edges)
    )


class TestEdgeList:
    def test_round_trip_plain(self):
        g = path(3)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_round_trip_colored(self):
        g = ColoredGraph(path(2), (2, 0, 1))
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_errors(self):
        g = parse_edge_list("# a path\nn 3\ne 0 1\ne 1 2\n")
        assert g == path(2)
        with pytest.raises(ValueError):
            parse_edge_list("n 2\ne 0 5\n")

    def test_indented_comment_before_the_n_line(self):
        assert parse_graph_file("  # note\nn 3\ne 0 1\n") == Graph(3, [(0, 1)])
        assert parse_graph_file("  # note\nBw\n") == clique(3)

    @pytest.mark.parametrize("text, line", [
        ("n 2\ne 0 1\nc 5 1\n", 3),
        ("n 2\nc 0 1\nc 0 2\n", 3),
        ("n 2\nn 3\n", 2),
        ("n 2\ne 0 1\ne 1 7\n", 3),
        ("e 0 4\nn 3\n", 1),
        ("n 2\ne 1 1\n", 2),
        ("n -3\n", 1),
        ("n 2\nc 0 -1\n", 2),
        ("n -3\ne 0 1\n", 1),
    ], ids=["color-out-of-range", "second-color", "second-n", "edge-out-of-range",
            "edge-before-n", "loop", "negative-n", "negative-color", "negative-n-then-edge"])
    def test_bad_lines_are_named(self, text, line):
        with pytest.raises(GraphFormatError, match=f"^line {line}: "):
            parse_edge_list(text)


def test_connected_components():
    g = Graph(5, [(0, 1), (2, 3)])
    assert connected_components(g) == [[0, 1], [2, 3], [4]]
