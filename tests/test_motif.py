import gc
import random
import weakref
from fractions import Fraction

import pytest

from conftest import clique, cycle, path, random_graph, star, word_primes_bounds
from motifcount import homcount, motif
from motifcount.decomp import elimination_plan
from motifcount.graphs import Graph, adjacency, canonical_form, parse_graph6
from motifcount.homcount import count_hom_dp, count_hom_mm
from motifcount.motif import (
    BASES,
    MotifParameter,
    build_tree_count_parameter,
    change_basis,
    count_pattern,
    evaluate,
    format_motif_parameter,
    hom_support_treewidth,
    parse_motif_parameter,
)
from motifcount.oracle import brute_count
from motifcount.partitions import CapacityError


class TestMotifParameter:
    def test_terms_canonicalized_and_merged(self):
        p = MotifParameter(
            "sub",
            [
                (path(2), Fraction(1)),
                (Graph(3, [(0, 2), (1, 2)]), Fraction(2)),  # same class
                (clique(2), Fraction(0)),
            ],
        )
        assert len(p.terms) == 1
        assert p.terms[0][1] == 3

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            MotifParameter("bogus", [])


class TestChangeBasis:
    def test_clique_hom_equals_emb(self):
        p = MotifParameter("hom", {clique(3): Fraction(6)})
        assert change_basis(p, "emb").as_dict() == {
            canonical_form(clique(3)): Fraction(6)
        }

    def test_walk_vector_cancellation(self):
        emb = MotifParameter(
            "emb",
            [
                (path(4), 1),
                (cycle(4), 1),
                (star(3), 1),
                (Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), 2),  # paw
                (path(3), 2),
                (clique(3), 3),
                (path(2), 4),
                (clique(2), 1),
            ],
        )
        hom = change_basis(emb, "hom")
        assert hom.as_dict() == {canonical_form(path(4)): Fraction(1)}

    def test_round_trips_exact(self):
        rng = random.Random(41)
        pool = [path(2), path(3), clique(3), cycle(4), star(3), clique(2)]
        for _ in range(10):
            terms = [
                (g, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for g in rng.sample(pool, 3)
            ]
            for src in BASES:
                p = MotifParameter(src, terms)
                for dst in BASES:
                    back = change_basis(change_basis(p, dst), src)
                    assert back == p

    def test_evaluation_invariant_under_basis_change(self):
        rng = random.Random(43)
        p = MotifParameter("sub", {path(3): 2, clique(3): -1})
        for _ in range(8):
            g = random_graph(rng, rng.randint(1, 7))
            want = evaluate(p, g)
            for dst in BASES:
                assert evaluate(change_basis(p, dst), g) == want


class TestEvaluationState:
    def test_basis_change_is_memoised(self):
        p = build_tree_count_parameter(5)
        hom = change_basis(p, "hom")
        assert change_basis(p, "hom") is hom
        assert change_basis(MotifParameter("sub", p.terms), "hom") is hom

    def test_guards_raise_on_every_call(self):
        # IndSub(P9): 9 vertices and 28 non-edges, past the supergraph guard
        p = MotifParameter("indsub", {path(8): 1})
        for _ in range(2):
            with pytest.raises(CapacityError):
                change_basis(p, "hom")

    def test_values_survive_clearing_the_memo(self):
        rng = random.Random(67)
        p = MotifParameter("indsub", {path(3): 1, cycle(4): -2, star(3): Fraction(1, 3)})
        hosts = [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(20)]
        before = [evaluate(p, g) for g in hosts]
        change_basis.cache_clear()
        assert [evaluate(p, g) for g in hosts] == before
        assert change_basis.cache_info().misses == 1

    def test_one_host_in_both_arithmetic_regimes(self, monkeypatch):
        # on K40 (degree 39) P3 runs in one float64 pass and P12 modulo
        # primes, since 39^11 >= 2^53; the shared host facts serve both
        bounds = word_primes_bounds(monkeypatch)
        g = clique(40)
        terms = {path(2): Fraction(-3, 2), path(11): 5}
        want = sum(c * count_hom_dp(h, g) for h, c in terms.items())
        assert evaluate(MotifParameter("hom", terms), g) == want
        assert bounds == [39**11]


class TestCountPattern:
    def test_all_kinds_match_brute(self):
        rng = random.Random(47)
        for _ in range(15):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 7))
            for kind in ("hom", "sub", "indsub", "emb", "strembed"):
                assert count_pattern(kind, h, g) == brute_count(kind, h, g)

    def test_engines_agree(self):
        # the planner picks each term's kernel; both kernels agree on every
        # term of the hom form
        h, g = path(3), random_graph(random.Random(51), 8)
        hom = change_basis(MotifParameter("sub", {h: 1}), "hom")
        for cf, _ in hom.terms:
            assert count_hom_mm(cf.graph, g) == count_hom_dp(cf.graph, g)
        assert count_pattern("sub", h, g) == brute_count("sub", h, g)

    def test_brute_is_not_a_library_engine(self):
        # the library takes no engine at all; the oracle is brute_count
        with pytest.raises(TypeError):
            evaluate(MotifParameter("sub", {path(2): 1}), path(3), engine="brute")

    def test_auto_falls_back_on_large_sparse_hosts(self):
        # one 12000 x 12000 float64 matrix exceeds DENSE_BYTES_GUARD, so the
        # matrix engine refuses before allocating and the term goes to the
        # dict DP
        n, rng = 12000, random.Random(59)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
        g = Graph(n, edges)
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        with pytest.raises(CapacityError):
            count_hom_mm(path(1), g)
        assert count_pattern("hom", path(1), g) == 2 * len(edges)
        assert count_pattern("hom", path(2), g) == sum(d * d for d in degrees)
        assert count_pattern("sub", path(2), g) == sum(d * (d - 1) // 2 for d in degrees)


class TestSupportTreewidth:
    def test_path_spasm_width(self):
        p = MotifParameter("sub", {path(4): 1})
        assert hom_support_treewidth(p) == 2


class TestTreeBuilder:
    def test_counts_all_trees(self):
        p = build_tree_count_parameter(4)
        assert len(p.terms) == 2  # path and star on 4 vertices
        g = random_graph(random.Random(53), 7)
        want = sum(
            brute_count("sub", cf.graph, g) for cf, _ in p.terms
        )
        assert evaluate(p, g) == want

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_tree_count_parameter(11)


class TestCapacity:
    def test_oversized_pattern_fails_fast(self):
        # canonicalising an edgeless 21-vertex graph would take hours
        with pytest.raises(CapacityError):
            MotifParameter("sub", {Graph(21): 1})
        for kind in ("sub", "indsub", "emb", "strembed"):
            with pytest.raises(CapacityError):
                count_pattern(kind, Graph(21), Graph(3))


class TestFileFormat:
    def test_round_trip(self):
        p = MotifParameter("emb", {path(4): Fraction(1, 2), clique(3): -2})
        assert parse_motif_parameter(format_motif_parameter(p)) == p

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_motif_parameter("1/2 A_\n")  # missing basis line
        with pytest.raises(ValueError):
            parse_motif_parameter("basis hom\nx A_\n")

    def test_comments_allowed(self):
        p = parse_motif_parameter("# walk counter\nbasis hom\n1 DBg\n")
        assert p.basis == "hom"
        assert len(p.terms) == 1


# ---------------------------------------------------------------------------
# evaluation programs: messages shared between hom terms


# the benchmark's supports: Sub(P7), all 6-vertex trees, IndSub(P5) + IndSub(C5)
SUPPORTS = {
    "sub-P7": MotifParameter("sub", {path(6): 1}),
    "trees6": build_tree_count_parameter(6),
    "indsub-P5-C5": MotifParameter("indsub", {path(4): 1, cycle(5): 1}),
}


def hom_sum(p: MotifParameter, g: Graph) -> Fraction:
    """p on g as the sum of c * Hom(F, g) over its hom form, each term by the
    dict DP alone."""
    return sum(c * count_hom_dp(cf.graph, g) for cf, c in change_basis(p, "hom").terms)


def with_leaf(h: Graph, v: int) -> Graph:
    return Graph(h.n + 1, list(h.edges) + [(v, h.n)])


def term_nodes(program, t: int) -> set:
    """The nodes of a compiled program that its term t reads, directly or
    not."""
    nodes, stack = set(), list(program.terms[t].roots)
    while stack:
        if (i := stack.pop()) not in nodes:
            nodes.add(i)
            stack.extend(j for j, _ in program.nodes[i][2])
    return nodes


class RunReport:
    """What one dense run of a program (homcount._run) built: its terms,
    weak references to each table and the primes of each step, the most
    bytes that tables over two or more vertices held at once, and how often
    a step read a table that another step reads too."""

    def __init__(self, chosen):
        self.chosen = chosen
        self.tables, self.regimes, self.peak, self.shared_reads = [], [], 0, 0

    def freed(self) -> bool:
        gc.collect()
        return all(t() is None for t in self.tables)


@pytest.fixture
def runs(monkeypatch) -> list:
    """A RunReport per dense run that evaluate starts from now on, refused
    or not."""
    reports, active = [], []
    run = homcount._run

    def recording(program, chosen, g):
        reports.append(RunReport(chosen))
        active.append(reports[-1])
        try:
            return run(program, chosen, g)
        finally:
            active.pop()

    def spying(step):
        def spy(node, tables, host):
            if not active:  # a run outside evaluate
                return step(node, tables, host)
            report = active[-1]
            report.shared_reads += sum(not t.flags.writeable for t in tables)
            table = step(node, tables, host)
            report.regimes.append(host[3])
            if hasattr(table, "nbytes"):
                report.tables.append(weakref.ref(table))
                report.peak = max(report.peak, sum(t().nbytes for t in report.tables
                                                   if t() is not None and t().ndim > 2))
            return table
        return spy

    monkeypatch.setattr(homcount, "_run", recording)  # per program, or per term alone
    for name in ("_step", "_step3"):
        monkeypatch.setattr(homcount, name, spying(getattr(homcount, name)))
    return reports


class TestSharedMessages:
    @pytest.mark.parametrize("name", sorted(SUPPORTS))
    def test_supports_match_the_dict_dp(self, name, runs, monkeypatch):
        bounds = word_primes_bounds(monkeypatch)
        rng = random.Random(f"shared:{name}")
        for _ in range(3):
            g = random_graph(rng, rng.randint(10, 20), rng.uniform(0.2, 0.6))
            assert evaluate(SUPPORTS[name], g) == hom_sum(SUPPORTS[name], g)
        assert not bounds
        assert len(runs) == 3 and all(r.shared_reads for r in runs)
        assert all(r.freed() for r in runs)

    def test_both_regimes_on_one_host(self, runs, monkeypatch):
        # on a host of maximum degree D, trees of k - 1 vertices run in one
        # float64 pass and trees of k vertices modulo primes (D^(k-1) >=
        # 2^53); each regime shares the branches of its own trees only
        rng = random.Random(83)
        g = random_graph(rng, 36, 0.9)
        degree = max(map(len, adjacency(g)))
        k = next(k for k in range(2, 40) if degree ** (k - 1) >= 2**53)
        short = {path(k - 2): 3, with_leaf(path(k - 3), 1): Fraction(-1, 2)}
        long = {path(k - 1): 1, with_leaf(path(k - 2), 1): 2, with_leaf(path(k - 2), 2): -5}
        p = MotifParameter("hom", {**short, **long})
        bounds = word_primes_bounds(monkeypatch)
        assert evaluate(p, g) == hom_sum(p, g)
        assert bounds == [degree ** (k - 1)] * len(long)
        (report,) = runs
        assert {bool(primes) for primes in report.regimes} == {False, True}
        assert report.freed()

    @pytest.mark.parametrize("first", [None, cycle(4)], ids=["rank3-writes", "rank3-reads"])
    def test_a_held_message_feeds_rank_2_and_rank_3_steps(self, first, runs):
        # in h, vertex 1 sends the common-neighbour matrix of its two
        # neighbours into a rank-3 step, where the adjacency matrix of the
        # same pair multiplies into it; C8 reads the same node into a rank-2
        # step, and C4, when present, computes it before h
        h = Graph(6, [(0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        terms = {h: 1, cycle(8): -2, **({first: 3} if first else {})}
        p = MotifParameter("hom", terms)
        _, program = motif._integer_terms(p)
        forms = [cf for cf, _ in p.terms]
        c8, hk = (term_nodes(program, forms.index(canonical_form(f))) for f in (cycle(8), h))
        assert any(program.nodes[i][0] == 2 for i in c8 & hk)
        rng = random.Random(89)
        for _ in range(4):
            g = random_graph(rng, rng.randint(8, 16), 0.5)
            assert evaluate(p, g) == hom_sum(p, g)
        assert all(r.shared_reads and r.freed() for r in runs)

    def test_keys_tell_where_a_message_lands(self, runs):
        # in both patterns vertex 3 is adjacent to its scope (4, 5) and takes
        # in vertex 2's common-neighbour matrix, over (3, 5) in the first and
        # over (3, 4) in the second: the messages of 3 differ only in where
        # that one lands
        first = Graph(6, [(0, 5), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
        second = Graph(6, [(0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
        p = MotifParameter("hom", {first: 1, second: 1})
        rng = random.Random(103)
        for _ in range(3):
            g = random_graph(rng, 12, 0.5)
            assert evaluate(p, g) == hom_sum(p, g)

    def test_a_pattern_with_equal_subtrees(self, runs):
        # every leaf of a star sends the same message: one node, which the
        # star's centre reads once per leaf and an earlier path reads too
        p = MotifParameter("hom", {path(2): 1, star(4): 2, with_leaf(star(3), 1): -1})
        _, program = motif._integer_terms(p)
        assert any(len(inputs) > len(set(inputs)) for _, _, inputs, _ in program.nodes)
        rng = random.Random(97)
        for _ in range(4):
            g = random_graph(rng, rng.randint(5, 15), 0.4)
            assert evaluate(p, g) == hom_sum(p, g)
        assert all(r.shared_reads and r.freed() for r in runs)

    @pytest.mark.parametrize("p, nodes", [
        (SUPPORTS["sub-P7"], 46), (SUPPORTS["trees6"], 34),
        (MotifParameter("sub", {cycle(8): 1}), 66)], ids=["sub-P7", "trees6", "sub-C8"])
    def test_a_warm_evaluate_reads_held_subtrees(self, p, nodes, monkeypatch):
        # every term runs dense, in one run of the program, which takes one
        # step per node: a subtree is eliminated once, however many terms
        # read it (the terms' own forests take 149, 104 and 183 steps)
        g = random_graph(random.Random(109), 16, 0.5)
        want = hom_sum(p, g)
        evaluate(p, g)
        ran, counted = dense_runs(monkeypatch), elimination_steps(monkeypatch)
        assert evaluate(p, g) == want
        assert [len(terms) for terms in ran] == [len(change_basis(p, "hom").terms)]
        assert counted == [nodes] == [len(motif._integer_terms(change_basis(p, "hom"))[1].nodes)]

    def test_the_guard_counts_held_tables(self, runs, monkeypatch):
        # the program of the 6-vertex trees runs whole under the default
        # guard.  Its terms of treewidth 1 build vectors only beside the
        # adjacency matrix and the others n x n tables, so with room for the
        # matrix and two vectors, or the matrix alone, the program is
        # refused and runs one term at a time, the forests dense and the
        # others on the dict DP; one byte less refuses every term
        p = SUPPORTS["trees6"]
        hom = {cf.graph for cf, _ in change_basis(p, "hom").terms}
        forests = {f for f in hom if elimination_plan(f)[0] <= 1}
        g = random_graph(random.Random(101), 20, 0.4)
        want = hom_sum(p, g)
        matrix, vector = 20 * 20 * 8, 20 * 8
        ran = dense_runs(monkeypatch)
        for guard, whole, dense in ((homcount.DENSE_BYTES_GUARD, True, hom),
                                    (matrix + 2 * vector, False, forests),
                                    (matrix, False, forests), (matrix - 1, False, set())):
            monkeypatch.setattr(homcount, "DENSE_BYTES_GUARD", guard)
            ran.clear()
            runs.clear()
            assert evaluate(p, g) == want
            assert len(runs) == (1 if whole else 1 + len(hom))
            assert {f for terms in ran for f in terms} == dense
            assert all(r.peak + matrix <= guard for r in runs if r.tables)
            assert all(r.freed() for r in runs)

    def test_a_term_that_needs_the_room_empties_the_store(self, runs, monkeypatch):
        # the second pattern's first steps build n x n tables while a matrix
        # of the first's that it reads later is alive, so the program needs
        # one n x n layer more than either term alone; with the guard at
        # what each needs alone, the program is refused and runs its terms
        # one at a time, both still dense and within the guard
        first = canonical_form(parse_graph6("EBYg")).graph
        second = canonical_form(parse_graph6("F@P{W")).graph
        p = MotifParameter("hom", {first: 1, second: -2})
        g = random_graph(random.Random(107), 20, 0.4)
        want = hom_sum(p, g)
        matrix = 20 * 20 * 8
        need = max(next(j * matrix for j in range(1, 40) if fits(f, g, j * matrix, monkeypatch))
                   for f in (first, second))
        ran = dense_runs(monkeypatch)
        runs.clear()
        monkeypatch.setattr(homcount, "DENSE_BYTES_GUARD", need)
        assert evaluate(p, g) == want
        assert [len(r.chosen) for r in runs] == [2, 1, 1] and len(ran) == 2
        assert all(r.peak + matrix <= need for r in runs) and runs[1].tables
        monkeypatch.setattr(homcount, "DENSE_BYTES_GUARD", need + matrix)
        assert evaluate(p, g) == want and len(ran) == 3 and len(runs) == 4

    def test_a_refused_program_runs_its_terms_in_place(self, runs, monkeypatch):
        # under a guard that refuses the program of the pair above but
        # admits each term alone, each term runs over its own nodes of the
        # same program: evaluate compiles no one-term program
        first = canonical_form(parse_graph6("EBYg")).graph
        second = canonical_form(parse_graph6("F@P{W")).graph
        p = MotifParameter("hom", {first: 3, second: -1})
        g = random_graph(random.Random(109), 20, 0.4)
        want = hom_sum(p, g)
        matrix = 20 * 20 * 8
        need = max(next(j * matrix for j in range(1, 40) if fits(f, g, j * matrix, monkeypatch))
                   for f in (first, second))
        monkeypatch.setattr(homcount, "DENSE_BYTES_GUARD", need)
        assert evaluate(p, g) == want  # compiles p's hom form
        homcount._program.cache_clear()
        ran = dense_runs(monkeypatch)
        runs.clear()
        assert evaluate(p, g) == want
        assert [len(r.chosen) for r in runs] == [2, 1, 1] and len(ran) == 2
        assert homcount._program.cache_info().misses == 0


def dense_runs(monkeypatch) -> list:
    """The terms of each dense run of a program that evaluate completes from
    now on; a refused run is left out."""
    ran = []
    run = homcount._run

    def spy(program, chosen, g):
        counts = run(program, chosen, g)  # raises when refused
        ran.append([program.terms[t].f for t in chosen])
        return counts

    monkeypatch.setattr(homcount, "_run", spy)  # per program, or per term alone
    return ran


def fits(h: Graph, g: Graph, guard: int, monkeypatch) -> bool:
    """Does count_hom_mm take h on g, alone, under this guard?"""
    monkeypatch.setattr(homcount, "DENSE_BYTES_GUARD", guard)
    try:
        count_hom_mm(h, g)
    except CapacityError:
        return False
    return True


def elimination_steps(monkeypatch) -> list:
    """[n]: n counts the elimination steps that dense runs take from now on."""
    counted = [0]

    def counting(step):
        def run(node, tables, host):
            counted[0] += 1
            return step(node, tables, host)
        return run

    for name in ("_step", "_step3"):
        monkeypatch.setattr(homcount, name, counting(getattr(homcount, name)))
    return counted
