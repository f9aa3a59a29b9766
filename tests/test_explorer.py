"""Explorer: mutation classes, finiteness, graph export, searches."""

import pytest

from clusterfold.exchange import ExchangeMatrix
from clusterfold.explorer import (
    find_variable_by_denominator,
    mutation_class,
    rank2_denominators_below,
    verify_monotonicity_chain,
)
from clusterfold.laurent import LimitExceededError, parse_polynomial
from clusterfold.seeds import enumerate_cluster_variables
from clusterfold import catalog, cli, explorer, folding
from clusterfold.folding import FoldingPair, PermutationGroup, check_stability, quotient_matrix

A3 = ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])
A2 = ExchangeMatrix([[0, 1], [-1, 0]])
INDEFINITE = ExchangeMatrix([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])


def count_mutations(monkeypatch):
    """Count ExchangeMatrix.mutate calls from here on; returns the reader."""
    calls = 0
    mutate = ExchangeMatrix.mutate

    def counting_mutate(self, k):
        nonlocal calls
        calls += 1
        return mutate(self, k)

    monkeypatch.setattr(ExchangeMatrix, "mutate", counting_mutate)
    return lambda: calls


def count_derived(monkeypatch, module, weight=lambda move: 1):
    """Count the edges that ``module``'s searches read off a commuting square,
    each weighted by ``weight(move)``; returns the reader."""
    derived = 0
    bfs = module.bfs

    def counting_bfs(*args, commutes, **kwargs):
        def counting(node, j, k):
            nonlocal derived
            holds = commutes(node, j, k)
            if holds:  # the engine takes the edge along j at once
                derived += weight(j)
            return holds

        return bfs(*args, commutes=counting, **kwargs)

    monkeypatch.setattr(module, "bfs", counting_bfs)
    return lambda: derived


class TestMutationClass:
    def test_a2_is_sign_flip(self):
        report = mutation_class(A2)
        assert report.finite and report.size == 2
        assert set(report.search.visited) == {A2.entries, ((0, -1), (1, 0))}

    def test_rank2_valued(self):
        report = mutation_class(ExchangeMatrix([[0, 1], [-4, 0]]))
        assert report.finite and report.size == 2

    def test_a3(self):
        assert mutation_class(A3).size == 14

    def test_isolated_vertex_is_one_self_loop_slot(self):
        # mu_1 B = mu_2 B = -B and mu_3 fixes both: two edges fill two slots
        # each and two self-loops one each, 6 = n * size
        report = mutation_class(ExchangeMatrix([[0, -2, 0], [1, 0, 0], [0, 0, 0]]))
        assert (report.verdict, report.size) == ("finite", 2)
        assert mutation_class(ExchangeMatrix([[0]])).size == 1

    def test_indefinite_does_not_close(self):
        report = mutation_class(INDEFINITE, limit=10_000)
        assert report.verdict in ("limit-exceeded", "overflow")

    def test_indefinite_control_overflows_at_456(self):
        report = mutation_class(ExchangeMatrix(cli._INDEFINITE_CONTROL), 50_000)
        assert (report.verdict, report.size) == ("overflow", 456)

    def test_limit(self):
        report = mutation_class(A3, limit=5)
        assert report.verdict == "limit-exceeded"
        assert report.size == 5

    @pytest.mark.parametrize(
        "name, size", [("A5toC3", 1_980), ("hexagontoK2", 12_000), ("E6toF4", 42_840)]
    )
    def test_closed_class_mutates_once_per_edge(self, monkeypatch, name, size):
        matrix = catalog.folding_pair(name).pair.matrix
        calls = count_mutations(monkeypatch)
        derived = count_derived(monkeypatch, explorer)
        report = mutation_class(matrix, limit=50_000)
        assert (report.verdict, report.size) == ("finite", size)
        # the way back along an edge is mu_k(mu_k B) = B, not mutated again, and
        # mu_j B = mu_k mu_j mu_k B where b_jk = 0 is read off a known square
        assert calls() == {"A5toC3": 2_710, "hexagontoK2": 18_260, "E6toF4": 63_188}[name]
        assert calls() + derived() == matrix.n * size // 2  # 4,950; 36,000; 128,520 edges

    def test_dropped_edge_fails_the_closure_check(self, monkeypatch):
        bfs = explorer.bfs

        def dropping_bfs(*args, **kwargs):  # an engine that counts one edge too few
            search = bfs(*args, **kwargs)
            search.edges -= 1
            return search

        monkeypatch.setattr(explorer, "bfs", dropping_bfs)
        with pytest.raises(AssertionError):
            mutation_class(A3)

    def test_member_symmetrizer_is_rederived(self, monkeypatch):
        # B2's class is {B, mu_1(B)}, both with D = (1, 2); a wrong D
        # re-derived for the mutated member must fail the finite verdict
        b2 = ExchangeMatrix([[0, -2], [1, 0]])
        flipped = b2.mutate(0).entries
        find_symmetrizer = explorer.find_symmetrizer

        def corrupted(entries):
            return (2, 1) if entries == flipped else find_symmetrizer(entries)

        monkeypatch.setattr(explorer, "find_symmetrizer", corrupted)
        with pytest.raises(AssertionError):
            mutation_class(b2)

    def test_member_breaking_skew_symmetry_is_caught(self, monkeypatch):
        # A3's class is skew-symmetric (D = (1, 1, 1)), so its members' D
        # comes from find_symmetrizer's transpose test.  A mutant kernel
        # runs the real mutation and its D-check, then hands back a member
        # with one entry doubled in place of mu_1(A3), and mutates it as
        # mu_1(A3): the search sees the same graph and closes, and only the
        # re-derived D of that member, (1, 2, 2), shows the fault
        target = A3.mutate(0)
        corrupt = ((0, 2, 0), (-1, 0, 1), (0, -1, 0))
        mutate = ExchangeMatrix.mutate

        def mutant(self, k):
            child = mutate(target if self.entries == corrupt else self, k)
            if child.entries != target.entries:
                return child
            bad = object.__new__(ExchangeMatrix)
            bad.n, bad.entries = child.n, corrupt
            bad._symmetrizer = child.symmetrizer
            return bad

        monkeypatch.setattr(ExchangeMatrix, "mutate", mutant)
        with pytest.raises(AssertionError, match="symmetrizer differs from the carried one"):
            mutation_class(A3)


class TestOrbitMutationClass:
    """The orbit-mutation class as searched by check_stability."""

    def test_a3_pair(self):
        pair = catalog.folding_pair("A3toB2").pair
        verdict = check_stability(pair)
        assert verdict.status == "stable-exhaustive"
        assert verdict.class_size <= mutation_class(pair.matrix).size

    def test_trivial_group_equals_mutation_class(self):
        pair = FoldingPair(A3, PermutationGroup(3, []))
        verdict = check_stability(pair)
        assert verdict.status == "stable-exhaustive"
        assert verdict.class_size == mutation_class(A3).size

    def test_closed_class_composes_once_per_edge(self, monkeypatch):
        pair = catalog.folding_pair("E6t-F4t1").pair
        calls = count_mutations(monkeypatch)
        derived = count_derived(monkeypatch, folding, lambda idx: len(pair.orbits[idx]))
        verdict = check_stability(pair)
        assert (verdict.status, verdict.class_size) == ("stable-exhaustive", 1_440)
        assert calls() == 3_191
        # an edge along orbit I composes |I| mutations: 5,040 over the whole class
        assert calls() + derived() == pair.matrix.n * 1_440 // 2

    def test_unstable_witness(self):
        pair = catalog.folding_pair("remark-stabilite").pair
        verdict = check_stability(pair)
        assert verdict.status == "unstable"
        assert len(verdict.witness_word) == 1
        assert verdict.witness_path is not None


class TestFiniteness:
    @pytest.mark.parametrize("name", ["~A1", "~A1(2)", "~B2", "~C3", "~BC2", "~G2(1)"])
    def test_affine_finite(self, name):
        assert mutation_class(catalog.affine(name)).finite

    def test_dynkin_finite(self):
        assert mutation_class(A3).finite

    def test_monotonicity_chain(self):
        for name in ["A3toB2", "D4toG2", "D4t-A1t2"]:
            report = verify_monotonicity_chain(catalog.folding_pair(name).pair)
            assert report.holds, name
            assert report.quotient_size <= report.orbit_size <= report.ambient_size

    @pytest.mark.parametrize("limit,got", [(5, "limit-exceeded/limit-exceeded"),
                                           (10, "finite/limit-exceeded")])
    def test_monotonicity_chain_needs_closed_quotient_and_orbit_classes(self, limit, got):
        # A5toC3: the quotient class has 10 members, the orbit-mutation class 20
        with pytest.raises(ValueError, match=f"must close within the limit \\(got {got}\\)"):
            verify_monotonicity_chain(catalog.folding_pair("A5toC3").pair, limit)


def closed_graph_dot(matrix):
    result = enumerate_cluster_variables(matrix)
    assert result.complete
    return result.to_dot()


class TestExchangeGraph:
    def test_a1(self):
        text = closed_graph_dot(ExchangeMatrix([[0]]))
        assert text.count("--") == 1
        assert text.count("[label=") == 2

    def test_b2_is_a_6_cycle(self):
        text = closed_graph_dot(ExchangeMatrix([[0, -2], [1, 0]]))
        assert text.count("[label=") == 6
        assert text.count("--") == 6

    def test_a3_is_3_regular_on_14(self):
        text = closed_graph_dot(A3)
        assert text.count("[label=") == 14
        assert text.count("--") == 21  # 14 * 3 / 2


class TestDenominatorSearch:
    def test_a3_full_denominator(self):
        found = find_variable_by_denominator(A3, (1, 1, 1))
        assert found is not None
        poly, word = found
        assert poly == parse_polynomial(
            "u2^-1 + u1^-1*u2*u3^-1 + 2*u1^-1*u3^-1 + u1^-1*u2^-1*u3^-1",
            ["u1", "u2", "u3"],
        )
        assert word

    def test_initial_variable(self):
        found = find_variable_by_denominator(A3, (-1, 0, 0))
        assert found == (parse_polynomial("u1", ["u1", "u2", "u3"]), ())

    def test_not_found(self):
        assert find_variable_by_denominator(A3, (5, 0, 0)) is None

    def test_a_search_past_the_work_bound_raises_because_none_means_not_found(self, monkeypatch):
        # G2's fourth variable is a division to 4 quotient terms by 2 divisor terms
        monkeypatch.setattr("clusterfold.laurent.MAX_WORK", 6)
        with pytest.raises(LimitExceededError, match="passes the bound of 6 multiply-adds"):
            find_variable_by_denominator(ExchangeMatrix([[0, -3], [1, 0]]), (5, 5))


class TestRank2Box:
    def test_a1t2_quotient_box(self):
        q = quotient_matrix(catalog.folding_pair("D4t-A1t2-c4").pair)
        below = rank2_denominators_below(q, (1, 2))
        assert (1, 2) not in below
        assert (1, 1) in below and (1, 0) in below and (0, 1) in below

    def test_b2_box_covers_all_roots(self):
        # finite rank 2: the box enumeration sees every almost positive root
        below = rank2_denominators_below(ExchangeMatrix([[0, -2], [1, 0]]), (2, 1))
        assert below == {(-1, 0), (0, -1), (1, 0), (0, 1), (1, 1), (2, 1)}

    def test_requires_rank_2(self):
        with pytest.raises(ValueError):
            rank2_denominators_below(A3, (1, 1, 1))
