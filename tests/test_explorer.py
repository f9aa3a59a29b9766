"""Explorer: mutation classes, finiteness, graph export, searches."""

import pytest

from clusterfold.exchange import ExchangeMatrix
from clusterfold.explorer import (
    exchange_graph_dot,
    find_variable_by_denominator,
    is_mutation_finite,
    mutation_class,
    orbit_mutation_class,
    rank2_denominators_below,
    verify_monotonicity_chain,
)
from clusterfold.laurent import parse_polynomial
from clusterfold.seeds import LimitExceededError
from clusterfold import catalog, cli
from clusterfold.folding import quotient_matrix

A3 = ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])
A2 = ExchangeMatrix([[0, 1], [-1, 0]])
INDEFINITE = ExchangeMatrix([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])


class TestMutationClass:
    def test_a2_is_sign_flip(self):
        report = mutation_class(A2)
        assert report.finite and report.size == 2
        assert report.members == {A2.entries, ((0, -1), (1, 0))}

    def test_rank2_valued(self):
        report = mutation_class(ExchangeMatrix([[0, 1], [-4, 0]]))
        assert report.finite and report.size == 2

    def test_a3(self):
        assert mutation_class(A3).size == 14

    def test_indefinite_does_not_close(self):
        report = mutation_class(INDEFINITE, limit=10_000)
        assert report.verdict in ("limit-exceeded", "overflow")

    def test_indefinite_control_overflows_at_456(self):
        report = is_mutation_finite(ExchangeMatrix(cli._INDEFINITE_CONTROL), 50_000)
        assert (report.verdict, report.size) == ("overflow", 456)

    def test_limit(self):
        report = mutation_class(A3, limit=5)
        assert report.verdict == "limit-exceeded"
        assert report.size == 5


class TestOrbitMutationClass:
    def test_a3_pair(self):
        pair = catalog.folding_pair("A3toB2").pair
        report = orbit_mutation_class(pair)
        assert report.finite
        assert report.size <= mutation_class(pair.matrix).size

    def test_trivial_group_equals_mutation_class(self):
        from clusterfold.folding import FoldingPair, PermutationGroup

        pair = FoldingPair(A3, PermutationGroup(3, []))
        assert orbit_mutation_class(pair).members == mutation_class(A3).members

    def test_unstable_witness(self):
        pair = catalog.folding_pair("remark-stabilite").pair
        report = orbit_mutation_class(pair)
        assert report.verdict == "unstable"
        assert len(report.witness_word) == 1
        assert report.witness_path is not None


class TestFiniteness:
    @pytest.mark.parametrize("name", ["~A1", "~A1(2)", "~B2", "~C3", "~BC2", "~G2(1)"])
    def test_affine_finite(self, name):
        assert is_mutation_finite(catalog.affine(name)).finite

    def test_dynkin_finite(self):
        assert is_mutation_finite(A3).finite

    def test_monotonicity_chain(self):
        for name in ["A3toB2", "D4toG2", "D4t-A1t2"]:
            report = verify_monotonicity_chain(catalog.folding_pair(name).pair)
            assert report.holds, name
            assert report.quotient_size <= report.orbit_size <= report.ambient_size


class TestExchangeGraph:
    def test_a1(self):
        text = exchange_graph_dot(ExchangeMatrix([[0]]))
        assert text.count("--") == 1
        assert text.count("[label=") == 2

    def test_b2_is_a_6_cycle(self):
        text = exchange_graph_dot(ExchangeMatrix([[0, -2], [1, 0]]))
        assert text.count("[label=") == 6
        assert text.count("--") == 6

    def test_a3_is_3_regular_on_14(self):
        text = exchange_graph_dot(A3)
        assert text.count("[label=") == 14
        assert text.count("--") == 21  # 14 * 3 / 2

    def test_limit_raises(self):
        with pytest.raises(LimitExceededError):
            exchange_graph_dot(ExchangeMatrix([[0, 2], [-2, 0]]), max_seeds=10)


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
