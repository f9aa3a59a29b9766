"""Seeds: exchange relation, mutation, permutation action, enumeration."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterfold import catalog, seeds
from clusterfold.exchange import ExchangeMatrix
from clusterfold.explorer import find_variable_by_denominator
from clusterfold.laurent import LaurentPolynomial, NotDivisibleError, divide_exact, parse_polynomial
from clusterfold.seeds import (
    LaurentPhenomenonError,
    Seed,
    apply_mutation_word,
    enumerate_cluster_variables,
    exchange_binomial,
    initial_seed,
    is_invariant_seed,
    mutate_seed,
    permute_seed,
)

A3 = ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])
B2Q = ExchangeMatrix([[0, -2], [1, 0]])
KRONECKER = ExchangeMatrix([[0, 2], [-2, 0]])
A1T2 = ExchangeMatrix([[0, -1], [4, 0]])


def poly(text, n=3):
    return parse_polynomial(text, [f"u{i + 1}" for i in range(n)])


# the full A3 cluster-variable list for the initial matrix above
A3_VARIABLES = {
    "u1",
    "u2",
    "u3",
    "u1^-1*u2 + u1^-1",
    "u2*u3^-1 + u3^-1",
    "u1*u2^-1*u3 + u2^-1",
    "u2^-1*u3 + u1^-1 + u1^-1*u2^-1",
    "u1*u2^-1 + u3^-1 + u2^-1*u3^-1",
    "u2^-1 + u1^-1*u2*u3^-1 + 2*u1^-1*u3^-1 + u1^-1*u2^-1*u3^-1",
}

# its projection under the orbit partition {1,3}{2}, i.e. the B2 list
B2_VARIABLES = {
    "u1",
    "u2",
    "u1^-1*u2 + u1^-1",
    "u1^2*u2^-1 + u2^-1",
    "u1*u2^-1 + u1^-1 + u1^-1*u2^-1",
    "u2^-1 + u1^-2*u2 + 2*u1^-2 + u1^-2*u2^-1",
}


class TestSeedBasics:
    def test_initial_seed(self):
        seed = initial_seed(A3)
        assert seed.cluster == tuple(LaurentPolynomial.variable(i, 3) for i in range(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            Seed(A3, (poly("u1"), poly("u2")))  # wrong length
        with pytest.raises(ValueError):
            Seed(A3, (poly("u1"), poly("u2"), poly("0")))  # zero entry

    def test_key_is_cluster_as_set(self):
        seed = initial_seed(A3)
        rotated = Seed(seed.matrix, (seed.cluster[1], seed.cluster[0], seed.cluster[2]))
        assert seed.key() == rotated.key()


class TestExchangeRelation:
    def test_binomial_a3(self):
        assert exchange_binomial(initial_seed(A3), 0) == poly("u2 + 1")
        assert exchange_binomial(initial_seed(A3), 1) == poly("u1*u3 + 1")

    def test_binomial_valued(self):
        seed = initial_seed(B2Q)
        assert exchange_binomial(seed, 0) == parse_polynomial("u2 + 1", ["u1", "u2"])
        assert exchange_binomial(seed, 1) == parse_polynomial("u1^2 + 1", ["u1", "u2"])

    def test_first_mutation(self):
        seed = mutate_seed(initial_seed(A3), 0)
        assert seed.cluster[0] == poly("u1^-1 + u1^-1*u2")
        assert seed.matrix == A3.mutate(0)

    def test_exchange_identity(self):
        # u_k * u_k' equals the exchange binomial
        seed = initial_seed(A3)
        mutated = mutate_seed(seed, 1)
        assert seed.cluster[1] * mutated.cluster[1] == exchange_binomial(seed, 1)


class TestMutationProperties:
    @pytest.mark.parametrize("matrix", [A3, B2Q, KRONECKER, A1T2])
    def test_involution(self, matrix):
        seed = initial_seed(matrix)
        for k in range(matrix.n):
            assert mutate_seed(mutate_seed(seed, k), k) == seed

    def test_involution_deep(self):
        seed = apply_mutation_word(initial_seed(A3), (0, 1, 2, 1))
        for k in range(3):
            assert mutate_seed(mutate_seed(seed, k), k) == seed

    @pytest.mark.parametrize("matrix", [A3, B2Q, KRONECKER, A1T2])
    def test_laurent_phenomenon_random_words(self, matrix):
        # every mutation along random words divides exactly (no exception)
        rng = random.Random(42)
        for _ in range(250):
            word = [rng.randrange(matrix.n) for _ in range(rng.randint(1, 8))]
            seed = apply_mutation_word(initial_seed(matrix), word)
            for x in seed.cluster:
                assert not x.is_zero()

    @given(st.lists(st.integers(0, 2), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_positivity_along_words(self, word):
        seed = apply_mutation_word(initial_seed(A3), word)
        assert all(x.is_positive() for x in seed.cluster)


class TestPermutationAction:
    def test_permute_matrix_and_cluster(self):
        g = (2, 1, 0)
        seed = permute_seed(g, initial_seed(A3))
        assert seed.matrix.entries == A3.entries  # A3 is (1 3)-symmetric
        assert seed.cluster == initial_seed(A3).cluster

    def test_equivariance_with_mutation(self):
        # g . mu_k(seed) == mu_{g(k)}(g . seed)
        g = (2, 1, 0)
        seed = initial_seed(A3)
        left = permute_seed(g, mutate_seed(seed, 0))
        right = mutate_seed(permute_seed(g, seed), 2)
        assert left == right

    def test_invariance_check(self):
        assert is_invariant_seed(initial_seed(A3), [(2, 1, 0)])
        mutated = mutate_seed(initial_seed(A3), 0)
        assert not is_invariant_seed(mutated, [(2, 1, 0)])


class TestEnumeration:
    def test_a3_golden(self):
        result = enumerate_cluster_variables(A3)
        assert result.complete
        assert result.variable_count == 9
        assert result.cluster_count == 14
        assert {x.render() for x in result.variables} == A3_VARIABLES

    def test_b2_golden(self):
        result = enumerate_cluster_variables(B2Q)
        assert result.complete
        assert result.variable_count == 6
        assert result.cluster_count == 6
        assert {x.render() for x in result.variables} == B2_VARIABLES

    def test_provenance_words(self):
        result = enumerate_cluster_variables(A3)
        start = initial_seed(A3)
        for var, word in result.variables.items():
            if not word:
                assert var in start.cluster
            else:
                assert apply_mutation_word(start, word).cluster[word[-1]] == var

    def test_limit_handling(self):
        result = enumerate_cluster_variables(KRONECKER, max_seeds=10)
        assert not result.complete
        assert result.cluster_count == 10

    def test_a1(self):
        result = enumerate_cluster_variables(ExchangeMatrix([[0]]))
        assert result.variable_count == 2
        assert result.cluster_count == 2
        assert result.dot_edges == [(0, 1)]


class TestHugeEntries:
    def test_exponents_past_64_bits_stay_exact(self):
        seed = apply_mutation_word(initial_seed(ExchangeMatrix([[0, 2**63 - 1], [-1, 0]])), (1, 0))
        assert [x.render() for x in seed.cluster] == [
            "u1^9223372036854775806*u2^-1 + u1^-1 + u1^-1*u2^-1",
            "u1^9223372036854775807*u2^-1 + u2^-1",
        ]


def counting_divisions(monkeypatch):
    calls = []
    divide = seeds.divide_exact

    def counted(p, q):
        calls.append(1)
        return divide(p, q)

    monkeypatch.setattr(seeds, "divide_exact", counted)
    return calls


# Divisions of a closed search: one per exchange pair.  In type A_n the
# exchange pairs are the pairs of crossing diagonals of the (n+3)-gon.
EXCHANGE_PAIRS = {("A", 3): comb(6, 4), ("A", 5): comb(8, 4), ("B", 2): 6, ("D", 4): 52, ("G", 2): 8}


class TestOneDivisionPerEdge:
    @pytest.mark.parametrize("family, n, edges", [
        ("A", 3, 21), ("A", 5, 330), ("B", 2, 6), ("D", 4, 100), ("G", 2, 8),
    ])
    def test_closed_enumeration(self, monkeypatch, family, n, edges):
        calls = counting_divisions(monkeypatch)
        result = enumerate_cluster_variables(catalog.dynkin(family, n))
        assert result.complete
        assert len(result.dot_edges) == edges
        assert len(calls) == EXCHANGE_PAIRS[family, n]

    def test_drained_affine_run(self, monkeypatch):
        # one division per exchange pair met by an admitted edge or a refused neighbour
        calls = counting_divisions(monkeypatch)
        matrix = catalog.folding_pair("D4t-A1t2").pair.matrix
        result = enumerate_cluster_variables(matrix, max_seeds=450)
        assert (result.variable_count, result.cluster_count, result.frontier) == (98, 450, 240)
        assert len(result.dot_edges) == 1005
        assert len(calls) == 620
        assert max(len(x.terms) for x in result.variables) == 133
        assert all(x.is_positive() for x in result.variables)

    def test_denominator_search_divides_each_edge_once(self, monkeypatch):
        # the target is never found, so the search visits the whole A5 graph
        calls = counting_divisions(monkeypatch)
        assert find_variable_by_denominator(catalog.dynkin("A", 5), (9, 9, 9, 9, 9)) is None
        assert len(calls) == EXCHANGE_PAIRS["A", 5]


def binomial_of_key(key, n):
    """The exchange binomial an exchange-table key stands for, built from the key alone."""
    total = LaurentPolynomial.zero(n)
    for monomial in key:
        product = LaurentPolynomial.one(n)
        for variable, exponent in monomial:
            product = product * variable ** exponent
        total = total + product
    return total if len(key) == 2 else total + total


class TestExchangeTable:
    @pytest.mark.parametrize("family, n", [("A", 5), ("D", 4), ("G", 2)])
    def test_same_seeds_with_and_without_a_table(self, family, n):
        start = initial_seed(catalog.dynkin(family, n))
        exchanges = {}
        rng = random.Random(7)
        for _ in range(60):
            word = [rng.randrange(n) for _ in range(rng.randint(1, 10))]
            seed = start
            for k in word:
                seed = mutate_seed(seed, k, exchanges=exchanges)
            assert seed == apply_mutation_word(start, word), word
        assert exchanges

    def test_every_entry_of_a_closed_search_divides_back(self, monkeypatch):
        tables = []
        mutate = seeds.mutate_seed

        def recording(seed, k, *, exchanges=None):
            tables.append(exchanges)
            return mutate(seed, k, exchanges=exchanges)

        monkeypatch.setattr(seeds, "mutate_seed", recording)
        assert enumerate_cluster_variables(catalog.dynkin("A", 5)).complete
        table = tables[0]
        assert all(t is table for t in tables)
        assert len(table) == 2 * EXCHANGE_PAIRS["A", 5]
        for (variable, key), quotient in table.items():
            assert divide_exact(binomial_of_key(key, 5), variable) == quotient
            assert table[quotient, key] == variable

    def test_repeated_variable_sums_its_exponents(self):
        # u1 twice against u1 once: binomials 1 + u1^2 and 1 + u1, the same variable set
        repeated = Seed(A3, (poly("u1"), poly("u2"), poly("u1")))
        single = Seed(ExchangeMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), initial_seed(A3).cluster)
        exchanges = {}
        for seed in (repeated, single, repeated):
            assert mutate_seed(seed, 1, exchanges=exchanges) == mutate_seed(seed, 1)
        assert len(exchanges) == 4
        assert mutate_seed(repeated, 1).cluster[1] == poly("u2^-1 + u1^2*u2^-1")

    def test_failed_division_on_a_miss_raises(self, monkeypatch):
        def refuse(p, q):
            raise NotDivisibleError("injected")

        monkeypatch.setattr(seeds, "divide_exact", refuse)
        exchanges = {}
        with pytest.raises(LaurentPhenomenonError, match="vertex 2"):
            mutate_seed(initial_seed(A3), 1, exchanges=exchanges)
        assert exchanges == {}
