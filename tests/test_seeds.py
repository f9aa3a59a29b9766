"""Seeds: exchange relation, mutation, permutation action, enumeration."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exchange import bounded_skew_symmetrizable_rows

from clusterfold import catalog, exchange, seeds
from clusterfold.exchange import ExchangeMatrix
from clusterfold.folding import orbit_mutate_word
from clusterfold.explorer import find_variable_by_denominator
from clusterfold.laurent import LaurentPolynomial, NotDivisibleError, divide_exact, parse_polynomial
from clusterfold.seeds import (
    LaurentPhenomenonError,
    LimitExceededError,
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

    def test_vertex_out_of_range_before_any_step(self, monkeypatch):
        steps = []
        step = seeds.mutate_seed

        def counted(seed, k, **kwargs):
            steps.append(k)
            return step(seed, k, **kwargs)

        monkeypatch.setattr(seeds, "mutate_seed", counted)
        for word in ((0, 99), (0, -1)):
            with pytest.raises(ValueError, match=f"vertex {word[1] + 1} out of range"):
                apply_mutation_word(initial_seed(A3), word)
        assert steps == []
        # a word given as an iterator is read once, by the check, and still walked
        assert apply_mutation_word(initial_seed(A3), iter((0, 1))) == (
            apply_mutation_word(initial_seed(A3), (0, 1)))
        assert steps == [0, 1, 0, 1]

    def test_a_step_back_along_a_word_divides_nothing(self, monkeypatch):
        # the word steps on one exchange table, so each step back is a hit on it
        start = initial_seed(catalog.folding_pair("A3toB2").pair.matrix)
        divisions = counting_divisions(monkeypatch)
        assert apply_mutation_word(start, (0, 0, 1, 1)) == start
        assert len(divisions) == 2

    @given(st.lists(st.integers(0, 2), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_positivity_along_words(self, word):
        seed = apply_mutation_word(initial_seed(A3), word)
        assert all(x.is_positive() for x in seed.cluster)


FINITE_PAIRS = ["A3toB2", "A5toC3", "D4toB3", "D4toG2", "E6toF4"]


def reference_permute_seed(g, seed):
    """The relabeling of a seed by g, entry by entry, kept as a reference."""
    g = tuple(g)
    n = seed.matrix.n
    if sorted(g) != list(range(n)):
        raise ValueError("g must be a permutation of the vertices")
    inv = sorted(range(n), key=g.__getitem__)
    b = seed.matrix.entries
    entries = tuple(tuple(b[inv[i]][inv[j]] for j in range(n)) for i in range(n))
    cluster = tuple(seed.cluster[inv[i]].permute_variables(g) for i in range(n))
    d = seed.matrix.symmetrizer
    return Seed(ExchangeMatrix.from_symmetrizer(entries, [d[i] for i in inv]), cluster)


def assert_same_action(g, seed):
    """permute_seed and is_invariant_seed agree with the reference on (g, seed)."""
    permuted, reference = permute_seed(g, seed), reference_permute_seed(g, seed)
    assert permuted.matrix.entries == reference.matrix.entries
    assert permuted.matrix.symmetrizer == reference.matrix.symmetrizer
    assert permuted.cluster == reference.cluster
    assert is_invariant_seed(seed, [g]) == (reference == seed)


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

    def test_the_permuted_matrix_carries_the_permuted_symmetrizer(self, monkeypatch):
        seed = mutate_seed(initial_seed(ExchangeMatrix([[0, -1, 0], [3, 0, -2], [0, 1, 0]])), 1)
        assert seed.matrix.symmetrizer == (3, 1, 2)
        g = (1, 2, 0)

        def forbidden(entries):
            raise AssertionError("permute_seed re-derived the symmetrizer")

        with monkeypatch.context() as patched:
            patched.setattr(exchange, "find_symmetrizer", forbidden)
            permuted = permute_seed(g, seed)
        assert permuted.matrix.symmetrizer == (2, 3, 1)
        assert permuted.matrix.symmetrizer == exchange.find_symmetrizer(permuted.matrix.entries)

    def test_invariance_check(self):
        assert is_invariant_seed(initial_seed(A3), [(2, 1, 0)])
        mutated = mutate_seed(initial_seed(A3), 0)
        assert not is_invariant_seed(mutated, [(2, 1, 0)])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_action_as_the_reference_on_random_seeds(self, data):
        rows = data.draw(st.one_of(st.just([[0]]), bounded_skew_symmetrizable_rows(max_n=6)))
        n = len(rows)
        word = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        seed = apply_mutation_word(initial_seed(ExchangeMatrix(rows)), word)
        g = data.draw(st.one_of(st.just(tuple(range(n))), st.permutations(range(n)).map(tuple)))
        assert_same_action(g, seed)

    @given(st.sampled_from(FINITE_PAIRS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_action_as_the_reference_on_invariant_seeds(self, name, data):
        pair = catalog.folding_pair(name).pair
        word = data.draw(st.lists(st.integers(0, pair.orbit_count - 1), max_size=3))
        seed, _ = orbit_mutate_word(pair, initial_seed(pair.matrix), word)
        for g in pair.group.generators:
            assert is_invariant_seed(seed, [g])
            assert_same_action(g, seed)
        assert_same_action(tuple(data.draw(st.permutations(range(pair.matrix.n)))), seed)

    def test_the_invariance_check_builds_no_matrix_and_no_seed(self, monkeypatch):
        pair = catalog.folding_pair("E6toF4").pair
        start = initial_seed(pair.matrix)
        stepped, _ = orbit_mutate_word(pair, start, (0, 1))
        skewed = mutate_seed(start, 0)
        assert reference_permute_seed(pair.group.generators[0], skewed) != skewed

        def forbidden(*args, **kwargs):
            raise AssertionError("is_invariant_seed built a matrix or a seed")

        monkeypatch.setattr(ExchangeMatrix, "__init__", forbidden)
        monkeypatch.setattr(ExchangeMatrix, "from_symmetrizer", forbidden)
        monkeypatch.setattr(Seed, "__init__", forbidden)
        assert is_invariant_seed(start, pair.group.generators)
        assert is_invariant_seed(stepped, pair.group.generators)
        assert not is_invariant_seed(skewed, pair.group.generators)


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

    def test_a_large_power_of_a_variable_of_several_terms_passes_the_work_bound(self):
        matrix = ExchangeMatrix([[0, 2**32, 0], [-1, 0, 1], [0, -1, 0]])
        seed = apply_mutation_word(initial_seed(matrix), (1, 0))
        assert len(seed.cluster[0].terms) == 3 and seed.matrix.entries[0][2] == -2**32
        with pytest.raises(LimitExceededError, match="product of .* passes the bound of 4194304"):
            mutate_seed(seed, 2)

    @pytest.mark.parametrize("power", [64, 65, 300])
    def test_a_power_within_the_work_bound_is_expanded_exactly(self, power):
        seed = mutate_seed(initial_seed(ExchangeMatrix([[0, -power], [1, 0]])), 0)
        assert seed.cluster[0] == poly("u1^-1*u2 + u1^-1", 2)
        # ((u2 + 1)/u1) ** power + 1, by the binomial theorem
        expected = {(-power, k): comb(power, k) for k in range(power + 1)}
        expected[0, 0] = 1
        assert exchange_binomial(seed, 1) == LaurentPolynomial(2, expected)


def counting(monkeypatch, name):
    """The calls of ``seeds.<name>``, one entry each."""
    calls = []
    original = getattr(seeds, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(seeds, name, counted)
    return calls


def counting_divisions(monkeypatch):
    return counting(monkeypatch, "divide_exact")


# Exchange pairs of a closed class: a plain search, which mutates along
# every edge, meets each of them.  In type A_n they are the pairs of
# crossing diagonals of the (n+3)-gon.
EXCHANGE_PAIRS = {("A", 3): comb(6, 4), ("A", 5): comb(8, 4), ("B", 2): 6, ("D", 4): 52, ("G", 2): 8}
# The labeled search, which mutates once per seed after the first, builds one
# binomial per exchange pair it meets on those edges.  Each such miss in the
# exchange table either divides or, when its quotient is a variable the table
# already holds, is confirmed by one product: MET = DIVISIONS + confirmed products.
MET = {("A", 3): 11, ("A", 5): 54, ("B", 2): 5, ("D", 4): 36, ("G", 2): 7}
DIVISIONS = {("A", 3): 10, ("A", 5): 35, ("B", 2): 4, ("D", 4): 26, ("G", 2): 6}


class TestOneDivisionPerEdge:
    @pytest.mark.parametrize("family, n, edges", [
        ("A", 3, 21), ("A", 5, 330), ("B", 2, 6), ("D", 4, 100), ("G", 2, 8),
    ])
    def test_closed_enumeration(self, monkeypatch, family, n, edges):
        calls = counting_divisions(monkeypatch)
        binomials = counting(monkeypatch, "exchange_binomial")
        result = enumerate_cluster_variables(catalog.dynkin(family, n))
        assert result.complete
        assert len(result.dot_edges) == edges
        assert len(binomials) == MET[family, n] <= EXCHANGE_PAIRS[family, n]
        assert len(calls) == DIVISIONS[family, n]

    def test_drained_affine_run(self, monkeypatch):
        # 432 exchange pairs met on the way to an admitted seed or a refused
        # neighbour: 154 divisions, and 278 products that confirm a known variable
        calls = counting_divisions(monkeypatch)
        binomials = counting(monkeypatch, "exchange_binomial")
        matrix = catalog.folding_pair("D4t-A1t2").pair.matrix
        result = enumerate_cluster_variables(matrix, max_seeds=450)
        assert (result.variable_count, result.cluster_count, result.search.refused) == (98, 450, 240)
        assert len(result.dot_edges) == 1005
        assert (len(binomials), len(calls)) == (432, 154)
        assert max(len(x.terms) for x in result.variables) == 133
        assert all(x.is_positive() for x in result.variables)

    # a plain search makes n mutations per admitted seed: 660, 4,998 and
    # 2,250; the labeled one makes s - 1, plus 138 distinct refused neighbours
    # on D4t-A1t2
    @pytest.mark.parametrize("matrix, limit, mutations, met, divisions", [
        pytest.param(catalog.dynkin("A", 5), 100_000, 131, 54, 35, id="A5"),
        pytest.param(catalog.dynkin("E", 6), 100_000, 832, 286, 111, id="E6"),
        pytest.param(catalog.folding_pair("D4t-A1t2").pair.matrix, 450, 587, 432, 154, id="D4t-A1t2"),
    ])
    def test_one_mutation_per_edge(self, monkeypatch, matrix, limit, mutations, met, divisions):
        calls = counting_divisions(monkeypatch)
        binomials = counting(monkeypatch, "exchange_binomial")
        mutated = []
        mutate = seeds.mutate_seed

        def counted(seed, k, *, exchanges=None):
            mutated.append(1)
            return mutate(seed, k, exchanges=exchanges)

        monkeypatch.setattr(seeds, "mutate_seed", counted)
        enumerate_cluster_variables(matrix, max_seeds=limit)
        assert (len(mutated), len(binomials), len(calls)) == (mutations, met, divisions)

    def test_denominator_search_divides_each_edge_once(self, monkeypatch):
        # the target is never found, so the search visits the whole A5 graph
        calls = counting_divisions(monkeypatch)
        binomials = counting(monkeypatch, "exchange_binomial")
        assert find_variable_by_denominator(catalog.dynkin("A", 5), (9, 9, 9, 9, 9)) is None
        assert (len(binomials), len(calls)) == (MET["A", 5], DIVISIONS["A", 5])


def unit_seeded_binomial(seed, k):
    """The exchange binomial with both sides started from 1, kept as a reference."""
    n = seed.matrix.n
    b = seed.matrix.entries
    plus = LaurentPolynomial.one(n)
    minus = LaurentPolynomial.one(n)
    for i in range(n):
        if b[i][k] > 0:
            plus = plus * seed.cluster[i] ** b[i][k]
        elif b[i][k] < 0:
            minus = minus * seed.cluster[i] ** (-b[i][k])
    return plus + minus


class TestExchangeBinomial:
    # G2 has |b_ik| = 3; the affine run is the bench's ambient D4t-A1t2 at 450 seeds
    @pytest.mark.parametrize("matrix, limit", [
        pytest.param(catalog.dynkin("A", 5), 100_000, id="A5"),
        pytest.param(catalog.dynkin("D", 4), 100_000, id="D4"),
        pytest.param(catalog.dynkin("G", 2), 100_000, id="G2"),
        pytest.param(catalog.folding_pair("D4t-A1t2").pair.matrix, 450, id="D4t-A1t2"),
    ])
    def test_same_binomial_as_the_unit_seeded_reference(self, matrix, limit):
        # every seed the search meets, refused neighbours included
        met = [initial_seed(matrix)]
        seeds.search_seeds(met[0], limit, on_new=lambda seed, word: met.append(seed))
        for seed in met:
            for k in range(matrix.n):
                assert exchange_binomial(seed, k) == unit_seeded_binomial(seed, k)

    def test_products_of_the_affine_run(self, monkeypatch):
        # 586 build the binomials: one per factor after the first on each
        # side, and the squarings inside **, with no product by 1; the other
        # 278 confirm a known quotient, each at its first try (432 - 154)
        products = []
        multiply = LaurentPolynomial.__mul__

        def counted(p, q):
            products.append(1)
            return multiply(p, q)

        monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
        enumerate_cluster_variables(catalog.folding_pair("D4t-A1t2").pair.matrix, max_seeds=450)
        assert len(products) == 586 + 278

    def test_a_side_without_factors_is_one(self):
        seed = initial_seed(ExchangeMatrix([[0, 0], [0, 0]]))
        assert exchange_binomial(seed, 0) == LaurentPolynomial(2, {(0, 0): 2})
        assert exchange_binomial(initial_seed(B2Q), 1) == poly("u1^2 + 1", 2)


def binomial_of_key(key, n):
    """The exchange binomial an exchange-table key stands for, built from the key alone."""
    total = LaurentPolynomial.zero(n)
    for monomial in key:
        product = LaurentPolynomial.one(n)
        for variable, exponent in monomial:
            product = product * variable ** exponent
        total = total + product
    return total if len(key) == 2 else total + total


WALKED = [catalog.dynkin("A", 5), catalog.dynkin("C", 3), catalog.dynkin("G", 2),
          catalog.folding_pair("D4t-A1t2").pair.matrix]


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
        exchanged = {key: y for key, y in table.items() if len(key) == 2}
        assert len(exchanged) == 2 * MET["A", 5]
        for (variable, key), quotient in exchanged.items():
            assert divide_exact(binomial_of_key(key, 5), variable) == quotient
            assert table[quotient, key] == variable
        # every quotient of a division, under the ends that a product with it
        # would have: the 20 - 5 variables of A5 beyond the initial cluster
        ends = {key: y for key, y in table.items() if len(key) == 3}
        assert all(key == (5, *y.ends()) for key, y in ends.items())
        initial = set(initial_seed(catalog.dynkin("A", 5)).cluster)
        assert set(ends.values()) == set(exchanged.values()) - initial
        assert len(ends) == 15

    @given(st.sampled_from(WALKED) | bounded_skew_symmetrizable_rows(max_n=4, max_entry=1)
           .map(ExchangeMatrix), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_walk_steps_as_a_table_less_walk_and_every_entry_divides_back(self, matrix, data):
        # steps in any order, back and forth, and walks that share one table,
        # so the key hits and the ends candidates also run where no search
        # ordered the steps
        words = data.draw(st.lists(st.lists(st.integers(0, matrix.n - 1), max_size=8),
                                   min_size=1, max_size=4))
        exchanges = {}
        for word in words:
            shared = alone = initial_seed(matrix)
            for k in word:
                shared = mutate_seed(shared, k, exchanges=exchanges)
                alone = mutate_seed(alone, k)
                assert shared == alone, word
        exchanged = {key: y for key, y in exchanges.items() if len(key) == 2}
        for (variable, key), quotient in exchanged.items():
            assert exchanged[quotient, key] == variable

    def test_no_table_is_a_fresh_table(self):
        for seed in (initial_seed(A3), self.BACK):
            for k in range(3):
                assert mutate_seed(seed, k) == mutate_seed(seed, k, exchanges={})

    def test_repeated_variable_sums_its_exponents(self):
        # u1 twice against u1 once: binomials 1 + u1^2 and 1 + u1, the same variable set
        repeated = Seed(A3, (poly("u1"), poly("u2"), poly("u1")))
        single = Seed(ExchangeMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), initial_seed(A3).cluster)
        exchanges = {}
        for seed in (repeated, single, repeated):
            assert mutate_seed(seed, 1, exchanges=exchanges) == mutate_seed(seed, 1)
        assert sum(len(key) == 2 for key in exchanges) == 4  # and one ends key per quotient
        assert len(exchanges) == 4 + 2
        assert mutate_seed(repeated, 1).cluster[1] == poly("u2^-1 + u1^2*u2^-1")

    # mu_1 on A3 takes u1 to (u2 + 1)/u1; mutating that seed at 1 again has
    # the binomial u2 + 1, the non-monomial divisor x = u1^-1*u2 + u1^-1 and
    # the quotient u1, whose ends are lead(B) - lead(x) = trail(B) - trail(x) = (1, 0, 0)
    BACK = mutate_seed(initial_seed(A3), 0)

    def test_a_known_quotient_is_confirmed_by_one_product(self, monkeypatch):
        calls = counting_divisions(monkeypatch)
        products = []
        multiply = LaurentPolynomial.__mul__

        def counted(p, q):
            products.append(1)
            return multiply(p, q)

        monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
        exchanges = {(3, *poly("u1").ends()): poly("u1")}
        assert mutate_seed(self.BACK, 0, exchanges=exchanges) == initial_seed(A3)
        assert (len(calls), len(products)) == (0, 1)
        assert exchanges[self.BACK.cluster[0], frozenset((frozenset({(poly("u2"), 1)}),
                                                           frozenset()))] == poly("u1")

    @pytest.mark.parametrize("planted", ["u3", "u1*u2", "2*u1", "u1 + u2"])
    def test_a_wrong_variable_under_the_ends_is_refused(self, monkeypatch, planted):
        calls = counting_divisions(monkeypatch)
        ends = (3, *poly("u1").ends())
        exchanges = {ends: poly(planted)}
        assert mutate_seed(self.BACK, 0, exchanges=exchanges) == initial_seed(A3)
        assert len(calls) == 1
        assert exchanges[ends] == poly(planted)  # the first variable under a key stays

    def test_failed_division_on_a_miss_raises(self, monkeypatch):
        def refuse(p, q):
            raise NotDivisibleError("injected")

        monkeypatch.setattr(seeds, "divide_exact", refuse)
        exchanges = {}
        with pytest.raises(LaurentPhenomenonError, match="vertex 2"):
            mutate_seed(initial_seed(A3), 1, exchanges=exchanges)
        assert exchanges == {}
