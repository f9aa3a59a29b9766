"""Acceptance suite: the twelve end-to-end guarantees with their time budgets.

Each test states its runtime budget explicitly and measures only the work
under test.  Everything is exact integer arithmetic; there are no numeric
tolerances anywhere.
"""

import itertools
import random
import time

import pytest

from clusterfold import catalog, explorer
from clusterfold.exchange import ExchangeMatrix
from clusterfold.folding import (
    admissibility_witness,
    all_orbit_orderings_agree,
    check_stability,
    compose_orbit_mutations,
    project_vector,
    quotient_matrix,
    verify_commutation,
)
from clusterfold.laurent import LaurentPolynomial, parse_polynomial
from clusterfold.roots import (
    verify_denominator_bijection,
    verify_fiber_orbits,
    verify_root_projection,
)
from clusterfold.seeds import (
    apply_mutation_word,
    enumerate_cluster_variables,
    initial_seed,
    mutate_seed,
)

FINITE_PAIRS = ["A3toB2", "A5toC3", "D4toB3", "E6toF4", "D4toG2"]

A3_GOLDEN = {
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

B2_GOLDEN = {
    "u1",
    "u2",
    "u1^-1*u2 + u1^-1",
    "u1^2*u2^-1 + u2^-1",
    "u1*u2^-1 + u1^-1 + u1^-1*u2^-1",
    "u2^-1 + u1^-2*u2 + 2*u1^-2 + u1^-2*u2^-1",
}


@pytest.fixture(scope="module")
def a3_pair():
    return catalog.folding_pair("A3toB2").pair


@pytest.fixture(scope="module")
def a3_enumeration(a3_pair):
    return enumerate_cluster_variables(a3_pair.matrix)


@pytest.fixture(scope="module")
def b2_enumeration(a3_pair):
    return enumerate_cluster_variables(quotient_matrix(a3_pair))


@pytest.fixture(scope="module")
def e6_pair():
    return catalog.folding_pair("E6toF4").pair


@pytest.fixture(scope="module")
def e6_enumeration(e6_pair):
    return enumerate_cluster_variables(e6_pair.matrix, max_seeds=200_000)


@pytest.fixture(scope="module")
def f4_enumeration(e6_pair):
    return enumerate_cluster_variables(quotient_matrix(e6_pair), max_seeds=200_000)


def test_01_a3_golden_set(a3_pair):
    """All nine cluster variables of the rank-3 ambient, byte-identical."""
    start = time.monotonic()
    result = enumerate_cluster_variables(a3_pair.matrix)
    elapsed = time.monotonic() - start
    assert result.complete
    assert {x.render() for x in result.variables} == A3_GOLDEN
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_02_b2_golden_set_and_projection_equality(a3_pair):
    """Six quotient variables; projection of the ambient set equals them."""
    start = time.monotonic()
    ambient = enumerate_cluster_variables(a3_pair.matrix)
    quotient = enumerate_cluster_variables(quotient_matrix(a3_pair))
    projected = {x.project(a3_pair.orbits) for x in ambient.variables}
    elapsed = time.monotonic() - start
    assert {x.render() for x in quotient.variables} == B2_GOLDEN
    assert projected == set(quotient.variables)
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_03_quotient_matrices(a3_pair):
    """The three headline quotient matrices, entrywise exact."""
    assert quotient_matrix(a3_pair).entries == ((0, -2), (1, 0))
    for name in ["squaretoK2", "hexagontoK2"]:
        pair = catalog.folding_pair(name).pair
        assert quotient_matrix(pair).entries == ((0, 2), (-2, 0)), name


def test_04_commutation_theorem():
    """Orbit mutation then projection equals quotient mutation, word by word:
    exhaustive to length 4 plus 200 random words of length up to 10 per pair."""
    start = time.monotonic()
    names = ["A3toB2", "A5toC3", "D4toG2", "E6toF4", "D4t-A1t2", "D4t-G2t1"]
    for name in names:
        pair = catalog.folding_pair(name).pair
        for length in range(5):
            for word in itertools.product(range(pair.orbit_count), repeat=length):
                assert verify_commutation(pair, word).ok, (name, word)
        rng = random.Random(0)
        for _ in range(200):
            word = tuple(
                rng.randrange(pair.orbit_count) for _ in range(rng.randint(1, 10))
            )
            assert verify_commutation(pair, word).ok, (name, word)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


class Test05NonStableCounterexample:
    """The 6-cycle with the antipodal involution: admissible but not stable."""

    B_PRIME = (
        (0, 1, -1, 0, 0, 1),
        (-1, 0, 0, 0, 0, 0),
        (1, 0, 0, -1, 0, 0),
        (0, 0, 1, 0, 1, -1),
        (0, 0, 0, -1, 0, 0),
        (-1, 0, 0, 1, 0, 0),
    )

    def test_admissibility_fails_after_one_orbit_mutation(self):
        pair = catalog.folding_pair("remark-stabilite").pair
        verdict = check_stability(pair)
        assert verdict.status == "unstable"
        assert len(verdict.witness_word) == 1
        # mutating the second orbit creates the directed 2-path 1 -> 3 -> 4
        mutated = compose_orbit_mutations(pair.matrix, pair.orbits, 1)
        assert admissibility_witness(mutated, pair.orbits) == (0, 2, 3)

    def test_seed_mismatch_is_reproduced_exactly(self):
        pair = catalog.folding_pair("remark-stabilite").pair
        mutated = compose_orbit_mutations(pair.matrix, pair.orbits, 1)
        mutated = compose_orbit_mutations(mutated, pair.orbits, 0)
        assert mutated.entries == self.B_PRIME
        report = verify_commutation(pair, (1, 0), require_stable=False)
        assert not report.ok
        names = ["u1", "u2", "u3"]
        assert report.quotient_side.cluster == (
            parse_polynomial("u2^-1 + u1^-1 + u1^-1*u2^-1*u3", names),
            parse_polynomial("u1*u2^-1 + u2^-1*u3", names),
            parse_polynomial("u3", names),
        )
        assert report.projected_side.cluster == (
            parse_polynomial("u2^-1*u3 + u1^-1*u3 + u1^-1*u2^-1*u3^2", names),
            parse_polynomial("u1*u2^-1 + u2^-1*u3", names),
            parse_polynomial("u3", names),
        )


def test_06_finite_type_equality_at_scale(e6_pair):
    """42 ambient and 28 quotient variables; projection equality as sets."""
    start = time.monotonic()
    ambient = enumerate_cluster_variables(e6_pair.matrix, max_seeds=200_000)
    quotient = enumerate_cluster_variables(
        quotient_matrix(e6_pair), max_seeds=200_000
    )
    projected = {x.project(e6_pair.orbits) for x in ambient.variables}
    elapsed = time.monotonic() - start
    assert ambient.variable_count == 42  # 36 positive roots + 6 initial
    assert quotient.variable_count == 28  # 24 positive roots + 4 initial
    assert projected == set(quotient.variables)
    assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 300s"


def test_07_root_lemmas_on_every_finite_pair():
    """Root-system projection and fiber-orbit lemmas, exhaustively."""
    pairs = [catalog.folding_pair(name).pair for name in FINITE_PAIRS]
    pairs += [catalog.folding_pair("AtoC", n).pair for n in (2, 3, 4)]
    pairs += [catalog.folding_pair("DtoB", n).pair for n in (2, 3, 4)]
    for pair in pairs:
        ok, witness = verify_root_projection(pair)
        assert ok, witness
        ok, witness = verify_fiber_orbits(pair)
        assert ok, witness


def test_08_denominator_identity(a3_pair, a3_enumeration, e6_pair, e6_enumeration):
    """Projecting a variable and taking denominators commute, variable by
    variable, over every enumeration in this suite."""
    for pair, result in [(a3_pair, a3_enumeration), (e6_pair, e6_enumeration)]:
        for x in result.variables:
            projected = x.project(pair.orbits)
            assert projected.denominator_vector() == project_vector(
                x.denominator_vector(), pair.orbits
            )
    # and the denominator map itself is a bijection onto almost positive roots
    for pair in (a3_pair, e6_pair):
        ok, detail = verify_denominator_bijection(pair.matrix)
        assert ok, detail
        ok, detail = verify_denominator_bijection(quotient_matrix(pair))
        assert ok, detail


def test_09_positivity(a3_enumeration, b2_enumeration, e6_enumeration, f4_enumeration):
    """Every enumerated cluster variable has strictly positive coefficients."""
    for result in (a3_enumeration, b2_enumeration, e6_enumeration, f4_enumeration):
        for x in result.variables:
            assert x.is_positive(), x.render()


def test_10_strict_inclusion_in_affine_rank_two():
    """An ambient variable whose projected denominator (1, 2) is missing from
    the exhaustive quotient box: the quotient variables are a proper subset
    of the projected ambient ones."""
    start = time.monotonic()
    pair = catalog.folding_pair("D4t-A1t2-c4").pair
    found = explorer.find_variable_by_denominator(pair.matrix, (1, 0, 0, 1, 1))
    assert found is not None
    poly, word = found
    assert word  # not an initial variable
    projected_delta = project_vector(poly.denominator_vector(), pair.orbits)
    assert projected_delta == (1, 2)
    box = explorer.rank2_denominators_below(quotient_matrix(pair), (1, 2))
    assert (1, 2) not in box
    assert box == {(-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)}
    # the projected variable itself is a valid positive Laurent polynomial
    assert poly.project(pair.orbits).is_positive()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


class Test11AffineFiniteness:
    """Every listed affine valued graph at ranks 2-6 has a finite matrix
    mutation class; the size chain holds on every catalog folding; an
    indefinite control matrix does not close."""

    AFFINE_NAMES = (
        ["~A1", "~A1(2)", "~F4(1)", "~F4(2)", "~G2(1)", "~G2(2)"]
        + [f"~B{n}" for n in range(2, 6)]
        + [f"~C{n}" for n in range(2, 6)]
        + [f"~BC{n}" for n in range(2, 6)]
        + [f"~BD{n}" for n in range(2, 5)]
        + [f"~CD{n}" for n in range(3, 6)]
    )

    FOLDINGS = [
        "A3toB2", "A5toC3", "D4toB3", "E6toF4", "D4toG2",
        "squaretoK2", "hexagontoK2",
        "D4t-A1t2", "D4t-G2t1", "D4t-A1t2-c4",
        "E6t-F4t1", "E7t-F4t2", "E6t-G2t2",
    ]

    def test_affine_sweep_and_control(self):
        start = time.monotonic()
        for name in self.AFFINE_NAMES:
            matrix = catalog.affine(name)
            if matrix.n > 6:
                continue
            report = explorer.mutation_class(matrix, limit=50_000)
            assert report.finite, (name, report.verdict)
        control = explorer.mutation_class(
            ExchangeMatrix([[0, 2, 0], [-2, 0, 2], [0, -2, 0]]), limit=10_000
        )
        # either outcome is evidence the class does not close
        assert control.verdict in ("limit-exceeded", "overflow")
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 300s"

    def test_monotonicity_chain_on_every_folding(self):
        start = time.monotonic()
        for name in self.FOLDINGS:
            pair = catalog.folding_pair(name).pair
            report = explorer.verify_monotonicity_chain(pair, limit=50_000)
            assert report.holds, name
        for family, n in [("AtoC", 2), ("DtoB", 3), ("At-Bt", 2),
                          ("Dt-Ct", 2), ("Dt-BCt", 2), ("Dt-BDt", 2),
                          ("Dt-CDt", 3)]:
            pair = catalog.folding_pair(family, n).pair
            assert explorer.verify_monotonicity_chain(pair, limit=50_000).holds
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 300s"


class Test12PropertySuites:
    def test_mutation_is_an_involution_along_random_words(self):
        rng = random.Random(7)
        matrices = [
            catalog.dynkin("A", 3),
            catalog.dynkin("B", 3),
            catalog.affine("~G2(1)"),
            ExchangeMatrix([[0, -2], [1, 0]]),
        ]
        for matrix in matrices:
            for _ in range(25):
                word = [rng.randrange(matrix.n) for _ in range(rng.randint(0, 6))]
                seed = apply_mutation_word(initial_seed(matrix), word)
                k = rng.randrange(matrix.n)
                assert mutate_seed(mutate_seed(seed, k), k) == seed

    def test_orbit_order_independence_all_orderings(self):
        # every orbit in these pairs has size at most 4
        for name in ["A3toB2", "A5toC3", "D4toG2", "E6toF4", "D4t-A1t2"]:
            pair = catalog.folding_pair(name).pair
            assert all(len(o) <= 4 for o in pair.orbits)
            for idx in range(pair.orbit_count):
                assert all_orbit_orderings_agree(pair, idx), (name, idx)

    def test_laurent_exactness_over_1000_random_words(self):
        """Each mutation divides exactly; a failure raises inside mutate_seed.
        Also checks the results stay within the Laurent ring: every exponent
        vector of every cluster entry is integral by construction and every
        cluster entry is nonzero."""
        rng = random.Random(11)
        matrices = [
            catalog.dynkin("A", 3),
            catalog.affine("~A1"),
            catalog.affine("~B2"),
            ExchangeMatrix([[0, -1], [4, 0]]),
        ]
        for matrix in matrices:
            for _ in range(250):
                word = [rng.randrange(matrix.n) for _ in range(rng.randint(1, 8))]
                seed = apply_mutation_word(initial_seed(matrix), word)
                for x in seed.cluster:
                    assert not x.is_zero()

    def test_projection_is_a_ring_homomorphism(self):
        rng = random.Random(13)
        orbits = ((0, 1), (2, 3))

        def random_poly():
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(-2, 2) for _ in range(4))
                terms[exps] = rng.randint(1, 3)
            return LaurentPolynomial(4, terms)

        for _ in range(100):
            p, q = random_poly(), random_poly()
            assert (p + q).project(orbits) == p.project(orbits) + q.project(orbits)
            assert (p * q).project(orbits) == p.project(orbits) * q.project(orbits)
