"""Root systems and the folding lemmas on roots and denominators."""

import pytest

from clusterfold.exchange import ExchangeMatrix, cartan_counterpart
from clusterfold.roots import (
    NotFiniteTypeError,
    almost_positive_roots,
    positive_roots,
    reflect,
    simple_roots,
    verify_denominator_bijection,
    verify_fiber_orbits,
    verify_root_projection,
)
from clusterfold import catalog
from clusterfold.folding import quotient_matrix
from clusterfold.seeds import LimitExceededError

FINITE_PAIRS = ["A3toB2", "A5toC3", "D4toB3", "E6toF4", "D4toG2"]

# family -> (ranks, number of positive roots at rank n)
ROOT_COUNT_FORMULAS = {
    "A": (range(1, 9), lambda n: n * (n + 1) // 2),
    "B": (range(2, 9), lambda n: n * n),
    "C": (range(3, 9), lambda n: n * n),
    "D": (range(4, 9), lambda n: n * (n - 1)),
    "E": (range(6, 9), lambda n: {6: 36, 7: 63, 8: 120}[n]),
    "F": (range(4, 5), lambda n: 24),
    "G": (range(2, 3), lambda n: 6),
}
# every finite type up to rank 8, and D16, whose 240 positive roots are exactly the cap
POSITIVE_ROOT_COUNTS = [(family, n, count(n)) for family, (ranks, count) in
                        ROOT_COUNT_FORMULAS.items() for n in ranks] + [("D", 16, 240)]


def cartan(family, n):
    return cartan_counterpart(catalog.dynkin(family, n))


class TestReflections:
    def test_simple_reflection(self):
        c = cartan("A", 2)
        # s_1(alpha_1) = -alpha_1; s_1(alpha_2) = alpha_1 + alpha_2
        assert reflect(c, 0, (1, 0)) == (-1, 0)
        assert reflect(c, 0, (0, 1)) == (1, 1)

    def test_reflection_is_involution(self):
        c = cartan("B", 3)
        for v in simple_roots(3):
            for i in range(3):
                assert reflect(c, i, reflect(c, i, v)) == v


class TestPositiveRoots:
    @pytest.mark.parametrize("family,n,count", POSITIVE_ROOT_COUNTS)
    def test_counts(self, family, n, count):
        # the count, and closure: s_i permutes the positive roots other than alpha_i
        c = cartan(family, n)
        found = positive_roots(catalog.dynkin(family, n))
        assert len(found) == count
        for i, alpha in enumerate(simple_roots(n)):
            assert {reflect(c, i, v) for v in found - {alpha}} == found - {alpha}

    @pytest.mark.parametrize("family,n", [("D", 17), ("A", 22)])
    def test_past_the_cap_is_a_limit(self, family, n):
        with pytest.raises(LimitExceededError, match="more than 240 positive roots"):
            positive_roots(catalog.dynkin(family, n))

    def test_a2_explicit(self):
        assert positive_roots(catalog.dynkin("A", 2)) == {(1, 0), (0, 1), (1, 1)}

    def test_almost_positive(self):
        roots = almost_positive_roots(catalog.dynkin("A", 2))
        assert (-1, 0) in roots and (0, -1) in roots
        assert len(roots) == 5

    def test_rejects_non_finite(self):
        with pytest.raises(NotFiniteTypeError):
            positive_roots(ExchangeMatrix([[0, 2], [-2, 0]]))


class TestFoldingLemmas:
    @pytest.mark.parametrize("name", FINITE_PAIRS)
    def test_root_projection(self, name):
        ok, witness = verify_root_projection(catalog.folding_pair(name).pair)
        assert ok, (name, witness)

    @pytest.mark.parametrize("name", FINITE_PAIRS)
    def test_fiber_orbits(self, name):
        ok, witness = verify_fiber_orbits(catalog.folding_pair(name).pair)
        assert ok, (name, witness)

    def test_parametric_pairs(self):
        for fam, n in [("AtoC", 2), ("AtoC", 3), ("DtoB", 3), ("DtoB", 4)]:
            pair = catalog.folding_pair(fam, n).pair
            assert verify_root_projection(pair)[0]
            assert verify_fiber_orbits(pair)[0]


class TestDenominatorBijection:
    @pytest.mark.parametrize(
        "matrix",
        [
            ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]]),
            ExchangeMatrix([[0, -2], [1, 0]]),
            catalog.dynkin("D", 4),
            catalog.dynkin("G", 2),
        ],
    )
    def test_finite_types(self, matrix):
        result, detail = verify_denominator_bijection(matrix)
        assert result.complete and detail is None, detail

    def test_an_enumeration_stopped_at_its_limit_decides_nothing(self):
        result, detail = verify_denominator_bijection(catalog.dynkin("A", 5), max_seeds=5)
        assert (result.search.status, result.cluster_count) == ("limit-exceeded", 5)
        assert detail is None

    def test_quotients(self):
        for name in ["A3toB2", "D4toG2"]:
            q = quotient_matrix(catalog.folding_pair(name).pair)
            result, detail = verify_denominator_bijection(q)
            assert result.complete and detail is None, detail
