"""Exact Laurent-polynomial arithmetic: unit and property tests."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterfold.laurent import (
    MAX_WORK,
    LaurentPolynomial,
    LimitExceededError,
    NotDivisibleError,
    divide_exact,
    parse_polynomial,
)


def poly(text, n=3):
    return parse_polynomial(text, [f"u{i + 1}" for i in range(n)])


@st.composite
def laurent_polys(draw, n=3, max_terms=4, max_exp=3, max_coeff=5):
    count = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(count):
        exps = tuple(draw(st.integers(-max_exp, max_exp)) for _ in range(n))
        coeff = draw(st.integers(-max_coeff, max_coeff))
        if coeff:
            terms[exps] = terms.get(exps, 0) + coeff
    return LaurentPolynomial(n, terms)


class TestConstruction:
    def test_zero_one_constant(self):
        assert LaurentPolynomial.zero(2).is_zero()
        assert LaurentPolynomial.one(2).terms == {(0, 0): 1}
        assert LaurentPolynomial(2, {(0, 0): 7}).terms == {(0, 0): 7}
        assert LaurentPolynomial(2, {(0, 0): 0}).is_zero()

    def test_variable(self):
        u2 = LaurentPolynomial.variable(1, 3)
        assert u2.terms == {(0, 1, 0): 1}

    def test_monomial(self):
        m = LaurentPolynomial(2, {(1, -2): 3})
        assert m.terms == {(1, -2): 3}
        assert LaurentPolynomial(2, {(1, -2): 0}).is_zero()

    def test_zero_coefficients_dropped(self):
        p = LaurentPolynomial(2, {(1, 0): 2, (0, 1): 0})
        assert p.terms == {(1, 0): 2}


class TestArithmetic:
    def test_addition(self):
        assert poly("u1 + u2") + poly("u1 + u3") == poly("2*u1 + u2 + u3")

    def test_cancellation(self):
        p = poly("u1 + u2")
        assert (p - p).is_zero()

    def test_multiplication(self):
        assert poly("u1 + u2") * poly("u1 - u2") == poly("u1^2 - u2^2")

    def test_negative_exponents(self):
        assert poly("u1^-1") * poly("u1") == poly("1")

    def test_power(self):
        assert poly("u1 + 1") ** 3 == poly("u1^3 + 3*u1^2 + 3*u1 + 1")
        assert poly("u1 + 1") ** 0 == poly("1")
        with pytest.raises(ValueError):
            poly("u1 + 1") ** -1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly("u1", n=2) + poly("u1", n=3)

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    @settings(max_examples=100, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        one = LaurentPolynomial.one(3)
        assert p * one == p
        assert (p - p).is_zero()


class TestDivision:
    def test_exact_division(self):
        p = poly("u1^2 - u2^2")
        q = poly("u1 - u2")
        assert divide_exact(p, q) == poly("u1 + u2")

    def test_monomial_division(self):
        assert divide_exact(poly("u1*u2"), poly("u2")) == poly("u1")
        assert divide_exact(poly("u1"), poly("u1*u2")) == poly("u2^-1")

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            divide_exact(poly("u1 + 1"), poly("u2 + 1"))
        with pytest.raises(NotDivisibleError):
            divide_exact(poly("u1^2 + 1"), poly("u1 + 1"))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(poly("u1"), poly("0"))

    def test_zero_dividend(self):
        assert divide_exact(poly("0"), poly("u1 + 1")).is_zero()

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=150, deadline=None)
    def test_divide_recovers_factor(self, p, q):
        if q.is_zero():
            return
        assert divide_exact(p * q, q) == p

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=100, deadline=None)
    def test_division_result_is_exact(self, p, q):
        if q.is_zero():
            return
        try:
            result = divide_exact(p, q)
        except NotDivisibleError:
            return
        assert result * q == p


class TestQueries:
    def test_denominator_vector(self):
        assert poly("u1^-1*u2 + u1^-1").denominator_vector() == (1, 0, 0)
        assert poly("u1").denominator_vector() == (-1, 0, 0)
        assert poly("u2^-1 + u1^-1*u2*u3^-1").denominator_vector() == (1, 1, 1)

    def test_positivity(self):
        assert poly("u1 + 2*u2").is_positive()
        assert not poly("u1 - u2").is_positive()
        assert poly("0").is_positive()  # vacuously positive

    def test_ends_are_the_lex_extremes(self):
        assert poly("u2^-1 + u1^-1*u2*u3^-1 + 2*u1^-1*u3^-1").ends() == ((0, -1, 0), (-1, 0, -1))
        assert poly("u2").ends() == ((0, 1, 0), (0, 1, 0))
        wide = LaurentPolynomial(2, {(2**70, -3): 1, (-5, 2**40): 2, (-5, -(2**40)): 1})
        assert wide.ends() == ((2**70, -3), (-5, -(2**40)))

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=100, deadline=None)
    def test_ends_of_a_product_are_the_sums_of_the_ends(self, p, q):
        # lex order is compatible with addition, so the extreme terms of a product cannot cancel
        if p.is_zero() or q.is_zero():
            return
        (p_lead, p_trail), (q_lead, q_trail) = p.ends(), q.ends()
        assert (p * q).ends() == (tuple(map(sum, zip(p_lead, q_lead))),
                                  tuple(map(sum, zip(p_trail, q_trail))))


class TestActions:
    def test_permute_variables(self):
        g = (2, 1, 0)  # swap u1 and u3
        assert poly("u1^2*u2").permute_variables(g) == poly("u3^2*u2")

    @given(laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_permute_composition(self, p):
        g = (1, 2, 0)
        h = (2, 1, 0)
        composed = tuple(g[h[i]] for i in range(3))
        assert p.permute_variables(h).permute_variables(g) == p.permute_variables(composed)

    def test_project(self):
        orbits = ((0, 2), (1,))
        assert poly("u1*u3 + u2").project(orbits) == parse_polynomial(
            "u1^2 + u2", ["u1", "u2"]
        )

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_project_is_ring_homomorphism(self, p, q):
        orbits = ((0, 2), (1,))
        assert (p + q).project(orbits) == p.project(orbits) + q.project(orbits)
        assert (p * q).project(orbits) == p.project(orbits) * q.project(orbits)


class TestWorkBound:
    @staticmethod
    def run(length, coeff=1):
        """coeff * (1 + u1 + ... + u1^(length-1)), in one variable."""
        return LaurentPolynomial(1, {(i,): coeff for i in range(length)})

    def test_a_product_at_the_bound_is_formed(self):
        assert MAX_WORK == 2048 * 2048
        product = self.run(2048) * self.run(2048, 2)
        assert len(product.terms) == 4095
        assert product.terms[(2047,)] == 2 * 2048

    def test_a_product_past_the_bound_is_refused(self):
        assert 1985 * 2113 == MAX_WORK + 1
        a, b = self.run(1985), self.run(2113)
        with pytest.raises(LimitExceededError, match="product of 2113 by 1985 terms"):
            a * b
        with pytest.raises(LimitExceededError, match="product of 2113 by 1985 terms"):
            b * a

    def test_a_monomial_factor_is_free_and_a_square_counts_in_full(self, monkeypatch):
        monkeypatch.setattr("clusterfold.laurent.MAX_WORK", 6)
        assert len((self.run(7) * poly("2*u1^-3", 1)).terms) == 7  # a monomial factor is free
        assert self.run(2) * self.run(3) == poly("1 + 2*u1 + 2*u1^2 + u1^3", 1)
        with pytest.raises(LimitExceededError):
            self.run(7) * self.run(2)
        with pytest.raises(LimitExceededError):
            self.run(3) ** 2  # a square of 3 terms counts 9

    def test_a_division_at_the_bound_is_formed_and_one_past_it_is_refused(self, monkeypatch):
        at, past = self.run(3) * self.run(2), self.run(4) * self.run(2)
        monkeypatch.setattr("clusterfold.laurent.MAX_WORK", 6)
        assert divide_exact(at, self.run(2)) == self.run(3)  # 3 quotient by 2 divisor terms
        with pytest.raises(LimitExceededError,
                           match="division to 4 quotient terms by 2 divisor terms passes "
                                 "the bound of 6 multiply-adds"):
            divide_exact(past, self.run(2))
        shifted = LaurentPolynomial(1, {(i + 3,): 1 for i in range(7)})
        assert divide_exact(self.run(7), poly("u1^-3", 1)) == shifted  # a monomial divisor is free


class TestRendering:
    def test_render_canonical(self):
        assert poly("u2 + u1^-1*u2").render() == "u2 + u1^-1*u2"
        assert poly("1").render() == "1"
        assert poly("0").render() == "0"
        assert poly("-u1 + 2").render() == "-u1 + 2"

    @given(laurent_polys())
    @settings(max_examples=100, deadline=None)
    def test_parse_render_round_trip(self, p):
        assert parse_polynomial(p.render(), ["u1", "u2", "u3"]) == p

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_polynomial("u9", ["u1", "u2"])
        with pytest.raises(ValueError):
            parse_polynomial("", ["u1"])


class TestPermuteRejectsNonPermutation:
    def test_repeated_index(self):
        with pytest.raises(ValueError):
            (poly("u1", n=2) + poly("u2", n=2)).permute_variables((0, 0))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            poly("u1", n=2).permute_variables((0, 2))


class TestWideExponents:
    def test_field_width_follows_the_exponents(self):
        big = LaurentPolynomial(2, {(2**70, -3): 1})
        assert big.terms == {(2**70, -3): 1}
        assert big.render() == f"u1^{2**70}*u2^-3"
        back = big * LaurentPolynomial(2, {(-(2**70), 3): 1})
        assert back == LaurentPolynomial.one(2)
        assert hash(back) == hash(LaurentPolynomial.one(2))

    def test_field_boundary_is_exact(self):
        # |exponent| 2**15 - 1 fits the narrowest field; their sum does not
        edge = LaurentPolynomial(2, {(2**15 - 1, -(2**15 - 1)): 1}) + LaurentPolynomial.one(2)
        square = edge * edge
        assert square.terms == {
            (2**16 - 2, -(2**16 - 2)): 1, (2**15 - 1, -(2**15 - 1)): 2, (0, 0): 1
        }
        assert divide_exact(square, edge) == edge
        assert (square - edge * edge).is_zero()

    def test_bounds_carry_through_products_and_quotients(self):
        # (u1^(2**13)*u2^-1 + 1)^k crosses the narrowest field's range at k = 4
        x = LaurentPolynomial(2, {(2**13, -1): 1}) + LaurentPolynomial.one(2)
        for k in range(5):
            assert (x ** k).terms == {(2**13 * i, -i): comb(k, i) for i in range(k + 1)}
        half = divide_exact(x ** 4, x ** 2)
        assert half == x ** 2
        assert half * half == x ** 4


# -- differential tests against the tuple-keyed kernel -----------------


class TupleLaurent:
    """The tuple-keyed kernel the packed one replaced, kept as a reference."""

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c}

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def _accumulate(self, pairs, n=None):
        terms = {}
        for e, c in pairs:
            terms[e] = terms.get(e, 0) + c
        return TupleLaurent(self.n if n is None else n, terms)

    def __add__(self, other):
        return self._accumulate(list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self):
        return TupleLaurent(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self._accumulate(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )

    def __pow__(self, k):
        result = TupleLaurent(self.n, {(0,) * self.n: 1})
        for _ in range(k):
            result = result * self
        return result

    def denominator_vector(self):
        return tuple(-min(e[i] for e in self.terms) for i in range(self.n))

    def permute_variables(self, g):
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.n
            for j, e in enumerate(exps):
                new[g[j]] = e
            terms[tuple(new)] = coeff
        return TupleLaurent(self.n, terms)

    def project(self, orbits):
        return self._accumulate(
            ((tuple(sum(e[i] for i in o) for o in orbits), c) for e, c in self.terms.items()),
            n=len(orbits),
        )

    def render(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = [
                f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}" for i, e in enumerate(exps) if e != 0
            ]
            mag = abs(coeff)
            body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


def tuple_divide_exact(p, q):
    """The seed's leading-term division with the coordinatewise box check."""
    if not p.terms:
        return TupleLaurent(p.n)
    n = p.n
    refused = NotDivisibleError(f"{p.render()} is not divisible by {q.render()}")
    lo = [min(e[i] for e in p.terms) - min(e[i] for e in q.terms) for i in range(n)]
    hi = [max(e[i] for e in p.terms) - max(e[i] for e in q.terms) for i in range(n)]
    if any(l > h for l, h in zip(lo, hi)):
        raise refused
    lead_q = max(q.terms)
    cq = q.terms[lead_q]
    remainder = dict(p.terms)
    quotient = {}
    while remainder:
        lead_p = max(remainder)
        cp = remainder[lead_p]
        t = tuple(a - b for a, b in zip(lead_p, lead_q))
        if cp % cq or any(e < l or e > h for e, l, h in zip(t, lo, hi)):
            raise refused
        c = cp // cq
        quotient[t] = c
        for eq, coeff_q in q.terms.items():
            e = tuple(a + b for a, b in zip(t, eq))
            new = remainder.get(e, 0) - c * coeff_q
            if new:
                remainder[e] = new
            else:
                remainder.pop(e)
    return TupleLaurent(n, quotient)


# Exponents straddle the narrowest field's range (|e| < 2**15) and go far
# beyond it, so the widening and the repacking of results are exercised.
EXPONENTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**14, 2**15 - 1, -(2**15 - 1), 2**15, -(2**15), 2**40, -(2**63 - 1), 2**70]),
)


@st.composite
def poly_pairs(draw, max_terms=4):
    """(packed, reference) polynomials in n variables, n drawn once per example."""
    n = draw(st.shared(st.integers(1, 3), key="n"))
    terms = draw(st.dictionaries(
        st.tuples(*[EXPONENTS] * n), st.integers(-4, 4), max_size=max_terms))
    return LaurentPolynomial(n, terms), TupleLaurent(n, terms)


@st.composite
def dense_pairs(draw, max_terms=40):
    """(packed, reference) polynomials on the grid {-3..3}^n, scaled once per
    example, with signed coefficients: many products of two terms meet on
    one key, and some of them cancel.  The scales 2**13 and 2**15 - 1 put
    squares and cubes on the 32-bit fields, and 2**40 on the 64-bit ones."""
    n = draw(st.shared(st.integers(1, 3), key="n"))
    scale = draw(st.shared(st.sampled_from([1, 2**13, 2**15 - 1, 2**40]), key="scale"))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(scale * e for e in draw(st.tuples(*[st.integers(-3, 3)] * n)))
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-3, 3))
    return LaurentPolynomial(n, terms), TupleLaurent(n, terms)


def same(packed, reference):
    """The packed result equals the reference and hashes like a fresh copy,
    and so does its square, which relies on the exponent bound it carries."""
    fresh = LaurentPolynomial(reference.n, reference.terms)
    square = packed * packed
    return (
        packed.terms == reference.terms
        and packed == fresh
        and hash(packed) == hash(fresh)
        and square.terms == (reference * reference).terms
        and square == fresh * fresh
    )


def assert_same_division(p, q, rp, rq):
    """divide_exact agrees with the reference: the same quotient, or the same
    NotDivisibleError message."""
    try:
        expected = tuple_divide_exact(rp, rq)
    except NotDivisibleError as refused:
        with pytest.raises(NotDivisibleError) as raised:
            divide_exact(p, q)
        assert str(raised.value) == str(refused)
        return
    assert same(divide_exact(p, q), expected)


def assert_signed_division(q, rq, r, rr, variant):
    """q*r divided by q (variant 0), q*r plus 1 on its last term divided by q
    (1), or q*r divided by 2q (2), against the reference; 1 and 2 are mostly
    not divisible and fail late in the loop."""
    p, rp = q * r, rq * rr
    if variant == 1 and rp.terms:
        last = {min(rp.terms): 1}
        p, rp = p + LaurentPolynomial(q.n, last), rp + TupleLaurent(q.n, last)
    elif variant == 2:
        q, rq = q + q, rq + rq
    assert_same_division(p, q, rp, rq)


DIFFERENTIAL = settings(max_examples=100, deadline=None, derandomize=True)


class TestAgainstTupleKernel:
    @given(poly_pairs(), poly_pairs())
    @DIFFERENTIAL
    def test_ring_operations(self, a, b):
        (p, rp), (q, rq) = a, b
        assert same(p + q, rp + rq)
        assert same(p - q, rp - rq)
        assert same(-p, -rp)
        assert same(p * q, rp * rq)
        assert (p == q) == (rp == rq)

    @given(poly_pairs(max_terms=3), st.integers(0, 3))
    @DIFFERENTIAL
    def test_power(self, a, k):
        p, rp = a
        assert same(p ** k, rp ** k)

    @given(poly_pairs(), poly_pairs(), st.booleans())
    @DIFFERENTIAL
    def test_divide_exact(self, a, b, exact):
        (p, rp), (q, rq) = a, b
        if q.is_zero():
            return
        if exact:
            p, rp = p * q, rp * rq
        assert_same_division(p, q, rp, rq)

    @given(poly_pairs(), st.tuples(*[EXPONENTS] * 3), st.integers(1, 3))
    @DIFFERENTIAL
    def test_divide_by_monomial(self, a, exps, coeff):
        p, rp = a
        exps = exps[:p.n]
        q, rq = LaurentPolynomial(p.n, {exps: coeff}), TupleLaurent(p.n, {exps: coeff})
        assert_same_division(p, q, rp, rq)

    @given(dense_pairs())
    @DIFFERENTIAL
    def test_squares_and_cubes(self, a):
        # the square kernel (p * p, and each squaring inside **) against
        # the reference's products of distinct operands
        p, rp = a
        square = rp * rp
        for packed, reference in ((p * p, square), (p ** 2, square), (p ** 3, square * rp)):
            fresh = LaurentPolynomial(p.n, reference.terms)
            assert packed.terms == reference.terms
            assert packed == fresh and hash(packed) == hash(fresh)

    def test_square_cancels_a_cross_term_against_a_diagonal_term(self):
        # (1 + 2x - 2x^2)^2 has no x^2 term: 4x^2 from the diagonal, -4x^2 from
        # the cross terms; x^4 needs the 32-bit fields
        terms = {(0, 0): 1, (2**13, -1): 2, (2**14, -2): -2}
        p, rp = LaurentPolynomial(2, terms), TupleLaurent(2, terms)
        assert (2**14, -2) not in (p * p).terms
        assert same(p * p, rp * rp)
        assert p * p == p * LaurentPolynomial(2, terms) == p ** 2

    @given(dense_pairs(max_terms=12), dense_pairs(max_terms=12), st.integers(0, 2))
    @DIFFERENTIAL
    def test_divide_signed_products(self, a, b, variant):
        # q*r with signed q and r: the remainder cancels keys and meets them again
        (q, rq), (r, rr) = a, b
        if not q.is_zero():
            assert_signed_division(q, rq, r, rr, variant)

    @pytest.mark.parametrize("scale", [1, 2**13, 2**40])
    @pytest.mark.parametrize("variant", [0, 1, 2])
    def test_remainder_meets_a_cancelled_key_again(self, scale, variant):
        # dividing q*r by q cancels the remainder's constant term, and a later
        # step forms it again (found by a random search over such products)
        q = {(scale,): 2, (-scale,): -1, (-2 * scale,): -2}
        r = {(2 * scale,): -1, (scale,): 2, (-scale,): 1, (-2 * scale,): -3}
        assert_signed_division(LaurentPolynomial(1, q), TupleLaurent(1, q),
                               LaurentPolynomial(1, r), TupleLaurent(1, r), variant)

    @pytest.mark.parametrize("p, q", [("1", "1 + u1"), ("1 + u1^-4", "1 + u1")])
    def test_box_bound_ends_an_endless_division(self, p, q):
        # in lex order 1/(1 + u1) is the endless u1^-1 - u1^-2 + ...; the box
        # refuses it (empty for 1, past u1^-4 for 1 + u1^-4)
        with pytest.raises(NotDivisibleError, match="is not divisible by"):
            divide_exact(poly(p, 1), poly(q, 1))
        assert_same_division(poly(p, 1), poly(q, 1),
                             TupleLaurent(1, poly(p, 1).terms), TupleLaurent(1, poly(q, 1).terms))

    @given(poly_pairs(), st.data())
    @DIFFERENTIAL
    def test_structure(self, a, data):
        p, rp = a
        n = p.n
        g = tuple(data.draw(st.permutations(range(n))))
        assert same(p.permute_variables(g), rp.permute_variables(g))
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        orbits = [tuple(i for i in range(n) if labels[i] == o) for o in sorted(set(labels))]
        assert same(p.project(orbits), rp.project(orbits))
        if rp.terms:
            assert p.denominator_vector() == rp.denominator_vector()
        assert p.render() == rp.render()
        assert parse_polynomial(rp.render(), [f"u{i + 1}" for i in range(n)]) == p
