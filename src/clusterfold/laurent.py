"""Exact multivariate Laurent polynomial arithmetic over the integers.

A Laurent polynomial in n variables is a finitely supported map from
integer exponent vectors (length n, entries may be negative) to nonzero
integer coefficients.  Coefficients are plain Python ints, so there is
no overflow; all operations are exact.

Packed exponents.  Each term's exponent vector e is stored as one Python
int, its key

    P(e) = sum over i of (e_i + 2**(w-1)) << (w * (n - 1 - i)),

a biased field of w bits per variable with variable 1 in the most
significant field.  While every field holds a value in [0, 2**w), that
is |e_i| < 2**(w-1), no field spills into the next, so comparing two keys
as integers compares their fields from variable 1 down: integer order on
keys is lexicographic order on exponent vectors.  Rendering and the
leading terms of :func:`divide_exact` therefore see the same order as on
tuples.  P is affine on Z^n, so P(a + b) = P(a) + P(b) - P(0): a
monomial product is one integer addition and a monomial quotient one
subtraction.  Public signatures still take and return tuple exponents.

The exponent-range rule.  A polynomial carries its field width w and an
upper bound m on the magnitude of its exponents.  An operation works at
the common width 16 only when both operands have it and the bounds keep
every field it forms in range (|exponent| < 2**15: for a product or a
quotient, m_1 + m_2 < 2**15).  Otherwise it repacks the operands at the
first width of the ladder 16, 32, 64, ... that holds the bound, and
packs the result at the first width that holds its exact largest
exponent.  The width is thus a function of the polynomial alone, so
equal polynomials have equal keys, and no field wraps for any exponent.

Ends.  Lex order on Z^n is compatible with addition: a < b implies
a + c < b + c.  So in a product p * q the largest exponent vector arises
only as lead(p) + lead(q) and the smallest only as trail(p) + trail(q),
and neither term can cancel.  Hence an exact quotient r = p / q has
lead(r) = lead(p) - lead(q) and trail(r) = trail(p) - trail(q), which
:meth:`LaurentPolynomial.ends` reads as the largest and smallest key; and
since the Laurent ring is an integral domain, r * q == p pins r down.

The kernels.  A square (``p * p`` on one object, as in ``**``) forms each
cross term once, as 2*c_i*c_j; :func:`divide_exact` takes each leading
term from an ascending list of the remainder's keys.
"""

from __future__ import annotations

import re
from bisect import insort
from collections.abc import Iterable, Mapping
from functools import lru_cache

_WIDTH = 16  # the common field width; wider fields only for larger exponents
# multiply-adds one product of non-monomials, or one division by a non-monomial,
# may take; ** squares, so powers too
MAX_WORK = 1 << 22


class NotDivisibleError(ArithmeticError):
    """Raised by :func:`divide_exact` when the quotient is not a Laurent polynomial."""


class LimitExceededError(RuntimeError):
    """A computation hit a limit before it could decide."""


def _width(bound: int) -> int:
    """The first field width of the ladder 16, 32, 64, ... holding |exponent| <= bound."""
    w = _WIDTH
    while bound >> (w - 1):
        w *= 2
    return w


@lru_cache(maxsize=None)
def _layout(n: int, w: int) -> tuple[tuple[int, ...], int, int]:
    """(shifts, P(0), field mask) of n fields of w bits, variable 1 first."""
    shifts = tuple(w * (n - 1 - i) for i in range(n))
    half = 1 << (w - 1)
    return shifts, sum(half << s for s in shifts), (1 << w) - 1


@lru_cache(maxsize=None)
def _projection(n: int, w: int, orbits: tuple[tuple[int, ...], ...], target_w: int):
    """(moves, offset, mask) of the projection of n fields of w bits onto one field
    of target_w bits per orbit; ValueError, on every call, unless the orbits
    partition 0..n-1.  Each field moves, unbiased, to its orbit's field and adds
    there: a key maps to offset + sum of ((key >> source) & mask) << target."""
    if sorted(i for orbit in orbits for i in orbit) != list(range(n)):
        raise ValueError("orbits must partition the variable indices")
    shifts, _, mask = _layout(n, w)
    targets, zero, _ = _layout(len(orbits), target_w)
    moves = tuple((shifts[i], t) for t, orbit in zip(targets, orbits) for i in orbit)
    return moves, zero - sum((1 << (w - 1)) << t for _, t in moves), mask


class LaurentPolynomial:
    """An immutable Laurent polynomial with integer coefficients.

    Terms are stored in a dict mapping packed exponent keys (see the
    module docstring) to coefficients; zero coefficients are never
    stored, and the field width is a function of the polynomial, so
    equality of the term maps is equality of polynomials.  The canonical
    term order used for printing is lexicographic on exponent vectors,
    largest first, which is decreasing key order.
    """

    __slots__ = ("n", "_w", "_m", "_terms", "_box", "_ends", "_hash")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent vector {exps} has wrong length (expected {n})")
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        bound = max((abs(e) for exps in clean for e in exps), default=0)
        w = _width(bound)
        self._set(n, w, bound, _packed(n, w, clean))

    def _set(self, n: int, w: int, bound: int, terms: dict[int, int]) -> None:
        self.n = n
        self._w = w
        self._m = bound
        self._terms = terms
        self._box = self._ends = self._hash = None

    @classmethod
    def _from_keys(cls, n: int, w: int, bound: int, terms: dict[int, int]) -> "LaurentPolynomial":
        """A polynomial from keys of its own (canonical) width w."""
        poly = cls.__new__(cls)
        poly._set(n, w, bound, terms)
        return poly

    @classmethod
    def _result(cls, n: int, w: int, bound: int, terms: dict[int, int]) -> "LaurentPolynomial":
        """An operation's result from keys of width w, where bound < 2**(w-1).

        At the narrowest width that is already the canonical width; a
        wider result is repacked at the width of its exact exponents.
        """
        if w == _WIDTH:
            return cls._from_keys(n, w, bound, terms)
        return cls(n, _unpacked(n, w, terms))

    def _keys(self, w: int) -> dict[int, int]:
        """The term map with keys at a width w no smaller than this one's."""
        return self._terms if w == self._w else _packed(self.n, w, self.terms)

    def _bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-variable minimal and maximal exponents (cached); needs a nonzero polynomial."""
        if self._box is None:
            shifts, _, mask = _layout(self.n, self._w)
            half = 1 << (self._w - 1)
            lo, hi = [], []
            for s in shifts:
                fields = [(key >> s) & mask for key in self._terms]
                lo.append(min(fields) - half)
                hi.append(max(fields) - half)
            self._box = (tuple(lo), tuple(hi))
        return self._box

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPolynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("variable count must be non-negative")
        return cls._from_keys(n, _WIDTH, 0, {_layout(n, _WIDTH)[1]: 1})

    @classmethod
    def variable(cls, i: int, n: int) -> "LaurentPolynomial":
        """The i-th variable (0-based) as a polynomial in n variables."""
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for {n} variables")
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): 1})

    # -- basic queries -----------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return _unpacked(self.n, self._w, self._terms)

    def ends(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The lex-largest and lex-smallest exponent vectors (cached); needs a nonzero polynomial."""
        if self._ends is None:
            shifts, _, mask = _layout(self.n, self._w)
            half = 1 << (self._w - 1)
            lead, trail = max(self._terms), min(self._terms)
            self._ends = (tuple([((lead >> s) & mask) - half for s in shifts]),
                          tuple([((trail >> s) & mask) - half for s in shifts]))
        return self._ends

    def is_zero(self) -> bool:
        return not self._terms

    def is_positive(self) -> bool:
        """True iff every stored coefficient is positive (vacuously true for 0)."""
        return all(c > 0 for c in self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.n == other.n and self._w == other._w and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._w, frozenset(self._terms.items())))
        return self._hash

    # -- ring operations ---------------------------------------------

    def _check_compatible(self, other: "LaurentPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched variable counts: {self.n} vs {other.n}")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_compatible(other)
        w = max(self._w, other._w)
        terms = dict(self._keys(w))
        for key, coeff in other._keys(w).items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                del terms[key]
        return LaurentPolynomial._result(self.n, w, max(self._m, other._m), terms)

    def __neg__(self) -> "LaurentPolynomial":
        negated = {key: -c for key, c in self._terms.items()}
        return LaurentPolynomial._from_keys(self.n, self._w, self._m, negated)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_compatible(other)
        bound = self._m + other._m
        w = _width(bound)
        a, b = self._keys(w), other._keys(w)
        if len(a) < len(b):
            a, b = b, a
        zero = _layout(self.n, w)[1]
        if len(b) == 1:
            # a monomial factor: one key shift per term
            ((key, coeff),) = b.items()
            shift = key - zero
            terms = {k + shift: c * coeff for k, c in a.items()}
        else:
            if len(a) * len(b) > MAX_WORK:
                raise LimitExceededError(f"a product of {len(a)} by {len(b)} terms "
                                         f"passes the bound of {MAX_WORK} multiply-adds")
            terms = {}
            get = terms.get
            shifted = [(key - zero, coeff) for key, coeff in b.items()]
            if other is self:
                # a square: each diagonal term, then each cross term once, doubled
                for i, (k1, c1) in enumerate(a.items()):
                    key = k1 + shifted[i][0]
                    terms[key] = get(key, 0) + c1 * c1
                    c1 += c1
                    for shift, c2 in shifted[i + 1:]:
                        key = k1 + shift
                        terms[key] = get(key, 0) + c1 * c2
            else:
                for k1, c1 in a.items():
                    for shift, c2 in shifted:
                        key = k1 + shift
                        terms[key] = get(key, 0) + c1 * c2
            for key in [key for key, c in terms.items() if not c]:
                del terms[key]
        return LaurentPolynomial._result(self.n, w, bound, terms)

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPolynomial.one(self.n) if result is None else result

    # -- structural operations ---------------------------------------

    def denominator_vector(self) -> tuple[int, ...]:
        """The negatives of the per-variable minimal exponents.

        For the initial variable u_i this is -1 in coordinate i (the
        almost-positive-root convention).  Undefined for zero.
        """
        if not self._terms:
            raise ValueError("denominator vector of the zero polynomial is undefined")
        return tuple(-m for m in self._bounds()[0])

    def permute_variables(self, g: tuple[int, ...]) -> "LaurentPolynomial":
        """Relabel variables u_j -> u_{g[j]} for a permutation g of 0..n-1: the
        projection onto the one-vertex orbits (g^-1(0),), (g^-1(1),), ...."""
        if len(g) != self.n:
            raise ValueError("permutation length mismatch")
        if sorted(g) != list(range(self.n)):
            raise ValueError(f"{tuple(g)} is not a permutation of the variable indices")
        return self.project([(j,) for j in sorted(range(self.n), key=g.__getitem__)])

    def project(self, orbits: Iterable[Iterable[int]]) -> "LaurentPolynomial":
        """Apply the orbit projection u_i -> v_{orbit of i}.

        This is the ring homomorphism sending each variable to the
        variable of its orbit; the image exponent of an orbit is the sum
        of the exponents of its members.  Colliding monomials add.
        """
        orbits = tuple(map(tuple, orbits))
        bound = self._m * max(map(len, orbits), default=0)
        w = _width(bound)
        moves, offset, mask = _projection(self.n, self._w, orbits, w)
        terms: dict[int, int] = {}
        for key, coeff in self._terms.items():
            new = offset
            for source, target in moves:
                new += ((key >> source) & mask) << target
            terms[new] = terms.get(new, 0) + coeff
        for key in [key for key, c in terms.items() if not c]:
            del terms[key]
        return LaurentPolynomial._result(len(orbits), w, bound, terms)

    # -- rendering and parsing ---------------------------------------

    def render(self) -> str:
        """Canonical human-readable form in u1..un, terms in decreasing lex order."""
        if not self._terms:
            return "0"
        names = [f"u{i + 1}" for i in range(self.n)]
        terms = self.terms
        pieces = []
        for exps in sorted(terms, reverse=True):
            coeff = terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e != 0
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.render()!r})"


def _packed(n: int, w: int, terms: Mapping[tuple[int, ...], int]) -> dict[int, int]:
    """The term map with exponent tuples as keys of width w."""
    shifts, zero, _ = _layout(n, w)
    packed = {}
    for exps, coeff in terms.items():
        key = zero
        for e, s in zip(exps, shifts):
            key += e << s
        packed[key] = coeff
    return packed


def _unpacked(n: int, w: int, terms: dict[int, int]) -> dict[tuple[int, ...], int]:
    """The term map with keys of width w as exponent tuples."""
    shifts, _, mask = _layout(n, w)
    half = 1 << (w - 1)
    return {
        tuple(((key >> s) & mask) - half for s in shifts): coeff
        for key, coeff in terms.items()
    }


_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_polynomial(text: str, names: list[str]) -> LaurentPolynomial:
    """Parse the grammar produced by :meth:`LaurentPolynomial.render`.

    Accepts an optional leading sign, terms separated by ``+``/``-``,
    factors separated by ``*``, and ``name^exp`` powers.  A ``(num)/mono``
    form is not accepted; golden files use the flat rendering.
    """
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if not text:
        raise ValueError("cannot parse an empty polynomial")
    if text == "0":
        return LaurentPolynomial.zero(n)
    # normalize to a list of signed terms
    chunks = re.split(r"(?<![\^*])\s*([+-])\s*", "+" + text if text[0] not in "+-" else text)
    chunks = [c for c in chunks if c.strip()]
    if len(chunks) % 2 != 0:
        raise ValueError(f"cannot parse polynomial: {text!r}")
    terms: dict[tuple[int, ...], int] = {}
    for sign, body in zip(chunks[::2], chunks[1::2]):
        coeff = 1 if sign == "+" else -1
        exps = [0] * n
        for factor in body.split("*"):
            factor = factor.strip()
            if re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m or m.group(1) not in index:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            exps[index[m.group(1)]] += int(m.group(2) or 1)
        e = tuple(exps)
        new = terms.get(e, 0) + coeff
        if new:
            terms[e] = new
        else:
            terms.pop(e, None)
    return LaurentPolynomial(n, terms)


def divide_exact(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Return r with r*q == p exactly, or raise :class:`NotDivisibleError`.

    Division by a monomial is one checked key shift per term.  Otherwise
    it uses leading-term elimination in lexicographic order.  When the
    quotient exists, its support lies in the coordinatewise box
    [min(p)-min(q), max(p)-max(q)] because extreme terms of a product
    cannot cancel; any candidate term outside that box proves
    non-divisibility, which bounds the loop.

    The remainder's keys are kept ascending in a list whose last key is
    the lead.  A key a step creates lies below the lead and is inserted in
    order; a key that cancels keeps a zero coefficient and is skipped when
    it surfaces, so the leads are those of taking the largest key each time.
    Each quotient term costs one multiply-add per divisor term, so a
    division whose quotient terms times divisor terms would pass
    ``MAX_WORK`` raises :class:`LimitExceededError` before the term that
    passes it.
    """
    p._check_compatible(q)
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    n = p.n
    if p.is_zero():
        return LaurentPolynomial.zero(n)
    # Every remainder term stays in p's box and every candidate quotient
    # term lies within p_m + q_m of the origin, so at this width no field
    # of any key formed below leaves its range.
    bound = p._m + q._m
    w = _width(bound)
    dividend, divisor = p._keys(w), q._keys(w)
    shifts, zero, mask = _layout(n, w)
    lead_q = max(divisor)
    cq = divisor[lead_q]
    quotient: dict[int, int] = {}
    if len(divisor) == 1:
        shift = lead_q - zero
        for key, cp in dividend.items():
            if cp % cq != 0:
                raise NotDivisibleError(f"{p.render()} is not divisible by {q.render()}")
            quotient[key - shift] = cp // cq
        return LaurentPolynomial._result(n, w, bound, quotient)
    (p_lo, p_hi), (q_lo, q_hi) = p._bounds(), q._bounds()
    lo = tuple(a - b for a, b in zip(p_lo, q_lo))
    hi = tuple(a - b for a, b in zip(p_hi, q_hi))
    if any(l > h for l, h in zip(lo, hi)):
        raise NotDivisibleError(f"{p.render()} is not divisible by {q.render()}")
    half = 1 << (w - 1)
    box = [(s, l + half, h + half) for s, l, h in zip(shifts, lo, hi)]
    steps = [(key - lead_q, coeff) for key, coeff in divisor.items() if key != lead_q]
    remainder = dict(dividend)
    order = sorted(remainder)
    get = remainder.get
    most = MAX_WORK // len(divisor)  # quotient terms within the bound
    while order:
        lead_p = order.pop()
        cp = remainder.pop(lead_p)
        if not cp:
            continue
        if cp % cq != 0:
            raise NotDivisibleError(f"{p.render()} is not divisible by {q.render()}")
        t = lead_p - lead_q + zero
        for s, l, h in box:
            if not l <= (t >> s) & mask <= h:
                raise NotDivisibleError(f"{p.render()} is not divisible by {q.render()}")
        if len(quotient) == most:
            raise LimitExceededError(f"a division to {most + 1} quotient terms by {len(divisor)} "
                                     f"divisor terms passes the bound of {MAX_WORK} multiply-adds")
        c = cp // cq
        quotient[t] = c
        for step, coeff_q in steps:
            key = lead_p + step
            old = get(key)
            if old is None:
                insort(order, key)
                remainder[key] = -c * coeff_q
            else:
                remainder[key] = old - c * coeff_q
    bound = max(max(-l, h) for l, h in zip(lo, hi))
    return LaurentPolynomial._result(n, w, bound, quotient)
