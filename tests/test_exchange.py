"""Exchange matrices: mutation, symmetrizers, DOT rendering, classification."""

import re
import time
from collections import deque
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterfold.exchange import (
    INT64_MAX,
    EntryOverflowError,
    ExchangeMatrix,
    NotSkewSymmetrizableError,
    _definiteness,
    _pivot,
    canonical_form,
    cartan_counterpart,
    classify,
    find_symmetrizer,
    to_dot,
)
from clusterfold import catalog
from clusterfold.explorer import mutation_class
from clusterfold.folding import quotient_matrix

A3 = ((0, -1, 0), (1, 0, 1), (0, -1, 0))
B2Q = ((0, -2), (1, 0))

# off-diagonal (c_ij, c_ji) pairs of small generalized Cartan matrices,
# weighted toward few values so that symmetric inputs are common
CARTAN_EDGES = [(0, 0)] * 3 + [(-1, -1)] * 3 + [(-1, -2), (-2, -1), (-2, -2), (-1, -3)]


def _relabel(cartan, p):
    """The matrix with vertex p[i] of ``cartan`` moved to position i."""
    return tuple(tuple(cartan[a][b] for b in p) for a in p)


def exchange_matrix(cartan) -> ExchangeMatrix:
    """The exchange matrix with b_ij = |c_ij| and b_ji = -|c_ji| for i < j,
    whose Cartan counterpart is the generalized Cartan matrix ``cartan``."""
    n = len(cartan)
    return ExchangeMatrix([[abs(cartan[i][j]) if i < j else -abs(cartan[i][j]) if i > j else 0
                            for j in range(n)] for i in range(n)])


def _least_relabeling(cartan):
    return min(_relabel(cartan, p) for p in permutations(range(len(cartan))))


def _isomorphic(a, b) -> bool:
    """Backtracking search for p with b[p[i]][p[j]] == a[i][j] for all i, j."""
    n = len(a)
    if len(b) != n:
        return False
    image = []

    def extend() -> bool:
        k = len(image)
        if k == n:
            return True
        for m in range(n):
            if m in image or b[m][m] != a[k][k]:
                continue
            if all(b[m][image[i]] == a[k][i] and b[image[i]][m] == a[i][k] for i in range(k)):
                image.append(m)
                if extend():
                    return True
                image.pop()
        return False

    return extend()


@st.composite
def _cartan_pairs(draw, max_n=6):
    """A small Cartan matrix and a relabeling of it, with one edge redrawn half the time."""
    n = draw(st.integers(1, max_n))
    a = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j], a[j][i] = draw(st.sampled_from(CARTAN_EDGES))
    b = [row[:] for row in a]
    if n > 1 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        b[i][j], b[j][i] = draw(st.sampled_from(CARTAN_EDGES))
    return tuple(map(tuple, a)), _relabel(b, draw(st.permutations(range(n))))


@st.composite
def skew_symmetric_matrices(draw, max_n=4, max_entry=3):
    n = draw(st.integers(2, max_n))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.integers(-max_entry, max_entry))
            entries[i][j] = v
            entries[j][i] = -v
    return ExchangeMatrix(entries)


@st.composite
def skew_symmetrizable_matrices(draw, max_n=5, max_multiple=2):
    """D*B skew-symmetric for a random D in {1,2,3}^n: b_ij = c*lcm/d_i."""
    n = draw(st.integers(2, max_n))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = draw(st.integers(-max_multiple, max_multiple))
            common = lcm(d[i], d[j])
            entries[i][j] = c * common // d[i]
            entries[j][i] = -c * common // d[j]
    return ExchangeMatrix(entries)


@st.composite
def bounded_skew_symmetrizable_rows(draw, max_n=5, max_entry=4):
    """The rows, as lists, of a skew-symmetrizable matrix with n <= max_n and
    |entries| <= max_entry: each pair past the bound is set to 0, which keeps
    D*B skew-symmetric."""
    rows = [list(row) for row in draw(skew_symmetrizable_matrices(max_n)).entries]
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if max(abs(row[j]), abs(rows[j][i])) > max_entry:
                row[j] = rows[j][i] = 0
    return rows


def fraction_symmetrizer(entries) -> tuple[int, ...]:
    """Reference: ratio propagation with Fractions, every pair checked."""
    n = len(entries)
    for i in range(n):
        if entries[i][i] != 0:
            raise NotSkewSymmetrizableError((i, i))
        for j in range(n):
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise NotSkewSymmetrizableError((i, j))
            if entries[i][j] != 0 and entries[i][j] * entries[j][i] > 0:
                raise NotSkewSymmetrizableError((i, j))
    d = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if entries[i][j] == 0:
                    continue
                implied = d[i] * Fraction(-entries[i][j], entries[j][i])
                if d[j] is None:
                    d[j] = implied
                    component.append(j)
                    stack.append(j)
                elif d[j] != implied:
                    raise NotSkewSymmetrizableError((i, j))
        scale = 1
        for i in component:
            scale = scale * d[i].denominator // gcd(scale, d[i].denominator)
        values = [int(d[i] * scale) for i in component]
        common = 0
        for v in values:
            common = gcd(common, v)
        for i, v in zip(component, values):
            d[i] = Fraction(v // common)
    return tuple(int(x) for x in d)


def fraction_definiteness(sym) -> tuple[bool, bool, int]:
    """Reference: symmetric Gaussian elimination over exact rationals.

    A negative pivot refutes semidefiniteness, as does a zero diagonal with
    a nonzero row.
    """
    n = len(sym)
    a = [[Fraction(x) for x in row] for row in sym]
    corank = 0
    definite = True
    semidefinite = True
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0:
            return False, False, 0
        if pivot == 0:
            definite = False
            if any(a[k][j] != 0 for j in range(k, n)):
                return False, False, 0
            corank += 1
            continue
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            factor = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return definite and semidefinite, semidefinite, corank


@st.composite
def symmetric_integer_matrices(draw, max_n=6):
    """Arbitrary symmetric matrices (mostly indefinite), Gram matrices G^T G
    of a k x n integer G (positive semidefinite, singular when k < n or G
    has dependent columns), and Gram matrices with one diagonal entry lowered."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(("arbitrary", "gram", "lowered gram")))
    if kind == "arbitrary":
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(st.integers(-4, 4))
        return a
    g = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
         for _ in range(draw(st.integers(1, n + 1)))]
    a = [[sum(row[i] * row[j] for row in g) for j in range(n)] for i in range(n)]
    if kind == "lowered gram":
        i = draw(st.integers(0, n - 1))
        a[i][i] -= draw(st.integers(1, 3))
    return a


def full_check_mutate(matrix, k):
    """Reference: the mutation kernel that checks every pair i <= j against
    the carried D, not only the pairs of rebuilt rows."""
    n = matrix.n
    b = matrix.entries
    positive = [(j, x) for j, x in enumerate(b[k]) if x > 0]
    negative = [(j, x) for j, x in enumerate(b[k]) if x < 0]
    rows = []
    for i, row in enumerate(b):
        bik = row[k]
        if i == k:
            rows.append(tuple(-x for x in row))
        elif bik == 0:
            rows.append(row)
        else:
            new = list(row)
            new[k] = -bik
            for j, bkj in positive if bik > 0 else negative:
                new[j] = row[j] + abs(bik) * bkj
            rows.append(tuple(new))
    d = matrix.symmetrizer
    for i in range(n):
        for j in range(i, n):
            if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                raise NotSkewSymmetrizableError((i, j))
    return tuple(rows), d


def rebuilt_rows_mutate(matrix, k):
    """Reference: the mutation kernel that reads b_ik of every row i to find
    the rows to rebuild, with the same checks in the same order."""
    b = matrix.entries
    positive = [(j, x) for j, x in enumerate(b[k]) if x > 0]
    negative = [(j, x) for j, x in enumerate(b[k]) if x < 0]
    rows = []
    rebuilt = []
    for i, row in enumerate(b):
        bik = row[k]
        if i == k:
            rows.append(tuple(-x for x in row))
        elif bik == 0:
            rows.append(row)
            continue
        else:
            new = list(row)
            new[k] = -bik
            weight = abs(bik)
            for j, bkj in positive if bik > 0 else negative:
                new[j] = row[j] + weight * bkj
                if abs(new[j]) > INT64_MAX:
                    raise EntryOverflowError(f"entry {new[j]} exceeds 64-bit range")
            rows.append(tuple(new))
        rebuilt.append(i)
    d = matrix.symmetrizer
    for a, i in enumerate(rebuilt):
        for j in rebuilt[a:]:
            if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                raise NotSkewSymmetrizableError((i, j))
    return tuple(rows), d


def outcome(function, matrix, k):
    """The result, or the type and witness (else message) of the error."""
    try:
        return function(matrix, k)
    except (EntryOverflowError, NotSkewSymmetrizableError) as exc:
        return type(exc), getattr(exc, "witness", str(exc))


def symmetrizer_or_witness(function, entries):
    try:
        return function(entries)
    except NotSkewSymmetrizableError as exc:
        return ("witness", exc.witness)


@st.composite
def small_integer_matrices(draw, max_n=5):
    """Arbitrary square matrices, nonzero diagonals and sign clashes included;
    half of them start skew-symmetrizable and get one entry perturbed."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        entries = [
            [draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
    else:
        start = draw(skew_symmetrizable_matrices(max_n=max(n, 2)))
        entries = [list(row) for row in start.entries]
        n = len(entries)
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        entries[i][j] += draw(st.integers(-1, 1))
    return entries


@st.composite
def skew_symmetric_entries(draw, min_n=0, max_n=5):
    """Raw rows with B^T = -B, the 0x0 and 1x1 matrices included, as lists
    or as tuples."""
    n = draw(st.integers(min_n, max_n))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.integers(-3, 3))
            entries[i][j], entries[j][i] = v, -v
    return tuple(map(tuple, entries)) if draw(st.booleans()) else entries


@st.composite
def perturbed_skew_symmetric_entries(draw, max_n=5):
    """A skew-symmetric matrix with one entry, diagonal ones included,
    changed, as lists or as tuples."""
    entries = [list(row) for row in draw(skew_symmetric_entries(1, max_n))]
    n = len(entries)
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1))
    entries[i][j] += draw(st.integers(-3, 3).filter(bool))
    return tuple(map(tuple, entries)) if draw(st.booleans()) else entries


class TestConstruction:
    def test_basic(self):
        m = ExchangeMatrix(A3)
        assert m.n == 3
        assert m.entries == A3

    def test_skew_symmetrizable_only(self):
        m = ExchangeMatrix(B2Q)
        assert m.symmetrizer == (1, 2)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NotSkewSymmetrizableError):
            ExchangeMatrix([[1, 0], [0, 0]])

    def test_rejects_sign_incoherence(self):
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            ExchangeMatrix([[0, 1], [1, 0]])
        assert exc.value.witness == (0, 1)

    def test_rejects_one_sided_zero(self):
        with pytest.raises(NotSkewSymmetrizableError):
            ExchangeMatrix([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1]])

    def test_overflow_rejected(self):
        with pytest.raises(EntryOverflowError):
            ExchangeMatrix([[0, 2**64], [-1, 0]])
        with pytest.raises(EntryOverflowError):
            ExchangeMatrix.from_symmetrizer(((0, 2**64), (-(2**64), 0)), (1, 1))

    @given(skew_symmetrizable_matrices())
    @settings(max_examples=100, deadline=None)
    def test_from_symmetrizer_matches_the_constructor(self, m):
        carried = ExchangeMatrix.from_symmetrizer(m.entries, m.symmetrizer)
        built = ExchangeMatrix(m.entries)
        assert (carried.entries, carried.symmetrizer) == (built.entries, built.symmetrizer)
        assert hash(carried) == hash(built)

    @given(small_integer_matrices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_symmetrizer_reports_the_first_failing_pair(self, entries, data):
        n = len(entries)
        rows = tuple(tuple(row) for row in entries)
        d = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        failing = [(i, j) for i in range(n) for j in range(i, n)
                   if d[i] * rows[i][j] != -d[j] * rows[j][i]]
        if failing:
            with pytest.raises(NotSkewSymmetrizableError) as exc:
                ExchangeMatrix.from_symmetrizer(rows, d)
            assert exc.value.witness == failing[0]
        else:
            assert ExchangeMatrix.from_symmetrizer(rows, d).symmetrizer == d


class TestSymmetrizer:
    def test_identity_for_skew_symmetric(self):
        assert ExchangeMatrix(A3).symmetrizer == (1, 1, 1)

    def test_minimality(self):
        # d_1 * (-2) == -(d_2 * 1)  =>  d = (1, 2), not (2, 4)
        assert find_symmetrizer(B2Q) == (1, 2)

    def test_disconnected_components_normalized_independently(self):
        m = ((0, -2, 0, 0), (1, 0, 0, 0), (0, 0, 0, -3), (0, 0, 1, 0))
        assert find_symmetrizer(m) == (1, 2, 1, 3)

    def test_component_rescaled_mid_traversal(self):
        # from d_0 = 1: d_1 = d_0 / 3 rescales the component by 3, then
        # d_2 = d_1 / 2 rescales it again by 2
        m = ((0, -1, 0), (3, 0, -1), (0, 2, 0))
        assert find_symmetrizer(m) == (6, 2, 1)

    def test_cycle_inconsistency_witness(self):
        # ratios around the cycle 0-1-2 multiply to 2, not 1
        m = ((0, 1, -1), (-2, 0, 1), (1, -1, 0))
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            find_symmetrizer(m)
        assert exc.value.witness == (2, 1)

    @given(small_integer_matrices())
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_reference(self, entries):
        assert symmetrizer_or_witness(find_symmetrizer, entries) == (
            symmetrizer_or_witness(fraction_symmetrizer, entries)
        )

    @given(skew_symmetrizable_matrices())
    @settings(max_examples=300, deadline=None)
    def test_valid_matrices_match_fraction_reference(self, m):
        # a pair drawn as 0 can split the matrix into components; list rows take the scan
        rows = [list(row) for row in m.entries]
        assert find_symmetrizer(m.entries) == find_symmetrizer(rows) == fraction_symmetrizer(rows)

    @given(skew_symmetric_entries())
    @settings(max_examples=300, deadline=None)
    def test_skew_symmetric_gets_all_ones(self, entries):
        assert find_symmetrizer(entries) == fraction_symmetrizer(entries) == (1,) * len(entries)

    @given(perturbed_skew_symmetric_entries())
    @settings(max_examples=400, deadline=None)
    def test_perturbed_skew_symmetric_matches_fraction_reference(self, entries):
        # the transpose test refuses these, so the scan's answer or witness counts
        assert symmetrizer_or_witness(find_symmetrizer, entries) == (
            symmetrizer_or_witness(fraction_symmetrizer, entries)
        )

    def test_empty_and_single_vertex(self):
        assert find_symmetrizer(()) == ()
        assert find_symmetrizer(((0,),)) == (1,)
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            find_symmetrizer(((2,),))
        assert exc.value.witness == (0, 0)

    @pytest.mark.parametrize("entries", [
        [[0, 1]],
        [[0], [0]],
        # as many entries as a 2x2 matrix, and the first column negates the
        # start of the first row: only the length of row 2 tells
        [[0, 1, 0], [-1]],
        [[0, -1], [1, 0, 7]],
        # the scan would read only b_00 and answer (1,)
        [[0, 0]],
    ])
    def test_non_square_input_is_refused(self, entries):
        for rows in (entries, tuple(map(tuple, entries))):
            with pytest.raises(ValueError, match="matrix must be square"):
                find_symmetrizer(rows)

    @given(skew_symmetric_matrices())
    @settings(max_examples=50, deadline=None)
    def test_symmetrizer_property(self, m):
        d = m.symmetrizer
        for i in range(m.n):
            assert d[i] >= 1
            for j in range(m.n):
                assert d[i] * m.entries[i][j] == -d[j] * m.entries[j][i]


class TestMutation:
    def test_a3_mutation_at_first_vertex(self):
        # mu_1 flips row/column 1 and adds nothing else (no 2-paths through 1)
        assert ExchangeMatrix(A3).mutate(0).entries == (
            (0, 1, 0),
            (-1, 0, 1),
            (0, -1, 0),
        )

    def test_path_contribution(self):
        # 1 -> 2 -> 3 quiver: mutating at 2 creates the arrow 1 -> 3
        m = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        assert m.mutate(1).entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))

    def test_valued_mutation(self):
        m = ExchangeMatrix(B2Q)
        assert m.mutate(0).entries == ((0, 2), (-1, 0))

    def test_out_of_range(self):
        m = ExchangeMatrix(A3)
        before = _pivot.cache_info()
        # b[-1] is the last row: a pivot split read before the range check would use it
        for k in (3, -1):
            with pytest.raises(IndexError):
                m.mutate(k)
        after = _pivot.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_a_pivot_row_shared_at_two_indices_is_split_per_index(self):
        # row (0, 1, 0) is the pivot row of `first` at 0 and of `last` at 2; the
        # rebuilt rows differ ({0, 1} and {1, 2}) though the entries would not, so
        # only the checked pairs of a corrupted D tell a split keyed by the row alone
        row = (0, 1, 0)
        first = ExchangeMatrix.from_symmetrizer((row, (-1, 0, 1), (0, -1, 0)), (1, 1, 1))
        last = ExchangeMatrix.from_symmetrizer(((0, -1, 0), (1, 0, -1), row), (1, 1, 1))
        cases = [(first, 0, (2, 1, 1)), (last, 2, (1, 1, 2))]
        for order in (cases, cases[::-1]):
            _pivot.cache_clear()
            for m, k, corrupt in order:
                hits = _pivot.cache_info().hits
                mutated = m.mutate(k)
                assert (mutated.entries, mutated.symmetrizer) == full_check_mutate(m, k)
                assert (mutated.entries, mutated.symmetrizer) == rebuilt_rows_mutate(m, k)
                bad = ExchangeMatrix.from_symmetrizer(m.entries, m.symmetrizer)
                bad._symmetrizer = corrupt
                expected = outcome(rebuilt_rows_mutate, bad, k)
                assert expected == outcome(full_check_mutate, bad, k)
                assert expected[0] is NotSkewSymmetrizableError
                assert outcome(ExchangeMatrix.mutate, bad, k) == expected
                assert _pivot.cache_info().hits >= hits + 1  # the corrupted copy reused the split
            assert _pivot.cache_info().misses == 2

    def test_children_at_equal_pivot_rows_share_one_negated_row(self):
        a = ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
        b = ExchangeMatrix(((0, 1, 0), (-1, 0, -1), (0, 1, 0)))
        assert a.entries[0] == b.entries[0] and a.entries[1] != b.entries[1]
        x, y = a.mutate(0), b.mutate(0)
        assert x.entries[0] == (0, -1, 0) and x.entries[0] is y.entries[0]
        assert x.entries[1:] != y.entries[1:]

    def test_class_search_makes_the_same_calls_cold_and_warm(self, monkeypatch):
        calls = []
        mutate = ExchangeMatrix.mutate

        def counted(self, k):
            calls.append(k)
            return mutate(self, k)

        monkeypatch.setattr(ExchangeMatrix, "mutate", counted)
        matrix = catalog.folding_pair("A5toC3").pair.matrix
        _pivot.cache_clear()
        for _ in ("cold", "warm"):
            calls.clear()
            report = mutation_class(matrix)
            assert (report.verdict, report.size, len(calls)) == ("finite", 1980, 2710)

    def test_rows_without_an_edge_to_k_are_reused(self):
        m = ExchangeMatrix(((0, -2, 0, 0), (1, 0, 1, 0), (0, -1, 0, 3), (0, 0, -1, 0)))
        mutated = m.mutate(0)
        assert mutated.entries[2] is m.entries[2]
        assert mutated.entries[3] is m.entries[3]
        assert mutated.entries[1] == (-1, 0, 1, 0)
        # row k is rebuilt as a new tuple, -row k
        assert mutated.entries[0] == (0, 2, 0, 0) and mutated.entries[0] is not m.entries[0]

    def test_overflow_raised_by_mutate(self):
        # row 3 has no edge to vertex 1 and is reused; row 0 gains
        # b_01 * b_12 = 2**64 and must be rejected
        big = 2**32
        m = ExchangeMatrix(
            ((0, big, 0, 0), (-big, 0, big, 0), (0, -big, 0, 1), (0, 0, -1, 0))
        )
        for _ in range(2):  # the second split comes from the pivot table and raises again
            with pytest.raises(EntryOverflowError):
                m.mutate(1)
        assert m.entries[0] == (0, big, 0, 0)

    def test_rejects_result_inconsistent_with_carried_symmetrizer(self):
        m = ExchangeMatrix(B2Q)
        m._symmetrizer = (1, 1)  # corrupt the carried D
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            m.mutate(0)
        assert exc.value.witness == (0, 1)

    @given(skew_symmetrizable_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_check_reference(self, m):
        for k in range(m.n):
            mutated = m.mutate(k)
            assert (mutated.entries, mutated.symmetrizer) == full_check_mutate(m, k)

    @given(skew_symmetrizable_matrices(), st.sampled_from(["valid", "corrupted D", "overflow"]),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_rebuilt_rows_reference(self, m, case, data):
        # the same results, and the same first failing entry or pair on error
        entries = m.entries
        if case == "overflow":  # entries up to 12 * 2**31, products past 2**63
            entries = [[x * 2**31 for x in row] for row in entries]
        start = ExchangeMatrix(entries)
        if case == "corrupted D":
            start._symmetrizer = tuple(
                data.draw(st.lists(st.integers(1, 4), min_size=m.n, max_size=m.n))
            )
        for k in range(m.n):
            expected = outcome(rebuilt_rows_mutate, start, k)
            got = outcome(ExchangeMatrix.mutate, start, k)
            if isinstance(got, ExchangeMatrix):
                got = got.entries, got.symmetrizer
            assert got == expected

    @given(skew_symmetrizable_matrices())
    @settings(max_examples=100, deadline=None)
    def test_carried_symmetrizer_is_the_minimal_one(self, m):
        for k in range(m.n):
            mutated = m.mutate(k)
            assert mutated.symmetrizer == m.symmetrizer
            assert mutated.symmetrizer == find_symmetrizer(mutated.entries)
            assert mutated == ExchangeMatrix(mutated.entries)

    @given(skew_symmetrizable_matrices(), st.booleans())
    @example(ExchangeMatrix([[0, 2, 0], [-1, 0, 0], [0, 0, 0]]), False)
    @settings(max_examples=100, deadline=None)
    def test_involution_keeps_entries_and_symmetrizer(self, m, isolate):
        # what the labeled class BFS relies on to take each edge's way back unmutated
        if isolate:  # an isolated last vertex, where mu_k B = B
            m = ExchangeMatrix([row + (0,) for row in m.entries] + [(0,) * (m.n + 1)])
        for k in range(m.n):
            back = m.mutate(k).mutate(k)
            assert (back.entries, back.symmetrizer) == (m.entries, m.symmetrizer)
        if isolate:
            assert m.mutate(m.n - 1).entries == m.entries

    @pytest.mark.parametrize("name", ["A5toC3", "D4toG2"])
    def test_closed_class_members_carry_recomputed_symmetrizer(self, name):
        pair = catalog.folding_pair(name).pair
        for start in (pair.matrix, quotient_matrix(pair)):
            found = {start.entries: start}
            queue = deque([start])
            while queue:
                current = queue.popleft()
                for k in range(current.n):
                    neighbor = current.mutate(k)
                    if neighbor.entries not in found:
                        found[neighbor.entries] = neighbor
                        queue.append(neighbor)
            report = mutation_class(start)
            assert report.finite and set(report.search.visited) == set(found)
            for entries, member in found.items():
                assert member.symmetrizer == find_symmetrizer(entries)

    @given(skew_symmetric_matrices(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_involution(self, m, k):
        k %= m.n
        assert m.mutate(k).mutate(k) == m

    @given(bounded_skew_symmetrizable_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutations_at_unjoined_vertices_commute(self, rows, data):
        # the identity behind the class search's squares: b_jk = 0 gives
        # mu_j B = mu_k mu_j mu_k B
        j, k = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                                  unique=True))
        rows[j][k] = rows[k][j] = 0
        b = ExchangeMatrix(rows)
        assert b.mutate(j) == b.mutate(k).mutate(j).mutate(k)

    @given(skew_symmetric_matrices(), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_mutation_preserves_symmetrizer(self, m, k):
        k %= m.n
        # the same diagonal keeps working after mutation
        d = m.symmetrizer
        mutated = m.mutate(k)
        for i in range(m.n):
            for j in range(m.n):
                assert d[i] * mutated.entries[i][j] == -d[j] * mutated.entries[j][i]


def parse_dot(text):
    """(labels, entries) read back off the vertex and edge lines of :func:`to_dot`:
    an edge s -> t labelled (a,b) gives b_st = a and b_ts = -b."""
    labels = re.findall(r'^  v\d+ \[label="(.*)"\];$', text, re.MULTILINE)
    n = len(labels)
    entries = [[0] * n for _ in range(n)]
    edges = re.findall(r'^  v(\d+) -> v(\d+) \[label="\((-?\d+),(-?\d+)\)"\];$', text, re.MULTILINE)
    for s, t, a, b in edges:
        s, t = int(s), int(t)
        assert entries[s][t] == entries[t][s] == 0, "an edge drawn twice"
        entries[s][t], entries[t][s] = int(a), -int(b)
    lines = text.splitlines()
    assert (lines[0], lines[-1], len(lines)) == ("digraph Q {", "}", n + len(edges) + 2)
    pairs = [tuple(sorted(map(int, edge[:2]))) for edge in edges]
    assert pairs == sorted(pairs), "edges out of row-major order"
    return tuple(labels), tuple(map(tuple, entries))


class TestValuedGraph:
    def test_edges(self):
        assert to_dot(ExchangeMatrix(A3), "123").splitlines()[4:6] == [
            '  v1 -> v0 [label="(1,1)"];',
            '  v1 -> v2 [label="(1,1)"];',
        ]

    def test_valued_edge(self):
        assert to_dot(ExchangeMatrix([[0, -1], [4, 0]]), ["1", "2"]) == (
            'digraph Q {\n  v0 [label="1"];\n  v1 [label="2"];\n'
            '  v1 -> v0 [label="(4,1)"];\n}\n'
        )

    @given(bounded_skew_symmetrizable_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, rows, data):
        labels = data.draw(st.lists(st.text("abxy12_", min_size=1, max_size=3),
                                    min_size=len(rows), max_size=len(rows)))
        m = ExchangeMatrix(rows)
        assert parse_dot(to_dot(m, labels)) == (tuple(labels), m.entries)

    def test_dot_output(self):
        text = to_dot(ExchangeMatrix(B2Q), ["1", "2"])
        assert "digraph" in text
        assert '[label="(1,2)"]' in text


class TestClassification:
    def test_finite_types(self):
        assert catalog.diagram_name(ExchangeMatrix(A3)) == "A3"
        m = ExchangeMatrix(B2Q)
        assert (classify(m), catalog.diagram_name(m)) == ("Finite", "B2")

    def test_affine_types(self):
        kron = ExchangeMatrix([[0, 2], [-2, 0]])
        assert (classify(kron), catalog.diagram_name(kron)) == ("Affine", "~A1")
        a12 = ExchangeMatrix([[0, -1], [4, 0]])
        assert (classify(a12), catalog.diagram_name(a12)) == ("Affine", "~A1(2)")

    def test_indefinite(self):
        m = ExchangeMatrix([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])
        assert classify(m) == "Indefinite"
        assert catalog.diagram_name(m) is None

    def test_every_named_diagram_classifies_as_its_own_name(self):
        for tag in ("Finite", "Affine"):
            for name, cartan in catalog.named_cartan_matrices(tag):
                m = exchange_matrix(cartan)
                assert classify(m) == tag, name
                assert catalog.diagram_name(m) == name, (name, catalog.diagram_name(m))

    def test_named_diagrams_are_pairwise_distinct(self):
        # diagram naming is only well defined if no two same-tag references
        # of equal rank are isomorphic
        for tag in ("Finite", "Affine"):
            refs = catalog.named_cartan_matrices(tag)
            for i, (name_a, a) in enumerate(refs):
                assert _isomorphic(a, _relabel(a, range(len(a) - 1, -1, -1))), name_a
                for name_b, b in refs[i + 1 :]:
                    assert not _isomorphic(a, b), (name_a, name_b)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_relabeled_named_diagram_keeps_its_name(self, data):
        tag = data.draw(st.sampled_from(("Finite", "Affine")))
        name, cartan = data.draw(st.sampled_from(catalog.named_cartan_matrices(tag)))
        p = data.draw(st.permutations(range(len(cartan))))
        m = exchange_matrix(_relabel(cartan, p))
        assert (classify(m), catalog.diagram_name(m)) == (tag, name)

    @given(_cartan_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_canonical_form_matches_brute_force_minimum(self, pair):
        a, b = pair
        form = canonical_form(a)
        assert form in {_relabel(a, p) for p in permutations(range(len(a)))}
        assert (form == canonical_form(b)) == (_least_relabeling(a) == _least_relabeling(b))

    @pytest.mark.parametrize("blocks", [[((2,),)] * 12, [((2, -1), (-1, 2))] * 6])
    def test_disconnected_rank_12_is_unnamed_and_fast(self, blocks):
        n = sum(len(block) for block in blocks)
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        start = 0
        for block in blocks:
            for i, row in enumerate(block):
                cartan[start + i][start : start + len(row)] = row
            start += len(block)
        matrix = exchange_matrix(cartan)
        began = time.perf_counter()
        kind = (classify(matrix), catalog.diagram_name(matrix))
        assert time.perf_counter() - began < 1.0
        assert kind == ("Finite", None)

    @given(skew_symmetrizable_matrices())
    @example(ExchangeMatrix(B2Q))
    @example(ExchangeMatrix([[0, -1], [4, 0]]))
    # G2 beside B2: D = (1, 3, 1, 2) on two components
    @example(ExchangeMatrix([[0, -3, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 1, 0]]))
    @settings(max_examples=300, deadline=None)
    def test_tag_matches_the_rederived_symmetrizer_reference(self, m):
        # the independent route: D re-derived from A's skew pattern with
        # Fractions, then DA classified by rational elimination
        cartan = cartan_counterpart(m)
        d = fraction_symmetrizer([[0 if i == j else -c if i < j else c for j, c in enumerate(row)]
                                  for i, row in enumerate(cartan)])
        definite, semidefinite, corank = fraction_definiteness(
            [[d[i] * c for c in row] for i, row in enumerate(cartan)])
        tag = "Finite" if definite else "Affine" if semidefinite and corank == 1 else "Indefinite"
        assert classify(m) == tag

    @given(symmetric_integer_matrices())
    @settings(max_examples=600, deadline=None, derandomize=True)
    @example([[0]])
    @example([[1, 1], [1, 1]])  # singular, positive semidefinite
    @example([[0, 1], [1, 0]])  # a zero pivot with a nonzero row
    @example([[1, 2], [2, 1]])  # a negative pivot
    @example([[0, 0, 0], [0, 2, 1], [0, 1, 2]])  # a zero row skipped before positive pivots
    def test_integer_definiteness_matches_the_fraction_reference(self, sym):
        assert _definiteness(sym) == fraction_definiteness(sym)

    def test_a_division_with_a_remainder_raises(self):
        # only a non-integer matrix can leave one: its leading 3 x 3 minor is 5/2
        sym = [[2, 1, 1], [1, 2, 1], [1, 1, Fraction(3, 2)]]
        with pytest.raises(AssertionError, match="remainder"):
            _definiteness(sym)
