"""Skew-symmetrizable integer matrices, mutation, Cartan types and canonical forms.

Entries are kept within signed 64-bit range with checked arithmetic:
mutation of indefinite-type matrices can blow entries up, and explorers
must see a clean error instead of silent wraparound.

Mutation splits a pivot row once per process, in ``_pivot``: a bounded
table of a pure function of (row k, k).

Vertices are 0-based throughout the library; files and reports number
them from 1.  Diagram names live in :mod:`clusterfold.catalog`: this
module imports no other clusterfold module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from math import gcd
from operator import neg

INT64_MAX = 2**63 - 1


class EntryOverflowError(OverflowError):
    """An exchange-matrix entry left the signed 64-bit range."""


class NotSkewSymmetrizableError(ValueError):
    """No positive diagonal D makes D*B skew-symmetric.

    ``witness`` is a pair (i, j), 0-based, at which every candidate
    symmetrizer fails.
    """

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"matrix is not skew-symmetrizable, witness entry pair {witness}")


def _check_entry(value: int) -> int:
    if abs(value) > INT64_MAX:
        raise EntryOverflowError(f"entry {value} exceeds 64-bit range")
    return value


def find_symmetrizer(entries) -> tuple[int, ...]:
    """Minimal positive integer diagonal d with d_i*b_ij == -d_j*b_ji.

    Works by ratio propagation over the graph of nonzero entries, in
    integers: each component starts at d = 1 on its first vertex, and a
    component whose values cannot carry the next ratio is rescaled as a
    whole by the least factor s that makes the new value integral.  So
    the values of a component stay coprime, which makes them minimal: a
    new value keeps a coprime set coprime, and a rescale by
    s = |b_ji|/g, with g = gcd(d_i*b_ij, b_ji), gives the new vertex
    |d_i*b_ij|/g, which is coprime to s.  Raises
    :class:`NotSkewSymmetrizableError` with a witness pair.

    Rows given as a tuple of tuples, as :class:`ExchangeMatrix` keeps
    them, are first compared with the negated columns in one tuple
    comparison, which holds exactly when the matrix is square with
    B^T = -B; such a matrix gets all ones at once.  That answer is exact:
    B^T = -B gives a zero diagonal, sign coherence and the ratio 1 on every
    edge, so ones satisfy every pair and are minimal; and all ones satisfy
    d_i*b_ij == -d_j*b_ji only when B^T = -B.  Any other input takes the
    scan, so its symmetrizer or witness is the scan's; a matrix that is
    not square raises ValueError first.
    """
    n = len(entries)
    if entries == tuple(zip(*map(map, repeat(neg), entries))):
        return (1,) * n
    if any(len(row) != n for row in entries):
        raise ValueError("matrix must be square")
    # The pattern checks are symmetric in (i, j), so scanning j > i finds the
    # same first failure as a scan of every pair in row-major order.
    for i in range(n):
        row = entries[i]
        if row[i] != 0:
            raise NotSkewSymmetrizableError((i, i))
        for j in range(i + 1, n):
            bij = row[j]
            bji = entries[j][i]
            if bij == 0:
                if bji != 0:
                    raise NotSkewSymmetrizableError((i, j))
            elif bji == 0 or (bij > 0) == (bji > 0):
                raise NotSkewSymmetrizableError((i, j))
    d = [0] * n
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j, bij in enumerate(entries[i]):
                if bij == 0:
                    continue
                bji = entries[j][i]
                # d_j must equal d_i * (-b_ij) / b_ji, a positive ratio
                implied = -d[i] * bij
                if d[j]:
                    if d[j] * bji != implied:
                        raise NotSkewSymmetrizableError((i, j))
                    continue
                if implied % bji:
                    scale = abs(bji) // gcd(implied, bji)
                    for v in component:
                        d[v] *= scale
                    implied *= scale
                d[j] = implied // bji
                component.append(j)
                stack.append(j)
    return tuple(d)


@lru_cache(maxsize=512)
def _pivot(row_k: tuple[int, ...], k: int):
    """The pairs (j, b_kj) with b_kj > 0 and with b_kj < 0, the rows to rebuild
    (k and its neighbours, ascending) and -row k; k picks the diagonal zero."""
    # the update adds |b_ik|*b_kj exactly where b_ik and b_kj share a sign
    positive, negative, rebuilt = [], [], []
    for j, x in enumerate(row_k):
        if x:
            (positive if x > 0 else negative).append((j, x))
        elif j != k:
            continue
        rebuilt.append(j)
    return tuple(positive), tuple(negative), tuple(rebuilt), tuple([-x for x in row_k])


class ExchangeMatrix:
    """A skew-symmetrizable square integer matrix: its entries and its D.

    Immutable.  External construction validates: entries are coerced to
    int and range-checked, and the zero diagonal, sign coherence and the
    (minimal, coprime on each component) symmetrizer are derived from the
    entries.  :meth:`mutate` does not re-derive it: mutation preserves D
    and the component partition, so the child carries the parent's D and
    is checked against it in integers instead.  :meth:`from_symmetrizer`
    does the same for derived entries whose D the caller knows.
    """

    __slots__ = ("n", "entries", "_symmetrizer")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for row in rows:
            for x in row:
                _check_entry(x)
        self._symmetrizer = find_symmetrizer(rows)
        self.n = n
        self.entries = rows

    @property
    def symmetrizer(self) -> tuple[int, ...]:
        return self._symmetrizer

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation in direction k (0-based).

        b'_ij = -b_ij if i == k or j == k, else
        b_ij + (b_ik*|b_kj| + |b_ik|*b_kj)/2; the input is unmodified.
        Only row k and the rows of k's neighbours are visited: b_ik != 0
        iff b_ki != 0 in a matrix that satisfies its symmetrizer D, so the
        nonzero positions of row k name every row that changes, and the
        other rows are reused as they are.  The result carries D, which
        mutation preserves (Fomin-Zelevinsky, Cluster algebras I, Prop.
        4.5), and is checked against it: d_i*b'_ij == -d_j*b'_ji for i <= j
        with both rows rebuilt, in ascending order, else
        :class:`NotSkewSymmetrizableError`.  Every other pair keeps both its
        entries, so the result satisfies D whenever this matrix does.
        Changed entries are range-checked (:class:`EntryOverflowError`).
        Row k is split by :func:`_pivot`, a pure function of (row k, k),
        after the range check; its table is bounded, as an indefinite class
        meets new pivot rows without end.
        """
        n = self.n
        if not 0 <= k < n:
            raise IndexError(f"mutation vertex {k} out of range")
        b = self.entries
        positive, negative, rebuilt, negated = _pivot(b[k], k)
        rows = list(b)
        rows[k] = negated
        for i in rebuilt:
            row = b[i]
            bik = row[k]
            if bik:  # i != k
                new = list(row)
                new[k] = -bik
                weight = abs(bik)
                for j, bkj in positive if bik > 0 else negative:
                    x = new[j] = row[j] + weight * bkj
                    if not -INT64_MAX <= x <= INT64_MAX:
                        _check_entry(x)
                rows[i] = tuple(new)
        d = self._symmetrizer
        for a, i in enumerate(rebuilt):
            di = d[i]
            row = rows[i]
            for j in rebuilt[a:]:
                if di * row[j] != -d[j] * rows[j][i]:
                    raise NotSkewSymmetrizableError((i, j))
        child = object.__new__(ExchangeMatrix)
        child.n = n
        child.entries = tuple(rows)
        child._symmetrizer = d
        return child

    @classmethod
    def from_symmetrizer(cls, entries, symmetrizer) -> "ExchangeMatrix":
        """An n x n matrix given as a tuple of int tuples, checked against a known symmetrizer D.

        For matrices derived from a validated one whose D is known, such as
        the projection of a seed onto a quotient's mutation class: every
        entry is range-checked (:class:`EntryOverflowError`) and
        d_i*b_ij == -d_j*b_ji is checked in integers for i <= j, in
        ascending order, else :class:`NotSkewSymmetrizableError`.  D is
        carried as given, not re-derived, and read by :func:`classify`.
        """
        rows = tuple(entries)
        for i, row in enumerate(rows):
            di = symmetrizer[i]
            for j in range(i, len(rows)):
                if di * _check_entry(row[j]) != -symmetrizer[j] * _check_entry(rows[j][i]):
                    raise NotSkewSymmetrizableError((i, j))
        matrix = object.__new__(cls)
        matrix.n = len(rows)
        matrix.entries = rows
        matrix._symmetrizer = tuple(symmetrizer)
        return matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"ExchangeMatrix([{rows}])"


def cartan_counterpart(matrix: ExchangeMatrix) -> tuple[tuple[int, ...], ...]:
    """The generalized Cartan matrix with 2 on the diagonal and -|b_ij| off it."""
    b = matrix.entries
    n = matrix.n
    return tuple(
        tuple(2 if i == j else -abs(b[i][j]) for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# valued graphs


def to_dot(matrix: ExchangeMatrix, labels) -> str:
    """DOT rendering of the valued graph of B: vertex i labelled labels[i]
    and, for each i < j with b_ij != 0, the arrow s -> t with b_st > 0
    labelled "(b_st,-b_ts)"."""
    lines = ["digraph Q {"]
    for i, label in enumerate(labels):
        lines.append(f'  v{i} [label="{label}"];')
    b = matrix.entries
    for i, j in combinations(range(matrix.n), 2):
        if b[i][j]:
            s, t = (i, j) if b[i][j] > 0 else (j, i)
            lines.append(f'  v{s} -> v{t} [label="({b[s][t]},{-b[t][s]})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cartan classification


def _definiteness(sym) -> tuple[bool, bool, int]:
    """(positive definite, positive semidefinite, corank) of a symmetric integer matrix.

    Symmetric fraction-free (Bareiss) elimination on the upper triangle.
    After pivots P, entry (i, j) is the minor on rows P+i and columns P+j,
    an integer, so each division by the previous pivot is exact (checked:
    a remainder raises AssertionError).  The pivot is the previous one
    times the rational pivot, so a negative pivot refutes semidefiniteness,
    as does a zero pivot with a nonzero row; a zero pivot with a zero row
    adds one to the corank and is skipped.
    """
    n = len(sym)
    a = [list(row) for row in sym]
    previous = 1
    corank = 0
    for k in range(n):
        row = a[k]
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1:])):
            return False, False, 0
        if pivot == 0:
            corank += 1
            continue
        for i in range(k + 1, n):
            target, rik = a[i], row[i]
            for j in range(i, n):
                target[j], rest = divmod(pivot * target[j] - rik * row[j], previous)
                if rest:
                    raise AssertionError("Bareiss division left a remainder")
        previous = pivot
    return corank == 0, True, corank


def classify(matrix: ExchangeMatrix) -> str:
    """The Cartan type of an exchange matrix: "Finite", "Affine" or "Indefinite".

    The Cartan counterpart A is read through DA, D the carried
    symmetrizer: Finite iff DA is positive definite; Affine iff it is
    positive semidefinite of corank 1; Indefinite otherwise.
    """
    cartan = cartan_counterpart(matrix)
    # DA is symmetric because d_i*|b_ij| == d_j*|b_ji|
    sym = [[d * c for c in row] for d, row in zip(matrix.symmetrizer, cartan)]
    definite, semidefinite, corank = _definiteness(sym)
    if definite:
        return "Finite"
    if semidefinite and corank == 1:
        return "Affine"
    return "Indefinite"


def canonical_form(cartan) -> tuple[tuple[int, ...], ...]:
    """The least relabeled matrix over an individualization-refinement tree.

    Colour refinement splits vertices by (colour, sorted neighbour (colour,
    c_ij, c_ji)) signatures until stable; each vertex of the first
    non-singleton cell is then individualized in turn (McKay-Piperno,
    arXiv:1301.1493, without automorphism pruning).  Each discrete colouring
    orders the vertices; the least matrix they give is the form, equal for
    two matrices iff they differ by a simultaneous row and column
    permutation.  A symmetric disconnected input costs up to n! leaves.
    """
    n = len(cartan)
    neighbours = [[(j, row[j], cartan[j][i]) for j in range(n) if j != i and row[j]]
                  for i, row in enumerate(cartan)]

    def refine(colours):
        while True:
            signatures = [(colours[i], tuple(sorted((colours[j], a, b) for j, a, b in edges)))
                          for i, edges in enumerate(neighbours)]
            ranks = {s: r for r, s in enumerate(sorted(set(signatures)))}
            refined = [ranks[s] for s in signatures]
            if len(ranks) == len(set(colours)):
                return refined
            colours = refined

    def leaves(colours):
        cell = min((c for c in colours if colours.count(c) > 1), default=None)
        if cell is None:
            order = sorted(range(n), key=colours.__getitem__)
            yield tuple(tuple(cartan[i][j] for j in order) for i in order)
        for v in range(n):
            if colours[v] == cell:
                yield from leaves(refine([2 * c + (c == cell and u != v) for u, c in enumerate(colours)]))

    return min(leaves(refine([0] * n)))
