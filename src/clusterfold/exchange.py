"""Skew-symmetrizable integer matrices, mutation and Cartan classification.

Entries are kept within signed 64-bit range with checked arithmetic:
mutation of indefinite-type matrices can blow entries up, and explorers
must see a clean error instead of silent wraparound.

Vertices are 0-based throughout the library; labels (default "1".."n")
carry the 1-based external numbering used in files and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

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
    integers: a component whose values cannot carry the next ratio is
    rescaled as a whole, and each component is finally divided by its gcd
    so its entries are coprime.  Raises :class:`NotSkewSymmetrizableError`
    with a witness pair.
    """
    n = len(entries)
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
        common = 0
        for v in component:
            common = gcd(common, d[v])
        if common > 1:
            for v in component:
                d[v] //= common
    return tuple(d)


class ExchangeMatrix:
    """A skew-symmetrizable square integer matrix.

    Immutable.  External construction validates: entries are coerced to
    int and range-checked, and the zero diagonal, sign coherence and the
    (minimal, per-component normalised) symmetrizer are derived from the
    entries.  :meth:`mutate` does not re-derive it: mutation preserves D
    and the component partition, so the child carries the parent's D and
    is checked against it in integers instead.
    """

    __slots__ = ("n", "entries", "labels", "_symmetrizer")

    def __init__(self, entries, labels: tuple[str, ...] | None = None):
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
        if labels is None:
            labels = tuple(str(i + 1) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count mismatch")
        self.labels = labels

    @property
    def symmetrizer(self) -> tuple[int, ...]:
        return self._symmetrizer

    def is_skew_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.n)
            for j in range(self.n)
        )

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation in direction k (0-based).

        b'_ij = -b_ij if i == k or j == k, else
        b_ij + (b_ik*|b_kj| + |b_ik|*b_kj)/2; the input is unmodified.
        The result carries this matrix's symmetrizer D, which mutation
        preserves (Fomin-Zelevinsky, Cluster algebras I, Prop. 4.5), and is
        checked against it: d_i*b'_ij == -d_j*b'_ji for all i <= j, else
        :class:`NotSkewSymmetrizableError`.  Changed entries are
        range-checked (:class:`EntryOverflowError`).
        """
        n = self.n
        if not 0 <= k < n:
            raise IndexError(f"mutation vertex {k} out of range")
        b = self.entries
        row_k = b[k]
        # the update adds |b_ik|*b_kj exactly where b_ik and b_kj share a sign
        positive = [(j, x) for j, x in enumerate(row_k) if x > 0]
        negative = [(j, x) for j, x in enumerate(row_k) if x < 0]
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
                weight = abs(bik)
                for j, bkj in positive if bik > 0 else negative:
                    new[j] = _check_entry(row[j] + weight * bkj)
                rows.append(tuple(new))
        d = self._symmetrizer
        for i in range(n):
            di = d[i]
            row = rows[i]
            for j in range(i, n):
                if di * row[j] != -d[j] * rows[j][i]:
                    raise NotSkewSymmetrizableError((i, j))
        child = object.__new__(ExchangeMatrix)
        child.n = n
        child.entries = tuple(rows)
        child.labels = self.labels
        child._symmetrizer = d
        return child

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"ExchangeMatrix([{rows}])"


def mutate_matrix(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Functional alias for :meth:`ExchangeMatrix.mutate`."""
    return matrix.mutate(k)


def cartan_counterpart(matrix: ExchangeMatrix) -> tuple[tuple[int, ...], ...]:
    """The generalized Cartan matrix with 2 on the diagonal and -|b_ij| off it."""
    b = matrix.entries
    n = matrix.n
    return tuple(
        tuple(2 if i == j else -abs(b[i][j]) for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# valued graphs


@dataclass(frozen=True)
class ValuedEdge:
    source: int
    target: int
    value: tuple[int, int]  # (|b_st|, |b_ts|)


@dataclass(frozen=True)
class ValuedGraph:
    n: int
    edges: tuple[ValuedEdge, ...]
    labels: tuple[str, ...]


def to_valued_graph(matrix: ExchangeMatrix) -> ValuedGraph:
    """Edges {i,j} with orientation i -> j iff b_ij > 0, valued (|b_ij|, |b_ji|)."""
    edges = []
    b = matrix.entries
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            if b[i][j] > 0:
                edges.append(ValuedEdge(i, j, (b[i][j], -b[j][i])))
            elif b[i][j] < 0:
                edges.append(ValuedEdge(j, i, (b[j][i], -b[i][j])))
    return ValuedGraph(matrix.n, tuple(edges), matrix.labels)


def from_valued_graph(graph: ValuedGraph) -> ExchangeMatrix:
    """Rebuild the exchange matrix; inverse of :func:`to_valued_graph`."""
    entries = [[0] * graph.n for _ in range(graph.n)]
    for edge in graph.edges:
        i, j = edge.source, edge.target
        a, b = edge.value
        if a <= 0 or b <= 0:
            raise ValueError(f"edge values must be positive, got {edge.value}")
        if entries[i][j] or entries[j][i]:
            raise ValueError(f"duplicate edge between {i} and {j}")
        entries[i][j] = a
        entries[j][i] = -b
    return ExchangeMatrix(entries, graph.labels)


def to_dot(graph: ValuedGraph, name: str = "Q") -> str:
    """DOT rendering with edge labels "(a,b)" and arrowheads per orientation."""
    lines = [f"digraph {name} {{"]
    for i, label in enumerate(graph.labels):
        lines.append(f'  v{i} [label="{label}"];')
    for edge in graph.edges:
        a, b = edge.value
        lines.append(f'  v{edge.source} -> v{edge.target} [label="({a},{b})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cartan classification


@dataclass(frozen=True)
class CartanType:
    tag: str  # "Finite" | "Affine" | "Indefinite"
    name: str | None = None


def _symmetrize(cartan) -> tuple[tuple[Fraction, ...], ...]:
    n = len(cartan)
    # d_i c_ij = d_j c_ji is the same constraint as skew-symmetrizing the
    # signed pattern s_ij = |c_ij| for i < j, s_ij = -|c_ij| for i > j.
    skew = [
        [
            0 if i == j else (abs(cartan[i][j]) if i < j else -abs(cartan[i][j]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    try:
        d = find_symmetrizer(skew)
    except NotSkewSymmetrizableError:
        raise ValueError("Cartan matrix is not symmetrizable") from None
    # verify on the original (sign pattern must also be symmetric and non-positive)
    for i in range(n):
        if cartan[i][i] != 2:
            raise ValueError("Cartan matrix must have 2 on the diagonal")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                    raise ValueError("Cartan matrix is not symmetrizable")
    return tuple(
        tuple(Fraction(d[i] * cartan[i][j]) for j in range(n)) for i in range(n)
    )


def _definiteness(sym) -> tuple[bool, bool, int]:
    """(positive definite, positive semidefinite, corank) of a symmetric matrix.

    Symmetric Gaussian elimination over exact rationals: a negative pivot
    refutes semidefiniteness, as does a zero diagonal with a nonzero row.
    """
    n = len(sym)
    a = [list(row) for row in sym]
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


def classify(cartan, name_diagram: bool = True) -> CartanType:
    """Classify a symmetrizable generalized Cartan matrix.

    Finite iff the symmetrized form is positive definite; Affine iff it
    is positive semidefinite of corank 1; Indefinite otherwise.  Named
    diagrams are matched by valued-graph isomorphism for rank <= 12.
    """
    sym = _symmetrize(cartan)
    definite, semidefinite, corank = _definiteness(sym)
    if definite:
        tag = "Finite"
    elif semidefinite and corank == 1:
        tag = "Affine"
    else:
        tag = "Indefinite"
    name = None
    if name_diagram and len(cartan) <= 12 and tag in ("Finite", "Affine"):
        name = _match_named_diagram(tuple(tuple(row) for row in cartan), tag)
    return CartanType(tag, name)


def _cartan_digraph(cartan):
    import networkx as nx

    g = nx.DiGraph()
    n = len(cartan)
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and cartan[i][j] != 0:
                g.add_edge(i, j, w=-cartan[i][j])
    return g


@lru_cache(maxsize=None)
def _named_catalog(tag: str):
    """(name, cartan) reference diagrams of the given tag, ranks <= 12."""
    from . import catalog

    return catalog.named_cartan_matrices(tag)


def _match_named_diagram(cartan, tag: str) -> str | None:
    import networkx as nx

    target = _cartan_digraph(cartan)
    for name, reference in _named_catalog(tag):
        if len(reference) != len(cartan):
            continue
        ref = _cartan_digraph(reference)
        if nx.is_isomorphic(target, ref, edge_match=lambda a, b: a["w"] == b["w"]):
            return name
    return None
