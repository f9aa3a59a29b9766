"""Seeds, the exchange relation, permutation actions, and enumeration.

A seed pairs an exchange matrix with a cluster of Laurent polynomials in
the fixed initial variables u_1..u_n.  Every division performed during
mutation must be exact (the Laurent phenomenon); a failed division is a
library bug and raises LaurentPhenomenonError.  Enumeration and the
denominator search run on the BFS engine in :mod:`clusterfold.search`
through :func:`search_seeds`, which divides once per exchange pair.  A
search passes :func:`mutate_seed` an exchange table: a dict from (the
variable exchanged, its two exchange monomials) to the exact quotient.
The division x' = (M+ + M-)/x is stored both ways, because x' * x is the
same binomial and an exact quotient in the Laurent ring is unique; so
any seed that exchanges x or x' over those monomials, on any edge,
reuses it.  Every new cluster variable still comes from an exact,
checked division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exchange import ExchangeMatrix
from .laurent import LaurentPolynomial, NotDivisibleError, divide_exact
from .search import Search, bfs


class LaurentPhenomenonError(RuntimeError):
    """A seed mutation produced a non-exact division (internal inconsistency)."""


class LimitExceededError(RuntimeError):
    """A search or enumeration hit a limit before it could decide."""


class Seed:
    """A pair (matrix, cluster); immutable."""

    __slots__ = ("matrix", "cluster")

    def __init__(self, matrix: ExchangeMatrix, cluster: tuple[LaurentPolynomial, ...]):
        cluster = tuple(cluster)
        if len(cluster) != matrix.n:
            raise ValueError("cluster length must match matrix size")
        for x in cluster:
            if x.n != matrix.n:
                raise ValueError("cluster entries must live in the ambient Laurent ring")
            if x.is_zero():
                raise ValueError("cluster entries must be nonzero")
        self.matrix = matrix
        self.cluster = cluster

    def __eq__(self, other) -> bool:
        if not isinstance(other, Seed):
            return NotImplemented
        return self.matrix == other.matrix and self.cluster == other.cluster

    def __hash__(self) -> int:
        return hash((self.matrix, self.cluster))

    def key(self):
        """Deduplication identity: the cluster as an unordered set.

        A cluster determines its seed up to simultaneous relabeling, so
        this is the exchange-graph vertex identity.
        """
        return frozenset(self.cluster)

    def __repr__(self) -> str:
        entries = ", ".join(x.render() for x in self.cluster)
        return f"Seed({self.matrix!r}, [{entries}])"


def initial_seed(matrix: ExchangeMatrix) -> Seed:
    n = matrix.n
    return Seed(matrix, tuple(LaurentPolynomial.variable(i, n) for i in range(n)))


def exchange_binomial(seed: Seed, k: int) -> LaurentPolynomial:
    """The right-hand side of the exchange relation at vertex k."""
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


def mutate_seed(seed: Seed, k: int, *, exchanges: dict | None = None) -> Seed:
    """Seed mutation in direction k: u_k' = (binomial at k) / u_k, exactly.

    ``exchanges`` is an exchange table owned by the caller.  Its key is
    (u_k, {P, M}), where P maps each cluster variable to its summed
    exponents b_ik > 0 and M does the same for b_ik < 0, so the key
    determines the binomial even when a variable repeats in the cluster.
    A miss divides and stores the quotient y under (u_k, key) and u_k
    under (y, key); a hit does no arithmetic.  The matrix is mutated and
    the seed built on every call.
    """
    if not 0 <= k < seed.matrix.n:
        raise IndexError(f"mutation vertex {k} out of range")
    x = seed.cluster[k]
    new_var = key = None
    if exchanges is not None:
        plus: dict = {}
        minus: dict = {}
        for v, row in zip(seed.cluster, seed.matrix.entries):
            if row[k] > 0:
                plus[v] = plus.get(v, 0) + row[k]
            elif row[k] < 0:
                minus[v] = minus.get(v, 0) - row[k]
        key = frozenset((frozenset(plus.items()), frozenset(minus.items())))
        new_var = exchanges.get((x, key))
    if new_var is None:
        try:
            new_var = divide_exact(exchange_binomial(seed, k), x)
        except NotDivisibleError as exc:
            raise LaurentPhenomenonError(
                f"exchange at vertex {k + 1} produced a non-Laurent quotient: {exc}"
            ) from exc
        if exchanges is not None:
            exchanges[x, key] = new_var
            exchanges[new_var, key] = x
    cluster = list(seed.cluster)
    cluster[k] = new_var
    return Seed(seed.matrix.mutate(k), tuple(cluster))


def apply_mutation_word(seed: Seed, word) -> Seed:
    """Left-to-right composition of seed mutations."""
    for k in word:
        seed = mutate_seed(seed, k)
    return seed


def permute_seed(g, seed: Seed) -> Seed:
    """Action of a vertex permutation g (0-based mapping) on a seed.

    The matrix entry at (i, j) becomes the old entry at (g^-1 i, g^-1 j);
    cluster entry i becomes the old entry g^-1 i with variables relabeled
    u_j -> u_{g j}.
    """
    g = tuple(g)
    n = seed.matrix.n
    if sorted(g) != list(range(n)):
        raise ValueError("g must be a permutation of the vertices")
    inv = [0] * n
    for i, gi in enumerate(g):
        inv[gi] = i
    b = seed.matrix.entries
    entries = tuple(tuple(b[inv[i]][inv[j]] for j in range(n)) for i in range(n))
    cluster = tuple(seed.cluster[inv[i]].permute_variables(g) for i in range(n))
    return Seed(ExchangeMatrix(entries, seed.matrix.labels), cluster)


def is_invariant_seed(seed: Seed, generators) -> bool:
    """True iff every generator fixes the seed (matrix and cluster entrywise)."""
    return all(permute_seed(g, seed) == seed for g in generators)


def search_seeds(start: Seed, limit: int, *, max_depth: int | None = None,
                 on_new=None, on_edge=None) -> Search:
    """Drained BFS over seeds from ``start``, deduplicated by :meth:`Seed.key`,
    that divides once per exchange pair.

    The search owns one exchange table (see :func:`mutate_seed`), so an
    exchange already divided on any edge, in either direction, costs no
    arithmetic, whether the seed that needs it was admitted or refused at
    the limit.  ``on_new`` and ``on_edge`` are passed on to :func:`bfs`.
    """
    exchanges: dict = {}
    return bfs(start, range(start.matrix.n),
               lambda seed, k: mutate_seed(seed, k, exchanges=exchanges),
               Seed.key, limit, drain=True, max_depth=max_depth,
               on_new=on_new, on_edge=on_edge)


@dataclass
class EnumerationResult:
    """Outcome of a cluster-variable BFS."""

    variables: dict  # LaurentPolynomial -> shortest provenance word (tuple of 0-based vertices)
    cluster_count: int
    complete: bool
    frontier: int = 0
    dot_edges: list = field(default_factory=list)

    @property
    def variable_count(self) -> int:
        return len(self.variables)

    def to_dot(self, name: str = "exchange") -> str:
        """DOT text of the exchange graph: vertices are clusters in
        discovery order, edges are single mutations."""
        lines = [f"graph {name} {{"]
        for i in range(self.cluster_count):
            lines.append(f'  s{i} [label="s{i}"];')
        for a, b in self.dot_edges:
            lines.append(f"  s{a} -- s{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_cluster_variables(
    matrix: ExchangeMatrix,
    max_seeds: int = 100_000,
    max_depth: int = 64,
) -> EnumerationResult:
    """BFS over seeds from the initial seed, deduplicated by cluster-as-set.

    Returns every distinct cluster variable with a shortest mutation word
    producing it, including the variables of neighbours refused by the
    seed limit.  ``complete`` is True when the BFS closed before the
    limits.
    """
    start = initial_seed(matrix)
    variables: dict[LaurentPolynomial, tuple[int, ...]] = {
        x: () for x in start.cluster
    }
    edge_set = set()

    # A variable first appears in a seed the search has not seen, so the
    # new variable of each unseen neighbour is all there is to record.
    def record(seed, word):
        variables.setdefault(seed.cluster[word[-1]], word)

    def link(source, target):
        if source != target:
            edge_set.add((min(source, target), max(source, target)))

    search = search_seeds(start, max_seeds, max_depth=max_depth, on_new=record, on_edge=link)
    return EnumerationResult(
        variables=variables,
        cluster_count=len(search.visited),
        complete=search.status == "closed",
        frontier=search.refused,
        dot_edges=sorted(edge_set),
    )
