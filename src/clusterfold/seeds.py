"""Seeds, the exchange relation, permutation actions, and enumeration.

A seed pairs an exchange matrix with a cluster of Laurent polynomials in
the fixed initial variables u_1..u_n.  Every division performed during
mutation must be exact (the Laurent phenomenon); a failed division is a
library bug and raises LaurentPhenomenonError.  Enumeration and the
denominator search run on the BFS engine in :mod:`clusterfold.search`
through :func:`search_seeds`, which mutates only to reach a seed it has
not met.  :func:`mutate_seed` runs on the caller's exchange table or a new
one: a dict from (variable exchanged, its exchange monomials) to the exact
quotient.  The division x' = (M+ + M-)/x is stored both ways, because
x' * x is the same binomial and an exact quotient in the Laurent ring is
unique; so any seed that exchanges x or x' over those monomials, on any
edge, reuses it.  The same table holds each quotient a division returns
under its ends, its lex-leading and lex-trailing exponent vectors.  On a
miss with a non-monomial x, the quotient, if exact, has the ends of the
binomial less those of x (see :mod:`clusterfold.laurent`), so a variable
stored there is a candidate, accepted only if its product with x is the
binomial.  Every new cluster variable still comes from an exact, checked
division; a known one is met again through an exact product identity.
A mutation that needs a product or a division past ``laurent.MAX_WORK`` raises
LimitExceededError, re-exported here; a search it stops ends with status
"work-limit", and the CLI exits 3 on either.

:func:`reindex`, one checked re-index per permutation, serves every
relabeling: is_automorphism, permute_seed, is_invariant_seed and
PermutationGroup refuse a g that is not a permutation of the n vertices.
"""

from __future__ import annotations

import functools
from operator import itemgetter, sub

from .exchange import ExchangeMatrix
from .laurent import LaurentPolynomial, LimitExceededError, NotDivisibleError, divide_exact
from .search import Search, bfs


class LaurentPhenomenonError(RuntimeError):
    """A seed mutation produced a non-exact division (internal inconsistency)."""


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

        Assumed after Gekhtman-Shapiro-Vainshtein (arXiv:math/0703151): a
        cluster determines its seed up to simultaneous relabeling, so this
        is the exchange-graph vertex identity, and two clusters are
        adjacent exactly when they share n - 1 variables, so each facet (a
        cluster less one variable) lies in exactly two clusters.  Seed
        searches rely on both (:func:`search_seeds`).
        """
        return frozenset(self.cluster)

    def __repr__(self) -> str:
        entries = ", ".join(x.render() for x in self.cluster)
        return f"Seed({self.matrix!r}, [{entries}])"


def initial_seed(matrix: ExchangeMatrix) -> Seed:
    n = matrix.n
    return Seed(matrix, tuple(LaurentPolynomial.variable(i, n) for i in range(n)))


def exchange_binomial(seed: Seed, k: int) -> LaurentPolynomial:
    """The right-hand side of the exchange relation at vertex k, M+ + M-.

    M+ is the product of x_i ** b_ik over the cluster variables x_i with
    b_ik > 0, M- that of x_i ** -b_ik over b_ik < 0.  Each side starts
    from its first factor; a side with no factor is 1.
    """
    sides = [None, None]  # M-, M+
    for x, row in zip(seed.cluster, seed.matrix.entries):
        b = row[k]
        if b:
            factor = x if b in (1, -1) else x ** abs(b)
            side = sides[b > 0]
            sides[b > 0] = factor if side is None else side * factor
    minus, plus = (LaurentPolynomial.one(seed.matrix.n) if s is None else s for s in sides)
    return plus + minus


def mutate_seed(seed: Seed, k: int, *, exchanges: dict | None = None) -> Seed:
    """Seed mutation in direction k: u_k' = (binomial at k) / u_k, exactly.

    ``exchanges`` is the caller's exchange table, a fresh one if None.  Its
    key is (u_k, {P, M}), where P maps each cluster variable to its summed
    exponents b_ik > 0 and M does the same for b_ik < 0, so the key
    determines the binomial even when a variable repeats in the cluster.
    A hit does no arithmetic.  A miss builds the binomial B; if u_k is
    not a monomial and the table holds a variable y under the ends key
    (n, lead(B) - lead(u_k), trail(B) - trail(u_k)) with y * u_k == B, y
    is the quotient, else a division gives it and y is stored under
    (n, lead(y), trail(y)) unless a variable is there already.  Either
    way y is stored under (u_k, key) and u_k under (y, key).  The matrix
    is mutated and the seed built on every call.
    """
    n = seed.matrix.n
    if not 0 <= k < n:
        raise IndexError(f"mutation vertex {k} out of range")
    exchanges = {} if exchanges is None else exchanges
    x = seed.cluster[k]
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
        binomial = exchange_binomial(seed, k)
        x_lead, x_trail = x.ends()
        if x_lead != x_trail:  # a monomial x divides no dearer than a product checks
            b_lead, b_trail = binomial.ends()
            new_var = exchanges.get((n, tuple(map(sub, b_lead, x_lead)),
                                     tuple(map(sub, b_trail, x_trail))))
            if new_var is not None and new_var * x != binomial:
                new_var = None
        if new_var is None:
            try:
                new_var = divide_exact(binomial, x)
            except NotDivisibleError as exc:
                raise LaurentPhenomenonError(
                    f"exchange at vertex {k + 1} produced a non-Laurent quotient: {exc}"
                ) from exc
            exchanges.setdefault((n, *new_var.ends()), new_var)
        exchanges[x, key] = new_var
        exchanges[new_var, key] = x
    cluster = list(seed.cluster)
    cluster[k] = new_var
    return Seed(seed.matrix.mutate(k), tuple(cluster))


def apply_mutation_word(seed: Seed, word) -> Seed:
    """Left-to-right composition of seed mutations; a vertex out of range
    raises ValueError, naming it 1-based, before any step."""
    word = tuple(word)
    for k in word:
        if not 0 <= k < seed.matrix.n:
            raise ValueError(f"vertex {k + 1} out of range")
    for k in word:
        seed = mutate_seed(seed, k)
    return seed


@functools.cache
def reindex(g: tuple[int, ...], n: int):
    """row -> (row[g[0]], ..., row[g[n-1]]), built once per (g, n) after checking that g is a
    permutation of 0..n-1 (else ValueError, on every call: a failure is not cached)."""
    if sorted(g) != list(range(n)):
        raise ValueError(f"{g} is not a permutation of 0..{n - 1}")
    return itemgetter(*g) if n > 1 else tuple  # the identity; itemgetter needs 2 indices


def is_automorphism(matrix: ExchangeMatrix, g) -> bool:
    """b[g[i]][g[j]] == b[i][j] for all i, j: B re-indexed by g, compared with B at once."""
    b, n = matrix.entries, matrix.n
    if len(g) != n:
        raise IndexError(f"permutation of length {len(g)} for {n} vertices")
    get = reindex(tuple(g), n)
    return tuple(map(get, get(b))) == b


def permute_seed(g, seed: Seed) -> Seed:
    """Action of a vertex permutation g (0-based mapping) on a seed.

    The matrix entry at (i, j) becomes the old entry at (g^-1 i, g^-1 j);
    cluster entry i becomes the old entry g^-1 i with variables relabeled
    u_j -> u_{g j}.  The matrix carries the permuted symmetrizer.
    """
    g, n = tuple(g), seed.matrix.n
    reindex(g, n)  # ValueError unless g permutes the n vertices
    get = reindex(tuple(sorted(range(n), key=g.__getitem__)), n)  # re-index by g^-1
    cluster = tuple(x.permute_variables(g) for x in get(seed.cluster))
    entries = tuple(map(get, get(seed.matrix.entries)))
    return Seed(ExchangeMatrix.from_symmetrizer(entries, get(seed.matrix.symmetrizer)), cluster)


def is_invariant_seed(seed: Seed, generators) -> bool:
    """True iff every generator g fixes the seed, as ``permute_seed(g, seed) == seed``: g is an
    automorphism of B and cluster entry g i is entry i relabeled by g.  Builds no matrix or seed."""
    for g in map(tuple, generators):
        get = reindex(g, seed.matrix.n)  # ValueError unless g permutes the n vertices
        if not is_automorphism(seed.matrix, g) or get(seed.cluster) != tuple(
                x.permute_variables(g) for x in seed.cluster):
            return False
    return True


def search_seeds(start: Seed, limit: int, *, max_depth: int | None = None,
                 on_new=None, on_edge=None) -> Search:
    """Drained BFS over seeds from ``start``, deduplicated by :meth:`Seed.key`,
    that mutates once per seed admitted after the first and per distinct
    neighbour refused at the limit.

    The edge along k is labeled by the facet its seeds share, the cluster
    less its k-th variable, which lies in exactly two clusters (see
    :meth:`Seed.key`), so :func:`bfs` steps only to meet a new seed.  The
    search owns one exchange table (see :func:`mutate_seed`), so an
    exchange already divided, in either direction, costs no arithmetic.
    ``on_new`` (once per seed) and ``on_edge`` (once per edge) are passed
    on to :func:`bfs`.
    """
    exchanges: dict = {}
    return bfs(start, range(start.matrix.n),
               lambda seed, k: mutate_seed(seed, k, exchanges=exchanges),
               Seed.key, limit, drain=True, max_depth=max_depth, on_new=on_new, on_edge=on_edge,
               edge=lambda seed, k: frozenset(seed.cluster[:k] + seed.cluster[k + 1:]))


_MAX_DEPTH = 64  # the word length at which a cluster-variable enumeration stops expanding


class EnumerationResult:
    """Outcome of a cluster-variable BFS: the engine's ``search`` over seeds
    (complete when it closed), the variables met and the exchange-graph edges."""

    __slots__ = ("search", "variables", "dot_edges")

    def __init__(self, search: Search, variables: dict, dot_edges):
        self.search = search
        self.variables = variables  # LaurentPolynomial -> shortest provenance word (0-based)
        self.dot_edges = dot_edges

    complete = property(lambda self: self.search.status == "closed")
    cluster_count = property(lambda self: self.search.size)
    variable_count = property(lambda self: len(self.variables))

    def to_dot(self) -> str:
        """DOT text of the exchange graph: vertices are clusters in
        discovery order, edges are single mutations."""
        lines = ["graph exchange {"]
        for i in range(self.cluster_count):
            lines.append(f'  s{i} [label="s{i}"];')
        for a, b in self.dot_edges:
            lines.append(f"  s{a} -- s{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_cluster_variables(
    matrix: ExchangeMatrix,
    max_seeds: int = 100_000,
) -> EnumerationResult:
    """BFS over seeds from the initial seed, deduplicated by cluster-as-set.

    Returns every distinct cluster variable with a shortest mutation word
    producing it, including the variables of neighbours refused by the
    seed limit.  ``complete`` is True when the BFS closed before the seed
    limit and before words of length ``_MAX_DEPTH``.
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

    search = search_seeds(start, max_seeds, max_depth=_MAX_DEPTH, on_new=record, on_edge=link)
    return EnumerationResult(search, variables, sorted(edge_set))
