"""Mutation-class BFS, finiteness verdicts, the size chain, searches.

Every search here runs on the engine in :mod:`clusterfold.search`.
Mutation classes use labeled-matrix identity: two matrices are the same
class member only when equal entrywise.  Mutation is an involution, so
each labeled edge is mutated once: n·s/2 mutations close a class of size
s.  A finite verdict is checked twice.  The reported edges must fill the
n·s (member, vertex) slots, two per edge and one per self-loop (μ_k B = B
at an isolated vertex k), so every neighbour of every member was found in
the class.  And every member's symmetrizer is re-derived from its entries
by :func:`find_symmetrizer` and must equal the one the BFS carried
through mutation: that is the independent route to D.
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass
from operator import attrgetter

from .exchange import ExchangeMatrix, find_symmetrizer
from .folding import FoldingPair, check_stability, quotient_matrix
from .search import bfs
from .seeds import initial_seed, mutate_seed, search_seeds


@dataclass
class MutationClassReport:
    """Outcome of a matrix mutation-class BFS.

    verdict is "finite", "limit-exceeded" or "overflow"; size counts
    distinct labeled matrices visited; members holds their entries when
    the verdict is finite.
    """

    verdict: str
    size: int
    limit: int
    members: KeysView | None = None

    @property
    def finite(self) -> bool:
        return self.verdict == "finite"


def mutation_class(matrix: ExchangeMatrix, limit: int = 10_000) -> MutationClassReport:
    """BFS over all single-vertex mutations, deduplicated entrywise; a closed
    class of size s costs n·s/2 mutations, one per labeled edge."""
    n = matrix.n
    slots = 0

    def count_slots(source, target):
        nonlocal slots
        slots += 1 if source == target else 2

    search = bfs(matrix, range(n), ExchangeMatrix.mutate, attrgetter("entries"), limit,
                 on_edge=count_slots, involutive=True)
    visited = search.visited
    if search.status != "closed":
        return MutationClassReport(search.status, len(visited), limit)
    if slots != n * len(visited):
        raise AssertionError("mutation-class BFS missed a neighbour lookup")
    d = matrix.symmetrizer
    for entries in visited:
        if find_symmetrizer(entries) != d:
            raise AssertionError("class member's symmetrizer differs from the carried one")
    return MutationClassReport("finite", len(visited), limit, members=visited.keys())


@dataclass
class MonotonicityReport:
    """Sizes along |Mut(quotient)| <= |Mut^G(ambient)| <= |Mut(ambient)|."""

    quotient_size: int
    orbit_size: int
    ambient_size: int
    ambient_complete: bool
    holds: bool


def verify_monotonicity_chain(pair: FoldingPair, limit: int = 10_000) -> MonotonicityReport:
    """Check the size chain on a stable pair.

    The quotient and orbit classes must close within the limit; the
    ambient class may hit the limit, in which case its visited count is
    a lower bound and the right inequality is checked against it.
    """
    quotient = mutation_class(quotient_matrix(pair), limit)
    orbit = check_stability(pair, limit)
    if not quotient.finite or not orbit.stable:
        raise ValueError(
            f"quotient/orbit classes must close within the limit "
            f"(got {quotient.verdict}/{orbit.status})"
        )
    ambient = mutation_class(pair.matrix, limit)
    holds = quotient.size <= orbit.class_size and orbit.class_size <= ambient.size
    return MonotonicityReport(
        quotient.size, orbit.class_size, ambient.size, ambient.finite, holds
    )


def find_variable_by_denominator(matrix: ExchangeMatrix, target, max_seeds: int = 100_000):
    """BFS over seeds until a variable with the given denominator vector
    appears; returns (polynomial, shortest word) or None."""
    target = tuple(target)
    if len(target) != matrix.n:
        raise ValueError("target length must match matrix size")
    start = initial_seed(matrix)
    for x in start.cluster:
        if x.denominator_vector() == target:
            return x, ()

    # A variable first appears in a seed the search has not seen, so
    # checking the new variable of each unseen neighbour misses none.
    def new_variable_hit(seed, word):
        x = seed.cluster[word[-1]]
        return x if x.denominator_vector() == target else None

    search = search_seeds(start, max_seeds, on_new=new_variable_hit)
    return (search.witness, search.word) if search.status == "witness" else None


def rank2_denominators_below(matrix: ExchangeMatrix, bound) -> set[tuple[int, int]]:
    """All denominator vectors of rank-2 cluster variables that are <= the
    bound componentwise, enumerated exhaustively.

    Each of the two alternating mutation branches either wraps around to
    an initial variable (finite class: every branch variable was seen) or
    keeps producing, at each vertex, componentwise-increasing denominator
    vectors (checked at every step); in the increasing regime the branch
    stops soundly once both current cluster entries strictly dominate the
    bound.
    """
    if matrix.n != 2:
        raise ValueError("rank-2 enumeration needs a 2x2 matrix")
    bound = tuple(bound)
    found: set[tuple[int, int]] = set()
    for x in initial_seed(matrix).cluster:
        delta = x.denominator_vector()
        if all(d <= b for d, b in zip(delta, bound)):
            found.add(delta)
    for first in (0, 1):
        seed = initial_seed(matrix)
        previous = {0: (-1, -1), 1: (-1, -1)}
        monotone = True
        k = first
        for _ in range(1000):
            seed = mutate_seed(seed, k)
            delta = seed.cluster[k].denominator_vector()
            if any(d < 0 for d in delta):
                # back at an initial variable: the branch wrapped around a
                # finite mutation class, so every branch variable was seen
                if all(d <= b for d, b in zip(delta, bound)):
                    found.add(delta)
                break
            monotone = monotone and all(d >= p for d, p in zip(delta, previous[k]))
            previous[k] = delta
            if all(d <= b for d, b in zip(delta, bound)):
                found.add(delta)
            if monotone and all(
                all(d > b for d, b in zip(x.denominator_vector(), bound))
                for x in seed.cluster
            ):
                break
            k = 1 - k
        else:
            raise AssertionError("rank-2 branch neither wrapped nor left the bound box")
    return found
