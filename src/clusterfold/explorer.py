"""Mutation-class BFS, finiteness verdicts, exchange-graph export, searches.

Mutation classes use labeled-matrix identity: two matrices are the same
class member only when equal entrywise.  Finite verdicts are re-verified
by a full neighbor sweep over the closed set.  The sweep is the
independent route: the BFS mutates matrices that carry their parent's
symmetrizer, while the sweep rebuilds every member from its entries
through the validating constructor, which re-derives D.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .exchange import EntryOverflowError, ExchangeMatrix
from .folding import FoldingPair, admissibility_witness, compose_orbit_mutations
from .laurent import LaurentPolynomial
from .seeds import enumerate_cluster_variables, initial_seed, mutate_seed


@dataclass
class MutationClassReport:
    """Outcome of a matrix mutation-class BFS.

    verdict is "finite", "limit-exceeded", "overflow" or "unstable";
    size counts distinct labeled matrices visited.
    """

    verdict: str
    size: int
    limit: int
    witness_word: tuple | None = None
    witness_path: tuple | None = None
    members: frozenset | None = None

    @property
    def finite(self) -> bool:
        return self.verdict == "finite"


def mutation_class(
    matrix: ExchangeMatrix, limit: int = 10_000, keep_members: bool = True
) -> MutationClassReport:
    """BFS over all single-vertex mutations, deduplicated entrywise."""
    n = matrix.n
    visited = {matrix.entries}
    queue = deque([matrix])
    try:
        while queue:
            current = queue.popleft()
            for k in range(n):
                neighbor = current.mutate(k)
                if neighbor.entries in visited:
                    continue
                if len(visited) >= limit:
                    return MutationClassReport("limit-exceeded", len(visited), limit)
                visited.add(neighbor.entries)
                queue.append(neighbor)
    except EntryOverflowError:
        return MutationClassReport("overflow", len(visited), limit)
    # closure sweep: every neighbor of every member must already be a member
    for entries in visited:
        member = ExchangeMatrix(entries)
        for k in range(n):
            if member.mutate(k).entries not in visited:
                raise AssertionError("mutation-class closure sweep failed")
    return MutationClassReport(
        "finite", len(visited), limit, members=frozenset(visited) if keep_members else None
    )


def orbit_mutation_class(
    pair: FoldingPair, limit: int = 10_000, keep_members: bool = True
) -> MutationClassReport:
    """BFS over orbit mutations with an admissibility check at every node.

    An inadmissible node yields verdict "unstable" with the shortest
    orbit word and the directed-path witness; this doubles as a
    stability certificate when the class closes.
    """
    pair.require_admissible()
    orbits = pair.orbits
    visited = {pair.matrix.entries}
    queue = deque([(pair.matrix, ())])
    try:
        while queue:
            current, word = queue.popleft()
            for idx in range(len(orbits)):
                neighbor = compose_orbit_mutations(current, orbits, idx)
                if neighbor.entries in visited:
                    continue
                new_word = word + (idx,)
                witness = admissibility_witness(neighbor, orbits)
                if witness is not None:
                    return MutationClassReport(
                        "unstable", len(visited), limit,
                        witness_word=new_word, witness_path=witness,
                    )
                if len(visited) >= limit:
                    return MutationClassReport("limit-exceeded", len(visited), limit)
                visited.add(neighbor.entries)
                queue.append((neighbor, new_word))
    except EntryOverflowError:
        return MutationClassReport("overflow", len(visited), limit)
    return MutationClassReport(
        "finite", len(visited), limit, members=frozenset(visited) if keep_members else None
    )


def is_mutation_finite(matrix: ExchangeMatrix, limit: int = 10_000) -> MutationClassReport:
    """Finiteness verdict for Mut(B) within the node limit."""
    return mutation_class(matrix, limit, keep_members=False)


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
    from .folding import quotient_matrix

    quotient = mutation_class(quotient_matrix(pair), limit, keep_members=False)
    orbit = orbit_mutation_class(pair, limit, keep_members=False)
    if not quotient.finite or not orbit.finite:
        raise ValueError(
            f"quotient/orbit classes must close within the limit "
            f"(got {quotient.verdict}/{orbit.verdict})"
        )
    ambient = mutation_class(pair.matrix, limit, keep_members=False)
    holds = quotient.size <= orbit.size and orbit.size <= ambient.size
    return MonotonicityReport(
        quotient.size, orbit.size, ambient.size, ambient.finite, holds
    )


def exchange_graph_dot(
    matrix: ExchangeMatrix, max_seeds: int = 100_000, name: str = "exchange"
) -> str:
    """DOT text of the exchange graph: vertices are clusters (as sets),
    edges are single mutations.  Requires the enumeration to close."""
    result = enumerate_cluster_variables(matrix, max_seeds=max_seeds, strict=True)
    lines = [f"graph {name} {{"]
    for i in range(result.cluster_count):
        lines.append(f'  s{i} [label="s{i}"];')
    for a, b in result.dot_edges:
        lines.append(f"  s{a} -- s{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    visited = {start.key()}
    queue = deque([(start, ())])
    while queue:
        seed, word = queue.popleft()
        for k in range(matrix.n):
            neighbor = mutate_seed(seed, k)
            if neighbor.cluster[k].denominator_vector() == target:
                return neighbor.cluster[k], word + (k,)
            key = neighbor.key()
            if key in visited or len(visited) >= max_seeds:
                continue
            visited.add(key)
            queue.append((neighbor, word + (k,)))
    return None


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
