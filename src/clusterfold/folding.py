"""Folding: automorphism groups, admissible pairs, quotients, orbit mutations.

A folding pair is an exchange matrix together with a permutation group
acting on its vertices by automorphisms.  The pair is admissible when no
two distinct vertices of one orbit are joined by a directed path of
length at most two; admissibility makes orbit mutation well defined and
the quotient matrix skew-symmetrizable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations

from .exchange import ExchangeMatrix
from .seeds import Seed, initial_seed, is_invariant_seed, mutate_seed

GROUP_ORDER_CAP = 10_080


class NotAdmissibleError(ValueError):
    """The folding pair violates admissibility; carries the witness path."""

    def __init__(self, witness):
        self.witness = witness
        path = " -> ".join(str(v + 1) for v in witness)
        super().__init__(f"pair is not admissible: directed path {path} inside one orbit")


class NotInvariantError(ValueError):
    """A seed operation required a G-invariant seed."""


def compose(g, h):
    """The permutation applying h first, then g."""
    return tuple(g[h[i]] for i in range(len(g)))


def inverse(g):
    inv = [0] * len(g)
    for i, gi in enumerate(g):
        inv[gi] = i
    return tuple(inv)


class PermutationGroup:
    """A permutation group of {0..n-1} given by generators.

    Element enumeration is lazy and capped at GROUP_ORDER_CAP; orbit
    computation only needs the generators.
    """

    def __init__(self, n: int, generators):
        self.n = n
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(n)):
                raise ValueError(f"{g} is not a permutation of 0..{n - 1}")
            gens.append(g)
        self.generators = tuple(gens)
        self._elements: tuple[tuple[int, ...], ...] | None = None

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition, each orbit sorted, orbits ordered by minimal member."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.generators:
            for i, gi in enumerate(g):
                ri, rg = find(i), find(gi)
                if ri != rg:
                    parent[rg] = ri
        groups: dict[int, list[int]] = {}
        for i in range(self.n):
            groups.setdefault(find(i), []).append(i)
        return tuple(tuple(sorted(o)) for o in sorted(groups.values(), key=min))

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All group elements (BFS closure over generators), capped."""
        if self._elements is None:
            identity = tuple(range(self.n))
            seen = {identity}
            queue = deque([identity])
            while queue:
                h = queue.popleft()
                for g in self.generators:
                    e = compose(g, h)
                    if e not in seen:
                        if len(seen) >= GROUP_ORDER_CAP:
                            raise ValueError(
                                f"group order exceeds the cap of {GROUP_ORDER_CAP}"
                            )
                        seen.add(e)
                        queue.append(e)
            self._elements = tuple(sorted(seen))
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def stabilizer_order(self, i: int) -> int:
        orbit = next(o for o in self.orbits() if i in o)
        return self.order() // len(orbit)


def is_automorphism(matrix: ExchangeMatrix, g) -> bool:
    b = matrix.entries
    n = matrix.n
    return all(b[g[i]][g[j]] == b[i][j] for i in range(n) for j in range(n))


def is_automorphism_group(matrix: ExchangeMatrix, group: PermutationGroup) -> bool:
    """Checked on generators, which suffices under composition."""
    return all(is_automorphism(matrix, g) for g in group.generators)


def admissibility_witness(matrix: ExchangeMatrix, orbits):
    """A directed path of length <= 2 between distinct same-orbit vertices, or None."""
    b = matrix.entries
    n = matrix.n
    for orbit in orbits:
        for i in orbit:
            for j in orbit:
                if i == j:
                    continue
                if b[i][j] > 0:
                    return (i, j)
                for k in range(n):
                    if b[i][k] > 0 and b[k][j] > 0:
                        return (i, k, j)
    return None


@dataclass
class StabilityVerdict:
    status: str  # "stable-exhaustive" | "stable-to-depth" | "unstable" | "limit-exceeded"
    depth: int
    class_size: int
    witness_word: tuple | None = None
    witness_path: tuple | None = None

    @property
    def stable(self) -> bool:
        return self.status.startswith("stable")


class FoldingPair:
    """An exchange matrix with an automorphism group and cached verdicts."""

    def __init__(self, matrix: ExchangeMatrix, group: PermutationGroup, name: str | None = None):
        if group.n != matrix.n:
            raise ValueError("group degree must match matrix size")
        if not is_automorphism_group(matrix, group):
            raise ValueError("group generators must preserve the matrix")
        self.matrix = matrix
        self.group = group
        self.name = name
        self.orbits = group.orbits()
        self._witness = admissibility_witness(matrix, self.orbits)
        self.admissible = self._witness is None
        self.stability: StabilityVerdict | None = None

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def orbit_labels(self) -> tuple[str, ...]:
        return tuple(self.matrix.labels[o[0]] for o in self.orbits)

    def require_admissible(self) -> None:
        if not self.admissible:
            raise NotAdmissibleError(self._witness)

    def orbit_of(self, i: int) -> int:
        for idx, orbit in enumerate(self.orbits):
            if i in orbit:
                return idx
        raise IndexError(f"vertex {i} out of range")

    def with_matrix(self, matrix: ExchangeMatrix) -> "FoldingPair":
        return FoldingPair(matrix, self.group, self.name)


def quotient_entries(matrix: ExchangeMatrix, orbits) -> tuple[tuple[int, ...], ...]:
    """Raw quotient entries b_{I,J} = sum over k in I of b[k][min J].

    Only requires the orbits to be matrix-invariant (representative
    independence is asserted); admissibility is checked by callers that
    need a valid exchange matrix.
    """
    b = matrix.entries
    rows = []
    for orbit_i in orbits:
        row = []
        for orbit_j in orbits:
            values = {sum(b[k][j] for k in orbit_i) for j in orbit_j}
            if len(values) != 1:
                raise ValueError(
                    "quotient entry depends on the representative; "
                    "the group does not preserve the matrix"
                )
            row.append(values.pop())
        rows.append(tuple(row))
    return tuple(rows)


def quotient_matrix(pair: FoldingPair) -> ExchangeMatrix:
    """The folded exchange matrix of an admissible pair."""
    pair.require_admissible()
    return ExchangeMatrix(quotient_entries(pair.matrix, pair.orbits), pair.orbit_labels())


def quotient_symmetrizer(pair: FoldingPair) -> tuple[int, ...]:
    """delta_I = d_I * |stab(i)| for the orbitwise-constant symmetrizer d."""
    pair.require_admissible()
    d = pair.matrix.symmetrizer
    for orbit in pair.orbits:
        if len({d[i] for i in orbit}) != 1:
            raise ValueError("symmetrizer is not constant on orbits")
    delta = tuple(
        d[orbit[0]] * pair.group.stabilizer_order(orbit[0]) for orbit in pair.orbits
    )
    q = quotient_entries(pair.matrix, pair.orbits)
    m = len(q)
    for i in range(m):
        for j in range(m):
            if delta[i] * q[i][j] != -delta[j] * q[j][i]:
                raise AssertionError("quotient symmetrizer failed verification")
    return delta


def _orbit_mutate_closed_form(matrix: ExchangeMatrix, orbit) -> tuple[tuple[int, ...], ...]:
    """b'_ij = -b_ij if i or j in the orbit, else b_ij + sum over the orbit
    of the usual path contribution; valid when the orbit is mutually
    non-adjacent (admissibility)."""
    b = matrix.entries
    n = matrix.n
    members = set(orbit)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i in members or j in members:
                row.append(-b[i][j])
            else:
                row.append(
                    b[i][j]
                    + sum(
                        (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                        for k in orbit
                    )
                )
        rows.append(tuple(row))
    return tuple(rows)


def orbit_mutate_matrix(pair: FoldingPair, orbit_index: int) -> ExchangeMatrix:
    """Compose the mutations of one orbit; cross-checked against the closed form."""
    pair.require_admissible()
    orbit = pair.orbits[orbit_index]
    result = pair.matrix
    for k in orbit:
        result = result.mutate(k)
    if result.entries != _orbit_mutate_closed_form(pair.matrix, orbit):
        raise AssertionError("orbit mutation disagrees with its closed form")
    return result


def orbit_mutate_seed(pair: FoldingPair, seed: Seed, orbit_index: int, check: bool = True) -> Seed:
    """Orbit mutation of a G-invariant seed (composition over the orbit)."""
    pair.require_admissible()
    if check and not is_invariant_seed(seed, pair.group.generators):
        raise NotInvariantError("orbit mutation requires a G-invariant seed")
    for k in pair.orbits[orbit_index]:
        seed = mutate_seed(seed, k)
    return seed


def compose_orbit_mutations(matrix: ExchangeMatrix, orbits, orbit_index: int) -> ExchangeMatrix:
    """Plain composition of mutations over an orbit with no admissibility check.

    Used to reproduce what happens on non-stable pairs; the members are
    taken in ascending order.
    """
    for k in orbits[orbit_index]:
        matrix = matrix.mutate(k)
    return matrix


def project_vector(vector, orbits) -> tuple[int, ...]:
    """Coordinate sums per orbit."""
    return tuple(sum(vector[i] for i in orbit) for orbit in orbits)


def project_seed(pair: FoldingPair, seed: Seed, check: bool = True) -> Seed:
    """Projection of a G-invariant seed onto the quotient.

    Each orbit contributes the projection of any representative entry;
    well-definedness over the orbit is asserted.
    """
    pair.require_admissible()
    if check and not is_invariant_seed(seed, pair.group.generators):
        raise NotInvariantError("projection requires a G-invariant seed")
    matrix = ExchangeMatrix(quotient_entries(seed.matrix, pair.orbits), pair.orbit_labels())
    cluster = []
    for orbit in pair.orbits:
        images = {seed.cluster[i].project(pair.orbits) for i in orbit}
        if len(images) != 1:
            raise NotInvariantError("cluster projection differs across one orbit")
        cluster.append(images.pop())
    return Seed(matrix, tuple(cluster))


def check_stability(pair: FoldingPair, max_nodes: int = 10_000, max_depth: int = 64) -> StabilityVerdict:
    """BFS over the orbit-mutation class, testing admissibility at every node.

    ``stable-exhaustive`` means the class closed within the limits with
    every member admissible; a failure yields the shortest failing orbit
    word and its witness path.
    """
    pair.require_admissible()
    orbits = pair.orbits
    start = pair.matrix
    visited = {start.entries}
    queue = deque([(start, ())])
    exhaustive = True
    max_seen_depth = 0
    while queue:
        matrix, word = queue.popleft()
        max_seen_depth = max(max_seen_depth, len(word))
        if len(word) >= max_depth:
            exhaustive = False
            continue
        for idx in range(len(orbits)):
            neighbor = compose_orbit_mutations(matrix, orbits, idx)
            if neighbor.entries in visited:
                continue
            new_word = word + (idx,)
            witness = admissibility_witness(neighbor, orbits)
            if witness is not None:
                verdict = StabilityVerdict(
                    status="unstable",
                    depth=len(new_word),
                    class_size=len(visited),
                    witness_word=new_word,
                    witness_path=witness,
                )
                pair.stability = verdict
                return verdict
            if len(visited) >= max_nodes:
                exhaustive = False
                continue
            visited.add(neighbor.entries)
            queue.append((neighbor, new_word))
    verdict = StabilityVerdict(
        status="stable-exhaustive" if exhaustive else "stable-to-depth",
        depth=max_seen_depth,
        class_size=len(visited),
    )
    pair.stability = verdict
    return verdict


@dataclass
class CommutationReport:
    ok: bool
    word: tuple
    quotient_side: Seed
    projected_side: Seed
    detail: str = ""


def verify_commutation(pair: FoldingPair, word, require_stable: bool = True) -> CommutationReport:
    """Compare plain mutation of the quotient seed against orbit mutation
    followed by projection, for one orbit word.

    With ``require_stable`` the admissibility of every prefix is enforced
    and a violation raises NotAdmissibleError; without it the comparison
    proceeds regardless, which is how the known non-stable mismatch is
    reproduced.
    """
    pair.require_admissible()
    word = tuple(word)
    # quotient side: ordinary mutation in the folded algebra
    quotient_seed = initial_seed(quotient_matrix(pair))
    for idx in word:
        quotient_seed = mutate_seed(quotient_seed, idx)
    # ambient side: orbit mutations, then project
    ambient = initial_seed(pair.matrix)
    current = pair
    for step, idx in enumerate(word):
        if require_stable:
            current.require_admissible()
            ambient = orbit_mutate_seed(current, ambient, idx, check=False)
            current = current.with_matrix(ambient.matrix)
        else:
            for k in pair.orbits[idx]:
                ambient = mutate_seed(ambient, k)
    if require_stable:
        current.require_admissible()
        projected = project_seed(pair.with_matrix(ambient.matrix), ambient, check=False)
    else:
        matrix = ExchangeMatrix(quotient_entries(ambient.matrix, pair.orbits), pair.orbit_labels())
        cluster = tuple(
            ambient.cluster[orbit[0]].project(pair.orbits) for orbit in pair.orbits
        )
        projected = Seed(matrix, cluster)
    ok = projected == quotient_seed
    detail = "" if ok else "quotient-side and projected seeds differ"
    return CommutationReport(ok, word, quotient_seed, projected, detail)


def all_orbit_orderings_agree(pair: FoldingPair, orbit_index: int, max_size: int = 4) -> bool:
    """Check order independence of one orbit mutation on matrix and seed."""
    pair.require_admissible()
    orbit = pair.orbits[orbit_index]
    if len(orbit) > max_size:
        raise ValueError(f"orbit too large for exhaustive ordering check ({len(orbit)})")
    seed = initial_seed(pair.matrix)
    reference = None
    for ordering in permutations(orbit):
        candidate = seed
        for k in ordering:
            candidate = mutate_seed(candidate, k)
        if reference is None:
            reference = candidate
        elif candidate != reference:
            return False
    return True
