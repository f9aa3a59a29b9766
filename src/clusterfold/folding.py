"""Folding: automorphism groups, admissible pairs, quotients, orbit mutations.

A folding pair is an exchange matrix together with a permutation group
acting on its vertices by automorphisms.  The pair is admissible when no
two distinct vertices of one orbit are joined by a directed path of
length at most two; admissibility makes orbit mutation well defined and
the quotient matrix skew-symmetrizable.  Stability (every member of the
orbit-mutation class stays admissible) and group closure run on the BFS
engine in :mod:`clusterfold.search`.

There is one orbit step on seeds, :func:`orbit_mutate_seed`: it composes
the mutations of one orbit, checks that the group still preserves the
matrix, and returns the admissibility witness of the result, leaving it
to the caller whether an inadmissible seed may be stepped on from.
:func:`compose_orbit_mutations` is the same step on bare matrices, for
:func:`check_stability`.

:func:`verify_commutation` shares work between words through the pair's
orbit-seed graph, in both its modes.  The graph's nodes are keyed by both
labeled seeds that a word w reaches, (mu_w^G S0, mu_w Q0), under exact
:class:`Seed` equality; an edge is one orbit step upstairs and one
mutation downstairs, computed the first time a word crosses it, and a
node is projected and compared once.  The graph's exchange table divides
once per exchange pair, on either side.  So every check still runs, once
per edge or node instead of once per word, and a word that reaches a
known ambient seed with a different quotient seed lands on a new node:
that is how a mismatch shows.  Whether a word may cross an inadmissible
node is decided per walk, so the stable check and the non-stable
counterexample meet the same nodes.  The graph lives as long as the pair
and grows with the distinct nodes reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import attrgetter

from .exchange import ExchangeMatrix
from .search import bfs
from .seeds import LimitExceededError, Seed, initial_seed, is_invariant_seed, mutate_seed

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
        """All group elements (BFS closure over generators), capped (LimitExceededError)."""
        if self._elements is None:
            search = bfs(tuple(range(self.n)), self.generators,
                         lambda h, g: compose(g, h), tuple, GROUP_ORDER_CAP)
            if search.status != "closed":
                raise LimitExceededError(f"group order exceeds the cap of {GROUP_ORDER_CAP}")
            self._elements = tuple(sorted(search.visited))
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
    """Outcome of :func:`check_stability`.

    status is "stable-exhaustive" (the orbit-mutation class closed with
    every member admissible), "unstable" (with the shortest failing
    orbit word and its directed-path witness), "limit-exceeded" or
    "overflow"; the last two decide nothing.  class_size counts the
    members visited; depth is the length of the witness word when
    unstable, else of the longest orbit word expanded.
    """

    status: str
    depth: int
    class_size: int
    witness_word: tuple | None = None
    witness_path: tuple | None = None

    @property
    def stable(self) -> bool:
        return self.status == "stable-exhaustive"


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
        self._quotient: ExchangeMatrix | None = None
        self._orbit_seeds: OrbitSeedGraph | None = None

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def orbit_labels(self) -> tuple[str, ...]:
        return tuple(self.matrix.labels[o[0]] for o in self.orbits)

    def require_admissible(self) -> None:
        if not self.admissible:
            raise NotAdmissibleError(self._witness)


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
    """The folded exchange matrix of an admissible pair, built once per pair."""
    pair.require_admissible()
    if pair._quotient is None:
        pair._quotient = ExchangeMatrix(
            quotient_entries(pair.matrix, pair.orbits), pair.orbit_labels()
        )
    return pair._quotient


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


def orbit_mutate_seed(pair: FoldingPair, seed: Seed, orbit_index: int, *,
                      exchanges: dict | None = None) -> tuple[Seed, tuple | None]:
    """The orbit step: compose the mutations of one orbit, members in
    ascending order, on a seed of the pair.

    The result's matrix must still be preserved by the group (else
    ValueError).  Returns the seed and the admissibility witness of its
    matrix (None when admissible); whether an inadmissible seed may be
    stepped on from is the caller's decision.  ``exchanges`` is passed on
    to :func:`mutate_seed`.
    """
    for k in pair.orbits[orbit_index]:
        seed = mutate_seed(seed, k, exchanges=exchanges)
    if not is_automorphism_group(seed.matrix, pair.group):
        raise ValueError("group generators must preserve the matrix")
    return seed, admissibility_witness(seed.matrix, pair.orbits)


def orbit_mutate_word(pair: FoldingPair, seed: Seed, word) -> tuple[Seed, tuple | None]:
    """Orbit-mutate a G-invariant seed of the pair along an orbit word.

    The seed must be G-invariant (else NotInvariantError); the orbit step
    keeps it so.  Each step needs an admissible current matrix, the
    given seed's included (else NotAdmissibleError with its witness).
    The group's orbits do not depend on the matrix, so the pair's orbits
    serve every step.  Returns the final seed and the admissibility
    witness of its matrix (None when admissible).
    """
    if not is_invariant_seed(seed, pair.group.generators):
        raise NotInvariantError("orbit mutation requires a G-invariant seed")
    witness = admissibility_witness(seed.matrix, pair.orbits)
    for idx in word:
        if not 0 <= idx < pair.orbit_count:
            raise ValueError(f"orbit index {idx + 1} out of range")
        if witness is not None:
            raise NotAdmissibleError(witness)
        seed, witness = orbit_mutate_seed(pair, seed, idx)
    return seed, witness


def compose_orbit_mutations(matrix: ExchangeMatrix, orbits, orbit_index: int) -> ExchangeMatrix:
    """Plain composition of mutations over an orbit with no admissibility check.

    Callers that need admissibility check it themselves; on non-stable
    pairs this reproduces what happens without it.  The members are taken
    in ascending order.
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
    well-definedness over the orbit is asserted.  The projected matrix is
    checked in integers against the symmetrizer D of the pair's quotient
    matrix (validated once per pair) and carries it, else
    NotSkewSymmetrizableError: every matrix of the quotient's mutation
    class has that D, because mutation preserves it.
    """
    quotient = quotient_matrix(pair)
    if check and not is_invariant_seed(seed, pair.group.generators):
        raise NotInvariantError("projection requires a G-invariant seed")
    matrix = ExchangeMatrix.from_symmetrizer(
        quotient_entries(seed.matrix, pair.orbits), quotient.labels, quotient.symmetrizer
    )
    cluster = []
    for orbit in pair.orbits:
        images = {seed.cluster[i].project(pair.orbits) for i in orbit}
        if len(images) != 1:
            raise NotInvariantError("cluster projection differs across one orbit")
        cluster.append(images.pop())
    return Seed(matrix, tuple(cluster))


def check_stability(pair: FoldingPair, max_nodes: int = 10_000) -> StabilityVerdict:
    """BFS over the orbit-mutation class, testing admissibility at every node.

    The search stops at the first inadmissible member, at the first
    member refused by ``max_nodes``, or on entry overflow.  Members are
    admissible before they are expanded, so orbit mutation is an involution
    on them and each edge is composed once (n·s/2 mutations for size s): an
    overflow that only the uncomputed reverse composition could hit is not
    reported, though members' entries are still range-checked.
    """
    pair.require_admissible()
    orbits = pair.orbits
    search = bfs(
        pair.matrix,
        range(len(orbits)),
        lambda matrix, idx: compose_orbit_mutations(matrix, orbits, idx),
        attrgetter("entries"),
        max_nodes,
        on_new=lambda matrix, word: admissibility_witness(matrix, orbits),
        involutive=True,
    )
    size = len(search.visited)
    if search.status == "witness":
        return StabilityVerdict("unstable", len(search.word), size, search.word, search.witness)
    status = "stable-exhaustive" if search.status == "closed" else search.status
    return StabilityVerdict(status, search.depth, size)


class _OrbitSeedNode:
    """The labeled pair (mu_w^G S0, mu_w Q0) that an orbit word w reaches."""

    __slots__ = ("ambient", "quotient", "witness", "children", "verdict")

    def __init__(self, ambient: Seed, quotient: Seed, witness):
        self.ambient = ambient
        self.quotient = quotient
        self.witness = witness  # admissibility witness of ambient.matrix, None when admissible
        self.children: dict[int, _OrbitSeedNode] = {}  # orbit index -> node
        self.verdict: tuple[bool, Seed] | None = None  # (ok, projected seed), on first use


class OrbitSeedGraph:
    """The part of a pair's orbit-seed graph that commutation words have reached.

    ``nodes`` maps (ambient seed, quotient seed) to its node; the first
    is the pair of initial seeds.  An edge is computed once, upstairs by
    :func:`orbit_mutate_seed` and downstairs by :func:`mutate_seed`; the
    child is then looked up by equality, so words that reach the same
    pair share one node.  Both sides share one exchange table (see
    :func:`mutate_seed`), so each exchange pair is divided once, whichever
    side meets it: an entry is an exact identity in the Laurent ring of
    its variables.  A node keeps its admissibility witness, so a walk
    that must not cross an inadmissible node raises with it whether or
    not an earlier walk crossed it.
    """

    def __init__(self, pair: FoldingPair):
        self.pair = pair
        self.exchanges: dict = {}
        self.root = _OrbitSeedNode(
            initial_seed(pair.matrix), initial_seed(quotient_matrix(pair)), pair._witness
        )
        self.nodes = {(self.root.ambient, self.root.quotient): self.root}

    def walk(self, word, require_admissible: bool) -> _OrbitSeedNode:
        """The node a word of in-range orbit indices reaches.  With
        ``require_admissible``, NotAdmissibleError with the witness of the
        first inadmissible node the word continues from or ends at."""
        node = self.root
        for idx in word:
            if require_admissible and node.witness is not None:
                raise NotAdmissibleError(node.witness)
            child = node.children.get(idx)
            if child is None:
                child = node.children[idx] = self._step(node, idx)
            node = child
        if require_admissible and node.witness is not None:
            raise NotAdmissibleError(node.witness)
        return node

    def _step(self, node: _OrbitSeedNode, idx: int) -> _OrbitSeedNode:
        ambient, witness = orbit_mutate_seed(self.pair, node.ambient, idx,
                                             exchanges=self.exchanges)
        quotient = mutate_seed(node.quotient, idx, exchanges=self.exchanges)
        key = (ambient, quotient)
        child = self.nodes.get(key)
        if child is None:
            child = self.nodes[key] = _OrbitSeedNode(ambient, quotient, witness)
        return child

    def verdict(self, node: _OrbitSeedNode) -> tuple[bool, Seed]:
        """(projection equals the quotient seed, projected seed), computed once per node."""
        if node.verdict is None:
            projected = project_seed(self.pair, node.ambient, check=False)
            node.verdict = (projected == node.quotient, projected)
        return node.verdict


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

    An orbit index out of range raises ValueError before any work.  The
    word is walked through the pair's :class:`OrbitSeedGraph` in both
    modes, so each orbit step, mutation, projection and comparison is
    computed once per edge or node the words reach, not once per word.
    The node key is both labeled seeds, so the result is the one a
    per-word computation gives; memory grows with the distinct nodes
    reached.  With ``require_stable`` the admissibility of every prefix is
    enforced (NotAdmissibleError with the witness of the first
    inadmissible node the word continues from or ends at, on every call).
    Without it the word may cross inadmissible nodes, which is how the
    known non-stable mismatch is reproduced; the group must still preserve
    every matrix on the way (else ValueError), and the projection is still
    checked (NotInvariantError, NotSkewSymmetrizableError).
    """
    pair.require_admissible()
    word = tuple(word)
    for idx in word:
        if not 0 <= idx < pair.orbit_count:
            raise ValueError(f"orbit index {idx + 1} out of range")
    if pair._orbit_seeds is None:
        pair._orbit_seeds = OrbitSeedGraph(pair)
    node = pair._orbit_seeds.walk(word, require_stable)
    ok, projected = pair._orbit_seeds.verdict(node)
    detail = "" if ok else "quotient-side and projected seeds differ"
    return CommutationReport(ok, word, node.quotient, projected, detail)


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
