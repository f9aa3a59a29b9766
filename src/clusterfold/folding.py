"""Folding: automorphism groups, admissible pairs, quotients, orbit mutations.

A folding pair is an exchange matrix together with a permutation group
acting on its vertices by automorphisms.  The pair is admissible when no
two distinct vertices of one orbit are joined by a directed path of
length at most two; admissibility makes orbit mutation well defined and
the quotient matrix skew-symmetrizable.  Stability (every member of the
orbit-mutation class stays admissible), orbits and group closure run on
the BFS engine in :mod:`clusterfold.search`.

There is one orbit step on seeds, :func:`orbit_mutate_seed`: it composes
the mutations of one orbit, checks that the group still preserves the
matrix, and returns the admissibility witness of the result, leaving it
to the caller whether an inadmissible seed may be stepped on from.
:func:`compose_orbit_mutations` is the same step on bare matrices, for
:func:`check_stability`.

Commutation is checked on the pair's orbit-seed graph.  Its nodes are
keyed by both labeled seeds that a word w reaches, (mu_w^G S0, mu_w Q0),
under exact :class:`Seed` equality, so a word that reaches a known ambient
seed with a different quotient seed lands on a new node: that is how a
mismatch shows.  An edge, one orbit step upstairs and one mutation
downstairs, is computed once (in one direction from an admissible node)
with at most one division per exchange pair, and a node is projected and
compared once.  A node is the :class:`CommutationReport` of every word
that reaches it, so :func:`check_commutation` certifies the words of
length <= d by the nodes at BFS depth <= d, with no word loop, and
:func:`verify_commutation` walks one word, across inadmissible nodes when
asked to, and returns the node it reaches.  The graph lives as long as
the pair and grows with the distinct nodes reached.
"""

from __future__ import annotations

import functools
from itertools import permutations
from operator import attrgetter

from .exchange import ExchangeMatrix
from .search import Search, bfs
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

    Orbits and elements are closures over the generators on the BFS
    engine; element enumeration is lazy and capped at GROUP_ORDER_CAP.
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
        """Orbit partition, each orbit sorted, orbits ordered by minimal member:
        each orbit is the closure of the least vertex no earlier orbit holds."""
        orbits, seen = [], set()
        for i in range(self.n):
            if i not in seen:
                orbit = bfs(i, self.generators, lambda v, g: g[v], int, self.n).visited
                seen.update(orbit)
                orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)

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


def is_automorphism(matrix: ExchangeMatrix, g) -> bool:
    b = matrix.entries
    n = matrix.n
    return all(b[g[i]][g[j]] == b[i][j] for i in range(n) for j in range(n))


def is_automorphism_group(matrix: ExchangeMatrix, group: PermutationGroup) -> bool:
    """Checked on generators, which suffices under composition."""
    return all(is_automorphism(matrix, g) for g in group.generators)


@functools.cache
def _same_orbit_pairs(orbits) -> tuple[tuple[int, int], ...]:
    """The ordered pairs (i, j), i != j, of one orbit: orbit by orbit, i then j ascending."""
    return tuple((i, j) for orbit in orbits for i in orbit for j in orbit if i != j)


def admissibility_witness(matrix: ExchangeMatrix, orbits):
    """A directed path of length <= 2 between distinct same-orbit vertices, or None.

    ``orbits`` is a tuple of vertex tuples, as :attr:`FoldingPair.orbits`;
    its same-orbit pairs are listed once per partition, and each pair
    (i, j) is tested for i -> j, then for i -> k -> j with k ascending."""
    b = matrix.entries
    for i, j in _same_orbit_pairs(orbits):
        row = b[i]
        if row[j] > 0:
            return (i, j)
        for k, x in enumerate(row):
            if x > 0 and b[k][j] > 0:
                return (i, k, j)
    return None


_STABILITY_WORDS = {"closed": "stable-exhaustive", "witness": "unstable"}


class StabilityVerdict:
    """Outcome of :func:`check_stability`: the engine's ``search`` over the
    orbit-mutation class.

    status is its status, with "closed" read as "stable-exhaustive" (every
    member admissible) and "witness" as "unstable" (witness_word is the
    shortest failing orbit word, witness_path its directed path);
    "limit-exceeded" and "overflow" decide nothing.
    """

    __slots__ = ("search",)

    def __init__(self, search: Search):
        self.search = search

    status = property(lambda self: _STABILITY_WORDS.get(self.search.status, self.search.status))
    stable = property(lambda self: self.search.status == "closed")
    class_size = property(lambda self: self.search.size)
    witness_word = property(lambda self: self.search.word)
    witness_path = property(lambda self: self.search.witness)


class FoldingPair:
    """An exchange matrix with an automorphism group and cached verdicts;
    ``witness`` is the admissibility witness, None on an admissible pair."""

    def __init__(self, matrix: ExchangeMatrix, group: PermutationGroup):
        if group.n != matrix.n:
            raise ValueError("group degree must match matrix size")
        if not is_automorphism_group(matrix, group):
            raise ValueError("group generators must preserve the matrix")
        self.matrix = matrix
        self.group = group
        self.orbits = group.orbits()
        self.witness = admissibility_witness(matrix, self.orbits)
        self.admissible = self.witness is None
        self._quotient: ExchangeMatrix | None = None
        self._orbit_seeds: OrbitSeedGraph | None = None
        self._projections: dict = {}  # ambient variable -> its projection, once (project_seed)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def require_admissible(self) -> None:
        if not self.admissible:
            raise NotAdmissibleError(self.witness)


def quotient_entries(matrix: ExchangeMatrix, orbits) -> tuple[tuple[int, ...], ...]:
    """Raw quotient entries b_{I,J} = sum over k in I of b[k][min J].

    The rows of each orbit I are summed once, and the sum must not depend
    on the member of J it is read at.  Only requires the orbits
    to be matrix-invariant (representative independence is asserted, the
    first failing (I, J) in row-major order raising ValueError);
    admissibility is checked by callers that need a valid exchange matrix.
    """
    b = matrix.entries
    rows = []
    for orbit_i in orbits:
        sums = list(map(sum, zip(*[b[k] for k in orbit_i])))
        row = []
        for orbit_j in orbits:
            value = sums[orbit_j[0]]
            for j in orbit_j:
                if sums[j] != value:
                    raise ValueError(
                        "quotient entry depends on the representative; "
                        "the group does not preserve the matrix"
                    )
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows)


def quotient_matrix(pair: FoldingPair) -> ExchangeMatrix:
    """The folded exchange matrix of an admissible pair, built once per pair."""
    pair.require_admissible()
    if pair._quotient is None:
        pair._quotient = ExchangeMatrix(quotient_entries(pair.matrix, pair.orbits))
    return pair._quotient


def quotient_symmetrizer(pair: FoldingPair) -> tuple[int, ...]:
    """delta_I = d_I * |G| / |I| = d_I * |stab(i)| for the orbitwise-constant
    symmetrizer d, checked by :meth:`ExchangeMatrix.from_symmetrizer`."""
    pair.require_admissible()
    d = pair.matrix.symmetrizer
    for orbit in pair.orbits:
        if len({d[i] for i in orbit}) != 1:
            raise ValueError("symmetrizer is not constant on orbits")
    order = pair.group.order()
    delta = tuple(d[orbit[0]] * order // len(orbit) for orbit in pair.orbits)
    ExchangeMatrix.from_symmetrizer(quotient_matrix(pair).entries, delta)
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


def _checked_orbit_word(pair: FoldingPair, word) -> tuple[int, ...]:
    """The word as a tuple; ValueError at its first orbit index out of range."""
    word, count = tuple(word), len(pair.orbits)
    for idx in word:
        if not 0 <= idx < count:
            raise ValueError(f"orbit index {idx + 1} out of range")
    return word


def orbit_mutate_word(pair: FoldingPair, seed: Seed, word) -> tuple[Seed, tuple | None]:
    """Orbit-mutate a G-invariant seed of the pair along an orbit word.

    The seed must be G-invariant (else NotInvariantError); the orbit step
    keeps it so.  An orbit index out of range raises ValueError before any
    step.  Each step needs an admissible current matrix, the given seed's
    included (else NotAdmissibleError with its witness).  The group's
    orbits do not depend on the matrix, so the pair's orbits serve every
    step.  Returns the final seed and the admissibility witness of its
    matrix (None when admissible).
    """
    if not is_invariant_seed(seed, pair.group.generators):
        raise NotInvariantError("orbit mutation requires a G-invariant seed")
    word = _checked_orbit_word(pair, word)
    witness = admissibility_witness(seed.matrix, pair.orbits)
    for idx in word:
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
    matrix = ExchangeMatrix.from_symmetrizer(quotient_entries(seed.matrix, pair.orbits),
                                             quotient.symmetrizer)
    for x in seed.cluster:
        if x not in pair._projections:
            pair._projections[x] = x.project(pair.orbits)
    cluster = []
    for orbit in pair.orbits:
        images = {pair._projections[seed.cluster[i]] for i in orbit}
        if len(images) != 1:
            raise NotInvariantError("cluster projection differs across one orbit")
        cluster.append(images.pop())
    return Seed(matrix, tuple(cluster))


def check_stability(pair: FoldingPair, max_nodes: int = 10_000) -> StabilityVerdict:
    """BFS over the orbit-mutation class, testing admissibility at every node.

    The search stops at the first inadmissible member, at the first
    member refused by ``max_nodes``, or on entry overflow.  Every member
    the engine expands is admissible, the start by ``require_admissible``
    and every other member by its witness test before it is admitted, so
    orbit mutation is an involution on them and each edge is composed at
    most once.  Where the block of B on the orbits J ∪ K is zero, the
    mutations at its vertices pairwise commute and keep it zero, so
    μ_J B = μ_K μ_J μ_K B, and that edge is read off a known square without
    composing.  Admissibility makes every entry within one orbit zero, so
    on the members the engine asks about the block is zero exactly when
    its J×K cross entries are, and only those are read.  An overflow that
    only an uncomputed composition could hit is not reported, though
    members' entries are still range-checked.
    """
    pair.require_admissible()
    orbits = pair.orbits
    # b_vu = 0 exactly when b_uv = 0, so the rows of J suffice
    cross = [[tuple((u, v) for u in orbit_j for v in orbit_k) for orbit_k in orbits]
             for orbit_j in orbits]

    def zero_block(matrix, j, k):
        b = matrix.entries
        for u, v in cross[j][k]:  # a plain loop: faster here than any() over a generator
            if b[u][v]:
                return False
        return True

    search = bfs(
        pair.matrix,
        range(len(orbits)),
        lambda matrix, idx: compose_orbit_mutations(matrix, orbits, idx),
        attrgetter("entries"),
        max_nodes,
        on_new=lambda matrix, word: admissibility_witness(matrix, orbits),
        commutes=zero_block,
    )
    return StabilityVerdict(search)


class CommutationReport:
    """The labeled pair (mu_w^G S0, mu_w Q0) that an orbit word w reaches,
    which is the report of every word that reaches it.  ``witness`` is the
    admissibility witness of ``ambient.matrix`` (None when admissible);
    ``ok`` and ``projected_side`` stay None until the node is settled."""

    __slots__ = ("ambient", "quotient_side", "witness", "children", "ok", "projected_side")

    def __init__(self, ambient: Seed, quotient_side: Seed, witness):
        self.ambient = ambient
        self.quotient_side = quotient_side
        self.witness = witness
        self.children: dict[int, CommutationReport] = {}  # orbit index -> node
        self.ok = self.projected_side = None  # set once, by OrbitSeedGraph.settle


class OrbitSeedGraph:
    """The part of a pair's orbit-seed graph that commutation words have reached.

    ``nodes`` maps (ambient seed, quotient seed) to its node; the first
    is the pair of initial seeds.  An edge is computed once, upstairs by
    :func:`orbit_mutate_seed` and downstairs by :func:`mutate_seed`, and a
    step from an admissible node also records the way back, since there
    mu_I∘mu_I = id; the child is looked up by equality, so words that
    reach the same pair share one node.  Both sides share one exchange
    table (see :func:`mutate_seed`), so each exchange pair is divided at
    most once: an entry is an exact identity in the Laurent ring of its
    variables.  A node keeps its admissibility witness, so a walk
    that must not cross an inadmissible node raises with it whether or
    not an earlier walk crossed it.
    """

    def __init__(self, pair: FoldingPair):
        self.pair = pair
        self.exchanges: dict = {}
        self.root = CommutationReport(
            initial_seed(pair.matrix), initial_seed(quotient_matrix(pair)), pair.witness
        )
        self.nodes = {(self.root.ambient, self.root.quotient_side): self.root}

    def _step(self, node: CommutationReport, idx: int) -> CommutationReport:
        child = node.children.get(idx)
        if child is None:
            ambient, witness = orbit_mutate_seed(self.pair, node.ambient, idx,
                                                 exchanges=self.exchanges)
            quotient = mutate_seed(node.quotient_side, idx, exchanges=self.exchanges)
            child = self.nodes.get((ambient, quotient))
            if child is None:
                child = self.nodes[ambient, quotient] = CommutationReport(ambient, quotient, witness)
            node.children[idx] = child
            if node.witness is None:  # the way back: mu_I∘mu_I = id at an admissible node
                child.children[idx] = node
        return child

    def settle(self, node: CommutationReport) -> CommutationReport:
        """The node, projected and compared with its quotient seed once."""
        if node.ok is None:
            projected = project_seed(self.pair, node.ambient, check=False)
            node.ok, node.projected_side = projected == node.quotient_side, projected
        return node


def verify_commutation(pair: FoldingPair, word, require_stable: bool = True) -> CommutationReport:
    """Compare plain mutation of the quotient seed against orbit mutation
    followed by projection, for one orbit word: the report is the settled
    node the word reaches, so words that reach one node return that node.

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
    word = _checked_orbit_word(pair, word)
    graph = pair._orbit_seeds
    if graph is None:
        graph = pair._orbit_seeds = OrbitSeedGraph(pair)
    node = graph.root
    for idx in word:
        if require_stable and node.witness is not None:
            raise NotAdmissibleError(node.witness)
        node = node.children.get(idx) or graph._step(node, idx)
    if require_stable and node.witness is not None:
        raise NotAdmissibleError(node.witness)
    return graph.settle(node)


def check_commutation(pair: FoldingPair, max_depth: int) -> Search:
    """Commutation on the orbit words of length <= max_depth, as the nodes at
    BFS depth <= max_depth, root first.  Moves ascend, so the witness (the
    first mismatching node) is met by the shortlex-first failing word; an
    inadmissible node raises NotAdmissibleError.  There is no node limit: a
    node at max_depth ends it "limit-exceeded", every node met verified."""
    root = verify_commutation(pair, ())  # the empty word; it builds the graph
    if not root.ok:
        return Search("witness", {id(root): 0}, 0, 0, root, ())
    graph = pair._orbit_seeds

    def mismatch(node, word):
        if node.witness is not None:
            raise NotAdmissibleError(node.witness)
        return None if graph.settle(node).ok else node

    return bfs(root, range(pair.orbit_count), graph._step, id, float("inf"),
               max_depth=max_depth, on_new=mismatch)


def all_orbit_orderings_agree(pair: FoldingPair, orbit_index: int) -> bool:
    """Check order independence of one orbit mutation (at most 4 vertices) on matrix and seed."""
    pair.require_admissible()
    orbit = pair.orbits[orbit_index]
    if len(orbit) > 4:
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
