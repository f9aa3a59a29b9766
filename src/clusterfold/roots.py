"""Root systems of exchange matrices and the folding lemmas.

The roots of an exchange matrix are those of its Cartan counterpart A,
integer coordinate vectors over the simple roots.  The simple reflection
s_i sends v to v - (sum_j a_ij v_j) alpha_i, so only coordinate i
changes.  For finite type the positive roots are the closure of the
simple roots under the reflections, on the BFS engine.
"""

from __future__ import annotations

from .exchange import ExchangeMatrix, cartan_counterpart, classify
from .folding import FoldingPair, project_vector, quotient_matrix
from .search import bfs
from .seeds import LimitExceededError, enumerate_cluster_variables

POSITIVE_ROOT_CAP = 240  # the largest finite root system we accept (E8-sized)


class NotFiniteTypeError(ValueError):
    """The Cartan matrix is not of finite type."""


def reflect(cartan, i: int, v) -> tuple[int, ...]:
    """Simple reflection s_i of the generalized Cartan matrix ``cartan``, in coordinates."""
    n = len(cartan)
    coeff = sum(cartan[i][j] * v[j] for j in range(n))
    out = list(v)
    out[i] -= coeff
    return tuple(out)


def simple_roots(n: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def positive_roots(matrix: ExchangeMatrix) -> frozenset[tuple[int, ...]]:
    """All positive roots of a finite-type exchange matrix, by reflection
    closure of its Cartan counterpart from the zero vector; more than
    POSITIVE_ROOT_CAP raise LimitExceededError."""
    if classify(matrix) != "Finite":
        raise NotFiniteTypeError("positive roots require a finite-type Cartan matrix")
    cartan = cartan_counterpart(matrix)
    n = matrix.n
    zero = (0,) * n
    alphas = simple_roots(n)

    # zero steps to alpha_i, a root v to s_i v, or to zero when s_i v is negative
    # (only coordinate i changes): s_i permutes the positive roots other than alpha_i,
    # so that happens only at v = alpha_i, zero stands in for every negative root, and
    # each move is an involution
    def step(v, i):
        w = alphas[i] if v == zero else reflect(cartan, i, v)
        return w if w[i] >= 0 else zero

    search = bfs(zero, range(n), step, tuple, POSITIVE_ROOT_CAP + 1)
    if search.status != "closed":
        raise LimitExceededError(f"the root system has more than {POSITIVE_ROOT_CAP} positive roots")
    return frozenset(search.visited) - {zero}


def almost_positive_roots(matrix: ExchangeMatrix) -> frozenset[tuple[int, ...]]:
    """Positive roots of a finite-type exchange matrix with the negatives of the simple roots."""
    n = matrix.n
    negatives = {tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)}
    return positive_roots(matrix) | negatives


def verify_root_projection(pair: FoldingPair):
    """Check pi(almost positive roots of B) == almost positive roots of B/G.

    Returns (ok, witness) where the witness is the least vector that only
    the projection has, or when there is none the least that only the
    quotient has.
    """
    ambient = almost_positive_roots(pair.matrix)
    quotient = almost_positive_roots(quotient_matrix(pair))
    projected = {project_vector(v, pair.orbits) for v in ambient}
    if projected == quotient:
        return True, None
    return False, min(projected - quotient or quotient - projected)


def verify_fiber_orbits(pair: FoldingPair):
    """Check that equal-projection roots lie in one G-orbit.

    Returns (ok, witness) with witness a fiber's least root and a member
    outside its orbit under all the group's elements, not only its
    generators.  Exhaustive over the almost positive roots.
    """
    roots = sorted(almost_positive_roots(pair.matrix))
    elements = pair.group.elements()
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for v in roots:
        fibers.setdefault(project_vector(v, pair.orbits), []).append(v)
    for members in fibers.values():
        base = members[0]
        # base under g^-1 (alpha_i -> alpha_{g^-1 i}); over the group, g^-1 runs over it too
        orbit = {tuple(base[i] for i in g) for g in elements}
        for other in members[1:]:
            if other not in orbit:
                return False, (base, other)
    return True, None


def verify_denominator_bijection(matrix: ExchangeMatrix, max_seeds: int = 100_000):
    """Check that denominator vectors biject the cluster variables of a
    finite-type matrix onto its almost positive roots.

    Returns (enumeration, detail): the cluster-variable enumeration and the
    first discrepancy, or None; an enumeration that did not close within
    ``max_seeds`` (its ``.search`` says why) decides nothing.
    """
    roots = almost_positive_roots(matrix)
    result = enumerate_cluster_variables(matrix, max_seeds=max_seeds)
    if not result.complete:
        return result, None
    deltas = {}
    for poly in result.variables:
        delta = poly.denominator_vector()
        if delta in deltas:
            return result, f"denominator vector {delta} is hit twice"
        deltas[delta] = poly
    if set(deltas) != roots:
        missing = sorted(roots - set(deltas))
        extra = sorted(set(deltas) - roots)
        return result, f"mismatch: missing {missing[:3]}, extra {extra[:3]}"
    return result, None
