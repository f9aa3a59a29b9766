"""Constructors and names for Dynkin/affine diagrams, and the folding-pair catalog.

Diagram names use ASCII: finite types "A3", "B2", "C3", "D4", "E6",
"F4", "G2"; affine types are prefixed with "~" ("~A3", "~B2", "~BC2",
"~A1(2)", "~F4(1)", "~G2(2)", ...).  One table per tag holds each family
with its smallest rank, and the names of fixed rank.
:func:`diagram_name` names a connected Finite or Affine exchange matrix by
the reference diagram whose canonical form its Cartan counterpart shares.

Chain conventions (reading the Cartan matrix along the chain):
  B_n has its short end last (c[n-1][n] = -1, c[n][n-1] = -2),
  C_n the other way (c[n-1][n] = -2, c[n][n-1] = -1);
  at rank 2 the two coincide up to relabeling and the single name "B2"
  is used, as "A3" is for D3.  Diagrams are oriented bipartitely (a
  vertex's colour is the parity of its distance from the least vertex of
  its component; arrows run from odd to even), except the cycles ~An,
  which get an acyclic linear orientation.  A quiver given by its arrows,
  as ~An, the stars and some rows of the pair table are, is simply laced:
  each arrow s -> t is b_st = 1, b_ts = -1.  Each folding pair's row
  states how its ambient quiver is oriented, and every row's group
  preserves it.
"""

from __future__ import annotations

import functools

from .exchange import ExchangeMatrix, canonical_form, cartan_counterpart, classify
from .folding import FoldingPair, PermutationGroup
from .io import parse_permutation


# ---------------------------------------------------------------------------
# Cartan-matrix shapes


def _cartan_from_edges(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """edges: (i, j, a, b) meaning c[i][j] = -a and c[j][i] = -b."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a, b in edges:
        c[i][j] = -a
        c[j][i] = -b
    return tuple(tuple(row) for row in c)


def _chain(pairs, start: int = 0, forks=()) -> tuple[tuple[int, ...], ...]:
    """A chain from vertex ``start`` with (a, b) value pairs per consecutive
    edge, plus the simple edges (i, j) of ``forks``."""
    edges = [(start + i, start + i + 1, a, b) for i, (a, b) in enumerate(pairs)]
    edges += [(i, j, 1, 1) for i, j in forks]
    n = 1 + max([start + len(pairs), *(max(fork) for fork in forks)])
    return _cartan_from_edges(n, edges)


# tag -> ({family: (smallest n, Cartan builder)}, {name of fixed rank: Cartan matrix})
_DIAGRAMS = {
    "Finite": ({
        "A": (1, lambda n: _chain([(1, 1)] * (n - 1))),
        "B": (2, lambda n: _chain([(1, 1)] * (n - 2) + [(1, 2)])),
        "C": (3, lambda n: _chain([(1, 1)] * (n - 2) + [(2, 1)])),
        "D": (4, lambda n: _chain([(1, 1)] * (n - 2), forks=[(n - 3, n - 1)])),
    }, {
        **{f"E{n}": _chain([(1, 1)] * (n - 2), forks=[(2, n - 1)]) for n in (6, 7, 8)},
        "F4": _chain([(1, 1), (1, 2), (1, 1)]),
        "G2": _chain([(1, 3)]),
    }),
    "Affine": ({
        "~A": (2, lambda n: _chain([(1, 1)] * n, forks=[(0, n)])),
        "~B": (2, lambda n: _chain([(1, 2)] + [(1, 1)] * (n - 2) + [(2, 1)])),
        "~C": (2, lambda n: _chain([(2, 1)] + [(1, 1)] * (n - 2) + [(1, 2)])),
        "~BC": (2, lambda n: _chain([(1, 2)] + [(1, 1)] * (n - 2) + [(1, 2)])),
        "~BD": (2, lambda n: _chain([(1, 1)] * (n - 2) + [(2, 1)], 2, [(0, 2), (1, 2)])),
        "~CD": (3, lambda n: _chain([(1, 1)] * (n - 3) + [(1, 2)], 2, [(0, 2), (1, 2)])),
        "~D": (4, lambda n: _chain([(1, 1)] * (n - 4), 2,
                                   [(0, 2), (1, 2), (n - 2, n - 1), (n - 2, n)])),
    }, {
        "~A1": _chain([(2, 2)]),
        "~A1(2)": _chain([(1, 4)]),
        "~E6": _chain([(1, 1)] * 4, forks=[(2, 5), (5, 6)]),
        "~E7": _chain([(1, 1)] * 6, forks=[(3, 7)]),
        "~E8": _chain([(1, 1)] * 7, forks=[(2, 8)]),
        "~F4(1)": _chain([(1, 1), (1, 1), (1, 2), (1, 1)]),
        "~F4(2)": _chain([(1, 1), (1, 1), (2, 1), (1, 1)]),
        "~G2(1)": _chain([(1, 1), (1, 3)]),
        "~G2(2)": _chain([(1, 1), (3, 1)]),
    }),
}


def _cartan(name: str, tag: str) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of a name in the tag's table ("B3", "~A1(2)")."""
    families, fixed = _DIAGRAMS[tag]
    if name in fixed:
        return fixed[name]
    family = name.rstrip("0123456789")
    if family in families and family != name:
        smallest, build = families[family]
        if (n := int(name[len(family):])) >= smallest:
            return build(n)
    raise ValueError(f"unknown {tag.lower()} diagram {name!r}")


@functools.cache
def named_cartan_matrices(tag: str):
    """Reference (name, cartan) diagrams of a classification tag, rank <= 12.

    Consumed by :func:`diagram_name`; the names of fixed rank come first,
    then each family in rank order.
    """
    if tag not in _DIAGRAMS:
        raise ValueError(f"no named diagrams for tag {tag!r}")
    families, fixed = _DIAGRAMS[tag]
    out = list(fixed.items())
    for family, (n, build) in families.items():
        while len(cartan := build(n)) <= 12:
            out.append((f"{family}{n}", cartan))
            n += 1
    return tuple(out)


@functools.cache
def _reference_forms(tag: str, n: int) -> dict:
    """Canonical form -> name of the reference diagrams of one tag and rank."""
    names = {}
    for name, reference in named_cartan_matrices(tag):
        if len(reference) == n:
            names.setdefault(canonical_form(reference), name)
    return names


def diagram_name(matrix: ExchangeMatrix) -> str | None:
    """The name of a connected Finite or Affine diagram, else None.

    One dict lookup of the canonical form of the Cartan counterpart among
    the reference diagrams of its tag and rank; an Indefinite or a
    disconnected diagram is unnamed.  Connectivity is tested before the
    canonical form, which costs up to n! on a symmetric disconnected diagram.
    """
    tag = classify(matrix)
    if tag == "Indefinite" or not (names := _reference_forms(tag, matrix.n)):
        return None
    cartan = cartan_counterpart(matrix)
    reached = [0]  # the component of vertex 0, grown while it is read
    for i in reached:
        reached += [j for j, c in enumerate(cartan[i]) if c and j not in reached]
    if len(reached) < matrix.n:
        return None
    return names.get(canonical_form(cartan))


# ---------------------------------------------------------------------------
# orientation


def orient_cartan(cartan) -> ExchangeMatrix:
    """Build an exchange matrix from a symmetrizable Cartan matrix, with
    arrows from odd to even vertices, a colour being the parity of the
    distance from the least vertex of the component: b_ij = |c_ij| from an
    odd i, -|c_ij| from an even one.  The diagram must be bipartite, which
    every tree and even cycle is (else ValueError)."""
    n = len(cartan)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(n):
                if w != v and cartan[v][w]:
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        raise ValueError("diagram is not bipartite")
    return ExchangeMatrix([[0 if i == j else abs(c) if color[i] else -abs(c)
                            for j, c in enumerate(row)] for i, row in enumerate(cartan)])


def dynkin(family: str, n: int) -> ExchangeMatrix:
    """An exchange matrix whose Cartan counterpart is the named finite type."""
    return orient_cartan(_cartan(f"{family}{n}", "Finite"))


def affine(name: str) -> ExchangeMatrix:
    """An exchange matrix whose Cartan counterpart is the named affine type.

    ``name`` carries the leading '~'.  Cycles (~An) get an acyclic
    linear-cycle orientation; everything else is alternating.
    """
    cartan = _cartan(name, "Affine")
    m = len(cartan)
    if name[1] == "A" and m > 2:
        return _quiver(m, [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)])
    return orient_cartan(cartan)


# ---------------------------------------------------------------------------
# folding pairs


class CatalogEntry:
    __slots__ = ("name", "pair", "expected_quotient_name", "note")

    def __init__(self, name: str, pair: FoldingPair, expected_quotient_name: str | None, note: str):
        self.name = name
        self.pair = pair
        self.expected_quotient_name = expected_quotient_name
        self.note = note


def _entry(name: str, matrix: ExchangeMatrix, generators: str, quotient: str | None,
           note: str = "") -> CatalogEntry:
    """``generators``: 1-based cycle notation, one generator per ';'-separated part."""
    group = PermutationGroup(matrix.n, [parse_permutation(g, matrix.n)
                                        for g in generators.split(";")])
    return CatalogEntry(name, FoldingPair(matrix, group), quotient, note)


def _star(leaves: int) -> ExchangeMatrix:
    """Vertex 0 with ``leaves`` leaves, every arrow pointing into it (bipartite)."""
    return _quiver(leaves + 1, [(k, 0) for k in range(1, leaves + 1)])


def _quiver(n: int, arrows) -> ExchangeMatrix:
    """The simply-laced quiver with the given (source, target) arrows."""
    b = [[0] * n for _ in range(n)]
    for s, t in arrows:
        b[s][t], b[t][s] = 1, -1
    return ExchangeMatrix(b)


# name -> (ambient, generators, expected quotient name, note); an ambient is
# oriented bipartitely unless _quiver lists its arrows
_FIXED = {
    "A3toB2": (lambda: dynkin("A", 3), "(1 3)", "B2", ""),
    "A5toC3": (lambda: dynkin("A", 5), "(1 5)(2 4)", "C3", ""),
    "D4toB3": (lambda: dynkin("D", 4), "(3 4)", "B3", ""),
    "E6toF4": (lambda: dynkin("E", 6), "(1 5)(2 4)", "F4", ""),
    "D4toG2": (lambda: _star(3), "(2 3); (2 3 4)", "G2", ""),
    # the square and the hexagon: arrows from even to odd layers
    "squaretoK2": (lambda: _quiver(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
                   "(1 2); (3 4)", "~A1", ""),
    "hexagontoK2": (lambda: _quiver(6, [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)]),
                    "(1 2 3)(4 5 6)", "~A1",
                    "single diagonal generator; the two 3-cycles are not separately automorphisms"),
    "D4t-A1t2": (lambda: _star(4), "(2 3); (2 3 4 5)", "~A1(2)", ""),
    "D4t-G2t1": (lambda: _star(4), "(2 3); (2 3 4)", "~G2(1)", ""),
    "D4t-A1t2-c4": (lambda: _star(4), "(2 3 4 5)", "~A1(2)",
                    "two-orbit pair used for the strict-inclusion experiment"),
    # a2=0, a1=1, z=2, b1=3, b2=4, c1=5, c2=6
    "E6t-F4t1": (lambda: affine("~E6"), "(4 6)(5 7)", "~F4(1)", ""),
    # b=0, z=1, a-chain 2,3,4, c-chain 5,6,7
    "E7t-F4t2": (lambda: orient_cartan(_chain([(1, 1)] * 4, forks=[(1, 5), (5, 6), (6, 7)])),
                 "(3 6)(4 7)(5 8)", "~F4(2)", ""),
    "E6t-G2t2": (lambda: affine("~E6"), "(1 5 7)(2 4 6)", "~G2(2)", "single diagonal 3-cycle "
                 "generator; the arm cycles are not separately automorphisms"),
    # the oriented 6-cycle
    "remark-stabilite": (lambda: _quiver(6, [(i, (i + 1) % 6) for i in range(6)]),
                         "(1 4)(2 5)(3 6)", None,
                         "admissible but not stable; the known commutation counterexample"),
}


# Each parametric family: n -> (name, ambient, generators, expected quotient name).


def _a_to_c(n: int):
    flip = "".join(f"({k} {2 * n - k})" for k in range(1, n))
    return f"A{2 * n - 1}toC{n}", dynkin("A", 2 * n - 1), flip, "B2" if n == 2 else f"C{n}"


def _d_to_b(n: int):
    # D3 = A3 as a chain; its two symmetric leaves are the endpoints
    matrix, swap = (dynkin("A", 3), "(1 3)") if n == 2 else (dynkin("D", n + 1), f"({n} {n + 1})")
    return f"D{n + 1}toB{n}", matrix, swap, f"B{n}"


def _at_to_bt(n: int):
    # the even cycle ~A_{2n-1}, oriented bipartitely, reflected through 0 and n
    matrix = orient_cartan(_cartan(f"~A{2 * n - 1}", "Affine"))
    return f"At-Bt{n}", matrix, "".join(f"({i + 1} {2 * n - i + 1})" for i in range(1, n)), f"~B{n}"


def _dt_to_ct(n: int):
    return f"Dt-Ct{n}", affine(f"~D{n + 2}"), f"(1 2); ({n + 2} {n + 3})", f"~C{n}"


def _d_tilde_double(n: int) -> ExchangeMatrix:
    """Ambient ~D_{2n+2}: a=0, b-chain 1..n-1, c-chain n..2n-2, z = 2n-1..2n+2."""
    edges = [(0, 1), (0, n), *((i, i + 1) for i in range(1, n - 1)),
             *((n + i, n + i + 1) for i in range(n - 2)),
             (n - 1, 2 * n - 1), (n - 1, 2 * n), (2 * n - 2, 2 * n + 1), (2 * n - 2, 2 * n + 2)]
    return orient_cartan(_cartan_from_edges(2 * n + 3, [(i, j, 1, 1) for i, j in edges]))


def _sigma_z(n: int, z_pairs) -> str:
    """Swap the b and c chains of ``_d_tilde_double(n)`` and the z leaves in ``z_pairs``."""
    swaps = [(i + 1, n + i) for i in range(1, n)] + [(2 * n + a, 2 * n + b) for a, b in z_pairs]
    return "".join(f"({i} {j})" for i, j in swaps)


def _dt_to_bct(n: int):
    generators = f"{_sigma_z(n, [(0, 2), (1, 3)])}; {_sigma_z(n, [(0, 3), (1, 2)])}"
    return f"Dt-BCt{n}", _d_tilde_double(n), generators, f"~BC{n}"


def _dt_to_bdt(n: int):
    return f"Dt-BDt{n}", _d_tilde_double(n), _sigma_z(n, [(0, 2), (1, 3)]), f"~BD{n}"


def _dt_to_cdt(n: int):
    return f"Dt-CDt{n}", affine(f"~D{n + 1}"), f"({n + 1} {n + 2})", f"~CD{n}"


VERTEX_CAP = 300  # the most vertices a parametric entry may build; A299toC150 is the largest in use

# family -> (builder, smallest n, (a, b)): the ambient at n has a*n + b vertices
_PARAMETRIC = {
    "AtoC": (_a_to_c, 2, (2, -1)),
    "DtoB": (_d_to_b, 2, (1, 1)),
    "At-Bt": (_at_to_bt, 2, (2, 0)),
    "Dt-Ct": (_dt_to_ct, 2, (1, 3)),
    "Dt-BCt": (_dt_to_bct, 2, (2, 3)),
    "Dt-BDt": (_dt_to_bdt, 2, (2, 3)),
    "Dt-CDt": (_dt_to_cdt, 3, (1, 2)),
}


def list_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXED)) + tuple(f"{k}(n)" for k in sorted(_PARAMETRIC))


def folding_pair(name: str, n: int | None = None) -> CatalogEntry:
    """Look up a catalog folding pair by name (optionally parametric in n)."""
    if name in _FIXED:
        if n is not None:
            raise ValueError(f"{name} does not take a rank parameter")
        ambient, generators, quotient, note = _FIXED[name]
        return _entry(name, ambient(), generators, quotient, note)
    if name in _PARAMETRIC:
        builder, min_n, (a, b) = _PARAMETRIC[name]
        if n is None:
            raise ValueError(f"{name} needs a rank parameter (n >= {min_n})")
        if n < min_n:
            raise ValueError(f"{name} needs n >= {min_n}")
        if a * n + b > VERTEX_CAP:
            raise ValueError(
                f"{name} at n = {n} has {a * n + b} vertices, past the cap of {VERTEX_CAP}")
        return _entry(*builder(n))
    raise KeyError(f"unknown catalog entry {name!r}")
