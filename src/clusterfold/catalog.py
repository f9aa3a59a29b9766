"""Constructors for Dynkin/affine diagrams and the folding-pair catalog.

Diagram names use ASCII: finite types "A3", "B2", "C3", "D4", "E6",
"F4", "G2"; affine types are prefixed with "~" ("~A3", "~B2", "~BC2",
"~A1(2)", "~F4(1)", "~G2(2)", ...).

Chain conventions (reading the Cartan matrix along the chain):
  B_n has its short end last (c[n-1][n] = -1, c[n][n-1] = -2),
  C_n the other way (c[n-1][n] = -2, c[n][n-1] = -1);
  at rank 2 the two coincide up to relabeling and the single name "B2"
  is used.  Ambient quivers are oriented bipartitely (arrows from odd
  to even BFS layers), except cycles, which get an acyclic linear
  orientation; these choices are invariant under every catalog group.
"""

from __future__ import annotations

from .exchange import ExchangeMatrix
from .folding import FoldingPair, PermutationGroup


# ---------------------------------------------------------------------------
# Cartan-matrix shapes


def _cartan_from_edges(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """edges: (i, j, a, b) meaning c[i][j] = -a and c[j][i] = -b."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a, b in edges:
        c[i][j] = -a
        c[j][i] = -b
    return tuple(tuple(row) for row in c)


def _chain(pairs) -> tuple[tuple[int, ...], ...]:
    """A chain 0-1-...-k with (a, b) value pairs per consecutive edge."""
    n = len(pairs) + 1
    return _cartan_from_edges(
        n, [(i, i + 1, a, b) for i, (a, b) in enumerate(pairs)]
    )


def _simply_laced(n: int, adjacency) -> tuple[tuple[int, ...], ...]:
    return _cartan_from_edges(n, [(i, j, 1, 1) for i, j in adjacency])


def _dynkin_cartan(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    if family == "A" and n >= 1:
        return _chain([(1, 1)] * (n - 1))
    if family == "B" and n >= 2:
        return _chain([(1, 1)] * (n - 2) + [(1, 2)])
    if family == "C" and n >= 2:
        return _chain([(1, 1)] * (n - 2) + [(2, 1)])
    if family == "D" and n >= 3:
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
        return _simply_laced(n, edges)
    if family == "E" and n in (6, 7, 8):
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
        return _simply_laced(n, edges)
    if family == "F" and n == 4:
        return _chain([(1, 1), (1, 2), (1, 1)])
    if family == "G" and n == 2:
        return _chain([(1, 3)])
    raise ValueError(f"unknown Dynkin type {family}{n}")


def _affine_cartan(name: str) -> tuple[tuple[int, ...], ...]:
    """Affine diagrams; ``name`` without the leading '~'."""
    if name == "A1":
        return _chain([(2, 2)])
    if name == "A1(2)":
        return _chain([(1, 4)])
    if name.startswith("A") and name[1:].isdigit():
        n = int(name[1:])
        if n < 2:
            raise ValueError("affine ~An needs n >= 2")
        m = n + 1
        return _simply_laced(m, [(i, (i + 1) % m) for i in range(m)])
    if name.startswith("BC") and name[2:].isdigit():
        n = int(name[2:])
        if n < 2:
            raise ValueError("affine ~BCn needs n >= 2")
        return _chain([(1, 2)] + [(1, 1)] * (n - 2) + [(1, 2)])
    if name.startswith("BD") and name[2:].isdigit():
        n = int(name[2:])
        if n < 2:
            raise ValueError("affine ~BDn needs n >= 2")
        edges = [(0, 2, 1, 1), (1, 2, 1, 1)]
        edges += [(i, i + 1, 1, 1) for i in range(2, n)]
        edges += [(n, n + 1, 2, 1)]
        return _cartan_from_edges(n + 2, edges)
    if name.startswith("CD") and name[2:].isdigit():
        n = int(name[2:])
        if n < 3:
            raise ValueError("affine ~CDn needs n >= 3")
        edges = [(0, 2, 1, 1), (1, 2, 1, 1)]
        edges += [(i, i + 1, 1, 1) for i in range(2, n - 1)]
        edges += [(n - 1, n, 1, 2)]
        return _cartan_from_edges(n + 1, edges)
    if name.startswith("B") and name[1:].isdigit():
        n = int(name[1:])
        if n < 2:
            raise ValueError("affine ~Bn needs n >= 2")
        return _chain([(1, 2)] + [(1, 1)] * (n - 2) + [(2, 1)])
    if name.startswith("C") and name[1:].isdigit():
        n = int(name[1:])
        if n < 2:
            raise ValueError("affine ~Cn needs n >= 2")
        return _chain([(2, 1)] + [(1, 1)] * (n - 2) + [(1, 2)])
    if name.startswith("D") and name[1:].isdigit():
        n = int(name[1:])
        if n < 4:
            raise ValueError("affine ~Dn needs n >= 4")
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 2)]
        edges += [(n - 2, n - 1), (n - 2, n)]
        return _simply_laced(n + 1, edges)
    if name == "E6":
        base = [(i, i + 1) for i in range(4)] + [(2, 5), (5, 6)]
        return _simply_laced(7, base)
    if name == "E7":
        return _simply_laced(8, [(i, i + 1) for i in range(6)] + [(3, 7)])
    if name == "E8":
        return _simply_laced(9, [(i, i + 1) for i in range(7)] + [(2, 8)])
    if name == "F4(1)":
        return _chain([(1, 1), (1, 1), (1, 2), (1, 1)])
    if name == "F4(2)":
        return _chain([(1, 1), (1, 1), (2, 1), (1, 1)])
    if name == "G2(1)":
        return _chain([(1, 1), (1, 3)])
    if name == "G2(2)":
        return _chain([(1, 1), (3, 1)])
    raise ValueError(f"unknown affine diagram ~{name}")


def named_cartan_matrices(tag: str):
    """Reference (name, cartan) diagrams of a classification tag, rank <= 12.

    Consumed by the classifier for diagram naming.
    """
    out = []
    if tag == "Finite":
        for n in range(1, 13):
            out.append((f"A{n}", _dynkin_cartan("A", n)))
        out.append(("B2", _dynkin_cartan("B", 2)))
        for n in range(3, 13):
            out.append((f"B{n}", _dynkin_cartan("B", n)))
            out.append((f"C{n}", _dynkin_cartan("C", n)))
        for n in range(4, 13):
            out.append((f"D{n}", _dynkin_cartan("D", n)))
        for n in (6, 7, 8):
            out.append((f"E{n}", _dynkin_cartan("E", n)))
        out.append(("F4", _dynkin_cartan("F", 4)))
        out.append(("G2", _dynkin_cartan("G", 2)))
    elif tag == "Affine":
        out.append(("~A1", _affine_cartan("A1")))
        out.append(("~A1(2)", _affine_cartan("A1(2)")))
        for n in range(2, 12):
            out.append((f"~A{n}", _affine_cartan(f"A{n}")))
            out.append((f"~B{n}", _affine_cartan(f"B{n}")))
            out.append((f"~C{n}", _affine_cartan(f"C{n}")))
            out.append((f"~BC{n}", _affine_cartan(f"BC{n}")))
        for n in range(2, 11):
            out.append((f"~BD{n}", _affine_cartan(f"BD{n}")))
        for n in range(3, 12):
            out.append((f"~CD{n}", _affine_cartan(f"CD{n}")))
        for n in range(4, 12):
            out.append((f"~D{n}", _affine_cartan(f"D{n}")))
        for n in (6, 7, 8):
            out.append((f"~E{n}", _affine_cartan(f"E{n}")))
        for name in ("F4(1)", "F4(2)", "G2(1)", "G2(2)"):
            out.append((f"~{name}", _affine_cartan(name)))
    else:
        raise ValueError(f"no named diagrams for tag {tag!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# orientation


def _edges_of_cartan(cartan):
    n = len(cartan)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if cartan[i][j] != 0]


def orient_cartan(cartan, orientation="alternating") -> ExchangeMatrix:
    """Build an exchange matrix from a symmetrizable Cartan matrix.

    ``alternating``: arrows from odd to even BFS layers (requires the
    diagram to be bipartite, which every tree is).  A list of (source,
    target) pairs selects an explicit orientation.
    """
    n = len(cartan)
    edges = _edges_of_cartan(cartan)
    if orientation == "alternating":
        color = [-1] * n
        for start in list(range(n)):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for i, j in edges:
                    if v in (i, j):
                        w = j if v == i else i
                        if color[w] == -1:
                            color[w] = 1 - color[v]
                            stack.append(w)
                        elif color[w] == color[v]:
                            raise ValueError("diagram is not bipartite; pass an explicit orientation")
        oriented = [(j, i) if color[i] == 0 else (i, j) for i, j in edges]
    else:
        oriented = [tuple(e) for e in orientation]
        if {frozenset(e) for e in oriented} != {frozenset(e) for e in edges}:
            raise ValueError("explicit orientation must cover exactly the diagram edges")
    b = [[0] * n for _ in range(n)]
    for s, t in oriented:
        b[s][t] = abs(cartan[s][t])
        b[t][s] = -abs(cartan[t][s])
    return ExchangeMatrix(b)


def dynkin(family: str, n: int) -> ExchangeMatrix:
    """An exchange matrix whose Cartan counterpart is the named finite type."""
    return orient_cartan(_dynkin_cartan(family, n))


def affine(name: str) -> ExchangeMatrix:
    """An exchange matrix whose Cartan counterpart is the named affine type.

    ``name`` carries the leading '~'.  Cycles (~An) get an acyclic
    linear-cycle orientation; everything else is alternating.
    """
    if not name.startswith("~"):
        raise ValueError("affine names start with '~'")
    bare = name[1:]
    cartan = _affine_cartan(bare)
    if bare.startswith("A") and bare[1:].isdigit() and int(bare[1:]) >= 2:
        m = len(cartan)
        return orient_cartan(cartan, [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)])
    return orient_cartan(cartan)


# ---------------------------------------------------------------------------
# folding pairs


class CatalogEntry:
    __slots__ = ("name", "pair", "expected_quotient_name", "expected_quotient", "rank", "note")

    def __init__(self, name: str, pair: FoldingPair, expected_quotient_name: str | None = None,
                 expected_quotient: ExchangeMatrix | None = None, rank: int | None = None,
                 note: str = ""):
        self.name = name
        self.pair = pair
        self.expected_quotient_name = expected_quotient_name
        self.expected_quotient = expected_quotient
        self.rank = rank
        self.note = note


def _pair(matrix: ExchangeMatrix, generators, name: str) -> FoldingPair:
    return FoldingPair(matrix, PermutationGroup(matrix.n, generators), name=name)


def _transposition(n, i, j):
    g = list(range(n))
    g[i], g[j] = j, i
    return tuple(g)


def _from_cycles(n, cycles):
    g = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            g[a] = b
    return tuple(g)


def _star(center: int, leaves: int) -> ExchangeMatrix:
    """A star quiver with all arrows pointing into the center (vertex 0)."""
    n = leaves + 1
    b = [[0] * n for _ in range(n)]
    for leaf in range(1, n):
        b[leaf][0] = 1
        b[0][leaf] = -1
    return ExchangeMatrix(b)


def _a3_to_b2() -> CatalogEntry:
    matrix = ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])
    pair = _pair(matrix, [_transposition(3, 0, 2)], "A3toB2")
    expected = ExchangeMatrix([[0, -2], [1, 0]], labels=("1", "2"))
    return CatalogEntry("A3toB2", pair, "B2", expected)


def _a_to_c(n: int) -> CatalogEntry:
    if n < 2:
        raise ValueError("AtoC needs n >= 2")
    matrix = dynkin("A", 2 * n - 1)
    g = tuple(2 * n - 2 - k for k in range(2 * n - 1))
    name = f"A{2 * n - 1}toC{n}"
    pair = _pair(matrix, [g], name)
    return CatalogEntry(name, pair, "B2" if n == 2 else f"C{n}", rank=n)


def _d_to_b(n: int) -> CatalogEntry:
    if n < 2:
        raise ValueError("DtoB needs n >= 2")
    if n == 2:
        # D3 = A3 as a chain; its two symmetric leaves are the endpoints
        matrix, swap = dynkin("A", 3), (0, 2)
    else:
        matrix, swap = dynkin("D", n + 1), (n - 1, n)
    pair = _pair(matrix, [_transposition(matrix.n, *swap)], f"D{n + 1}toB{n}")
    return CatalogEntry(f"D{n + 1}toB{n}", pair, f"B{n}" if n > 2 else "B2", rank=n)


def _e6_to_f4() -> CatalogEntry:
    matrix = orient_cartan(_dynkin_cartan("E", 6), "alternating")
    g = _from_cycles(6, [[0, 4], [1, 3]])
    pair = _pair(matrix, [g], "E6toF4")
    return CatalogEntry("E6toF4", pair, "F4")


def _d4_to_g2() -> CatalogEntry:
    matrix = _star(0, 3)
    gens = [_transposition(4, 1, 2), _from_cycles(4, [[1, 2, 3]])]
    pair = _pair(matrix, gens, "D4toG2")
    expected = ExchangeMatrix([[0, -1], [3, 0]])
    return CatalogEntry("D4toG2", pair, "G2", expected)


def _square_to_kronecker() -> CatalogEntry:
    b = [[0, 0, 1, 1], [0, 0, 1, 1], [-1, -1, 0, 0], [-1, -1, 0, 0]]
    matrix = ExchangeMatrix(b)
    gens = [_transposition(4, 0, 1), _transposition(4, 2, 3)]
    pair = _pair(matrix, gens, "squaretoK2")
    expected = ExchangeMatrix([[0, 2], [-2, 0]])
    return CatalogEntry("squaretoK2", pair, "~A1", expected)


def _hexagon_to_kronecker() -> CatalogEntry:
    # vertices a1 a2 a3 b1 b2 b3; arrows a1->b1, a1->b3, a2->b1, a2->b2,
    # a3->b2, a3->b3
    arrows = [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)]
    b = [[0] * 6 for _ in range(6)]
    for s, t in arrows:
        b[s][t] = 1
        b[t][s] = -1
    matrix = ExchangeMatrix(b)
    g = _from_cycles(6, [[0, 1, 2], [3, 4, 5]])
    pair = _pair(matrix, [g], "hexagontoK2")
    expected = ExchangeMatrix([[0, 2], [-2, 0]])
    return CatalogEntry(
        "hexagontoK2",
        pair,
        "~A1",
        expected,
        note="single diagonal generator; the two 3-cycles are not separately automorphisms",
    )


def _d4t_to_a1t2() -> CatalogEntry:
    matrix = _star(0, 4)
    gens = [_transposition(5, 1, 2), _from_cycles(5, [[1, 2, 3, 4]])]
    pair = _pair(matrix, gens, "D4t-A1t2")
    expected = ExchangeMatrix([[0, -1], [4, 0]])
    return CatalogEntry("D4t-A1t2", pair, "~A1(2)", expected)


def _d4t_to_g2t1() -> CatalogEntry:
    matrix = _star(0, 4)
    gens = [_transposition(5, 1, 2), _from_cycles(5, [[1, 2, 3]])]
    pair = _pair(matrix, gens, "D4t-G2t1")
    return CatalogEntry("D4t-G2t1", pair, "~G2(1)")


def _d4t_cyclic() -> CatalogEntry:
    """The all-arrows-in star with the cyclic leaf rotation (order 4)."""
    matrix = _star(0, 4)
    pair = _pair(matrix, [_from_cycles(5, [[1, 2, 3, 4]])], "D4t-A1t2-c4")
    expected = ExchangeMatrix([[0, -1], [4, 0]])
    return CatalogEntry(
        "D4t-A1t2-c4",
        pair,
        "~A1(2)",
        expected,
        note="two-orbit pair used for the strict-inclusion experiment",
    )


def _at_to_bt(n: int) -> CatalogEntry:
    if n < 2:
        raise ValueError("At-Bt needs n >= 2")
    m = 2 * n
    cartan = _simply_laced(m, [(i, (i + 1) % m) for i in range(m)])
    matrix = orient_cartan(cartan, "alternating")
    g = tuple((m - i) % m for i in range(m))
    name = f"At-Bt{n}"
    pair = _pair(matrix, [g], name)
    return CatalogEntry(name, pair, f"~B{n}", rank=n)


def _dt_to_ct(n: int) -> CatalogEntry:
    if n < 2:
        raise ValueError("Dt-Ct needs n >= 2")
    # forks 0,1 on 2; chain 2..n; forks n+1, n+2 on n
    edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n)] + [(n, n + 1), (n, n + 2)]
    matrix = orient_cartan(_simply_laced(n + 3, edges), "alternating")
    gens = [_transposition(n + 3, 0, 1), _transposition(n + 3, n + 1, n + 2)]
    name = f"Dt-Ct{n}"
    pair = _pair(matrix, gens, name)
    return CatalogEntry(name, pair, f"~C{n}", rank=n)


def _d_tilde_double(n: int) -> ExchangeMatrix:
    """Ambient ~D_{2n+2}: a=0, b-chain 1..n-1, c-chain n..2n-2, z = 2n-1..2n+2."""
    edges = [(0, 1), (0, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges += [(n + i, n + i + 1) for i in range(n - 2)]
    edges += [(n - 1, 2 * n - 1), (n - 1, 2 * n), (2 * n - 2, 2 * n + 1), (2 * n - 2, 2 * n + 2)]
    return orient_cartan(_simply_laced(2 * n + 3, edges), "alternating")


def _sigma_z(n: int, z_pairs):
    cycles = [[i, n - 1 + i] for i in range(1, n)]
    cycles += [[2 * n - 1 + a, 2 * n - 1 + b] for a, b in z_pairs]
    return _from_cycles(2 * n + 3, cycles)


def _dt_to_bct(n: int) -> CatalogEntry:
    if n < 2:
        raise ValueError("Dt-BCt needs n >= 2")
    matrix = _d_tilde_double(n)
    g1 = _sigma_z(n, [(0, 2), (1, 3)])
    g2 = _sigma_z(n, [(0, 3), (1, 2)])
    name = f"Dt-BCt{n}"
    pair = _pair(matrix, [g1, g2], name)
    return CatalogEntry(name, pair, f"~BC{n}", rank=n)


def _dt_to_bdt(n: int) -> CatalogEntry:
    if n < 2:
        raise ValueError("Dt-BDt needs n >= 2")
    matrix = _d_tilde_double(n)
    g1 = _sigma_z(n, [(0, 2), (1, 3)])
    name = f"Dt-BDt{n}"
    pair = _pair(matrix, [g1], name)
    return CatalogEntry(name, pair, f"~BD{n}", rank=n)


def _dt_to_cdt(n: int) -> CatalogEntry:
    if n < 3:
        raise ValueError("Dt-CDt needs n >= 3")
    # ambient ~D_{n+1}: forks 0,1 on 2; chain 2..n-1; forks n, n+1 on n-1
    edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    edges += [(n - 1, n), (n - 1, n + 1)]
    matrix = orient_cartan(_simply_laced(n + 2, edges), "alternating")
    name = f"Dt-CDt{n}"
    pair = _pair(matrix, [_transposition(n + 2, n, n + 1)], name)
    return CatalogEntry(name, pair, f"~CD{n}", rank=n)


def _e6t_ambient() -> ExchangeMatrix:
    # a2=0, a1=1, z=2, b1=3, b2=4, c1=5, c2=6
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
    return orient_cartan(_simply_laced(7, edges), "alternating")


def _e6t_to_f4t1() -> CatalogEntry:
    matrix = _e6t_ambient()
    g = _from_cycles(7, [[3, 5], [4, 6]])
    pair = _pair(matrix, [g], "E6t-F4t1")
    return CatalogEntry("E6t-F4t1", pair, "~F4(1)")


def _e7t_to_f4t2() -> CatalogEntry:
    # b=0, z=1, a-chain 2,3,4, c-chain 5,6,7
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7)]
    matrix = orient_cartan(_simply_laced(8, edges), "alternating")
    g = _from_cycles(8, [[2, 5], [3, 6], [4, 7]])
    pair = _pair(matrix, [g], "E7t-F4t2")
    return CatalogEntry("E7t-F4t2", pair, "~F4(2)")


def _e6t_to_g2t2() -> CatalogEntry:
    matrix = _e6t_ambient()
    g = _from_cycles(7, [[1, 3, 5], [0, 4, 6]])
    pair = _pair(matrix, [g], "E6t-G2t2")
    return CatalogEntry(
        "E6t-G2t2",
        pair,
        "~G2(2)",
        note="single diagonal 3-cycle generator; the arm cycles are not separately automorphisms",
    )


def _remark_stabilite() -> CatalogEntry:
    b = [[0] * 6 for _ in range(6)]
    for i in range(6):
        b[i][(i + 1) % 6] = 1
        b[(i + 1) % 6][i] = -1
    matrix = ExchangeMatrix(b)
    g = _from_cycles(6, [[0, 3], [1, 4], [2, 5]])
    pair = _pair(matrix, [g], "remark-stabilite")
    return CatalogEntry(
        "remark-stabilite",
        pair,
        None,
        note="admissible but not stable; the known commutation counterexample",
    )


_FIXED = {
    "A3toB2": _a3_to_b2,
    "A5toC3": lambda: _a_to_c(3),
    "D4toB3": lambda: _d_to_b(3),
    "E6toF4": _e6_to_f4,
    "D4toG2": _d4_to_g2,
    "squaretoK2": _square_to_kronecker,
    "hexagontoK2": _hexagon_to_kronecker,
    "D4t-A1t2": _d4t_to_a1t2,
    "D4t-G2t1": _d4t_to_g2t1,
    "D4t-A1t2-c4": _d4t_cyclic,
    "E6t-F4t1": _e6t_to_f4t1,
    "E7t-F4t2": _e7t_to_f4t2,
    "E6t-G2t2": _e6t_to_g2t2,
    "remark-stabilite": _remark_stabilite,
}

_PARAMETRIC = {
    "AtoC": (_a_to_c, 2),
    "DtoB": (_d_to_b, 2),
    "At-Bt": (_at_to_bt, 2),
    "Dt-Ct": (_dt_to_ct, 2),
    "Dt-BCt": (_dt_to_bct, 2),
    "Dt-BDt": (_dt_to_bdt, 2),
    "Dt-CDt": (_dt_to_cdt, 3),
}


def list_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXED)) + tuple(f"{k}(n)" for k in sorted(_PARAMETRIC))


def folding_pair(name: str, n: int | None = None) -> CatalogEntry:
    """Look up a catalog folding pair by name (optionally parametric in n)."""
    if name in _FIXED:
        if n is not None:
            raise ValueError(f"{name} does not take a rank parameter")
        return _FIXED[name]()
    if name in _PARAMETRIC:
        builder, min_n = _PARAMETRIC[name]
        if n is None:
            raise ValueError(f"{name} needs a rank parameter (n >= {min_n})")
        return builder(n)
    raise KeyError(f"unknown catalog entry {name!r}")
