"""Catalog: constructors, every folding pair's invariants, parametric families."""

from pathlib import Path

import pytest

from clusterfold.exchange import cartan_counterpart, classify
from clusterfold.folding import check_stability, quotient_matrix
from clusterfold import catalog, io


def pinned_entries():
    """Entry key ("A3toB2", "AtoC 2") -> its fields in catalog_entries.txt."""
    text = (Path(__file__).parent / "catalog_entries.txt").read_text(encoding="utf-8")
    records = {}
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if not line.startswith("#")]
        if lines:
            fields = dict(line.split(": ", 1) for line in lines)
            records[fields.pop("entry")] = fields
    return records


PINNED = pinned_entries()

FIXED_ADMISSIBLE = [
    "A3toB2", "A5toC3", "D4toB3", "E6toF4", "D4toG2",
    "squaretoK2", "hexagontoK2",
    "D4t-A1t2", "D4t-G2t1", "D4t-A1t2-c4",
    "E6t-F4t1", "E7t-F4t2", "E6t-G2t2",
]

PARAMETRIC = [("AtoC", 2), ("DtoB", 2), ("At-Bt", 2), ("Dt-Ct", 2),
              ("Dt-BCt", 2), ("Dt-BDt", 2), ("Dt-CDt", 3)]


class TestDynkinConstructor:
    def test_a3_default_is_the_running_example(self):
        assert catalog.dynkin("A", 3).entries == ((0, -1, 0), (1, 0, 1), (0, -1, 0))

    def test_a1(self):
        assert catalog.dynkin("A", 1).entries == ((0,),)

    def test_b2_up_to_orientation(self):
        m = catalog.dynkin("B", 2)
        assert {abs(m.entries[0][1]), abs(m.entries[1][0])} == {1, 2}
        assert catalog.diagram_name(m) == "B2"

    def test_explicit_orientation(self):
        m = catalog._quiver(3, [(1, 0), (1, 2)])
        assert m.entries == ((0, -1, 0), (1, 0, 1), (0, -1, 0))

    def test_odd_cycle_has_no_alternating_orientation(self):
        with pytest.raises(ValueError, match="not bipartite"):
            catalog.orient_cartan(catalog._cartan("~A2", "Affine"))

    @pytest.mark.parametrize(
        "family,n", [("A", 5), ("B", 4), ("C", 3), ("D", 5), ("E", 7), ("F", 4), ("G", 2)]
    )
    def test_classifies_as_named(self, family, n):
        m = catalog.dynkin(family, n)
        assert classify(m) == "Finite"
        assert catalog.diagram_name(m) == f"{family}{n}"

    def test_invalid(self):
        with pytest.raises(ValueError):
            catalog.dynkin("E", 5)
        with pytest.raises(ValueError):
            catalog.dynkin("X", 3)


def edge_list_orientation(cartan):
    """Reference orientation: 2-colour the edge list, each popped vertex rescanning
    every edge, then point each edge from its odd end to its even end."""
    n = len(cartan)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if cartan[i][j] != 0]
    color = [-1] * n
    for start in range(n):
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
                        raise ValueError("diagram is not bipartite")
    b = [[0] * n for _ in range(n)]
    for i, j in edges:
        s, t = (j, i) if color[i] == 0 else (i, j)
        b[s][t] = abs(cartan[s][t])
        b[t][s] = -abs(cartan[t][s])
    return tuple(map(tuple, b))


class TestOrientation:
    @pytest.mark.parametrize("tag", ["Finite", "Affine"])
    def test_named_diagrams_match_the_edge_list_reference(self, tag):
        bipartite = 0
        for name, cartan in catalog.named_cartan_matrices(tag):
            try:
                expected = edge_list_orientation(cartan)
            except ValueError:  # the odd cycles ~A2, ~A4, ...
                with pytest.raises(ValueError, match="not bipartite"):
                    catalog.orient_cartan(cartan)
                continue
            assert catalog.orient_cartan(cartan).entries == expected, name
            bipartite += 1
        assert bipartite > 20

    @pytest.mark.parametrize("matrix", [
        *(catalog._star(leaves) for leaves in (3, 4)),
        *(catalog._d_tilde_double(n) for n in (2, 3, 4)),
    ])
    def test_built_ambients_match_the_edge_list_reference(self, matrix):
        assert matrix.entries == edge_list_orientation(cartan_counterpart(matrix))


class TestAffineConstructor:
    def test_a1t2_value_pair(self):
        m = catalog.affine("~A1(2)")
        assert {abs(m.entries[0][1]), abs(m.entries[1][0])} == {1, 4}

    def test_g2t1_shape(self):
        m = catalog.affine("~G2(1)")
        assert m.n == 3
        values = sorted(
            tuple(sorted((abs(m.entries[i][j]), abs(m.entries[j][i]))))
            for i in range(3) for j in range(i + 1, 3) if m.entries[i][j]
        )
        assert values == [(1, 1), (1, 3)]

    def test_c2t_shape(self):
        m = catalog.affine("~C2")
        pairs = sorted(
            (abs(m.entries[i][j]), abs(m.entries[j][i]))
            for i in range(3) for j in range(3) if i < j and m.entries[i][j]
        )
        assert sorted(tuple(sorted(p)) for p in pairs) == [(1, 2), (1, 2)]

    @pytest.mark.parametrize(
        "name",
        ["~A1", "~A1(2)", "~A4", "~B3", "~C3", "~BC3", "~BD3", "~CD4",
         "~D5", "~E6", "~E7", "~E8", "~F4(1)", "~F4(2)", "~G2(1)", "~G2(2)"],
    )
    def test_classifies_affine(self, name):
        m = catalog.affine(name)
        assert classify(m) == "Affine"
        assert catalog.diagram_name(m) == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            catalog.affine("~Z9")
        with pytest.raises(ValueError):
            catalog.affine("B3")  # missing tilde


class TestFoldingPairs:
    @pytest.mark.parametrize("key", PINNED)
    def test_entry_matches_its_pin(self, key):
        family, _, rank = key.partition(" ")
        entry = catalog.folding_pair(family, int(rank) if rank else None)
        pair = entry.pair
        shown = {
            "name": entry.name,
            "ambient": io.render_matrix_text(pair.matrix, pair.group.generators)
            .rstrip("\n").replace("\n", " / "),
            "orbits": " ".join("{" + " ".join(str(v + 1) for v in orbit) + "}"
                               for orbit in pair.orbits),
            "expected": entry.expected_quotient_name or "-",
        }
        if entry.note:
            shown["note"] = entry.note
        assert shown == {k: v for k, v in PINNED[key].items() if k != "quotient"}

    def test_every_entry_is_pinned(self):
        families = [name.removesuffix("(n)") for name in catalog.list_names()]
        assert sorted({key.split()[0] for key in PINNED}) == sorted(families)
        for name in families:
            if name in catalog._PARAMETRIC:
                smallest = catalog._PARAMETRIC[name][1]
                assert {f"{name} {smallest}", f"{name} {smallest + 1}"} <= set(PINNED)

    @pytest.mark.parametrize("name", FIXED_ADMISSIBLE)
    def test_fixed_pair_invariants(self, name):
        entry = catalog.folding_pair(name)
        pair = entry.pair
        assert pair.admissible, name
        quotient = quotient_matrix(pair)
        if "quotient" in PINNED[name]:
            rows = PINNED[name]["quotient"].split(" / ")
            assert quotient.entries == tuple(tuple(map(int, row.split())) for row in rows), name
        assert catalog.diagram_name(quotient) == entry.expected_quotient_name, name

    @pytest.mark.parametrize("name", FIXED_ADMISSIBLE)
    def test_fixed_pair_type_consistency(self, name):
        entry = catalog.folding_pair(name)
        ambient = classify(entry.pair.matrix)
        quotient = classify(quotient_matrix(entry.pair))
        assert ambient == quotient  # finite folds to finite, affine to affine

    @pytest.mark.parametrize("family,min_n", PARAMETRIC)
    def test_parametric_families(self, family, min_n):
        for n in range(min_n, 9):
            entry = catalog.folding_pair(family, n)
            assert entry.pair.admissible, (family, n)
            name = catalog.diagram_name(quotient_matrix(entry.pair))
            assert name == entry.expected_quotient_name, (family, n)

    def test_every_affine_diagram_is_realized(self):
        # each non-simply-laced affine diagram is the quotient of some pair
        realized = set()
        for name in ["D4t-A1t2", "D4t-G2t1", "E6t-F4t1", "E7t-F4t2", "E6t-G2t2"]:
            realized.add(catalog.folding_pair(name).expected_quotient_name)
        for family, min_n in [("At-Bt", 2), ("Dt-Ct", 2), ("Dt-BCt", 2),
                              ("Dt-BDt", 2), ("Dt-CDt", 3)]:
            for n in range(min_n, 6):
                realized.add(catalog.folding_pair(family, n).expected_quotient_name)
        expected = {"~A1(2)", "~F4(1)", "~F4(2)", "~G2(1)", "~G2(2)"}
        expected |= {f"~B{n}" for n in range(2, 6)}
        expected |= {f"~C{n}" for n in range(2, 6)}
        expected |= {f"~BC{n}" for n in range(2, 6)}
        expected |= {f"~BD{n}" for n in range(2, 6)}
        expected |= {f"~CD{n}" for n in range(3, 6)}
        assert expected <= realized

    def test_finite_pairs_are_stable(self):
        for name in ["A3toB2", "A5toC3", "D4toB3", "E6toF4", "D4toG2"]:
            verdict = check_stability(catalog.folding_pair(name).pair)
            assert verdict.status == "stable-exhaustive", name

    def test_six_cycle_is_cataloged_but_not_stable(self):
        entry = catalog.folding_pair("remark-stabilite")
        assert entry.pair.admissible
        assert not check_stability(entry.pair).stable

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            catalog.folding_pair("nope")
        with pytest.raises(ValueError):
            catalog.folding_pair("A3toB2", 4)  # not parametric
        with pytest.raises(ValueError):
            catalog.folding_pair("AtoC")  # missing rank
        with pytest.raises(ValueError):
            catalog.folding_pair("Dt-CDt", 2)  # below minimum rank

    @pytest.mark.parametrize("name", sorted(catalog._PARAMETRIC))
    def test_vertex_cap(self, name):
        _, smallest, (a, b) = catalog._PARAMETRIC[name]
        for n in range(smallest, smallest + 4):  # the vertex count the cap reads
            assert catalog.folding_pair(name, n).pair.matrix.n == a * n + b
        past = (catalog.VERTEX_CAP - b) // a + 1
        with pytest.raises(ValueError, match=f"has {a * past + b} vertices, past the cap of 300"):
            catalog.folding_pair(name, past)

    def test_list_names(self):
        names = catalog.list_names()
        assert "A3toB2" in names
        assert "AtoC(n)" in names
