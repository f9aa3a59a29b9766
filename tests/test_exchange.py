"""Exchange matrices: mutation, symmetrizers, valued graphs, classification."""

from collections import deque
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterfold.exchange import (
    EntryOverflowError,
    ExchangeMatrix,
    NotSkewSymmetrizableError,
    cartan_counterpart,
    classify,
    find_symmetrizer,
    from_valued_graph,
    to_dot,
    to_valued_graph,
)
from clusterfold import catalog
from clusterfold.explorer import mutation_class
from clusterfold.folding import quotient_matrix

A3 = ((0, -1, 0), (1, 0, 1), (0, -1, 0))
B2Q = ((0, -2), (1, 0))


@st.composite
def skew_symmetric_matrices(draw, max_n=4, max_entry=3):
    n = draw(st.integers(2, max_n))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.integers(-max_entry, max_entry))
            entries[i][j] = v
            entries[j][i] = -v
    return ExchangeMatrix(entries)


@st.composite
def skew_symmetrizable_matrices(draw, max_n=5, max_multiple=2):
    """D*B skew-symmetric for a random D in {1,2,3}^n: b_ij = c*lcm/d_i."""
    n = draw(st.integers(2, max_n))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = draw(st.integers(-max_multiple, max_multiple))
            common = lcm(d[i], d[j])
            entries[i][j] = c * common // d[i]
            entries[j][i] = -c * common // d[j]
    return ExchangeMatrix(entries)


def fraction_symmetrizer(entries) -> tuple[int, ...]:
    """Reference: ratio propagation with Fractions, every pair checked."""
    n = len(entries)
    for i in range(n):
        if entries[i][i] != 0:
            raise NotSkewSymmetrizableError((i, i))
        for j in range(n):
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise NotSkewSymmetrizableError((i, j))
            if entries[i][j] != 0 and entries[i][j] * entries[j][i] > 0:
                raise NotSkewSymmetrizableError((i, j))
    d = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if entries[i][j] == 0:
                    continue
                implied = d[i] * Fraction(-entries[i][j], entries[j][i])
                if d[j] is None:
                    d[j] = implied
                    component.append(j)
                    stack.append(j)
                elif d[j] != implied:
                    raise NotSkewSymmetrizableError((i, j))
        scale = 1
        for i in component:
            scale = scale * d[i].denominator // gcd(scale, d[i].denominator)
        values = [int(d[i] * scale) for i in component]
        common = 0
        for v in values:
            common = gcd(common, v)
        for i, v in zip(component, values):
            d[i] = Fraction(v // common)
    return tuple(int(x) for x in d)


def symmetrizer_or_witness(function, entries):
    try:
        return function(entries)
    except NotSkewSymmetrizableError as exc:
        return ("witness", exc.witness)


@st.composite
def small_integer_matrices(draw, max_n=5):
    """Arbitrary square matrices, nonzero diagonals and sign clashes included;
    half of them start skew-symmetrizable and get one entry perturbed."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        entries = [
            [draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
    else:
        start = draw(skew_symmetrizable_matrices(max_n=max(n, 2)))
        entries = [list(row) for row in start.entries]
        n = len(entries)
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        entries[i][j] += draw(st.integers(-1, 1))
    return entries


class TestConstruction:
    def test_basic(self):
        m = ExchangeMatrix(A3)
        assert m.n == 3
        assert m.entries == A3
        assert m.labels == ("1", "2", "3")
        assert m.is_skew_symmetric()

    def test_skew_symmetrizable_only(self):
        m = ExchangeMatrix(B2Q)
        assert not m.is_skew_symmetric()
        assert m.symmetrizer == (1, 2)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NotSkewSymmetrizableError):
            ExchangeMatrix([[1, 0], [0, 0]])

    def test_rejects_sign_incoherence(self):
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            ExchangeMatrix([[0, 1], [1, 0]])
        assert exc.value.witness == (0, 1)

    def test_rejects_one_sided_zero(self):
        with pytest.raises(NotSkewSymmetrizableError):
            ExchangeMatrix([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1]])

    def test_overflow_rejected(self):
        with pytest.raises(EntryOverflowError):
            ExchangeMatrix([[0, 2**64], [-1, 0]])


class TestSymmetrizer:
    def test_identity_for_skew_symmetric(self):
        assert ExchangeMatrix(A3).symmetrizer == (1, 1, 1)

    def test_minimality(self):
        # d_1 * (-2) == -(d_2 * 1)  =>  d = (1, 2), not (2, 4)
        assert find_symmetrizer(B2Q) == (1, 2)

    def test_disconnected_components_normalized_independently(self):
        m = ((0, -2, 0, 0), (1, 0, 0, 0), (0, 0, 0, -3), (0, 0, 1, 0))
        assert find_symmetrizer(m) == (1, 2, 1, 3)

    def test_component_rescaled_mid_traversal(self):
        # from d_0 = 1: d_1 = d_0 / 3 rescales the component by 3, then
        # d_2 = d_1 / 2 rescales it again by 2
        m = ((0, -1, 0), (3, 0, -1), (0, 2, 0))
        assert find_symmetrizer(m) == (6, 2, 1)

    def test_cycle_inconsistency_witness(self):
        # ratios around the cycle 0-1-2 multiply to 2, not 1
        m = ((0, 1, -1), (-2, 0, 1), (1, -1, 0))
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            find_symmetrizer(m)
        assert exc.value.witness == (2, 1)

    @given(small_integer_matrices())
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_reference(self, entries):
        assert symmetrizer_or_witness(find_symmetrizer, entries) == (
            symmetrizer_or_witness(fraction_symmetrizer, entries)
        )

    @given(skew_symmetric_matrices())
    @settings(max_examples=50, deadline=None)
    def test_symmetrizer_property(self, m):
        d = m.symmetrizer
        for i in range(m.n):
            assert d[i] >= 1
            for j in range(m.n):
                assert d[i] * m.entries[i][j] == -d[j] * m.entries[j][i]


class TestMutation:
    def test_a3_mutation_at_first_vertex(self):
        # mu_1 flips row/column 1 and adds nothing else (no 2-paths through 1)
        assert ExchangeMatrix(A3).mutate(0).entries == (
            (0, 1, 0),
            (-1, 0, 1),
            (0, -1, 0),
        )

    def test_path_contribution(self):
        # 1 -> 2 -> 3 quiver: mutating at 2 creates the arrow 1 -> 3
        m = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        assert m.mutate(1).entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))

    def test_valued_mutation(self):
        m = ExchangeMatrix(B2Q)
        assert m.mutate(0).entries == ((0, 2), (-1, 0))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ExchangeMatrix(A3).mutate(3)

    def test_rows_without_an_edge_to_k_are_reused(self):
        m = ExchangeMatrix(((0, -2, 0, 0), (1, 0, 1, 0), (0, -1, 0, 3), (0, 0, -1, 0)))
        mutated = m.mutate(0)
        assert mutated.entries[2] is m.entries[2]
        assert mutated.entries[3] is m.entries[3]
        assert mutated.entries[1] == (-1, 0, 1, 0)

    def test_overflow_raised_by_mutate(self):
        # row 3 has no edge to vertex 1 and is reused; row 0 gains
        # b_01 * b_12 = 2**64 and must be rejected
        big = 2**32
        m = ExchangeMatrix(
            ((0, big, 0, 0), (-big, 0, big, 0), (0, -big, 0, 1), (0, 0, -1, 0))
        )
        with pytest.raises(EntryOverflowError):
            m.mutate(1)
        assert m.entries[0] == (0, big, 0, 0)

    def test_rejects_result_inconsistent_with_carried_symmetrizer(self):
        m = ExchangeMatrix(B2Q)
        m._symmetrizer = (1, 1)  # corrupt the carried D
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            m.mutate(0)
        assert exc.value.witness == (0, 1)

    @given(skew_symmetrizable_matrices())
    @settings(max_examples=100, deadline=None)
    def test_carried_symmetrizer_is_the_minimal_one(self, m):
        for k in range(m.n):
            mutated = m.mutate(k)
            assert mutated.symmetrizer == m.symmetrizer
            assert mutated.symmetrizer == find_symmetrizer(mutated.entries)
            assert mutated == ExchangeMatrix(mutated.entries)

    @given(skew_symmetrizable_matrices(), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_involution_keeps_labels_and_symmetrizer(self, m, k):
        k %= m.n
        labelled = ExchangeMatrix(m.entries, tuple("abcde"[: m.n]))
        back = labelled.mutate(k).mutate(k)
        assert back.entries == labelled.entries
        assert back.labels == labelled.labels
        assert back.symmetrizer == labelled.symmetrizer

    @pytest.mark.parametrize("name", ["A5toC3", "D4toG2"])
    def test_closed_class_members_carry_recomputed_symmetrizer(self, name):
        pair = catalog.folding_pair(name).pair
        for start in (pair.matrix, quotient_matrix(pair)):
            found = {start.entries: start}
            queue = deque([start])
            while queue:
                current = queue.popleft()
                for k in range(current.n):
                    neighbor = current.mutate(k)
                    if neighbor.entries not in found:
                        found[neighbor.entries] = neighbor
                        queue.append(neighbor)
            report = mutation_class(start)
            assert report.finite and report.members == set(found)
            for entries, member in found.items():
                assert member.symmetrizer == find_symmetrizer(entries)

    @given(skew_symmetric_matrices(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_involution(self, m, k):
        k %= m.n
        assert m.mutate(k).mutate(k) == m

    @given(skew_symmetric_matrices(), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_mutation_preserves_symmetrizer(self, m, k):
        k %= m.n
        # the same diagonal keeps working after mutation
        d = m.symmetrizer
        mutated = m.mutate(k)
        for i in range(m.n):
            for j in range(m.n):
                assert d[i] * mutated.entries[i][j] == -d[j] * mutated.entries[j][i]


class TestValuedGraph:
    def test_edges(self):
        g = to_valued_graph(ExchangeMatrix(A3))
        assert {(e.source, e.target, e.value) for e in g.edges} == {
            (1, 0, (1, 1)),
            (1, 2, (1, 1)),
        }

    def test_valued_edge(self):
        g = to_valued_graph(ExchangeMatrix([[0, -1], [4, 0]]))
        assert [(e.source, e.target, e.value) for e in g.edges] == [(1, 0, (4, 1))]

    @given(skew_symmetric_matrices())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, m):
        assert from_valued_graph(to_valued_graph(m)) == m

    def test_dot_output(self):
        text = to_dot(to_valued_graph(ExchangeMatrix(B2Q)))
        assert "digraph" in text
        assert '[label="(1,2)"]' in text


class TestClassification:
    def test_finite_types(self):
        assert classify(cartan_counterpart(ExchangeMatrix(A3))).name == "A3"
        kind = classify(cartan_counterpart(ExchangeMatrix(B2Q)))
        assert (kind.tag, kind.name) == ("Finite", "B2")

    def test_affine_types(self):
        kron = classify(cartan_counterpart(ExchangeMatrix([[0, 2], [-2, 0]])))
        assert (kron.tag, kron.name) == ("Affine", "~A1")
        a12 = classify(cartan_counterpart(ExchangeMatrix([[0, -1], [4, 0]])))
        assert (a12.tag, a12.name) == ("Affine", "~A1(2)")

    def test_indefinite(self):
        kind = classify(
            cartan_counterpart(ExchangeMatrix([[0, 2, 0], [-2, 0, 2], [0, -2, 0]]))
        )
        assert kind.tag == "Indefinite"
        assert kind.name is None

    def test_every_named_diagram_classifies_as_its_own_name(self):
        for tag in ("Finite", "Affine"):
            for name, cartan in catalog.named_cartan_matrices(tag):
                kind = classify(cartan)
                assert kind.tag == tag, name
                assert kind.name == name, (name, kind.name)

    def test_named_diagrams_are_pairwise_distinct(self):
        # diagram naming is only well defined if no two same-tag references
        # of equal rank are isomorphic
        import networkx as nx

        from clusterfold.exchange import _cartan_digraph

        for tag in ("Finite", "Affine"):
            refs = catalog.named_cartan_matrices(tag)
            for i, (name_a, a) in enumerate(refs):
                for name_b, b in refs[i + 1 :]:
                    if len(a) != len(b):
                        continue
                    assert not nx.is_isomorphic(
                        _cartan_digraph(a),
                        _cartan_digraph(b),
                        edge_match=lambda x, y: x["w"] == y["w"],
                    ), (name_a, name_b)

    def test_rejects_bad_cartan(self):
        with pytest.raises(ValueError):
            classify(((2, 1), (1, 2)))  # positive off-diagonal
        with pytest.raises(ValueError):
            classify(((1, 0), (0, 2)))  # wrong diagonal
