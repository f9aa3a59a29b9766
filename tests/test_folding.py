"""Folding: groups, admissibility, quotients, orbit mutation, stability."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exchange import bounded_skew_symmetrizable_rows

from clusterfold import folding, seeds
from clusterfold.exchange import EntryOverflowError, ExchangeMatrix, NotSkewSymmetrizableError
from clusterfold.folding import (
    FoldingPair,
    NotAdmissibleError,
    NotInvariantError,
    PermutationGroup,
    admissibility_witness,
    all_orbit_orderings_agree,
    check_commutation,
    check_stability,
    compose,
    compose_orbit_mutations,
    is_automorphism,
    is_automorphism_group,
    orbit_mutate_seed,
    orbit_mutate_word,
    project_seed,
    project_vector,
    quotient_entries,
    quotient_matrix,
    quotient_symmetrizer,
    verify_commutation,
)
from clusterfold.laurent import LaurentPolynomial, parse_polynomial
from clusterfold.seeds import Seed, apply_mutation_word, initial_seed, mutate_seed
from clusterfold import catalog

A3 = ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])
SWAP13 = (2, 1, 0)


def a3_pair():
    return FoldingPair(A3, PermutationGroup(3, [SWAP13]))


def six_cycle_pair():
    return catalog.folding_pair("remark-stabilite").pair


def catalog_pairs():
    """(entry name, pair) of every catalog pair; the parametric families at
    their two smallest ranks."""
    for name in catalog.list_names():
        if name.endswith("(n)"):
            family = name[: -len("(n)")]
            smallest = catalog._PARAMETRIC[family][1]
            for n in (smallest, smallest + 1):
                entry = catalog.folding_pair(family, n)
                yield entry.name, entry.pair
        else:
            yield name, catalog.folding_pair(name).pair


def orbit_mutate_closed_form(matrix, orbit):
    """Reference: b'_ij = -b_ij if i or j is in the orbit, else b_ij plus the
    usual path contribution summed over the orbit; valid when the orbit is
    mutually non-adjacent (admissibility)."""
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


def commutation_per_word(pair, word):
    """Reference: one word computed from the initial seeds, sharing nothing,
    with the projected matrix validated by the constructor.  Returns
    (ok, quotient-side seed, projected seed)."""
    pair.require_admissible()
    quotient_seed = initial_seed(quotient_matrix(pair))
    for idx in word:
        quotient_seed = mutate_seed(quotient_seed, idx)
    ambient, witness = orbit_mutate_word(pair, initial_seed(pair.matrix), word)
    if witness is not None:
        raise NotAdmissibleError(witness)
    matrix = ExchangeMatrix(quotient_entries(ambient.matrix, pair.orbits))
    cluster = []
    for orbit in pair.orbits:
        images = {ambient.cluster[i].project(pair.orbits) for i in orbit}
        assert len(images) == 1
        cluster.append(images.pop())
    projected = Seed(matrix, tuple(cluster))
    return projected == quotient_seed, quotient_seed, projected


def lenient_commutation_per_word(pair, word):
    """Reference for ``require_stable=False``: one word computed from the
    initial seeds with no admissibility, automorphism or projection check
    and nothing shared, the projected matrix validated by the constructor
    and the cluster projected from each orbit's first member.  Returns
    (ok, quotient-side seed, projected seed)."""
    quotient_seed = initial_seed(quotient_matrix(pair))
    for idx in word:
        quotient_seed = mutate_seed(quotient_seed, idx)
    ambient = initial_seed(pair.matrix)
    for idx in word:
        for k in pair.orbits[idx]:
            ambient = mutate_seed(ambient, k)
    matrix = ExchangeMatrix(quotient_entries(ambient.matrix, pair.orbits))
    cluster = tuple(ambient.cluster[orbit[0]].project(pair.orbits) for orbit in pair.orbits)
    projected = Seed(matrix, cluster)
    return projected == quotient_seed, quotient_seed, projected


def words_up_to(orbit_count, depth):
    return [w for length in range(depth + 1)
            for w in itertools.product(range(orbit_count), repeat=length)]


class TestPermutationGroup:
    def test_orbits(self):
        group = PermutationGroup(3, [SWAP13])
        assert group.orbits() == ((0, 2), (1,))

    def test_elements_and_order(self):
        s3 = PermutationGroup(4, [(0, 2, 1, 3), (0, 2, 3, 1)])
        assert s3.order() == 6
        s4 = PermutationGroup(5, [(0, 2, 1, 3, 4), (0, 2, 3, 4, 1)])
        assert s4.order() == 24

    @pytest.mark.parametrize("group, order", [
        pytest.param(PermutationGroup(4, [(1, 2, 3, 0)]), 4, id="lone 4-cycle"),
        pytest.param(catalog.folding_pair("E6t-G2t2").pair.group, 3, id="E6t-G2t2"),
        pytest.param(catalog.folding_pair("D4t-A1t2-c4").pair.group, 4, id="D4t-A1t2-c4"),
    ])
    def test_one_generator_of_order_above_two(self, group, order):
        # the closure must expand g along g: its powers are not just the identity and g
        (g,) = group.generators
        powers = {tuple(range(group.n))}
        h = g
        while h not in powers:
            powers.add(h)
            h = compose(g, h)
        assert group.order() == len(powers) == order
        assert set(group.elements()) == powers

    def test_stabilizer_order(self):
        # quotient_symmetrizer reads |stab(i)| as |G| / |orbit of i|
        s3 = PermutationGroup(4, [(0, 2, 1, 3), (0, 2, 3, 1)])
        assert s3.orbits() == ((0,), (1, 2, 3))
        for orbit, stabilizer in zip(s3.orbits(), (6, 2)):
            fixing = [g for g in s3.elements() if g[orbit[0]] == orbit[0]]
            assert len(fixing) == s3.order() // len(orbit) == stabilizer

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(range(n)), max_size=3))))
    @settings(max_examples=200, deadline=None)
    def test_orbits_match_the_images_under_every_element(self, group):
        group = PermutationGroup(*group)
        reference = {tuple(sorted({g[i] for g in group.elements()})) for i in range(group.n)}
        assert group.orbits() == tuple(sorted(reference))

    def test_compose_inverse(self):
        g = (1, 2, 0)
        assert compose(g, (2, 0, 1)) == compose((2, 0, 1), g) == (0, 1, 2)
        h = (0, 2, 1)
        # compose applies the right factor first
        assert compose(g, h) == tuple(g[h[i]] for i in range(3))

    def test_invalid_generator(self):
        with pytest.raises(ValueError):
            PermutationGroup(3, [(0, 0, 1)])


class TestAutomorphisms:
    def test_is_automorphism(self):
        assert is_automorphism(A3, SWAP13)
        assert not is_automorphism(A3, (1, 0, 2))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_automorphism_is_the_entrywise_definition(self, data):
        n = data.draw(st.integers(0, 6))
        g = tuple(data.draw(st.permutations(range(n))))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = data.draw(st.integers(-2, 2))
                rows[j][i] = -rows[i][j]
        if data.draw(st.booleans()):  # the sum of B over the powers of g is g-invariant
            power, total = g, [row[:] for row in rows]
            while power != tuple(range(n)):
                total = [[total[i][j] + rows[power[i]][power[j]] for j in range(n)]
                         for i in range(n)]
                power = compose(g, power)
            rows = total
        matrix = ExchangeMatrix(rows)
        for h in (g, list(g)):
            assert is_automorphism(matrix, h) == all(
                rows[g[i]][g[j]] == rows[i][j] for i in range(n) for j in range(n))

    def test_is_automorphism_reads_every_index_of_g(self):
        assert is_automorphism(ExchangeMatrix([[0]]), (0,))
        assert is_automorphism(ExchangeMatrix([]), ())
        with pytest.raises(IndexError):
            is_automorphism(A3, (2, 1))
        with pytest.raises(IndexError):  # not a permutation of A3's three vertices
            is_automorphism(A3, (2, 1, 0, 3))

    @pytest.mark.parametrize("g", [(0, 0, 2), (0, 1, 5), (2, 1, -1)])
    def test_a_non_permutation_is_refused_on_every_call(self, g):
        # a failed check is not cached, so the second call raises as the first
        seed = initial_seed(A3)
        for _ in range(2):
            with pytest.raises(ValueError, match="not a permutation"):
                is_automorphism(A3, g)
            with pytest.raises(ValueError, match="not a permutation"):
                seeds.permute_seed(g, seed)
            with pytest.raises(ValueError, match="not a permutation"):
                seeds.is_invariant_seed(seed, [g])
            with pytest.raises(ValueError, match="not a permutation"):
                PermutationGroup(3, [g])

    @pytest.mark.parametrize("g", [(1, 0), (2, 1, 0, 3)])
    def test_a_permutation_of_the_wrong_length_is_refused(self, g):
        seed = initial_seed(A3)
        with pytest.raises(ValueError, match="not a permutation of 0..2"):
            seeds.permute_seed(g, seed)
        with pytest.raises(ValueError, match="not a permutation of 0..2"):
            seeds.is_invariant_seed(seed, [SWAP13, g])
        with pytest.raises(ValueError, match="not a permutation of 0..2"):
            PermutationGroup(3, [g])

    def test_group_check(self):
        assert is_automorphism_group(A3, PermutationGroup(3, [SWAP13]))
        with pytest.raises(ValueError):
            FoldingPair(A3, PermutationGroup(3, [(1, 0, 2)]))


class TestAdmissibility:
    def test_a3_admissible(self):
        pair = a3_pair()
        assert pair.admissible
        assert admissibility_witness(A3, pair.orbits) is None

    def test_direct_arrow_witness(self):
        # 1 -> 2 with 1, 2 in one orbit
        m = ExchangeMatrix([[0, 1], [-1, 0]])
        assert admissibility_witness(m, ((0, 1),)) == (0, 1)

    def test_two_path_witness(self):
        # 1 -> 2 -> 3 with {1, 3} one orbit
        m = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        assert admissibility_witness(m, ((0, 2), (1,))) == (0, 1, 2)

    def test_require_admissible_raises(self):
        # cyclic triangle with the rotation: arrows inside the single orbit
        m = ExchangeMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        pair = FoldingPair(m, PermutationGroup(3, [(1, 2, 0)]))
        assert not pair.admissible
        for _ in range(2):
            with pytest.raises(NotAdmissibleError) as exc:
                quotient_matrix(pair)
            assert exc.value.witness == (0, 1)


def quotient_entries_per_entry(matrix, orbits):
    """Reference: each b_{I,J} summed at every member of J, in row-major order."""
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


def invariant_matrix(rng, n, generators):
    """A random skew-symmetric matrix preserved by the generators: one value
    per orbit of ordered pairs, 0 on an orbit that holds a pair's reverse."""
    b = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if b[i][j] is not None:
                continue
            orbit, stack = {(i, j)}, [(i, j)]
            while stack:
                p, q = stack.pop()
                for g in generators:
                    if (g[p], g[q]) not in orbit:
                        orbit.add((g[p], g[q]))
                        stack.append((g[p], g[q]))
            value = 0 if (j, i) in orbit else rng.randint(-2, 2)
            for p, q in orbit:
                b[p][q], b[q][p] = value, -value
    return ExchangeMatrix(b)


def quotient_outcome(function, matrix, orbits):
    try:
        return function(matrix, orbits)
    except ValueError as exc:
        return str(exc)


class TestQuotients:
    def test_matches_per_entry_formula(self):
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randint(1, 7)
            generators = []
            for _ in range(rng.randint(1, 2)):
                g = list(range(n))
                rng.shuffle(g)
                generators.append(tuple(g))
            orbits = PermutationGroup(n, generators).orbits()
            matrix = invariant_matrix(rng, n, generators)
            assert all(is_automorphism(matrix, g) for g in generators)
            assert quotient_entries(matrix, orbits) == quotient_entries_per_entry(matrix, orbits)
            if n > 1:  # one pair changed: the group may no longer preserve it
                i, j = rng.sample(range(n), 2)
                rows = [list(row) for row in matrix.entries]
                rows[i][j] += 1
                rows[j][i] -= 1
                changed = ExchangeMatrix(rows)
                assert quotient_outcome(quotient_entries, changed, orbits) == (
                    quotient_outcome(quotient_entries_per_entry, changed, orbits))

    def test_non_invariant_matrix_raises(self):
        # (1 2) does not preserve A3: row orbit {1, 2} sums to (1, -1, 1),
        # which differs at the two members of column orbit {1, 2}
        orbits = PermutationGroup(3, [(1, 0, 2)]).orbits()
        expected = quotient_outcome(quotient_entries_per_entry, A3, orbits)
        assert expected.startswith("quotient entry depends on the representative")
        assert quotient_outcome(quotient_entries, A3, orbits) == expected

    def test_a3_quotient(self):
        assert quotient_matrix(a3_pair()).entries == ((0, -2), (1, 0))

    def test_quotient_built_once_per_pair(self):
        pair = a3_pair()
        assert quotient_matrix(pair) is quotient_matrix(pair)

    def test_kronecker_square(self):
        entry = catalog.folding_pair("squaretoK2")
        assert quotient_matrix(entry.pair).entries == ((0, 2), (-2, 0))

    def test_kronecker_hexagon(self):
        entry = catalog.folding_pair("hexagontoK2")
        assert quotient_matrix(entry.pair).entries == ((0, 2), (-2, 0))

    def test_d4_star_full_symmetric(self):
        entry = catalog.folding_pair("D4t-A1t2")
        assert quotient_matrix(entry.pair).entries == ((0, -1), (4, 0))

    def test_six_cycle_quotient(self):
        assert quotient_matrix(six_cycle_pair()).entries == (
            (0, 1, -1),
            (-1, 0, 1),
            (1, -1, 0),
        )

    def test_quotient_symmetrizer(self):
        # A3/(1 3): orbit {1,3} has stabilizer order 1, orbit {2} order 2
        assert quotient_symmetrizer(a3_pair()) == (1, 2)
        # D4-star/S4: leaf orbit stabilizer 6, center stabilizer 24
        entry = catalog.folding_pair("D4t-A1t2")
        assert quotient_symmetrizer(entry.pair) == (24, 6)


class TestOrbitMutation:
    def test_matches_closed_form(self):
        pair = six_cycle_pair()
        mutated = compose_orbit_mutations(pair.matrix, pair.orbits, 0)
        # composing the two commuting vertex mutations by hand
        expected = pair.matrix.mutate(0).mutate(3)
        assert mutated == expected

    def test_matches_closed_form_on_every_catalog_orbit(self):
        checked = 0
        for _, pair in catalog_pairs():
            if not pair.admissible:
                continue
            for idx, orbit in enumerate(pair.orbits):
                mutated = compose_orbit_mutations(pair.matrix, pair.orbits, idx)
                assert mutated.entries == orbit_mutate_closed_form(pair.matrix, orbit)
                checked += 1
        assert checked > 50

    def test_order_independence(self):
        for name in ["A3toB2", "D4toG2", "D4t-A1t2", "E6toF4"]:
            pair = catalog.folding_pair(name).pair
            for idx in range(pair.orbit_count):
                assert all_orbit_orderings_agree(pair, idx)

    @given(bounded_skew_symmetrizable_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_orbit_mutations_commute_on_a_zero_block(self, rows, data):
        # the identity behind check_stability's squares: a zero block on the
        # orbits J and K gives mu_J B = mu_K mu_J mu_K B; the orbits need not
        # come from a group, composition reads only the partition
        n = len(rows)
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        orbits = tuple(tuple(i for i in range(n) if labels[i] == label)
                       for label in sorted(set(labels)))
        if len(orbits) < 2:
            orbits = ((0,), tuple(range(1, n)))
        j, k = data.draw(st.lists(st.integers(0, len(orbits) - 1), min_size=2, max_size=2,
                                  unique=True))
        block = orbits[j] + orbits[k]
        for u in block:
            for v in block:
                rows[u][v] = 0
        b = ExchangeMatrix(rows)
        composed = compose_orbit_mutations(
            compose_orbit_mutations(compose_orbit_mutations(b, orbits, k), orbits, j), orbits, k)
        assert compose_orbit_mutations(b, orbits, j) == composed

    @given(bounded_skew_symmetrizable_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_an_admissible_matrix_is_zero_within_each_orbit(self, rows, data):
        # why check_stability reads only the cross entries of a block
        n = len(rows)
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        orbits = tuple(tuple(i for i in range(n) if labels[i] == label)
                       for label in sorted(set(labels)))
        b = ExchangeMatrix(rows)
        if admissibility_witness(b, orbits) is None:
            assert not any(b.entries[u][v] for orbit in orbits for u in orbit for v in orbit)

    @pytest.mark.parametrize("entries, orbits", [
        # b_JK != 0 on the path A3: J = {1}, K = {2}
        ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], ((0,), (1,), (2,))),
        # b_JK = 0 but K = {2, 3} holds an edge, so mu_K is not an involution
        ([[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]], ((0,), (1, 2), (3,))),
    ])
    def test_orbit_mutations_need_the_whole_block_zero(self, entries, orbits):
        b = ExchangeMatrix(entries)
        composed = compose_orbit_mutations(
            compose_orbit_mutations(compose_orbit_mutations(b, orbits, 1), orbits, 0), orbits, 1)
        assert compose_orbit_mutations(b, orbits, 0) != composed

    def test_seed_mutation_requires_invariance(self):
        pair = a3_pair()
        skewed = mutate_seed(initial_seed(A3), 0)
        with pytest.raises(NotInvariantError):
            orbit_mutate_word(pair, skewed, (0,))

    def test_orbit_mutation_preserves_invariance(self):
        pair = a3_pair()
        seed, witness = orbit_mutate_seed(pair, initial_seed(A3), 0)
        from clusterfold.seeds import is_invariant_seed

        assert is_invariant_seed(seed, pair.group.generators)
        assert witness is None

    def test_step_that_breaks_the_automorphisms_raises(self):
        # the cyclic triangle's one orbit is inadmissible: mutating its
        # members in turn leaves a matrix the rotation does not preserve
        m = ExchangeMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        pair = FoldingPair(m, PermutationGroup(3, [(1, 2, 0)]))
        with pytest.raises(ValueError, match="group generators must preserve the matrix"):
            orbit_mutate_seed(pair, initial_seed(m), 0)


class TestProjection:
    def test_project_vector(self):
        assert project_vector((1, 0, 0, 1, 1), ((0,), (1, 2, 3, 4))) == (1, 2)

    def test_project_initial_seed(self):
        pair = a3_pair()
        projected = project_seed(pair, initial_seed(A3))
        assert projected == initial_seed(quotient_matrix(pair))

    def test_project_rejects_non_invariant(self):
        pair = a3_pair()
        with pytest.raises(NotInvariantError):
            project_seed(pair, mutate_seed(initial_seed(A3), 0))

    def test_projected_matrix_is_not_rebuilt_by_the_constructor(self, monkeypatch):
        pair = catalog.folding_pair("E6toF4").pair
        quotient = quotient_matrix(pair)
        seed = orbit_mutate_word(pair, initial_seed(pair.matrix), (0, 2, 1))[0]
        built = []
        init = ExchangeMatrix.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExchangeMatrix, "__init__", counted)
        projected = project_seed(pair, seed, check=False)
        assert built == []
        assert projected.matrix.symmetrizer == quotient.symmetrizer

    def test_projection_checked_against_the_quotient_symmetrizer(self):
        # G-invariant, but outside the pair's mutation class: the quotient
        # entries ((0, -4), (1, 0)) are skew-symmetrizable, with D = (1, 4)
        # instead of the quotient's (1, 2)
        pair = a3_pair()
        seed = initial_seed(ExchangeMatrix([[0, -2, 0], [1, 0, 1], [0, -2, 0]]))
        with pytest.raises(NotSkewSymmetrizableError) as exc:
            project_seed(pair, seed)
        assert exc.value.witness == (0, 1)


class TestStability:
    def test_finite_pairs_stable(self):
        sizes = {"A3toB2": 2, "A5toC3": 20, "D4toB3": 10, "E6toF4": 120, "D4toG2": 2}
        for name, size in sizes.items():
            verdict = check_stability(catalog.folding_pair(name).pair)
            assert (verdict.status, verdict.class_size) == ("stable-exhaustive", size), name
            assert verdict.stable

    def test_affine_pairs_stable(self):
        sizes = {"D4t-A1t2": 2, "D4t-G2t1": 12, "squaretoK2": 2, "hexagontoK2": 2}
        for name, size in sizes.items():
            verdict = check_stability(catalog.folding_pair(name).pair)
            assert (verdict.status, verdict.class_size) == ("stable-exhaustive", size), name

    def test_six_cycle_unstable_at_depth_one(self):
        verdict = check_stability(six_cycle_pair())
        assert verdict.status == "unstable"
        assert not verdict.stable
        assert verdict.witness_word == (0,)
        assert verdict.witness_path == (1, 2, 4)
        assert len(verdict.witness_word) == 1

    def test_limit_is_not_stable(self):
        verdict = check_stability(catalog.folding_pair("E6toF4").pair, max_nodes=5)
        assert (verdict.status, verdict.class_size) == ("limit-exceeded", 5)
        assert not verdict.stable

    def test_indefinite_copies_overflow_at_456(self):
        b = ((0, 2, 0), (-2, 0, 2), (0, -2, 0))
        entries = [row + (0, 0, 0) for row in b] + [(0, 0, 0) + row for row in b]
        pair = FoldingPair(ExchangeMatrix(entries), PermutationGroup(6, [(3, 4, 5, 0, 1, 2)]))
        verdict = check_stability(pair)
        assert (verdict.status, verdict.class_size) == ("overflow", 456)
        assert not verdict.stable

    def test_orbit_mutation_is_an_involution_on_every_stable_class(self):
        # what check_stability relies on to take each edge's way back uncomposed
        for name, pair in catalog_pairs():
            verdict = check_stability(pair) if pair.admissible else None
            if verdict is None or not verdict.stable:
                continue
            members, queue = {pair.matrix.entries}, [pair.matrix]
            for matrix in queue:
                for idx in range(pair.orbit_count):
                    mutated = compose_orbit_mutations(matrix, pair.orbits, idx)
                    back = compose_orbit_mutations(mutated, pair.orbits, idx)
                    assert back.entries == matrix.entries, (name, idx)
                    if mutated.entries not in members:
                        members.add(mutated.entries)
                        queue.append(mutated)
            assert len(members) == verdict.class_size, name

    def test_six_cycle_witness_after_second_orbit(self):
        # mutating the orbit {2, 5} creates the directed 2-path 1 -> 3 -> 4
        pair = six_cycle_pair()
        mutated = compose_orbit_mutations(pair.matrix, pair.orbits, 1)
        assert admissibility_witness(mutated, pair.orbits) == (0, 2, 3)


class TestCommutation:
    @pytest.mark.parametrize("name", ["A3toB2", "D4toG2", "D4t-A1t2"])
    def test_small_words(self, name):
        pair = catalog.folding_pair(name).pair
        for word in [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)]:
            assert verify_commutation(pair, word).ok, (name, word)

    def test_commutation_raises_on_unstable_prefix(self):
        with pytest.raises(NotAdmissibleError) as info:
            verify_commutation(six_cycle_pair(), (1, 0))
        assert info.value.witness == (0, 2, 3)

    def test_commutation_raises_on_inadmissible_result(self):
        with pytest.raises(NotAdmissibleError) as info:
            verify_commutation(six_cycle_pair(), (1,))
        assert info.value.witness == (0, 2, 3)

    def test_words_build_no_folding_pair(self, monkeypatch):
        pair = catalog.folding_pair("E6toF4").pair
        built = []
        init = FoldingPair.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FoldingPair, "__init__", counted)
        for word in [(0, 1, 2, 3), (3, 2, 1, 0, 1, 2), (1, 1, 2)]:
            assert verify_commutation(pair, word).ok
        assert built == []


class TestOrbitSeedGraph:
    @pytest.mark.parametrize("name", ["A3toB2", "A5toC3", "D4toG2", "E6toF4", "D4t-A1t2", "D4t-G2t1"])
    def test_matches_per_word_reference(self, name):
        pair = catalog.folding_pair(name).pair
        rng = random.Random(5)
        words = words_up_to(pair.orbit_count, 5) + [
            tuple(rng.randrange(pair.orbit_count) for _ in range(rng.randint(1, 10)))
            for _ in range(100)
        ]
        for word in words:
            report = verify_commutation(pair, word)
            ok, quotient_side, projected_side = commutation_per_word(
                catalog.folding_pair(name).pair, word
            )
            assert ok and report.ok, word
            assert report.quotient_side == quotient_side, word
            assert report.projected_side == projected_side, word
            assert report.projected_side.matrix.symmetrizer == projected_side.matrix.symmetrizer

    def test_words_that_reach_one_node_return_that_node(self):
        pair = catalog.folding_pair("A3toB2").pair
        assert verify_commutation(pair, (0, 0)) is verify_commutation(pair, ())  # mu_I∘mu_I = id
        graph = pair._orbit_seeds
        for word in words_up_to(pair.orbit_count, 5):
            report = verify_commutation(pair, word)
            assert graph.nodes[report.ambient, report.quotient_side] is report, word
            assert verify_commutation(pair, word + word[-1:] * 2) is report, word

    @pytest.mark.parametrize("name, verdicts", [("A5toC3", {True}),
                                                ("remark-stabilite", {True, False})])
    def test_ok_is_a_bool_on_every_report(self, name, verdicts):
        pair = catalog.folding_pair(name).pair
        seen = set()
        for word in words_up_to(pair.orbit_count, 4):
            report = verify_commutation(pair, word, require_stable=False)
            assert type(report.ok) is bool and report.projected_side is not None, word
            seen.add(report.ok)
        assert seen == verdicts

    def test_project_seed_runs_once_per_node(self, monkeypatch):
        projected = []
        project = folding.project_seed

        def counted(pair, seed, check=True):
            projected.append(seed)
            return project(pair, seed, check)

        monkeypatch.setattr(folding, "project_seed", counted)
        pair = catalog.folding_pair("A5toC3").pair
        assert check_commutation(pair, 3).status == "limit-exceeded"
        for _ in range(3):
            for word in words_up_to(pair.orbit_count, 4):
                assert verify_commutation(pair, word).ok
        assert len(projected) == len(pair._orbit_seeds.nodes) > 1

    def test_injected_mismatch_fails_every_word_that_reaches_the_node(self, monkeypatch):
        pair = catalog.folding_pair("A3toB2").pair
        target = orbit_mutate_word(pair, initial_seed(pair.matrix), (0, 1))[0]
        original = folding.project_seed

        def corrupt(pair, seed, check=True):
            projected = original(pair, seed, check)
            if seed == target:
                first = projected.cluster[0]
                return Seed(projected.matrix, (first * first,) + projected.cluster[1:])
            return projected

        monkeypatch.setattr(folding, "project_seed", corrupt)
        reaching = 0
        for word in words_up_to(pair.orbit_count, 6):
            ambient = orbit_mutate_word(pair, initial_seed(pair.matrix), word)[0]
            assert verify_commutation(pair, word).ok == (ambient != target), word
            reaching += ambient == target
        assert reaching > 1

    def test_inadmissible_node_raises_on_every_call(self):
        pair = six_cycle_pair()
        for word in [(1, 0), (1,), (1, 0), (1,), (1, 2, 2)]:
            with pytest.raises(NotAdmissibleError) as info:
                verify_commutation(pair, word)
            assert info.value.witness == (0, 2, 3), word
        assert verify_commutation(pair, ()).ok

    def test_lenient_mode_matches_the_per_word_reference(self):
        pair = six_cycle_pair()
        words = words_up_to(pair.orbit_count, 5)
        assert len(words) == 364
        mismatches = 0
        for word in words:
            report = verify_commutation(pair, word, require_stable=False)
            ok, quotient_side, projected_side = lenient_commutation_per_word(six_cycle_pair(), word)
            assert report.ok == ok, word
            assert report.quotient_side == quotient_side, word
            assert report.projected_side == projected_side, word
            assert report.projected_side.matrix.symmetrizer == projected_side.matrix.symmetrizer
            mismatches += not ok
        assert mismatches > 0

    def test_lenient_walks_leave_the_strict_mode_strict(self):
        pair = six_cycle_pair()
        for word in [(1, 0), (1,), (1, 0, 2)]:
            verify_commutation(pair, word, require_stable=False)
        for word in [(1, 0), (1,), (1, 0, 2)]:
            with pytest.raises(NotAdmissibleError) as info:
                verify_commutation(pair, word)
            assert info.value.witness == (0, 2, 3), word
        assert not verify_commutation(pair, (1, 0), require_stable=False).ok

    def test_orbit_index_out_of_range_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work done before the range check")

        monkeypatch.setattr(folding, "mutate_seed", forbidden)
        monkeypatch.setattr(folding, "orbit_mutate_seed", forbidden)
        pair = a3_pair()
        for word in [(0, 2), (-1,), (5, 0)]:
            for require_stable in (True, False):
                with pytest.raises(ValueError, match="out of range"):
                    verify_commutation(pair, word, require_stable=require_stable)
        assert pair._orbit_seeds is None

    def test_each_edge_is_computed_once(self, monkeypatch):
        calls = []
        original = folding.mutate_seed

        def counted(seed, k, **kwargs):
            calls.append(k)
            return original(seed, k, **kwargs)

        divisions = []
        divide = seeds.divide_exact

        def counted_division(p, q):
            divisions.append(1)
            return divide(p, q)

        monkeypatch.setattr(folding, "mutate_seed", counted)
        monkeypatch.setattr(seeds, "divide_exact", counted_division)
        pair = catalog.folding_pair("A3toB2").pair
        words = words_up_to(pair.orbit_count, 6)
        for word in words:
            for require_stable in (False, True):
                assert verify_commutation(pair, word, require_stable=require_stable).ok
        graph = pair._orbit_seeds
        assert len(graph.nodes) == 12
        # one orbit mutation upstairs (a mutation per orbit member) and one
        # downstairs per undirected edge: every node is admissible, so the
        # way back is recorded, whichever mode crossed the edge first
        edges = [idx for node in graph.nodes.values() for idx in node.children]
        assert 2 * len(calls) == sum(1 + len(pair.orbits[idx]) for idx in edges)
        assert len(calls) == 30
        assert len(calls) < len(words)
        # the way back along an edge, and an exchange met again, divide nothing
        assert 0 < len(divisions) < len(calls)

    @staticmethod
    def links(monkeypatch, pair, words, require_stable):
        """Walk the words; return the graph and the (node, orbit) steps it computed."""
        computed = set()
        step = folding.OrbitSeedGraph._step

        def recording(graph, node, idx):
            computed.add((id(node), idx))
            return step(graph, node, idx)

        monkeypatch.setattr(folding.OrbitSeedGraph, "_step", recording)
        for word in words:
            verify_commutation(pair, word, require_stable=require_stable)
        return pair._orbit_seeds, computed

    def test_every_way_back_is_a_computed_step(self, monkeypatch):
        checked = 0
        for name, pair in catalog_pairs():
            if not pair.admissible or not check_stability(pair, 2_000).stable:
                continue
            graph, computed = self.links(monkeypatch, pair, words_up_to(pair.orbit_count, 3), True)
            recorded = [(node, idx, child) for node in graph.nodes.values()
                        for idx, child in node.children.items() if (id(node), idx) not in computed]
            assert recorded, name
            for node, idx, child in recorded:
                ambient, witness = orbit_mutate_seed(pair, node.ambient, idx)
                assert (ambient, witness) == (child.ambient, child.witness), (name, idx)
                assert mutate_seed(node.quotient_side, idx) == child.quotient_side, (name, idx)
            checked += 1
        assert checked >= 6

    def test_no_way_back_is_recorded_from_an_inadmissible_node(self, monkeypatch):
        pair = six_cycle_pair()
        graph, computed = self.links(monkeypatch, pair, words_up_to(pair.orbit_count, 5), False)
        from_inadmissible = 0
        for node in graph.nodes.values():
            for idx, child in node.children.items():
                if (id(node), idx) not in computed:
                    # recorded by the step from child, which must leave an admissible node
                    assert child.witness is None and (id(child), idx) in computed
                    assert child.children[idx] is node
                elif node.witness is not None:
                    from_inadmissible += 1
                    assert idx not in child.children or (id(child), idx) in computed
        assert from_inadmissible > 0

    @pytest.mark.parametrize("name, depth", [("A5toC3", 4), ("E6toF4", 3), ("D4t-A1t2", 4)])
    def test_project_runs_once_per_ambient_variable(self, monkeypatch, name, depth):
        projected = []
        project = LaurentPolynomial.project

        def counted(poly, orbits):
            projected.append(poly)
            return project(poly, orbits)

        monkeypatch.setattr(LaurentPolynomial, "project", counted)
        pair = catalog.folding_pair(name).pair
        for word in words_up_to(pair.orbit_count, depth):
            assert verify_commutation(pair, word).ok
        reached = {x for node in pair._orbit_seeds.nodes.values() if node.ok is not None
                   for x in node.ambient.cluster}
        assert len(projected) == len(set(projected)) == len(reached)

    def test_table_gives_the_seeds_of_table_free_mutation(self):
        rng = random.Random(11)
        for name, pair in catalog_pairs():
            if not pair.admissible or not check_stability(pair, 2_000).stable:
                continue
            ambient, quotient = initial_seed(pair.matrix), initial_seed(quotient_matrix(pair))
            exchanges = {}
            for _ in range(15):
                word = tuple(rng.randrange(pair.orbit_count) for _ in range(rng.randint(1, 6)))
                upstairs = ambient
                for idx in word:
                    step = orbit_mutate_seed(pair, upstairs, idx, exchanges=exchanges)
                    assert step == orbit_mutate_seed(pair, upstairs, idx), (name, word)
                    upstairs = step[0]
                downstairs = quotient
                for idx in word:
                    downstairs = mutate_seed(downstairs, idx, exchanges=exchanges)
                assert downstairs == apply_mutation_word(quotient, word), (name, word)


def shortlex_walks(pair, depth):
    """Reference: each orbit word of length <= depth in shortlex order, with
    the (ambient seed, quotient seed) after each of its prefixes, every word
    walked from the initial seeds with nothing shared."""
    walks = []
    for word in words_up_to(pair.orbit_count, depth):
        ambient, quotient = initial_seed(pair.matrix), initial_seed(quotient_matrix(pair))
        path = [(ambient, quotient)]
        for idx in word:
            ambient = orbit_mutate_seed(pair, ambient, idx)[0]
            quotient = mutate_seed(quotient, idx)
            path.append((ambient, quotient))
        walks.append((word, path))
    return walks


class TestCheckCommutation:
    @pytest.mark.parametrize("name, nodes", [
        ("A3toB2", 9), ("D4toG2", 8), ("D4toB3", 32), ("A5toC3", 32), ("E6toF4", 72),
    ])
    def test_nodes_at_depth_4(self, name, nodes):
        search = check_commutation(catalog.folding_pair(name).pair, 4)
        # a node at depth 4 is refused, though verified, so the search is not closed
        assert (search.status, search.size, search.word) == ("limit-exceeded", nodes, None)

    @pytest.mark.parametrize("name, nodes", [
        ("A3toB2", 12), ("D4toG2", 8), ("D4toB3", 80), ("A5toC3", 160),
    ])
    def test_the_finite_graphs_close(self, name, nodes):
        search = check_commutation(catalog.folding_pair(name).pair, 30)
        assert (search.status, search.size) == ("closed", nodes)

    @pytest.mark.parametrize("name, depth", [("A3toB2", 6), ("A5toC3", 3), ("E6toF4", 2)])
    def test_a_corrupted_projection_is_met_by_its_shortlex_first_word(self, monkeypatch,
                                                                      name, depth):
        # the k-th ambient seed in shortlex order of the words reaching it,
        # the initial seed (k = 0) included, projects wrongly
        pair = catalog.folding_pair(name).pair
        first_words = {}
        for word, path in shortlex_walks(pair, depth):
            ambient, quotient = path[-1]
            assert project_seed(pair, ambient) == quotient, word
            first_words.setdefault(ambient, word)
        original = folding.project_seed
        for target, expected in first_words.items():
            def corrupt(pair, seed, check=True, target=target):
                projected = original(pair, seed, check)
                if seed == target:
                    first = projected.cluster[0]
                    return Seed(projected.matrix, (first * first,) + projected.cluster[1:])
                return projected

            monkeypatch.setattr(folding, "project_seed", corrupt)
            search = check_commutation(catalog.folding_pair(name).pair, depth)
            assert (search.status, search.word) == ("witness", expected), (name, expected)
            assert search.witness.ambient == target

    @pytest.mark.parametrize("name, depth", [("D4toG2", 4), ("A3toB2", 6), ("A5toC3", 3)])
    def test_a_corrupted_quotient_step_is_met_by_its_shortlex_first_word(self, monkeypatch,
                                                                        name, depth):
        # the quotient step along one edge returns its source seed; the edge is
        # stepped from the end met first, as the search steps it, and the first
        # word to cross it fails, also where it ends at an ambient seed met before
        walks = shortlex_walks(catalog.folding_pair(name).pair, depth)
        first_words = {}
        for word, path in walks:
            first_words.setdefault(path[-1][0], word)
        edges = {}  # (quotient seed, orbit index) -> (the first word to cross it, its end's)
        for word, path in walks[1:]:
            (source, quotient), (target, _) = path[-2:]
            prefix, reached = word[:-1], first_words[target]
            if first_words[source] == prefix and (len(reached), reached) > (len(prefix), prefix):
                edges.setdefault((quotient, word[-1]), (word, reached))
        assert any(word != reached for word, reached in edges.values()), "no edge meets a known seed"
        original = folding.mutate_seed
        for (seed, idx), (expected, _) in edges.items():
            def corrupt(source, k, seed=seed, idx=idx, **kwargs):
                if source == seed and k == idx:
                    return source
                return original(source, k, **kwargs)

            monkeypatch.setattr(folding, "mutate_seed", corrupt)
            search = check_commutation(catalog.folding_pair(name).pair, depth)
            assert (search.status, search.word) == ("witness", expected), (name, expected)

    def test_an_inadmissible_node_raises_the_word_walks_witness(self):
        with pytest.raises(NotAdmissibleError) as walked:
            verify_commutation(six_cycle_pair(), (0,))
        with pytest.raises(NotAdmissibleError) as searched:
            check_commutation(six_cycle_pair(), 1)
        assert searched.value.witness == walked.value.witness == (1, 2, 4)

    def test_an_overflow_ends_the_search(self, monkeypatch):
        def overflowing(*args, **kwargs):
            raise EntryOverflowError("entry past the 64-bit range")

        pair = catalog.folding_pair("A3toB2").pair
        monkeypatch.setattr(folding, "orbit_mutate_seed", overflowing)
        assert check_commutation(pair, 2).status == "overflow"


class TestOrbitMutateWord:
    def test_matches_step_by_step(self):
        pair = catalog.folding_pair("D4toG2").pair
        word = (0, 1, 0, 1, 1)
        expected = initial_seed(pair.matrix)
        for idx in word:
            expected = orbit_mutate_seed(pair, expected, idx)[0]
        assert orbit_mutate_word(pair, initial_seed(pair.matrix), word) == (expected, None)

    def test_returns_the_witness_of_the_result(self):
        pair = six_cycle_pair()
        seed, witness = orbit_mutate_word(pair, initial_seed(pair.matrix), (1,))
        assert seed.matrix == compose_orbit_mutations(pair.matrix, pair.orbits, 1)
        assert witness == (0, 2, 3)

    def test_inadmissible_step_raises_before_mutating(self):
        with pytest.raises(NotAdmissibleError) as info:
            orbit_mutate_word(six_cycle_pair(), initial_seed(six_cycle_pair().matrix), (1, 0))
        assert info.value.witness == (0, 2, 3)

    def test_inadmissible_given_seed_raises_before_mutating(self):
        pair = six_cycle_pair()
        seed, witness = orbit_mutate_word(pair, initial_seed(pair.matrix), (1,))
        assert witness == (0, 2, 3)
        with pytest.raises(NotAdmissibleError) as info:
            orbit_mutate_word(pair, seed, (0,))
        assert info.value.witness == (0, 2, 3)
        assert orbit_mutate_word(pair, seed, ()) == (seed, (0, 2, 3))

    def test_orbit_index_out_of_range(self):
        pair = a3_pair()
        with pytest.raises(ValueError, match="orbit index 3 out of range"):
            orbit_mutate_word(pair, initial_seed(A3), (0, 2))

    def test_orbit_index_out_of_range_before_any_step(self, monkeypatch):
        steps = []
        step = folding.orbit_mutate_seed

        def counted(pair, seed, orbit_index, **kwargs):
            steps.append(orbit_index)
            return step(pair, seed, orbit_index, **kwargs)

        monkeypatch.setattr(folding, "orbit_mutate_seed", counted)
        pair = a3_pair()
        with pytest.raises(ValueError, match="orbit index 100 out of range"):
            orbit_mutate_word(pair, initial_seed(A3), (0, 99))
        assert steps == []
        # a word given as an iterator is read once, by the check, and still walked
        assert orbit_mutate_word(pair, initial_seed(A3), iter((0, 1))) == (
            orbit_mutate_word(pair, initial_seed(A3), (0, 1)))
        assert steps == [0, 1, 0, 1]


class TestNonStableGolden:
    """The known counterexample: 6-cycle folded by the antipodal involution."""

    # ambient matrix after composing the vertex mutations of orbits
    # {2, 5} then {1, 4} (0-based)
    B_PRIME = (
        (0, 1, -1, 0, 0, 1),
        (-1, 0, 0, 0, 0, 0),
        (1, 0, 0, -1, 0, 0),
        (0, 0, 1, 0, 1, -1),
        (0, 0, 0, -1, 0, 0),
        (-1, 0, 0, 1, 0, 0),
    )

    def test_ambient_matrix(self):
        pair = six_cycle_pair()
        m = compose_orbit_mutations(pair.matrix, pair.orbits, 1)
        m = compose_orbit_mutations(m, pair.orbits, 0)
        assert m.entries == self.B_PRIME

    def test_seed_mismatch(self):
        pair = six_cycle_pair()
        report = verify_commutation(pair, (1, 0), require_stable=False)
        assert not report.ok
        names = ["u1", "u2", "u3"]

        def p(text):
            return parse_polynomial(text, names)

        assert report.quotient_side.cluster == (
            p("u2^-1 + u1^-1 + u1^-1*u2^-1*u3"),
            p("u1*u2^-1 + u2^-1*u3"),
            p("u3"),
        )
        assert report.projected_side.cluster == (
            p("u2^-1*u3 + u1^-1*u3 + u1^-1*u2^-1*u3^2"),
            p("u1*u2^-1 + u2^-1*u3"),
            p("u3"),
        )
        assert report.quotient_side.matrix.entries == (
            (0, 1, 0),
            (-1, 0, -1),
            (0, 1, 0),
        )
        assert report.projected_side.matrix.entries == (
            (0, 1, 0),
            (-1, 0, 0),
            (0, 0, 0),
        )
