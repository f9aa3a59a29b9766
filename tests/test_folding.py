"""Folding: groups, admissibility, quotients, orbit mutation, stability."""

import itertools
import random

import pytest

from clusterfold import folding, seeds
from clusterfold.exchange import ExchangeMatrix, NotSkewSymmetrizableError
from clusterfold.folding import (
    FoldingPair,
    NotAdmissibleError,
    NotInvariantError,
    PermutationGroup,
    admissibility_witness,
    all_orbit_orderings_agree,
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
from clusterfold.laurent import parse_polynomial
from clusterfold.seeds import Seed, apply_mutation_word, initial_seed, mutate_seed
from clusterfold import catalog

A3 = ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])
SWAP13 = (2, 1, 0)


def a3_pair():
    return FoldingPair(A3, PermutationGroup(3, [SWAP13]))


def six_cycle_pair():
    return catalog.folding_pair("remark-stabilite").pair


def catalog_pairs():
    """Every catalog pair; the parametric families at their two smallest ranks."""
    for name in catalog.list_names():
        if name.endswith("(n)"):
            family = name[: -len("(n)")]
            smallest = catalog._PARAMETRIC[family][1]
            for n in (smallest, smallest + 1):
                yield catalog.folding_pair(family, n).pair
        else:
            yield catalog.folding_pair(name).pair


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
    matrix = ExchangeMatrix(quotient_entries(ambient.matrix, pair.orbits), pair.orbit_labels())
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
    matrix = ExchangeMatrix(quotient_entries(ambient.matrix, pair.orbits), pair.orbit_labels())
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

    def test_stabilizer_order(self):
        s3 = PermutationGroup(4, [(0, 2, 1, 3), (0, 2, 3, 1)])
        assert s3.stabilizer_order(0) == 6  # fixed point
        assert s3.stabilizer_order(1) == 2  # orbit of size 3 in a group of 6

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


class TestQuotients:
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

    def test_quotient_labels(self):
        assert quotient_matrix(a3_pair()).labels == ("1", "2")


class TestOrbitMutation:
    def test_matches_closed_form(self):
        pair = six_cycle_pair()
        mutated = compose_orbit_mutations(pair.matrix, pair.orbits, 0)
        # composing the two commuting vertex mutations by hand
        expected = pair.matrix.mutate(0).mutate(3)
        assert mutated == expected

    def test_matches_closed_form_on_every_catalog_orbit(self):
        checked = 0
        for pair in catalog_pairs():
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
        assert projected.matrix.labels == quotient.labels

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
        assert verdict.depth == 1

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
        for pair in catalog_pairs():
            verdict = check_stability(pair) if pair.admissible else None
            if verdict is None or not verdict.stable:
                continue
            members, queue = {pair.matrix.entries}, [pair.matrix]
            for matrix in queue:
                for idx in range(pair.orbit_count):
                    mutated = compose_orbit_mutations(matrix, pair.orbits, idx)
                    back = compose_orbit_mutations(mutated, pair.orbits, idx)
                    assert back.entries == matrix.entries, (pair.name, idx)
                    if mutated.entries not in members:
                        members.add(mutated.entries)
                        queue.append(mutated)
            assert len(members) == verdict.class_size, pair.name

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
            assert report.word == word
            assert report.quotient_side == quotient_side, word
            assert report.projected_side == projected_side, word
            assert report.projected_side.matrix.symmetrizer == projected_side.matrix.symmetrizer

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
        # downstairs, whichever mode crossed the edge first
        edges = [idx for node in graph.nodes.values() for idx in node.children]
        assert len(calls) == sum(1 + len(pair.orbits[idx]) for idx in edges)
        assert len(calls) < len(words)
        # the way back along an edge, and an exchange met again, divide nothing
        assert 0 < len(divisions) < len(calls)

    def test_table_gives_the_seeds_of_table_free_mutation(self):
        rng = random.Random(11)
        for pair in catalog_pairs():
            if not pair.admissible or not check_stability(pair, 2_000).stable:
                continue
            ambient, quotient = initial_seed(pair.matrix), initial_seed(quotient_matrix(pair))
            exchanges = {}
            for _ in range(15):
                word = tuple(rng.randrange(pair.orbit_count) for _ in range(rng.randint(1, 6)))
                upstairs = ambient
                for idx in word:
                    step = orbit_mutate_seed(pair, upstairs, idx, exchanges=exchanges)
                    assert step == orbit_mutate_seed(pair, upstairs, idx), (pair.name, word)
                    upstairs = step[0]
                downstairs = quotient
                for idx in word:
                    downstairs = mutate_seed(downstairs, idx, exchanges=exchanges)
                assert downstairs == apply_mutation_word(quotient, word), (pair.name, word)


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
