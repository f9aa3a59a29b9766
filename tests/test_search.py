"""The BFS engine on a small explicit graph, and its edge reuse on mutation
classes and seed searches."""

from collections import Counter, deque
from operator import attrgetter

import pytest

from clusterfold import catalog, cli, seeds
from clusterfold.exchange import EntryOverflowError, ExchangeMatrix
from clusterfold.explorer import MutationClassReport, mutation_class
from clusterfold.folding import (StabilityVerdict, admissibility_witness, check_stability,
                                 compose_orbit_mutations, quotient_matrix)
from clusterfold.seeds import EnumerationResult, Seed, initial_seed, mutate_seed, search_seeds
from clusterfold.search import Search, bfs

# node -> its neighbour under move 0 and under move 1
GRAPH = {
    "a": ("b", "c"),
    "b": ("a", "d"),
    "c": ("d", "e"),
    "d": ("f", "b"),
    "e": ("e", "f"),
    "f": ("a", "f"),
}
MOVES = (0, 1)
SHORTEST_WORDS = {"b": (0,), "c": (1,), "d": (0, 1), "e": (1, 1), "f": (0, 1, 0)}


def step(node, move):
    return GRAPH[node][move]


def key(node):
    return node


def search(limit=100, **kwargs):
    return bfs("a", MOVES, step, key, limit, **kwargs)


def test_closed_search_visits_in_discovery_order():
    result = search()
    assert result.status == "closed"
    assert result.visited == {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5}
    assert (result.depth, result.refused) == (3, 0)


def test_shortest_words():
    words = {}

    def record(node, word):
        words[node] = word

    search(on_new=record)
    assert words == SHORTEST_WORDS


def test_edges_carry_discovery_indices():
    edges = []
    search(on_edge=lambda source, target: edges.append((source, target)))
    assert edges == [(0, 1), (0, 2), (1, 0), (1, 3), (2, 3), (2, 4),
                     (3, 5), (3, 1), (4, 4), (4, 5), (5, 0), (5, 5)]


def test_stop_policy_ends_at_the_first_refused_node():
    seen = []
    result = search(limit=4, on_new=lambda node, word: seen.append(node))
    assert result.status == "limit-exceeded"
    assert list(result.visited) == ["a", "b", "c", "d"]
    assert result.refused == 1
    assert seen == ["b", "c", "d", "e"]


def test_drain_policy_counts_every_refused_neighbour():
    seen = []
    result = search(limit=4, drain=True, on_new=lambda node, word: seen.append(node))
    assert result.status == "limit-exceeded"
    assert list(result.visited) == ["a", "b", "c", "d"]
    assert result.refused == 2  # e from c, f from d
    assert seen == ["b", "c", "d", "e", "f"]


def test_depth_limit_admits_but_does_not_expand():
    result = search(max_depth=1, drain=True)
    assert result.status == "limit-exceeded"
    assert list(result.visited) == ["a", "b", "c"]
    assert result.refused == 2


def test_witness_hook_runs_before_the_limit_test():
    result = search(limit=3, on_new=lambda node, word: "found" if node == "d" else None)
    assert result.status == "witness"
    assert (result.witness, result.word) == ("found", (0, 1))
    assert len(result.visited) == 3


def test_entry_overflow_is_a_verdict():
    def overflowing(node, move):
        if node == "d":
            raise EntryOverflowError("entry exceeds 64-bit range")
        return step(node, move)

    result = bfs("a", MOVES, overflowing, key, 100)
    assert result.status == "overflow"
    assert list(result.visited) == ["a", "b", "c", "d", "e"]


# stopping status -> what the reports read off it: MutationClassReport (verdict,
# finite), StabilityVerdict (status, stable) and EnumerationResult complete
REPORT_WORDS = {
    "closed": (("finite", True), ("stable-exhaustive", True), True),
    "witness": (("witness", False), ("unstable", False), False),
    "limit-exceeded": (("limit-exceeded", False), ("limit-exceeded", False), False),
    "overflow": (("overflow", False), ("overflow", False), False),
}


@pytest.mark.parametrize("status", REPORT_WORDS)
def test_every_report_reads_its_words_off_the_search(status):
    path, word = ((1, 2, 4), (0,)) if status == "witness" else (None, None)
    search = Search(status, dict.fromkeys("abc"), 2, int(status == "limit-exceeded"), path, word)
    mutations = MutationClassReport(search)
    stability = StabilityVerdict(search)
    enumeration = EnumerationResult(search, {"x": (), "y": (0,)}, ())
    assert all(report.search is search for report in (mutations, stability, enumeration))
    assert ((mutations.verdict, mutations.finite), (stability.status, stability.stable),
            enumeration.complete) == REPORT_WORDS[status]
    assert search.size == mutations.size == stability.class_size == enumeration.cluster_count == 3
    assert (stability.witness_word, stability.witness_path) == (word, path)
    assert enumeration.variable_count == 2


def test_reports_hold_the_engines_search():
    control = mutation_class(ExchangeMatrix(cli._INDEFINITE_CONTROL), 50_000)
    assert (control.search.status, control.size) == ("overflow", 456)
    verdict = check_stability(catalog.folding_pair("remark-stabilite").pair)
    assert (verdict.search.word, verdict.witness_path) == ((0,), (1, 2, 4))


def fields(result: Search) -> tuple:
    """A Search's fields in order: the record compares by identity, they by value."""
    return (result.status, result.visited, result.depth, result.refused, result.witness,
            result.word)


def reference_bfs(start, moves, step, key, limit, on_new=None, drain=False, max_depth=None):
    """Plain BFS that computes every lookup from both ends of an edge.

    Returns (Search, directed lookups as (source, move, target), the ends as
    discovery indices)."""
    visited = {key(start): 0}
    queue = deque([(start, (), 0)])
    lookups = []
    depth = refused = 0
    try:
        while queue:
            node, word, source = queue.popleft()
            depth = len(word)
            if max_depth is not None and depth >= max_depth:
                refused += 1
                continue
            for move in moves:
                neighbour = step(node, move)
                k = key(neighbour)
                if k not in visited:
                    new_word = word + (move,)
                    witness = None if on_new is None else on_new(neighbour, new_word)
                    if witness is not None:
                        return Search("witness", visited, depth, refused, witness, new_word), lookups
                    if len(visited) >= limit:
                        refused += 1
                        if not drain:
                            return Search("limit-exceeded", visited, depth, refused), lookups
                        continue
                    visited[k] = len(visited)
                    queue.append((neighbour, new_word, visited[k]))
                lookups.append((source, move, visited[k]))
    except EntryOverflowError:
        return Search("overflow", visited, depth, refused), lookups
    return Search("limit-exceeded" if refused else "closed", visited, depth, refused), lookups


def orbit_class(name):
    pair = catalog.folding_pair(name).pair

    def zero_block(matrix, j, k):
        block = pair.orbits[j] + pair.orbits[k]
        return all(matrix.entries[u][v] == 0 for u in block for v in block)

    return dict(
        start=pair.matrix,
        moves=range(pair.orbit_count),
        step=lambda matrix, idx: compose_orbit_mutations(matrix, pair.orbits, idx),
        on_new=lambda matrix, word: admissibility_witness(matrix, pair.orbits),
        commutes=zero_block,
    )


def mutation_class_of(matrix):
    return dict(start=matrix, moves=range(matrix.n), step=ExchangeMatrix.mutate,
                commutes=lambda b, j, k: b.entries[j][k] == 0)


LABELED_CASES = {
    "A5toC3": (mutation_class_of(catalog.folding_pair("A5toC3").pair.matrix), 10_000),
    "D4toG2": (mutation_class_of(catalog.folding_pair("D4toG2").pair.matrix), 10_000),
    "E6t-F4t1 at its limit": (mutation_class_of(catalog.folding_pair("E6t-F4t1").pair.matrix), 2_000),
    "remark-stabilite": (orbit_class("remark-stabilite"), 10_000),
    "indefinite control": (mutation_class_of(ExchangeMatrix(cli._INDEFINITE_CONTROL)), 50_000),
    "isolated vertex": (mutation_class_of(ExchangeMatrix([[0, -2, 0], [1, 0, 0], [0, 0, 0]])), 100),
}


def table_search(case, limit, commutes=None):
    """The engine with a case's commuting squares: (Search, on_edge edges, step count)."""
    edges, steps = [], []

    def step(node, move):
        steps.append(move)
        return case["step"](node, move)

    result = bfs(case["start"], case["moves"], step, attrgetter("entries"), limit,
                 on_new=case.get("on_new"),
                 on_edge=lambda source, target: edges.append((source, target)),
                 commutes=commutes or case["commutes"])
    return result, edges, len(steps)


@pytest.mark.parametrize("name", LABELED_CASES)
def test_edge_reuse_matches_the_plain_search(name):
    case, limit = LABELED_CASES[name]
    expected, lookups = reference_bfs(case["start"], case["moves"], case["step"],
                                      attrgetter("entries"), limit, case.get("on_new"))
    result, edges, steps = table_search(case, limit)
    assert fields(result) == fields(expected)
    # each undirected edge (lower end, move, upper end) is reported once; the
    # plain search looks it up from each end it expanded
    plain = {(min(source, target), move, max(source, target)) for source, move, target in lookups}
    assert Counter((min(edge), max(edge)) for edge in edges) == Counter(
        (low, high) for low, _, high in plain)
    if result.status == "closed":
        # a closed search steps along at most the edges it does not read off a square
        assert steps <= len(edges) < len(lookups)


def test_the_predicate_is_asked_only_about_closed_squares():
    case, limit = LABELED_CASES["A5toC3"]
    step, key, asked = case["step"], attrgetter("entries"), []

    def recording(node, j, k):
        asked.append((node, j, k))
        return case["commutes"](node, j, k)

    result, _, steps = table_search(case, limit, recording)
    assert result.status == "closed" and asked
    for node, j, k in asked:
        assert j != k
        p = step(node, k)
        c = step(p, j)
        assert {key(p), key(c), key(step(c, k))} <= result.visited.keys()
    # A5's class has 1,980 members and n·s/2 = 4,950 edges
    assert steps < 4_950


def test_a_predicate_that_always_commutes_is_caught():
    # an edge read off a square that does not commute lands on the wrong member,
    # so whole parts of the class are never reached
    case, limit = LABELED_CASES["A5toC3"]
    expected, _ = reference_bfs(case["start"], case["moves"], case["step"],
                                attrgetter("entries"), limit)
    result, _, _ = table_search(case, limit, lambda node, j, k: True)
    assert (expected.status, len(expected.visited)) == ("closed", 1_980)
    assert (result.status, len(result.visited)) == ("closed", 21)
    assert not result.visited.keys() - expected.visited.keys()


def test_pinned_outcomes_under_edge_reuse():
    outcomes = {}
    for name in ("E6t-F4t1 at its limit", "remark-stabilite", "indefinite control", "isolated vertex"):
        case, limit = LABELED_CASES[name]
        result, _, _ = table_search(case, limit)
        outcomes[name] = (result.status, len(result.visited), result.word, result.witness)
    assert outcomes == {
        "E6t-F4t1 at its limit": ("limit-exceeded", 2_000, None, None),
        "remark-stabilite": ("witness", 1, (0,), (1, 2, 4)),
        "indefinite control": ("overflow", 456, None, None),
        "isolated vertex": ("closed", 2, None, None),
    }


STABILITY_PAIRS = {
    **{name: catalog.folding_pair(name).pair for name in catalog.list_names()
       if not name.endswith("(n)")},
    **{f"{family}({smallest})": catalog.folding_pair(family, smallest).pair
       for family, (_, smallest, _) in catalog._PARAMETRIC.items()},
}


@pytest.mark.parametrize("name", [name for name, pair in STABILITY_PAIRS.items() if pair.admissible])
def test_the_stability_search_is_the_plain_search(name):
    # squares read off the cross block of admissible members, and the
    # orbit-pair table, leave the search exactly as stepping every move
    pair = STABILITY_PAIRS[name]
    verdict = check_stability(pair, 2_000)
    expected, _ = reference_bfs(
        pair.matrix, range(pair.orbit_count),
        lambda matrix, idx: compose_orbit_mutations(matrix, pair.orbits, idx),
        attrgetter("entries"), 2_000,
        on_new=lambda matrix, word: admissibility_witness(matrix, pair.orbits))
    assert fields(verdict.search) == fields(expected)
    assert list(verdict.search.visited) == list(expected.visited)


@pytest.mark.parametrize("name", LABELED_CASES)
def test_the_engine_counts_the_edges_it_reports(name):
    case, limit = LABELED_CASES[name]
    result, edges, _ = table_search(case, limit)
    assert (result.edges, result.loops) == (len(edges), sum(s == t for s, t in edges))
    bare = bfs(case["start"], case["moves"], case["step"], attrgetter("entries"), limit,
               on_new=case.get("on_new"), commutes=case["commutes"])
    assert (bare.edges, bare.loops) == (result.edges, result.loops)
    # mu_3 fixes both members of the isolated-vertex class; nothing else has a loop
    assert result.loops == (2 if name == "isolated vertex" else 0)


def test_a_drained_seed_search_counts_the_edges_it_reports():
    edges = []
    result = search_seeds(initial_seed(catalog.folding_pair("D4t-A1t2").pair.matrix), 450,
                          on_edge=lambda *edge: edges.append(edge))
    assert result.status == "limit-exceeded" and result.refused
    assert (result.edges, result.loops) == (len(edges), 0)
    assert result.edges == len({(min(edge), max(edge)) for edge in edges})  # each edge once


# the finite-type catalog pairs; the parametric families repeat them at small rank
FINITE_PAIRS = ("A3toB2", "A5toC3", "D4toB3", "D4toG2", "E6toF4")

SEED_CASES = {
    "A5": (catalog.dynkin("A", 5), 100_000, None),
    "D4": (catalog.dynkin("D", 4), 100_000, None),
    "G2": (catalog.dynkin("G", 2), 100_000, None),
    "C3": (catalog.dynkin("C", 3), 100_000, None),
    "D4t-A1t2 drained at its limit": (catalog.folding_pair("D4t-A1t2").pair.matrix, 450, None),
    "E6 to depth 3": (catalog.dynkin("E", 6), 100_000, 3),
    **{f"{name} {side}": (matrix, 100_000, None) for name in FINITE_PAIRS
       for side, matrix in (("ambient", catalog.folding_pair(name).pair.matrix),
                            ("quotient", quotient_matrix(catalog.folding_pair(name).pair)))},
}


def observed_seed_search(matrix, limit, max_depth):
    """What one ``search_seeds`` run shows: its Search, visited keys, the
    ``on_new`` calls, the ``on_edge`` edges as a set, its exchange table and
    its mutation count."""
    news, edges, tables = [], set(), []
    mutate = seeds.mutate_seed

    def recording(seed, k, *, exchanges=None):
        tables.append(exchanges)
        return mutate(seed, k, exchanges=exchanges)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seeds, "mutate_seed", recording)
        result = search_seeds(initial_seed(matrix), limit, max_depth=max_depth,
                              on_new=lambda seed, word: news.append((seed.key(), word)),
                              on_edge=lambda source, target: edges.add((min(source, target),
                                                                        max(source, target))))
    assert all(table is tables[0] for table in tables)
    return result, list(result.visited), news, edges, tables[0], len(tables)


def plain_seed_search(matrix, limit, max_depth):
    """The same observations from the engine with no hooks, which mutates
    along every lookup and calls ``on_new`` on every reach of a refused
    neighbour; its ``on_new`` calls are kept at the first per key."""
    news, edges, table, mutated = [], set(), {}, []

    def step(seed, k):
        mutated.append(k)
        return mutate_seed(seed, k, exchanges=table)

    result = bfs(initial_seed(matrix), range(matrix.n), step, Seed.key, limit, drain=True,
                 max_depth=max_depth, on_new=lambda seed, word: news.append((seed.key(), word)),
                 on_edge=lambda source, target: edges.add((min(source, target),
                                                           max(source, target))))
    first = {}
    for key, word in news:
        first.setdefault(key, word)
    return result, list(result.visited), list(first.items()), edges, table, len(mutated)


@pytest.mark.parametrize("name", SEED_CASES)
def test_seed_search_takes_each_edge_once(name):
    matrix, limit, max_depth = SEED_CASES[name]
    *observed, mutations = observed_seed_search(matrix, limit, max_depth)
    *expected, plain_mutations = plain_seed_search(matrix, limit, max_depth)
    result, visited, news, edges, table = observed
    assert fields(result) == fields(expected[0])
    assert observed[1:4] == expected[1:4]
    # the labeled search divides only what it meets, and the same quotients
    assert table.items() <= expected[4].items()
    # one mutation per admitted seed after the first and per distinct refused neighbour
    refused_seeds = {key for key, _ in news} - set(visited)
    assert len(refused_seeds) <= result.refused
    assert mutations == len(visited) - 1 + len(refused_seeds)
    assert mutations < plain_mutations


@pytest.mark.parametrize("name", ["A5", "D4t-A1t2 drained at its limit"])
def test_a_wrong_way_back_is_caught(monkeypatch, name):
    # a label that drops the variable at position k + 1 instead of k
    matrix, limit, max_depth = SEED_CASES[name]

    def mutant_bfs(*args, edge, **kwargs):
        return bfs(*args, edge=lambda seed, k: edge(seed, (k + 1) % matrix.n), **kwargs)

    monkeypatch.setattr(seeds, "bfs", mutant_bfs)
    with pytest.raises(AssertionError, match="a label missed the node a step reached"):
        observed_seed_search(matrix, limit, max_depth)


def test_a_step_to_a_node_its_label_did_not_name_raises():
    with pytest.raises(AssertionError, match="a label missed"):
        search(edge=lambda node, move: (node, move))


def test_a_label_of_three_nodes_raises():
    with pytest.raises(AssertionError, match="three nodes"):
        search(edge=lambda node, move: "shared" if move == 0 else (node, move))
