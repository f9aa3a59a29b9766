"""The BFS engine on a small explicit graph, and its edge reuse on mutation classes."""

from collections import Counter, deque
from operator import attrgetter

import pytest

from clusterfold import catalog, cli
from clusterfold.exchange import EntryOverflowError, ExchangeMatrix
from clusterfold.folding import admissibility_witness, compose_orbit_mutations
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


def reference_bfs(start, moves, step, key, limit, on_new=None):
    """Plain BFS that computes every lookup from both ends of an edge.

    Returns (Search, directed lookups as (source, target) discovery indices)."""
    visited = {key(start): 0}
    queue = deque([(start, (), 0)])
    lookups = []
    depth = 0
    try:
        while queue:
            node, word, source = queue.popleft()
            depth = len(word)
            for move in moves:
                neighbour = step(node, move)
                k = key(neighbour)
                if k not in visited:
                    new_word = word + (move,)
                    witness = None if on_new is None else on_new(neighbour, new_word)
                    if witness is not None:
                        return Search("witness", visited, depth, 0, witness, new_word), lookups
                    if len(visited) >= limit:
                        return Search("limit-exceeded", visited, depth, 1), lookups
                    visited[k] = len(visited)
                    queue.append((neighbour, new_word, visited[k]))
                lookups.append((source, visited[k]))
    except EntryOverflowError:
        return Search("overflow", visited, depth, 0), lookups
    return Search("closed", visited, depth, 0), lookups


def orbit_class(name):
    pair = catalog.folding_pair(name).pair
    return dict(
        start=pair.matrix,
        moves=range(pair.orbit_count),
        step=lambda matrix, idx: compose_orbit_mutations(matrix, pair.orbits, idx),
        on_new=lambda matrix, word: admissibility_witness(matrix, pair.orbits),
    )


def mutation_class_of(matrix):
    return dict(start=matrix, moves=range(matrix.n), step=ExchangeMatrix.mutate)


INVOLUTIVE_CASES = {
    "A5toC3": (mutation_class_of(catalog.folding_pair("A5toC3").pair.matrix), 10_000),
    "D4toG2": (mutation_class_of(catalog.folding_pair("D4toG2").pair.matrix), 10_000),
    "E6t-F4t1 at its limit": (mutation_class_of(catalog.folding_pair("E6t-F4t1").pair.matrix), 2_000),
    "remark-stabilite": (orbit_class("remark-stabilite"), 10_000),
    "indefinite control": (mutation_class_of(ExchangeMatrix(cli._INDEFINITE_CONTROL)), 50_000),
    "isolated vertex": (mutation_class_of(ExchangeMatrix([[0, -2, 0], [1, 0, 0], [0, 0, 0]])), 100),
}


@pytest.mark.parametrize("name", INVOLUTIVE_CASES)
def test_edge_reuse_matches_the_plain_search(name):
    case, limit = INVOLUTIVE_CASES[name]
    key = attrgetter("entries")
    expected, lookups = reference_bfs(case["start"], case["moves"], case["step"], key, limit,
                                      case.get("on_new"))
    edges = []
    result = bfs(case["start"], case["moves"], case["step"], key, limit, on_new=case.get("on_new"),
                 on_edge=lambda source, target: edges.append((source, target)), involutive=True)
    assert result == expected
    if result.status == "closed":
        # each undirected edge is reported once; the plain search looks it up from both ends
        reported = Counter()
        for source, target in edges:
            reported[min(source, target), max(source, target)] += 1 if source == target else 2
        assert reported == Counter((min(edge), max(edge)) for edge in lookups)
        assert len(edges) < len(lookups)


def test_pinned_outcomes_under_edge_reuse():
    outcomes = {}
    for name in ("E6t-F4t1 at its limit", "remark-stabilite", "indefinite control", "isolated vertex"):
        case, limit = INVOLUTIVE_CASES[name]
        result = bfs(case["start"], case["moves"], case["step"], attrgetter("entries"), limit,
                     on_new=case.get("on_new"), involutive=True)
        outcomes[name] = (result.status, len(result.visited), result.word, result.witness)
    assert outcomes == {
        "E6t-F4t1 at its limit": ("limit-exceeded", 2_000, None, None),
        "remark-stabilite": ("witness", 1, (0,), (1, 2, 4)),
        "indefinite control": ("overflow", 456, None, None),
        "isolated vertex": ("closed", 2, None, None),
    }
