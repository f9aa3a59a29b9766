"""The BFS engine on a small explicit graph."""

from clusterfold.exchange import EntryOverflowError
from clusterfold.search import bfs

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
