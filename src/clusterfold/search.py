"""The breadth-first search engine behind every exhaustive search.

Mutation classes, orbit-mutation classes (stability), seed enumeration,
denominator searches and group closures all run through :func:`bfs`.
The engine owns the visited map, the FIFO queue, shortest words, the
node and depth limits and the mapping of entry overflow to a verdict;
callers supply the moves, the step function and the deduplication key.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .exchange import EntryOverflowError


@dataclass
class Search:
    """Outcome of one BFS.

    status is "closed" (the queue drained with nothing refused),
    "witness" (``on_new`` returned ``witness`` for the node reached by
    ``word``), "limit-exceeded" or "overflow".  ``visited`` maps each
    admitted key to its discovery index; ``depth`` is the word length of
    the last node taken from the queue; ``refused`` counts the neighbours refused by
    the node limit plus the nodes left unexpanded by the depth limit.
    """

    status: str
    visited: dict
    depth: int
    refused: int
    witness: object = None
    word: tuple | None = None


def same_move(stored, neighbour, move):
    """The ``back`` of a labeled search whose key identifies a node exactly
    and whose moves are involutions: the way back along move m is m."""
    return move


def bfs(
    start,
    moves,
    step,
    key,
    limit: int,
    *,
    drain: bool = False,
    max_depth: int | None = None,
    on_new=None,
    on_edge=None,
    back=None,
    edge=None,
) -> Search:
    """Breadth-first search from ``start`` over ``step(node, move)`` for each move.

    Nodes are deduplicated by ``key``; at most ``limit`` nodes are
    admitted.  ``on_new(node, word)`` runs on every neighbour whose key
    is unseen, before the limit test, and a non-None return stops the
    search with that witness.  At the node limit the search stops unless
    ``drain``, in which case refused neighbours are counted and the queue
    is emptied.  Nodes at depth ``max_depth`` are admitted but not
    expanded; each counts as refused.  ``on_edge(source, target)``
    receives the discovery indices of every admitted edge.  An
    EntryOverflowError from ``step`` ends the search with status
    "overflow".

    ``back(stored, neighbour, move)`` (int moves, each an involution:
    ``step(step(u, m), m)`` has the key of ``u``) names the way back along
    a computed edge.  On a hit, ``neighbour`` is ``step(source, move)`` and
    ``stored`` is the admitted node with its key, perhaps relabeled; the
    return is the move from ``stored``, in its own labeling, back to the
    key of ``source``.  That move, like move m on a node admitted along m,
    is skipped: it would be a hit, so the outcome is unchanged while
    ``step`` runs and ``on_edge`` fires once per undirected edge.  Only
    queued nodes are asked, since a skip on an expanded node is never read.

    ``edge(node, move)`` (moves ``range(n)``) labels an edge with a value
    both its ends give it.  The labels of every admitted node and refused
    neighbour are indexed, and ``step`` runs only on a label that names no
    other node: one naming an admitted node reports the edge to
    ``on_edge`` once, one naming a refused neighbour counts it again.  So
    ``on_new`` runs once per key, and a drained search steps once per
    admitted node after the first and per distinct refused neighbour.  A
    step onto another admitted node, or a label of three nodes, raises
    AssertionError.
    """
    visited = {key(start): 0}
    queued = [start]  # by discovery index: the node until it is expanded
    skips = [0]  # by discovery index: bit m set once the edge along move m is computed
    labels = {}  # edge label -> the nodes it names: discovery indices, None if refused

    def index(node, name):  # add name to the name list of each label of node; those lists
        lists = [labels.setdefault(edge(node, move), []) for move in moves] if edge else None
        for names in lists or ():
            assert len(names) < 2, "an edge label names three nodes"
            names.append(name)
        return lists

    queue = deque([(start, (), 0, index(start, 0))])
    depth = refused = 0
    try:
        while queue:
            node, word, source, lists = queue.popleft()
            queued[source] = None
            depth = len(word)
            if max_depth is not None and depth >= max_depth:
                refused += 1
                continue
            skip = skips[source]
            for move in moves:
                if skip and skip >> move & 1:
                    continue
                if lists and len(lists[move]) == 2:  # the label names the other end
                    other = lists[move][lists[move][0] == source]
                    if other is None:
                        refused += 1
                    elif other > source and on_edge is not None:  # the end expanded first
                        on_edge(source, other)
                    continue
                neighbour = step(node, move)
                k = key(neighbour)
                target = visited.get(k)
                if target is not None:
                    assert not lists or target == source, "a label missed the node a step reached"
                    if back and target > source:  # nodes are expanded in discovery order
                        skips[target] |= 1 << back(queued[target], neighbour, move)
                    if on_edge is not None:
                        on_edge(source, target)
                    continue
                new_word = word + (move,)
                if on_new is not None:
                    witness = on_new(neighbour, new_word)
                    if witness is not None:
                        return Search("witness", visited, depth, refused, witness, new_word)
                if len(visited) >= limit:
                    refused += 1
                    if not drain:
                        return Search("limit-exceeded", visited, depth, refused)
                    index(neighbour, None)
                    continue
                target = len(visited)
                visited[k] = target
                queued.append(neighbour)
                skips.append(1 << move if back else 0)
                if on_edge is not None:
                    on_edge(source, target)
                queue.append((neighbour, new_word, target, index(neighbour, target)))
    except EntryOverflowError:
        return Search("overflow", visited, depth, refused)
    return Search("limit-exceeded" if refused else "closed", visited, depth, refused)
