"""The breadth-first search engine behind every exhaustive search.

Mutation classes, orbit-mutation classes (stability), seed enumeration,
denominator searches, group closures, positive roots and the nodes of a
commutation check all run through :func:`bfs`, and every report of one
holds the :class:`Search` it returned as ``.search``:
its status is the one stopping vocabulary, and the reports' own words
(finite, stable-exhaustive, unstable, complete) are views of it.
The engine owns the visited map, the FIFO queue, shortest words, the
node and depth limits and the mapping of entry overflow to a verdict;
callers supply the moves, the step function and the deduplication key.
A caller whose moves are involutions passes a ``commutes`` predicate, and
the engine then steps each edge at most once and reads the edges of
commuting squares off the ones it knows; a seed search labels each edge by
the facet its two ends share, and steps each edge once.
Every search counts the edges it reports (``Search.edges`` and
``Search.loops``), so a caller that only needs their number passes no
``on_edge``.
"""

from __future__ import annotations

from collections import deque

from .exchange import EntryOverflowError


class Search:
    """Outcome of one BFS, held as ``.search`` by every report built on one.

    status is "closed" (the queue drained with nothing refused),
    "witness" (``on_new`` returned ``witness`` for the node reached by
    ``word``), "limit-exceeded" or "overflow".  ``visited`` maps each
    admitted key to its discovery index, and ``size`` counts them;
    ``depth`` is the word length of the last node taken from the queue;
    ``refused`` counts the neighbours refused by the node limit plus the
    nodes left unexpanded by the depth limit.  ``edges`` counts the
    ``on_edge`` reports, made or not (a search with ``commutes`` or
    ``edge`` reports each undirected edge once), and ``loops`` those whose
    two ends are one node.
    """

    __slots__ = ("status", "visited", "depth", "refused", "witness", "word", "edges", "loops")

    def __init__(self, status: str, visited: dict, depth: int, refused: int,
                 witness=None, word: tuple | None = None, edges: int = 0, loops: int = 0):
        self.status = status
        self.visited = visited
        self.depth = depth
        self.refused = refused
        self.witness = witness
        self.word = word
        self.edges = edges
        self.loops = loops

    size = property(lambda self: len(self.visited))


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
    commutes=None,
    edge=None,
) -> Search:
    """Breadth-first search from ``start`` over ``step(node, move)`` for each move.

    Nodes are deduplicated by ``key``; at most ``max(limit, 1)`` nodes
    are admitted, because the start always is, even at limit 0.
    ``on_new(node, word)`` runs on every neighbour whose key is unseen,
    before the limit test, and a non-None return stops the search with
    that witness.  At the node limit the search stops unless ``drain``,
    in which case refused neighbours are counted and the queue is
    emptied.  Nodes at depth ``max_depth`` are admitted but not
    expanded; each counts as refused.  ``on_edge(source, target)``
    receives the discovery indices of every admitted edge.  An
    EntryOverflowError from ``step`` ends the search with status
    "overflow".

    ``commutes(node, j, k)`` (moves ``range(n)``) declares that every move
    is an involution (``step(step(u, m), m)`` has the key of ``u``) and
    returns True only where ``step(node, j)`` has the key of
    ``step(step(step(node, k), j), k)``, for every node the engine
    expands, the only nodes it is asked about.  The engine then keeps,
    per admitted node, the target of each move it knows: the way back
    along the move that admitted the node, each step from an earlier
    node that reached it, and its own edges.  A known move
    is not stepped again, and a move j of node u whose square u -k-> p
    -j-> c -k-> t is known is taken as the edge u -j-> t, with no step,
    once ``commutes(node, j, k)`` holds.  Either target is already
    admitted, so the outcome and the ``on_edge`` calls are those of a search
    that steps every move, except that ``on_edge`` fires once per
    undirected edge.

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
    width = len(moves)
    # by discovery index: the target of each known move of the node, else None
    table = [[None] * width] if commutes else None
    labels = {}  # edge label -> the nodes it names: discovery indices, None if refused

    def index(node, name):  # add name to the name list of each label of node; those lists
        lists = [labels.setdefault(edge(node, move), []) for move in moves]
        for names in lists:
            assert len(names) < 2, "an edge label names three nodes"
            names.append(name)
        return lists

    queue = deque([(start, (), 0, edge and index(start, 0))])
    depth = refused = edges = loops = 0
    try:
        while queue:
            node, word, source, lists = queue.popleft()
            depth = len(word)
            if max_depth is not None and depth >= max_depth:
                refused += 1
                continue
            row = table[source] if table else None
            for move in moves:
                if row:
                    if row[move] is not None:  # a way back, or an edge found from its other end
                        continue
                    for via, p in enumerate(row):  # a known square via, move, via closes the edge
                        if p is not None:
                            c = table[p][move]
                            if c is not None:
                                t = table[c][via]
                                if t is not None and commutes(node, move, via):
                                    row[move] = t
                                    table[t][move] = source
                                    edges += 1
                                    loops += t == source
                                    if on_edge is not None:
                                        on_edge(source, t)
                                    break
                    if row[move] is not None:
                        continue
                if lists and len(lists[move]) == 2:  # the label names the other end
                    other = lists[move][lists[move][0] == source]
                    if other is None:
                        refused += 1
                    elif other > source:  # the end expanded first
                        edges += 1
                        if on_edge is not None:
                            on_edge(source, other)
                    continue
                neighbour = step(node, move)
                k = key(neighbour)
                target = visited.get(k)
                if target is not None:
                    assert not lists or target == source, "a label missed the node a step reached"
                    if row:
                        row[move] = target
                        table[target][move] = source
                    edges += 1
                    loops += target == source
                    if on_edge is not None:
                        on_edge(source, target)
                    continue
                new_word = word + (move,)
                if on_new is not None:
                    witness = on_new(neighbour, new_word)
                    if witness is not None:
                        return Search("witness", visited, depth, refused, witness, new_word,
                                      edges, loops)
                target = len(visited)
                if target >= limit:
                    refused += 1
                    if not drain:
                        return Search("limit-exceeded", visited, depth, refused,
                                      edges=edges, loops=loops)
                    if edge:
                        index(neighbour, None)
                    continue
                visited[k] = target
                if row:
                    row[move] = target
                    table.append([None] * width)
                    table[target][move] = source
                edges += 1
                if on_edge is not None:
                    on_edge(source, target)
                queue.append((neighbour, new_word, target, edge and index(neighbour, target)))
    except EntryOverflowError:
        return Search("overflow", visited, depth, refused, edges=edges, loops=loops)
    return Search("limit-exceeded" if refused else "closed", visited, depth, refused,
                  edges=edges, loops=loops)
