"""Text formats for matrices and automorphism groups.

Matrix files:
    # optional comments
    n = 3
    0 -1 0
    1 0 1
    0 -1 0
    group: (1 3)(2)

Vertices are 1-based in files.  `group:` lines are optional; each line
holds one generator in cycle notation.
"""

from __future__ import annotations

import re

from .exchange import EntryOverflowError, ExchangeMatrix

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_int(token: str, where: str) -> int:
    """``token`` as an int, else a ValueError naming the token and ``where`` it was read."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{where}: expected an integer, got {token!r}") from None


def parse_permutation(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation like ``(1 3)(2)`` into a 0-based mapping tuple.

    Accepts whitespace- or comma-separated entries; fixed points may be
    omitted.  Returns g with g[i] = image of i (0-based).
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation")
    if _CYCLE_RE.sub("", stripped).strip():
        raise ValueError(f"cannot parse permutation {text!r}")
    mapping = list(range(n))
    seen: set[int] = set()
    for cycle_text in _CYCLE_RE.findall(stripped):
        entries = [parse_int(tok, f"permutation {text.strip()!r}")
                   for tok in re.split(r"[,\s]+", cycle_text.strip()) if tok]
        if not entries:
            continue
        cycle = [e - 1 for e in entries]
        for v in cycle:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v + 1} out of range in {text!r}")
            if v in seen:
                raise ValueError(f"vertex {v + 1} repeated in {text!r}")
            seen.add(v)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            mapping[a] = b
    return tuple(mapping)


def render_permutation(g: tuple[int, ...]) -> str:
    """Cycle notation (1-based) for a 0-based mapping tuple; fixed points omitted."""
    seen: set[int] = set()
    parts = []
    for start in range(len(g)):
        if start in seen or g[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        v = g[start]
        while v != start:
            cycle.append(v)
            seen.add(v)
            v = g[v]
        parts.append("(" + " ".join(str(x + 1) for x in cycle) + ")")
    return "".join(parts) if parts else "()"


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_matrix_text(text: str):
    """Parse a matrix file; returns (ExchangeMatrix, list of generator tuples).

    The generator list is empty when no ``group:`` lines are present.
    """
    lines = _content_lines(text)
    if not lines or not lines[0].replace(" ", "").startswith("n="):
        raise ValueError("matrix file must start with a line 'n = <int>'")
    n = parse_int(lines[0].split("=", 1)[1].strip(), "matrix header")
    if n <= 0:
        raise ValueError("vertex count must be positive")
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} matrix rows")
    rows = []
    for number, line in enumerate(lines[1 : 1 + n], 1):
        row = [parse_int(tok, f"matrix row {number}") for tok in line.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    generators = []
    rest = lines[1 + n :]
    for line in rest:
        if line.startswith("group:"):
            generators.append(parse_permutation(line[len("group:"):], n))
        else:
            raise ValueError(f"unexpected line in matrix file: {line!r}")
    try:
        return ExchangeMatrix(rows), generators
    except EntryOverflowError as exc:  # an input error, not an overflow of a computation
        raise ValueError(str(exc)) from None


def render_matrix_text(matrix: ExchangeMatrix, generators=()) -> str:
    lines = [f"n = {matrix.n}"]
    width = max(len(str(x)) for row in matrix.entries for x in row)
    for row in matrix.entries:
        lines.append(" ".join(str(x).rjust(width) for x in row))
    for g in generators:
        lines.append(f"group: {render_permutation(tuple(g))}")
    return "\n".join(lines) + "\n"

