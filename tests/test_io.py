"""Text formats: permutations and matrix files."""

import pytest

from clusterfold.exchange import ExchangeMatrix
from clusterfold.io import parse_matrix_text, parse_permutation, render_matrix_text, render_permutation

A3 = ExchangeMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])


class TestPermutations:
    def test_parse_cycles(self):
        assert parse_permutation("(1 3)", 3) == (2, 1, 0)
        assert parse_permutation("(1 3)(2)", 3) == (2, 1, 0)
        assert parse_permutation("(1 2 3 4)", 5) == (1, 2, 3, 0, 4)
        assert parse_permutation("(1,3)(2,5)", 6) == (2, 4, 0, 3, 1, 5)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 4)", 3)  # out of range
        with pytest.raises(ValueError):
            parse_permutation("(1 2)(2 3)", 3)  # repeated vertex
        with pytest.raises(ValueError):
            parse_permutation("nonsense", 3)
        with pytest.raises(ValueError):
            parse_permutation("", 3)

    def test_render(self):
        assert render_permutation((2, 1, 0)) == "(1 3)"
        assert render_permutation((0, 1, 2)) == "()"
        assert render_permutation((1, 2, 3, 0)) == "(1 2 3 4)"

    def test_round_trip(self):
        for text in ["(1 3)", "(1 2 3 4)", "(1 2)(3 4)"]:
            g = parse_permutation(text, 5)
            assert parse_permutation(render_permutation(g), 5) == g


class TestMatrixFiles:
    def test_round_trip(self):
        gens = [(2, 1, 0)]
        text = render_matrix_text(A3, gens)
        matrix, parsed = parse_matrix_text(text)
        assert matrix == A3
        assert parsed == gens

    def test_comments_and_blank_lines(self):
        text = "# a comment\nn = 2\n\n0 -2  # row 1\n1 0\n"
        matrix, gens = parse_matrix_text(text)
        assert matrix.entries == ((0, -2), (1, 0))
        assert gens == []

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_matrix_text("0 1\n-1 0\n")  # missing n = line
        with pytest.raises(ValueError):
            parse_matrix_text("n = 2\n0 1\n")  # missing a row
        with pytest.raises(ValueError):
            parse_matrix_text("n = 2\n0 1 0\n-1 0 0\n")  # wrong width
        with pytest.raises(ValueError):
            parse_matrix_text("n = 2\n0 1\n-1 0\nwhat is this\n")
        with pytest.raises(ValueError, match="unexpected line"):
            parse_matrix_text(render_matrix_text(A3) + "cluster:\nu1\nu2\nu3\n")  # no seed files

