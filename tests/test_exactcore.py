"""Rational parsing, integer matrices, and Smith normal form."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperhom.exactcore import (
    IntMatrix,
    format_rational,
    parse_rational,
    snf,
)


def test_parse_rational_values():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0/5") == Fraction(0)
    assert parse_rational("10/4") == Fraction(5, 2)


def test_parse_rational_rejects_garbage():
    for bad in ("", "1.5", "2/0", "1/-2", "a/b", "1/2/3", " 1"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_round_trip():
    for f in (Fraction(0), Fraction(-3, 7), Fraction(22, 11), Fraction(5, 2)):
        assert parse_rational(format_rational(f)) == f


def test_format_rational_at_any_size():
    # str(Fraction) is the reference up to the default 4300-digit int-to-str
    # limit; beyond it, the digits are read back through Decimal
    for f in (Fraction(0), Fraction(-3, 7), Fraction(10**4299 + 1, 3), Fraction(-7, 10**4299)):
        assert format_rational(f) == str(f)
    big = Fraction(-(4**8000), 3**10000)
    num, den = format_rational(big).split("/")
    assert (len(num), len(den)) == (4818, 4772)
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == big
    assert format_rational(4**8000) == num[1:]
    assert parse_rational(format_rational(big)) == big


def test_parse_rational_past_the_digit_limit():
    # int() refuses strings over 4300 digits; parse_rational must not
    den = 10**4999 + 7
    for f in (Fraction(4**8000), Fraction(-1, den), Fraction(-(3**9000), den)):
        assert parse_rational(format_rational(f)) == f
    with pytest.raises(ValueError):
        parse_rational("1/" + "0" * 5000)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_format_parse_property(num, den):
    f = Fraction(num, den)
    assert parse_rational(format_rational(f)) == f


def det_int(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination (the unimodularity
    check of the SNF transforms; test_acceptance imports it from here)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_matrix_basics():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.entries[0][1] == 2
    assert m.mul(IntMatrix.from_rows([[1, 0], [0, 1]])).entries == m.entries
    assert det_int(m) == -2
    assert det_int(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert det_int(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0


def test_snf_single_entry():
    res = snf(IntMatrix.from_rows([[2]]))
    assert res.S.diagonal() == (2,)
    assert res.rank == 1


def test_snf_row_vector():
    res = snf(IntMatrix.from_rows([[1, 1]]))
    assert res.S.rows == 1 and res.S.cols == 2
    assert res.S.diagonal() == (1,)


def test_snf_divisibility_example():
    res = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.S.diagonal() == (1, 6)


def _check_snf(m: IntMatrix) -> None:
    res = snf(m)
    assert res.U.mul(m).mul(res.V).entries == res.S.entries
    assert det_int(res.U) in (1, -1)
    assert det_int(res.V) in (1, -1)
    diag = res.S.diagonal()
    for i in range(res.S.rows):
        for j in range(res.S.cols):
            if i != j:
                assert res.S.entries[i][j] == 0
    nonzero = [d for d in diag if d != 0]
    assert all(d > 0 for d in nonzero)
    assert len(nonzero) == res.rank
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(d == 0 for d in diag[res.rank :])


def test_snf_random_matrices():
    rng = random.Random(20260817)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        _check_snf(m)


@pytest.mark.parametrize(
    "rows,cols,diagonal",
    [
        ([], 0, ()),
        ([], 3, ()),
        ([[], [], []], 0, ()),
        ([[0, 0, 0], [0, 0, 0]], 3, (0, 0)),
        ([[-4]], 1, (4,)),
        ([[6, 10], [10, 15], [15, 6]], 2, (1, 1)),
    ],
)
def test_snf_edge_shapes(rows, cols, diagonal):
    m = IntMatrix.from_rows(rows, cols=cols)
    _check_snf(m)
    assert snf(m).S.diagonal() == diagonal


def test_snf_rank_deficient():
    m = IntMatrix.from_rows([[2, 4], [1, 2], [3, 6]])
    res = snf(m)
    assert res.rank == 1
    assert res.S.diagonal()[0] == 1
