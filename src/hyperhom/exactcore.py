"""Exact arithmetic primitives: rational scalars and integer matrix forms.

Everything in the package computes over exact types; floats never appear.
This module provides the rational text syntax used by all file formats,
a small immutable integer matrix, and a Smith normal form that carries
the unimodular transforms (the selftest's check and the tests' reference
count of solutions of linear systems over Z_d; no command counts by it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

__all__ = [
    "parse_rational",
    "format_rational",
    "IntMatrix",
    "SnfResult",
    "snf",
]

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def _parse_int(digits: str) -> int:
    """int() of an optionally signed digit string at any length.

    int() refuses more digits than the interpreter's limit (4300 by
    default); those strings go through Decimal, whose conversion is exact.
    """
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` with the sign on the numerator only."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = _parse_int(m.group(1))
    den = _parse_int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational: the text of str(Fraction) at any size.

    Integers go through Decimal, whose conversion is exact and not bound
    by the interpreter's limit on int-to-str digits (4300 by default).
    """
    num = str(Decimal(x.numerator))
    if x.denominator == 1:
        return num
    return f"{num}/{Decimal(x.denominator)}"


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], *, cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and data and width != cols:
            raise ValueError(f"expected {cols} columns, rows have {width}")
        return IntMatrix(len(data), width, data)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = list(zip(*other.entries)) if other.entries and other.entries[0] else []
        out = []
        for row in self.entries:
            if ot:
                out.append(tuple(sum(a * b for a, b in zip(row, col)) for col in ot))
            else:
                out.append((0,) * other.cols if other.cols else ())
        return IntMatrix(self.rows, other.cols, tuple(out))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SnfResult:
    """Diagonalization U * M * V = S with |det U| = |det V| = 1.

    S is diagonal with nonnegative entries and s_1 | s_2 | ... | s_rank;
    rank is the number of nonzero diagonal entries.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    rank: int


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form with transforms, by the textbook algorithm.

    Step t moves a least-|value| entry of a[t:, t:] (ties: lowest row,
    then column) to (t, t) and clears row and column t by floor division;
    a remainder becomes the next, smaller pivot. Once both are clear, a
    later row that the pivot does not divide is added to row t. Row
    operations act on u too and column operations on v, so u m v = a.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def add_row(dst: int, src: int, k: int) -> None:
        for mat in (a, u):
            mat[dst] = [x + k * y for x, y in zip(mat[dst], mat[src])]

    def add_col(dst: int, src: int, k: int) -> None:
        for mat in (a, v):
            for row in mat:
                row[dst] += k * row[src]

    t = 0
    while t < min(rows, cols):
        pivot, least = None, 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                if row[j] and (pivot is None or abs(row[j]) < least):
                    pivot, least = (i, j), abs(row[j])
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in a + v:
                row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, rows):
            if q := a[i][t] // p:
                add_row(i, t, -q)
        for j in range(t + 1, cols):
            if q := a[t][j] // p:
                add_col(j, t, -q)
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1 :]):
            continue
        offender = next((i for i in range(t + 1, rows) for x in a[i][t + 1 :] if x % p), None)
        if offender is None:
            t += 1
        else:
            add_row(t, offender, 1)
    for i in range(t):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return SnfResult(
        U=IntMatrix.from_rows(u, cols=rows),
        S=IntMatrix.from_rows(a, cols=cols),
        V=IntMatrix.from_rows(v, cols=cols),
        rank=t,
    )
