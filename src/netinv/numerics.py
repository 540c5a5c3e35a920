"""Exact integer row space and rank, the matrix text format, and the
SPD solve behind the DtN map.

Exact rank is the audit trail of the inverse problem, so it runs in
Python integers; dense floating-point work is left to numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefinite


def solve_spd(m, b) -> np.ndarray:
    """Solve M X = B for symmetric positive definite M; raises
    NotPositiveDefinite when M has no Cholesky factor."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return np.linalg.solve(m, b)


class RowSpace:
    """Exact span over the rationals of integer rows, grown one row at
    a time. No floating point.

    The span is kept as its orthogonal complement: an integer basis N of
    the null space of the rows added so far, so a row lies in the span
    exactly when it is orthogonal to every vector of N. A column that no
    added row touches holds its unit vector in N implicitly. The other
    vectors are stored sparse, and N's entries in each touched column j
    are packed into one int P_j, one W-bit field per vector from the
    first vector nonzero at j. A row r's products with the vectors of N
    are then the fields of sum_j r_j P_j, each at most ||r||_1 max|N| in
    size; W keeps that below 2^(W-1), so the sum is zero exactly when
    every product is. An independent row (one per rank step) removes one
    vector of N by a fraction-free pivot, each changed vector divided by
    the gcd of its entries, and N is packed again.
    """

    def __init__(self, rows=()):
        self._rank = 0
        self._null: list[dict[int, int]] = []  # N's stored vectors, column -> entry
        self._packed: dict[int, tuple[int, int]] = {}  # touched column -> (first vector, P_j)
        self._width = 1  # W
        self._max = 0  # max|N| over the stored vectors
        self._norm = 0  # the largest ||r||_1 of a row met so far
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return self._rank

    def __contains__(self, row) -> bool:
        """Whether the row lies in the span."""
        return self._orthogonal(self._entries(row))

    def add(self, row) -> bool:
        """Add a row to the span; True when the rank rose."""
        entries = self._entries(row)
        if self._orthogonal(entries):
            return False
        r = dict(entries)
        null = self._null + [{j: 1} for j in r if j not in self._packed]
        dots = [sum(r.get(j, 0) * x for j, x in v.items()) for v in null]
        i = min((i for i, d in enumerate(dots) if d), key=lambda i: (abs(dots[i]), len(null[i])))
        pivot, d0 = null.pop(i), dots.pop(i)
        for i, (v, d) in enumerate(zip(null, dots)):
            if d:
                v = {j: d0 * v.get(j, 0) - d * pivot.get(j, 0) for j in v.keys() | pivot.keys()}
                g = math.gcd(*v.values())
                null[i] = {j: x // g for j, x in v.items() if x}
        self._null = null
        self._packed.update(dict.fromkeys(r, (0, 0)))  # the row's columns are touched now
        self._rank += 1
        self._pack()
        return True

    def pinned_columns(self) -> set[int]:
        """The columns whose unit vector lies in the span, the coordinates
        the rows fix: those touched where every vector of N is zero."""
        return {j for j, (_, packed) in self._packed.items() if not packed}

    def _entries(self, row) -> list[tuple[int, int]]:
        """The row's nonzero (column, entry) pairs, W widened first when
        the row's size would overflow a field."""
        entries = [(j, int(x)) for j, x in enumerate(row) if x]
        norm = sum(abs(x) for _, x in entries)
        if norm > self._norm:
            self._norm = norm
            if norm * self._max >> (self._width - 1):
                self._pack()
        return entries

    def _orthogonal(self, entries) -> bool:
        total, width, packed = 0, self._width, self._packed
        for j, x in entries:
            if j not in packed:
                return False  # the unit vector of an untouched column
            first, p = packed[j]
            total += x * p << width * first
        return not total

    def _pack(self) -> None:
        self._max = max((abs(x) for v in self._null for x in v.values()), default=0)
        self._width = width = (self._norm * self._max).bit_length() + 1
        packed = dict.fromkeys(self._packed, (0, 0))
        for i, v in enumerate(self._null):
            for j, x in v.items():
                first, p = packed[j]
                packed[j] = (i, x) if not p else (first, p + (x << width * (i - first)))
        self._packed = packed


def format_matrix_text(m) -> str:
    """Matrix text format: `rows cols` header, then one row per line,
    17 significant digits."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> np.ndarray:
    """Inverse of format_matrix_text."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a 'rows cols' header")
    try:
        nrows, ncols = int(tokens[0]), int(tokens[1])
        values = [float(t) for t in tokens[2:]]
    except ValueError as exc:
        raise ValueError(f"malformed matrix text: {exc}") from None
    if len(values) != nrows * ncols:
        raise ValueError(
            f"matrix text declares {nrows}x{ncols} but carries {len(values)} values"
        )
    return np.array(values).reshape(nrows, ncols)
