"""Exact integer row space and rank, and the matrix text format.

Exact rank is the audit trail of the inverse problem, so it runs in
Python integers; dense floating-point work is left to numpy.
"""

from __future__ import annotations

import math

import numpy as np


class RowSpace:
    """Exact span over the rationals of integer rows, grown one row at
    a time. No floating point.

    The span is kept as its orthogonal complement: an integer basis N of
    the null space of the rows added so far, so a row lies in the span
    exactly when it is orthogonal to every vector of N. A column that no
    added row touches holds its unit vector in N implicitly. The other
    vectors are stored sparse, and N's entries in each touched column j
    are packed into one int P_j, field i of W bits holding the entry of
    stored vector i. A row r's products with the stored vectors are then
    the fields of sum_j r_j P_j, each at most ||r||_1 max|N| in size; W
    keeps that below 2^(W-1), so the sum is zero exactly when every
    product is. An independent row (one per rank step) removes one
    vector of N by a fraction-free pivot on those products, each changed
    vector divided by the gcd of its entries, and N is packed again.
    Rows come dense (add) or as their nonzero entries (add_sparse).
    """

    def __init__(self, rows=()):
        self._rank = 0
        self._null: list[dict[int, int]] = []  # N's stored vectors, column -> entry
        self._packed: dict[int, int] = {}  # touched column j -> P_j
        self._width = 1  # W
        self._max = 0  # max|N| over the stored vectors
        # the ||r||_1 that W was last widened for; at least 1, so that a
        # field holds each entry of N and pinned_columns reads P_j == 0 right
        self._norm = 1
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return self._rank

    def add(self, row) -> bool:
        """Add a row to the span; True when the rank rose."""
        return self.add_sparse([(j, int(x)) for j, x in enumerate(row) if x])

    def add_sparse(self, entries) -> bool:
        """add for the row whose nonzero (column, integer entry) pairs,
        one per column, in any order, are `entries`."""
        total, fresh = self._products(entries)
        if not (fresh or total):
            return False
        # the row's products with the stored vectors, then with the unit
        # vectors of the columns it touches first
        dots, width, null = [], self._width, self._null + [{j: 1} for j, _ in fresh]
        for _ in self._null:
            d = total & (1 << width) - 1
            d -= d >> (width - 1) << width  # the field's sign
            dots.append(d)
            total = (total - d) >> width
        dots += [x for _, x in fresh]
        i = min((i for i, d in enumerate(dots) if d), key=lambda i: (abs(dots[i]), len(null[i])))
        pivot, d0 = null.pop(i), dots.pop(i)
        for i, (v, d) in enumerate(zip(null, dots)):
            if d:
                v = {j: d0 * v.get(j, 0) - d * pivot.get(j, 0) for j in v.keys() | pivot.keys()}
                g = math.gcd(*v.values())
                null[i] = {j: x // g for j, x in v.items() if x}
        self._null = null
        self._packed.update((j, 0) for j, _ in fresh)  # the row's columns are touched now
        self._rank += 1
        self._pack()
        return True

    def pinned_columns(self) -> set[int]:
        """The columns whose unit vector lies in the span, the coordinates
        the rows fix: those touched where every vector of N is zero."""
        return {j for j, packed in self._packed.items() if not packed}

    def _products(self, entries) -> tuple[int, list]:
        """sum_j r_j P_j over the touched columns j of the row r with
        these nonzero entries, and the row's other entries. A row whose
        size could overflow a field widens W, and its products are summed
        again."""
        total, norm, fresh, packed = 0, 0, [], self._packed
        for j, x in entries:
            p = packed.get(j)
            if p is None:
                fresh.append((j, x))
            else:
                total += x * p
            norm += abs(x)
        if norm * self._max >> (self._width - 1):
            self._norm = norm
            self._pack()
            return self._products(entries)
        return total, fresh

    def _pack(self) -> None:
        self._max = max((abs(x) for v in self._null for x in v.values()), default=0)
        self._width = width = (self._norm * self._max).bit_length() + 1
        packed = dict.fromkeys(self._packed, 0)
        for i, v in enumerate(self._null):
            for j, x in v.items():
                packed[j] += x << width * i
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
    if nrows < 0 or ncols < 0:
        raise ValueError(f"matrix text dimensions must be non-negative, got {nrows}x{ncols}")
    if len(values) != nrows * ncols:
        raise ValueError(
            f"matrix text declares {nrows}x{ncols} but carries {len(values)} values"
        )
    return np.array(values).reshape(nrows, ncols)
