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

    The basis is fraction-free echelon form keyed by pivot column:
    each stored row is zero in the pivot columns of the rows stored
    before it, and every reduced row is divided by the gcd of its
    entries so the stored integers stay small.
    """

    def __init__(self, rows=()):
        self._basis: dict[int, list[int]] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def reduce(self, row) -> list[int]:
        """An integer multiple of the row minus a combination of basis
        rows, zero in every pivot column; all zeros exactly when the
        row lies in the span."""
        r = [int(x) for x in row]
        for col, b in self._basis.items():
            c = r[col]
            if c:
                p = b[col]
                r = [p * x - c * y for x, y in zip(r, b)]
        g = math.gcd(*r)
        return [x // g for x in r] if g > 1 else r

    def add(self, row) -> bool:
        """Add a row to the span; True when the rank rose."""
        r = self.reduce(row)
        col = next((j for j, x in enumerate(r) if x), None)
        if col is None:
            return False
        self._basis[col] = r
        return True


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
