"""Exact integer rank, the matrix text format, and the SPD solve
behind the DtN map.

Exact rank is the audit trail of the inverse problem, so it runs in
Python integers; dense floating-point work is left to numpy.
"""

from __future__ import annotations

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


def integer_rank(m) -> int:
    """Exact rank over the rationals via fraction-free (Bareiss)
    elimination in Python integers. No floating point."""
    a = [[int(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        piv_row = next((i for i in range(rank, nrows) if a[i][col] != 0), None)
        if piv_row is None:
            col += 1
            continue
        if piv_row != rank:
            a[rank], a[piv_row] = a[piv_row], a[rank]
        pivot = a[rank][col]
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                a[i][j] = (pivot * a[i][j] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = pivot
        rank += 1
        col += 1
    return rank


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
