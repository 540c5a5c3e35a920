"""Forward problem: DtN map via Schur complement, harmonic extension,
and signed subdeterminants of the DtN and Kirchhoff matrices.

Submatrix rows/columns are always taken in ascending index order; every
determinant sign in the package is relative to that one convention.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InteriorNotGrounded
from .network import Network, kirchhoff

#: Roundoff level of a computed determinant, relative to the Hadamard
#: bound (product of row norms) of its matrix.
DET_ROUNDOFF_RTOL = 1e-13


@dataclass(frozen=True)
class DtNMap:
    """Boundary response matrix Lambda = A - B C^-1 B^T: square, real
    (bool, integer or float entries) and finite, else ValueError."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        # a float cast would drop an imaginary part and parse a string
        if entries.dtype.kind not in "biuf":
            raise ValueError(f"DtN map entries must be real numbers, got dtype {entries.dtype}")
        entries = entries.astype(float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"DtN map must be a square matrix, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("DtN map has non-finite entries")
        object.__setattr__(self, "entries", entries)

    @property
    def n_boundary(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class BoundaryPair:
    """Equal-size boundary index subsets (P, Q), each strictly ascending.

    P and Q may intersect; shared vertices participate through the
    residual-set machinery of the path expansion.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        try:  # integral indices only: a float or a str is no index
            object.__setattr__(self, "p", tuple(map(operator.index, self.p)))
            object.__setattr__(self, "q", tuple(map(operator.index, self.q)))
        except TypeError:
            raise ValueError(f"indices must be integers, got {self.p!r} and {self.q!r}") from None
        if len(self.p) != len(self.q):
            raise ValueError(f"|P| = {len(self.p)} != |Q| = {len(self.q)}")
        for name, idx in (("P", self.p), ("Q", self.q)):
            if not all(map(operator.lt, idx, idx[1:])):
                raise ValueError(f"{name} must be strictly ascending, got {idx}")
            if idx and idx[0] < 1:  # ascending: the first index is the least
                raise ValueError(f"{name} indices must be >= 1, got {idx}")

    @classmethod
    def _sorted(cls, p: tuple[int, ...], q: tuple[int, ...]) -> "BoundaryPair":
        """The pair (p, q) without __post_init__'s checks, for a caller
        that built p and q as equal-size ascending tuples of ints >= 1."""
        pair = object.__new__(cls)
        pair.__dict__.update(p=p, q=q)
        return pair

    def validate_for(self, n_boundary: int):
        for name, idx in (("P", self.p), ("Q", self.q)):
            if idx and idx[-1] > n_boundary:
                raise ValueError(f"{name} index out of boundary range 1..{n_boundary}: {idx}")


def _harmonic_basis(k: np.ndarray, b: int) -> np.ndarray:
    """X = -C^-1 B^T of the Kirchhoff matrix k with b boundary vertices:
    column j holds the interior potentials when boundary vertex j is held
    at 1 and every other at 0, so U = [I; X] is the harmonic-extension
    basis. A grounded C = K(I,I) is positive definite, so with no
    Cholesky factor it is numerically singular; a non-finite X (from
    subnormal conductivities, say) raises ValueError."""
    c = k[b:, b:]
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise InteriorNotGrounded(
            "interior block K(I,I) is numerically singular (no Cholesky factor): "
            "its conductivities span more than float precision"
        ) from None
    x = -np.linalg.solve(c, k[:b, b:].T)
    if not np.isfinite(x).all():
        raise ValueError(
            "interior solve C^-1 B^T is not finite: the conductivities' scale "
            "leaves the float range"
        )
    return x


def dtn(net: Network) -> DtNMap:
    """DtN map of a network: the Schur complement A + B X = A - B C^-1 B^T
    of K onto the boundary block. With no interior vertices Lambda is K
    itself."""
    k = kirchhoff(net)
    b = net.n_boundary
    return DtNMap(k[:b, :b] + k[:b, b:] @ _harmonic_basis(k, b))


def harmonic_extension(net: Network, u_boundary) -> np.ndarray:
    """Extend boundary potentials to the unique harmonic vector [u; X u]:
    every interior vertex takes the conductivity-weighted average of its
    neighbors. Every boundary potential must be finite."""
    u_b = np.asarray(u_boundary, dtype=float)
    if u_b.shape != (net.n_boundary,):
        raise ValueError(f"expected {net.n_boundary} boundary values, got {u_b.shape}")
    bad = np.flatnonzero(~np.isfinite(u_b))
    if bad.size:
        raise ValueError(f"boundary potential {bad[0] + 1} is not finite: {u_b[bad[0]]}")
    return np.concatenate([u_b, _harmonic_basis(kirchhoff(net), net.n_boundary) @ u_b])


def submatrix(m: np.ndarray, rows, cols) -> np.ndarray:
    """Submatrix on 1-based index sets, rows and columns ascending."""
    return m[np.ix_([i - 1 for i in sorted(rows)], [j - 1 for j in sorted(cols)])]


def dtn_subdet(lam: DtNMap, pair: BoundaryPair) -> float:
    """Signed det Lambda(P, Q), ascending row/column convention."""
    pair.validate_for(lam.n_boundary)
    return float(np.linalg.det(submatrix(lam.entries, pair.p, pair.q)))


def det_roundoff(m: np.ndarray) -> float:
    """Absolute roundoff level of a computed det M: DET_ROUNDOFF_RTOL
    times the product of the row norms, a zero row counting as 1."""
    norms = np.linalg.norm(m, axis=1)
    return DET_ROUNDOFF_RTOL * float(np.prod(np.where(norms > 0, norms, 1.0)))


def kirchhoff_subdet(k: np.ndarray, rows, cols) -> float:
    """Signed det K(rows, cols); the empty submatrix has determinant 1.
    An index that is not an integer in 1..n, or is given twice, raises
    ValueError."""
    if len(rows) != len(cols):
        raise ValueError(f"|rows| = {len(rows)} != |cols| = {len(cols)}")
    n = len(k)
    for name, indices in (("row", rows), ("column", cols)):
        seen = set()
        for i in indices:
            if not (isinstance(i, (int, np.integer)) and 1 <= i <= n):
                raise ValueError(f"{name} index {i!r} is not in 1..{n}")
            if i in seen:
                raise ValueError(f"{name} index {i} is repeated")
            seen.add(i)
    return float(np.linalg.det(submatrix(k, rows, cols)))
