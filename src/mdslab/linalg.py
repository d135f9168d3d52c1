"""Dense exact linear algebra over GF(q).

Everything here is small, dense and runs on the field's lookup tables, in
two elimination loops: rref, Gauss-Jordan on one matrix that clears each
pivot column in one whole-matrix step (nullspace reads its basis off that
RREF, so a code and its dual reduce G once), and eliminate, forward
elimination over a whole (B, r, c) stack, for determinants and the rank
scan.  One Gauss-Jordan loop serving rref as a stack of one measured slower
at both jobs: 2-3x a rref call (3x7 over gf(9): 49 -> 142 us) and 1.3-1.5x
on rank-scan stacks (65 536 4x4 over gf(256): 47.8 -> 70.0 ms).  The closed
forms work over the last axis, on one point tuple or a whole stack of them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .gf import Field, FieldMismatchError


class NotSquareError(ValueError):
    """Determinant requested for a non-square matrix."""


class DuplicatePointsError(ValueError):
    """Evaluation points are required to be pairwise distinct."""


def require_distinct(field: Field, points: np.typing.ArrayLike) -> np.ndarray:
    """points as an intp array of field elements, each row's entries distinct."""
    pts = np.array(points, dtype=np.intp)
    outside = pts.view(np.uintp) >= field.q     # negatives wrap past q
    if np.count_nonzero(outside):
        field.check(pts.flat[outside.argmax()])
    if np.count_nonzero(pts[..., :, None] == pts[..., None, :]) != pts.size:
        bad = next(r for r in pts.reshape(-1, pts.shape[-1]).tolist()
                   if len(set(r)) != len(r))
        raise DuplicatePointsError(f"evaluation points are not distinct: {tuple(bad)}")
    return pts


class Matrix:
    """Immutable matrix over a Field; entries are element indices (int16)."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]] | np.ndarray):
        a = np.array(rows, dtype=np.int16)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be two-dimensional, got shape {a.shape}")
        if a.shape[1] < 1:
            raise ValueError("matrix must have at least one column")
        if a.size and (int(a.min()) < 0 or int(a.max()) >= field.q):
            raise ValueError(f"entry out of range for {field.spec_string()}")
        a.flags.writeable = False
        self.field = field
        self.a = a

    # -- basics --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.a.shape == other.a.shape \
            and bool(np.array_equal(self.a, other.a))

    def __hash__(self) -> int:
        return hash((self.field, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix({self.field.spec_string()}, {self.format()!r})"

    def _check_same_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatchError(
                f"mixed fields {self.field.spec_string()} and {other.field.spec_string()}")

    # -- algebra -------------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.a.T)

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.nrows != other.nrows:
            raise ValueError("row counts differ")
        return Matrix(self.field, np.hstack([self.a, other.a]))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Matrix(self.field, matmul(self.field, self.a, other.a))

    # -- text form -----------------------------------------------------------

    def format(self, style: str = "auto") -> str:
        """Rows joined by ';', entries by ',', in the field's element notation."""
        fmt = self.field.format_element
        return ";".join(",".join(fmt(int(x), style) for x in row) for row in self.a)

    @classmethod
    def parse(cls, field: Field, text: str) -> "Matrix":
        rows = []
        for chunk in text.strip().split(";"):
            literals = [e.strip() for e in chunk.split(",")]
            if not literals or any(lit == "" for lit in literals):
                raise ValueError(f"empty entry in matrix row {chunk!r}")
            rows.append([field.parse_element(lit) for lit in literals])
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows in matrix text")
        return cls(field, rows)


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field, for (..., r, m) and (..., m, c) stacks."""
    add, mul = field.add_table, field.mul_table
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.int16)
    for j in range(a.shape[-1]):
        out = add[out, mul[a[..., :, j, None], b[..., j, None, :]]]
    return out


def power_matrix(field: Field, points: Sequence[int], exponents: Sequence[int]) -> Matrix:
    """Rows (alpha_1^e, ..., alpha_n^e) for each exponent e; 0^0 = 1."""
    rows = [[field.pow(a, e) for a in points] for e in exponents]
    return Matrix(field, rows)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _rref_inplace(field: Field, a: np.ndarray) -> tuple[int, ...]:
    mul, sub, inv = field.mul_table, field.sub_table, field.inv_table
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = mul[a[r], inv[a[r, c]]]
        f = a[:, c].copy()
        f[r] = 0
        if f.any():     # nothing to clear, as in an input already reduced
            a[:] = sub[a, mul[f[:, None], a[r]]]
        pivots.append(c)
        r += 1
    return tuple(pivots)


def rref(M: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Canonical reduced row echelon form; returns (R, rank, pivot columns)."""
    a = M.a.copy()
    pivots = _rref_inplace(M.field, a)
    return Matrix(M.field, a), len(pivots), pivots


def eliminate(field: Field, a: np.ndarray) -> np.ndarray:
    """Forward-eliminate a (B, r, c) int16 stack in place; return the (B, c)
    pivot row of each column, or -1 where it has none.  Every row, the pivot
    row too, loses its multiple of the pivot row from column j+1 on, so a
    pivot row is never chosen again; inv[0] == 0 makes a pivotless column a
    no-op."""
    mul, sub, inv = field.mul_table, field.sub_table, field.inv_table
    at = np.arange(a.shape[0])
    pivots = np.empty(a.shape[::2], dtype=np.intp)
    for j in range(a.shape[2]):
        col = a[:, :, j]
        p = (col != 0).argmax(axis=1)
        lead = col[at, p]
        pivots[:, j] = np.where(lead != 0, p, -1)
        factors = mul[col, inv[lead][:, None]]
        pivot = a[at, p, j + 1:]
        a[:, :, j + 1:] = sub[a[:, :, j + 1:],
                              mul[factors[:, :, None], pivot[:, None, :]]]
    return pivots


def det(field: Field, a: np.ndarray) -> np.ndarray:
    """(B,) determinants of a (B, n, n) stack: the product of the pivots, negated
    where the pivot rows are an odd permutation, 0 where a column has none."""
    a = np.array(a, dtype=np.int16)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NotSquareError(f"determinants need a (B, n, n) stack, got {a.shape}")
    pivots = eliminate(field, a)
    d = nonzero_product(field, np.take_along_axis(a, pivots[:, None, :], axis=1)[:, 0])
    odd = np.triu(pivots[:, :, None] > pivots[:, None, :], 1).sum(axis=(1, 2)) % 2
    return np.where((pivots < 0).any(axis=1), 0, np.where(odd, field.neg_table[d], d))


def nullspace(R: Matrix) -> Matrix:
    """Basis of {x : R x^T = 0}, as rows, for R in reduced row echelon form
    (as rref returns it); row count = cols - rank.  Each free column c gives
    the row with 1 at c and -R[i, c] at the pivot column of each row i."""
    a = R.a[R.a.any(axis=1)]
    pivots = (a != 0).argmax(axis=1)
    free = np.delete(np.arange(R.ncols), pivots)
    basis = np.zeros((len(free), R.ncols), dtype=np.int16)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = R.field.neg_table[a[:, free]].T
    return Matrix(R.field, basis)


# ---------------------------------------------------------------------------
# closed forms over the last axis
# ---------------------------------------------------------------------------

def nonzero_product(field: Field, a: np.ndarray) -> np.ndarray:
    """Product over the last axis of nonzero elements, as a sum of logs."""
    return field.exp[field.log[a].sum(axis=-1) % (field.q - 1)]


def symmetric_sums(field: Field, values: np.typing.ArrayLike) -> tuple[np.ndarray, ...]:
    """(e1, h2) over the last axis: the sum, and h2 = e1^2 - e2 = the sum over
    i <= j of a_i*a_j.

    Adding a value x adds x * e1 (with x counted in e1) to h2, which holds in
    every characteristic.  Looping over the transpose, not a moved axis,
    keeps a call on a few values at a few microseconds.
    """
    add, mul = field.add_table, field.mul_table
    vals = np.asarray(values, dtype=np.intp).T
    e1 = h2 = np.zeros(vals.shape[1:], dtype=np.int16)
    for x in vals:
        e1 = add[e1, x]
        h2 = add[h2, mul[x, e1]]
    return e1.T, h2.T


def _closed_form_factors(field: Field, points: np.typing.ArrayLike) -> tuple:
    """e1, h2 and the product over i < j of (a_j - a_i), for each row of
    (..., n) distinct points, n >= 3."""
    pts = require_distinct(field, points)
    if pts.shape[-1] < 3:
        raise ValueError(f"need at least 3 points, got {pts.shape[-1]}")
    i, j = np.triu_indices(pts.shape[-1], 1)
    return (*symmetric_sums(field, pts),
            nonzero_product(field, field.sub_table[pts[..., j], pts[..., i]]))


def vandermonde_det_skip_penultimate(field: Field, points: np.typing.ArrayLike) -> np.ndarray:
    """det of the matrix with power rows 0..n-2 and n (the n-1 row dropped),
    for each row of (..., n) points.

    Closed form: (sum of the points) times the pairwise difference product.
    """
    e1, _, delta = _closed_form_factors(field, points)
    return field.mul_table[e1, delta]


def vandermonde_det_skip_two(field: Field, points: np.typing.ArrayLike) -> np.ndarray:
    """det of the matrix with power rows 0..n-2 and n+1 (rows n-1, n dropped),
    for each row of (..., n) points.

    Closed form: h2 = (sum)^2 - e2, times the pairwise difference product.
    """
    _, h2, delta = _closed_form_factors(field, points)
    return field.mul_table[h2, delta]
