"""Linear-code core: duals, distances, classification, GRS and Schur machinery.

Minimum distance is exact, from one of two table-driven numpy methods, and
independent of the family's criteria and of its closed-form parity check:

- the rank scan: a nonzero codeword vanishes on a coordinate set Z exactly
  when rank(G_Z) < k, so d = N - max{|Z| : rank(G_Z) < k}; column subsets
  of size k, k+1, ... are ranked in stacks by linalg.eliminate until a size
  has no rank-deficient subset.  Its cost follows C(N, s), not q^k.
- projective enumeration of the (q^k - 1)/(q - 1) messages whose leading
  nonzero digit is 1, for small q with long codes.

The method is chosen by its work predicted from (q, N, k) alone, and
ENUMERATION_CAP on that predicted work is enforced, not assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .gf import Field, FieldMismatchError
from .linalg import Matrix, eliminate, nullspace, power_matrix, require_distinct, rref

# cap on the oracle's predicted table lookups: about 15 s at ~7 ns a lookup
ENUMERATION_CAP = 1 << 31
_CHUNK = 1 << 16      # rows per stacked block: messages or column subsets
_CALL_COST = 2000     # lookups one numpy call costs in fixed overhead

RANK_SCAN = "rank scan"
PROJECTIVE_ENUMERATION = "projective enumeration"

MDS = "MDS"
NMDS = "NMDS"
AMDS_ONLY_PRIMAL = "AMDS_only_primal"
AMDS_ONLY_DUAL = "AMDS_only_dual"
OTHER = "Other"

CONSISTENT_WITH_GRS = "ConsistentWithGRS"
NON_GRS = "NonGRS"
INCONCLUSIVE = "Inconclusive"


class RankDeficientError(ValueError):
    """Generator rows are linearly dependent."""


class TooLargeToEnumerateError(ValueError):
    """The cheaper distance method would exceed ENUMERATION_CAP lookups."""


class LengthMismatchError(ValueError):
    pass


class ZeroScaleError(ValueError):
    """A column multiplier is zero."""


class BadDimensionError(ValueError):
    """Dimension out of range for the requested operation."""


class ZeroExtensionVectorError(ValueError):
    pass


class LinearCode:
    """[N, k] code over GF(q), held as a validated full-row-rank generator."""

    def __init__(self, generator: Matrix):
        if generator.nrows < 1:
            raise BadDimensionError("a code needs at least one generator row")
        R, rk, _ = rref(generator)
        if rk != generator.nrows:
            raise RankDeficientError(
                f"generator has rank {rk} but {generator.nrows} rows")
        self.generator = generator
        self.rref_generator = R  # canonical; the equality witness
        self.field = generator.field
        self.length = generator.ncols
        self.dimension = generator.nrows

    def __repr__(self) -> str:
        return (f"LinearCode([{self.length},{self.dimension}] "
                f"over {self.field.spec_string()})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        if self.field != other.field:
            return False
        return codes_equal(self, other)

    def __hash__(self) -> int:
        return hash(self.rref_generator)

    @cached_property
    def dual(self) -> "LinearCode":
        """[N, N-k] orthogonal code; needs k < N."""
        if self.dimension == self.length:
            raise BadDimensionError("dual of the full space is zero-dimensional")
        return LinearCode(nullspace(self.rref_generator))

    @cached_property
    def min_distance(self) -> int:
        return _min_weight(self.field, self.generator.a)


def _min_weight(field: Field, G: np.ndarray) -> int:
    """Minimum Hamming weight of the row space of G, by the cheaper exact method."""
    k, N = G.shape
    method, work = _oracle_plan(field.q, N, k)
    if work > ENUMERATION_CAP:
        raise TooLargeToEnumerateError(
            f"{method} of a [{N},{k}] code over GF({field.q}) would take about "
            f"{work:.2g} table lookups, which exceeds the cap of 2^"
            f"{ENUMERATION_CAP.bit_length() - 1}")
    if method == RANK_SCAN:
        return _rank_scan_min_weight(field, G)
    return _projective_min_weight(field, G)


def _oracle_plan(q: int, N: int, k: int) -> tuple[str, int]:
    """The cheaper exact method for an [N, k] code over GF(q), and its work.

    Work is predicted table lookups, plus _CALL_COST for each numpy call the
    method makes per block or elimination step.  The rank scan is charged for
    every size below N, the worst case, which only distance-1 codes reach.
    """
    messages = (q**k - 1) // (q - 1)
    enumeration = messages * N + (messages // _CHUNK + 1 + k) * _CALL_COST
    scan = sum(math.comb(N, s) * s * k * k + k * _CALL_COST
               for s in range(k, N))
    if scan < enumeration:
        return RANK_SCAN, scan
    return PROJECTIVE_ENUMERATION, enumeration


def _projective_min_weight(field: Field, G: np.ndarray) -> int:
    """Enumerate the messages whose leading nonzero digit is 1.

    Scaling a codeword keeps its weight, so these (q^k - 1)/(q - 1) messages
    reach every weight: for each leading row, the words G[lead] + span of
    the rows below it.
    """
    k, N = G.shape
    best = N
    for lead in range(k):
        for words in _coset_blocks(field, G[lead], G[lead + 1:]):
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
            if best == 1:
                return best
    return best


def _coset_blocks(field: Field, shift: np.ndarray,
                  rows: np.ndarray) -> Iterator[np.ndarray]:
    """shift + span(rows), in blocks of at most _CHUNK words.

    The span of the trailing rows that fits in one block is built once; the
    leading rows are walked, recursively, as offsets added to that block.
    """
    add = field.add_table
    inner = len(rows)
    while field.q ** inner > _CHUNK:
        inner -= 1
    split = len(rows) - inner
    block = _span(field, rows[split:])
    if split == 0:
        yield add[block, shift[None, :]]
        return
    for offsets in _coset_blocks(field, shift, rows[:split]):
        for offset in offsets:
            yield add[block, offset[None, :]]


def _span(field: Field, rows: np.ndarray) -> np.ndarray:
    """All q^len(rows) linear combinations of rows, one per row of the result."""
    add, mul = field.add_table, field.mul_table
    N = rows.shape[1]
    scalars = np.arange(field.q, dtype=np.int16)[:, None, None]
    words = np.zeros((1, N), dtype=np.int16)
    for row in rows:
        words = add[mul[scalars, row[None, None, :]], words[None, :, :]]
        words = words.reshape(-1, N)
    return words


def _rank_scan_min_weight(field: Field, G: np.ndarray) -> int:
    """d = N - max{|Z| : rank(G_Z) < k}, scanning |Z| = k, k+1, ... upwards.

    A nonzero codeword vanishes on Z exactly when the columns G_Z have rank
    below k, and rank deficiency is inherited by subsets, so the first size
    with no deficient column set is one past the largest zero set.
    """
    k, N = G.shape
    columns = np.ascontiguousarray(G.T)
    for s in range(k, N):
        if not _some_rank_deficient(field, columns, s):
            return N - s + 1
    return 1  # all N columns together have rank k


def _some_rank_deficient(field: Field, columns: np.ndarray, s: int) -> bool:
    """Whether some s of the given length-k vectors span less than GF(q)^k:
    where linalg.eliminate, on blocks of up to _CHUNK subsets stacked as
    (subsets, s, k), leaves one of the k coordinates without a pivot."""
    N, k = columns.shape
    combos = itertools.combinations(range(N), s)
    chunk = min(_CHUNK, (_CHUNK << 4) // (s * k))  # at most 2^20 entries
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combos, chunk)), dtype=np.intp)
        if flat.size == 0:
            return False
        if (eliminate(field, columns[flat.reshape(-1, s)]) < 0).any():
            return True


def codes_equal(c1: LinearCode, c2: LinearCode) -> bool:
    """Same row space, decided by canonical RREF equality."""
    if c1.field != c2.field:
        raise FieldMismatchError("codes live over different fields")
    return c1.rref_generator == c2.rref_generator


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def class_label(mds: bool, amds: bool, dual_amds: bool) -> str:
    """The class table: the label of the three Singleton-defect verdicts.

    mds: the code has defect 0; amds: defect 1; dual_amds: the dual has
    defect 1.  classify reads it off the oracle's defects, and the subset-sum
    criteria off their own verdicts.
    """
    if mds:
        return MDS
    if amds:
        return NMDS if dual_amds else AMDS_ONLY_PRIMAL
    return AMDS_ONLY_DUAL if dual_amds else OTHER


@dataclass(frozen=True)
class Classification:
    kind: str
    singleton_defect: int
    dual_defect: int
    min_distance: int
    dual_min_distance: int
    length: int
    dimension: int

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "dimension": self.dimension,
            "min_distance": self.min_distance,
            "dual_min_distance": self.dual_min_distance,
            "singleton_defect": self.singleton_defect,
            "dual_defect": self.dual_defect,
            "class": self.kind,
        }


def classify(code: LinearCode) -> Classification:
    """Singleton-defect classification of code and dual; needs 1 <= k <= N-1."""
    if code.dimension == code.length:
        raise BadDimensionError(
            "classification needs a nonzero dual (dimension < length)")
    d = code.min_distance
    dd = code.dual.min_distance
    s = code.length - code.dimension + 1 - d
    sd = code.dimension + 1 - dd
    return Classification(class_label(s == 0, s == 1, sd == 1), s, sd, d, dd,
                          code.length, code.dimension)


# ---------------------------------------------------------------------------
# GRS codes and Schur products
# ---------------------------------------------------------------------------

def grs_code(field: Field, alphas: Sequence[int], v: Sequence[int], k: int) -> LinearCode:
    """Evaluation code of polynomials of degree < k, columns scaled by v."""
    pts = require_distinct(alphas)
    n = len(pts)
    if len(v) != n:
        raise LengthMismatchError(f"{n} points but {len(v)} column multipliers")
    if any(x == 0 for x in v):
        raise ZeroScaleError("column multipliers must be nonzero")
    if not 1 <= k <= n:
        raise BadDimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
    P = power_matrix(field, pts, range(k))
    vrow = np.asarray([field.check(x) for x in v], dtype=np.int16)
    G = field.mul_table[P.a, vrow[None, :]]
    return LinearCode(Matrix(field, G))


def schur_product(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """Span of all componentwise products of basis rows, rank-reduced."""
    if c1.field != c2.field:
        raise FieldMismatchError("Schur product needs a common field")
    if c1.length != c2.length:
        raise LengthMismatchError(
            f"Schur product needs equal lengths, got {c1.length} and {c2.length}")
    f = c1.field
    b1 = c1.rref_generator.a
    b2 = c2.rref_generator.a
    prods = f.mul_table[b1[:, None, :], b2[None, :, :]].reshape(-1, c1.length)
    R, rk, _ = rref(Matrix(f, prods))
    if rk == 0:
        raise BadDimensionError("Schur product is the zero code")
    return LinearCode(Matrix(f, R.a[:rk]))


def schur_square(code: LinearCode) -> LinearCode:
    return schur_product(code, code)


@dataclass(frozen=True)
class GrsReport:
    verdict: str  # ConsistentWithGRS | NonGRS | Inconclusive
    method: str   # SquareDimension | DualSquareDistance | NotApplicable
    evidence: int | None

    def to_json(self) -> dict:
        return {"method": self.method, "evidence": self.evidence, "verdict": self.verdict}


def grs_consistency_test(code: LinearCode) -> GrsReport:
    """One-directional GRS screen via Schur-square invariants.

    A GRS code of length N and dimension k with 3 <= k < (N+1)/2 has square
    dimension exactly 2k-1, and its square has distance >= 2; duals of GRS
    codes are GRS, so the same applies through the dual when its dimension is
    in range.  A violated invariant certifies NonGRS (up to monomial
    equivalence); a satisfied one is only ConsistentWithGRS, never proof.
    """
    N, k = code.length, code.dimension
    if 3 <= k and 2 * k < N + 1:
        dim2 = schur_square(code).dimension
        verdict = CONSISTENT_WITH_GRS if dim2 == 2 * k - 1 else NON_GRS
        return GrsReport(verdict, "SquareDimension", dim2)
    kd = N - k
    if 3 <= kd and 2 * kd < N + 1:
        d2 = schur_square(code.dual).min_distance
        verdict = NON_GRS if d2 < 2 else CONSISTENT_WITH_GRS
        return GrsReport(verdict, "DualSquareDistance", d2)
    return GrsReport(INCONCLUSIVE, "NotApplicable", None)


# ---------------------------------------------------------------------------
# extended codes
# ---------------------------------------------------------------------------

def extend_code(code: LinearCode, w: Sequence[int]) -> LinearCode:
    """Append the coordinate sum(w_i c_i); generator becomes (G | G w^T)."""
    wl = [code.field.check(x) for x in w]
    if len(wl) != code.length:
        raise LengthMismatchError(
            f"extension vector has length {len(wl)}, code has length {code.length}")
    if not any(wl):
        raise ZeroExtensionVectorError("extension vector must be nonzero")
    col = code.generator @ Matrix(code.field, [[x] for x in wl])
    return LinearCode(code.generator.hstack(col))
