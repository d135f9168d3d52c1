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

A whole stack of generators, as search evaluates them, takes a third way:
one column-rank profile gives d and the dual distance d-dual together, for
d-dual is the size of the smallest linearly dependent set of G's columns,
so no dual code is built.  The profile ranks the size-k column subsets of
every entry once, then scans up for d and down for d-dual on the entries
still undecided, upwards by _rank_scan as a single code's is.  The Schur
screen is batched too, and squares duals from a given parity-check stack.
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


def _min_weight(field: Field, G: np.ndarray):
    """Minimum Hamming weight of the row space of a (k, N) matrix G, by the
    cheaper exact method.

    For a (B, k, N) stack of full-rank generators, the (d, d-dual) arrays of
    each entry's code, from one column-rank profile of the stack; the dual's
    shape [N, N-k] is held to the cap as well, as its own code would be.
    """
    *_, k, N = G.shape
    method = _planned_method(field.q, N, k)
    if G.ndim == 3:
        _planned_method(field.q, N, N - k)
        return _distance_profile(field, G)
    if method == RANK_SCAN:
        return int(_rank_scan(field, G.T[None], k, k)[0])
    return _projective_min_weight(field, G)


def _planned_method(q: int, N: int, k: int) -> str:
    """The cheaper exact method for an [N, k] code over GF(q); refuses a code
    whose cheaper method is predicted past ENUMERATION_CAP."""
    method, work = _oracle_plan(q, N, k)
    if work > ENUMERATION_CAP:
        raise TooLargeToEnumerateError(
            f"{method} of a [{N},{k}] code over GF({q}) would take about "
            f"{work:.2g} table lookups, which exceeds the cap of 2^"
            f"{ENUMERATION_CAP.bit_length() - 1}")
    return method


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


def _rank_scan(field: Field, columns: np.ndarray, rank,
               start: int) -> np.ndarray:
    """(B,) minimum weights of the codes spanned by a (B, N, m) stack of
    columns, of dimension rank (one, or one per entry); some start-1
    columns of each entry must be known to span less, as when start <= rank.

    d = N - max{|Z| : rank(G_Z) < rank}, scanning |Z| = start, ... upwards
    on the entries still undecided: a nonzero codeword vanishes on Z exactly
    when G_Z is rank-deficient, which subsets inherit, so the first size
    with no deficient column set is one past the largest zero set.
    """
    B, N, _ = columns.shape
    rank = np.full(B, rank)
    d = np.ones(B, dtype=np.intp)
    live = np.arange(B)
    for s in range(start, N):
        low = _some_rank_below(field, columns[live], s, rank[live])
        d[live[~low]] = N - s + 1
        live = live[low]
    return d


def _distance_profile(field: Field, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, d-dual) of each full-rank generator of a (B, k, N) stack, from the
    ranks of its column subsets alone.

    d is the rank scan's.  d-dual is the size of the smallest linearly
    dependent set of columns (MacWilliams & Sloane, ch. 1, thm 10, read on
    the dual, whose parity-check matrix is G).  Size k decides both: with no
    deficient k-subset the code is MDS, d = N-k+1 and d-dual = k+1.  Past it
    the scan goes up for d and down for d-dual, each size on the entries
    still undecided only.
    """
    B, k, N = G.shape
    columns = G.transpose(0, 2, 1)
    d = np.full(B, N - k + 1)
    dual = np.full(B, k + 1)
    live = np.flatnonzero(_some_rank_below(field, columns, k, k))
    d[live] = _rank_scan(field, columns[live], k, k + 1)
    dual[live] = k
    for s in range(k - 1, 0, -1):
        live = live[_some_rank_below(field, columns[live], s, s)]
        dual[live] = s
    return d, dual


def _some_rank_below(field: Field, columns: np.ndarray, s: int,
                     rank) -> np.ndarray:
    """(B,) whether some s of each entry's N length-k vectors, a (B, N, k)
    stack, span fewer than rank dimensions (an int, or one per entry).

    The s-subsets are stacked as (entries x subsets, s, k) in blocks of at
    most 2^20 values; linalg.eliminate leaves a coordinate without a pivot
    for each dimension missing from the span.  An entry leaves the scan at
    its first low-rank subset.
    """
    B, N, k = columns.shape
    rank = np.full(B, rank)
    found = s < rank            # fewer than rank vectors span less
    per_call = min(_CHUNK, (_CHUNK << 4) // (s * k))    # matrices per elimination
    combos = itertools.combinations(range(N), s)
    while not found.all():
        subsets = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combos, per_call)), dtype=np.intp).reshape(-1, s)
        if not subsets.size:
            break
        live = np.flatnonzero(~found)
        step = max(1, per_call // len(subsets))
        for lo in range(0, live.size, step):
            at = live[lo:lo + step]
            pivots = eliminate(field, columns[at[:, None, None], subsets]
                               .reshape(-1, s, k))
            spans = (pivots >= 0).sum(axis=1).reshape(len(at), -1)
            found[at] = (spans < rank[at, None]).any(axis=1)
    return found


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

    @classmethod
    def of_distances(cls, N: int, k: int, d: int, dual_d: int) -> "Classification":
        """The classification of an [N, k] code with distance d whose dual
        has distance dual_d."""
        s = N - k + 1 - d
        sd = k + 1 - dual_d
        return cls(class_label(s == 0, s == 1, sd == 1), s, sd, d, dual_d, N, k)


def classify(code: LinearCode) -> Classification:
    """Singleton-defect classification of code and dual; needs 1 <= k <= N-1."""
    if code.dimension == code.length:
        raise BadDimensionError(
            "classification needs a nonzero dual (dimension < length)")
    return Classification.of_distances(code.length, code.dimension,
                                       code.min_distance, code.dual.min_distance)


# ---------------------------------------------------------------------------
# GRS codes and Schur products
# ---------------------------------------------------------------------------

def grs_code(field: Field, alphas: Sequence[int], v: Sequence[int], k: int) -> LinearCode:
    """Evaluation code of polynomials of degree < k, columns scaled by v."""
    pts = require_distinct(field, alphas)
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


SQUARE_DIMENSION = "SquareDimension"
DUAL_SQUARE_DISTANCE = "DualSquareDistance"
NOT_APPLICABLE = "NotApplicable"


def schur_method(N: int, k: int) -> str:
    """The Schur screen that applies to an [N, k] code; see grs_consistency_test."""
    if 3 <= k and 2 * k < N + 1:
        return SQUARE_DIMENSION
    if 3 <= N - k and 2 * (N - k) < N + 1:
        return DUAL_SQUARE_DISTANCE
    return NOT_APPLICABLE


def grs_consistency_test(code: LinearCode) -> GrsReport:
    """One-directional GRS screen via Schur-square invariants.

    A GRS code of length N and dimension k with 3 <= k < (N+1)/2 has square
    dimension exactly 2k-1, and its square has distance >= 2; duals of GRS
    codes are GRS, so the same applies through the dual when its dimension is
    in range.  A violated invariant certifies NonGRS (up to monomial
    equivalence); a satisfied one is only ConsistentWithGRS, never proof.
    This is grs_consistency_reports on a stack of one, H the dual's basis.
    """
    H = None
    if schur_method(code.length, code.dimension) == DUAL_SQUARE_DISTANCE:
        H = code.dual.generator.a[None]
    return grs_consistency_reports(code.field, code.generator.a[None], H)[0]


def grs_consistency_reports(field: Field, G: np.ndarray,
                            H: np.ndarray | None = None) -> list[GrsReport]:
    """grs_consistency_test of the code of each generator in a (B, k, N)
    stack, all at once; H, read only in the DualSquareDistance regime, is a
    (B, N-k, N) stack whose entries span each code's dual.

    A square is spanned by the products of row i with row j >= i, of G or of
    H; one linalg.eliminate over the stack gives its rank r, and the products
    at its pivot rows a basis.  The dual square's distance is one stacked
    rank scan of the bases, or projective enumeration where cheaper; each
    [N, r] is held to ENUMERATION_CAP in stack order, the first past it refused.
    """
    B, k, N = G.shape
    method = schur_method(N, k)
    if method == NOT_APPLICABLE:
        return [GrsReport(INCONCLUSIVE, method, None)] * B
    rows = G if method == SQUARE_DIMENSION else H
    i, j = np.triu_indices(rows.shape[1])
    products = field.mul_table[rows[:, i], rows[:, j]]
    pivots = eliminate(field, products.copy())
    ranks = (pivots >= 0).sum(axis=1)
    if method == SQUARE_DIMENSION:
        return [GrsReport(CONSISTENT_WITH_GRS if r == 2 * k - 1 else NON_GRS,
                          method, r) for r in ranks.tolist()]
    scan = np.array([_planned_method(field.q, N, r) for r in ranks.tolist()]) == RANK_SCAN
    at = np.sort(pivots, axis=1)[:, N - ranks.max():]      # -1 pads come first
    basis = np.where(at[..., None] >= 0, products[np.arange(B)[:, None], at], 0)
    d = np.empty(B, dtype=np.intp)
    d[scan] = _rank_scan(field, basis[scan].transpose(0, 2, 1), ranks[scan],
                         ranks.min())
    for b in np.flatnonzero(~scan):
        d[b] = _projective_min_weight(field, basis[b, -ranks[b]:])
    return [GrsReport(NON_GRS if d2 < 2 else CONSISTENT_WITH_GRS, method, d2)
            for d2 in d.tolist()]


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
