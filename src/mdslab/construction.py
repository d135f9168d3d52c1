"""The gapped-evaluation code family and its subset-sum classification criteria.

The family under study evaluates the monomials x^0..x^(k-2), x^k (degree k-1
is skipped, hence "gapped") at n distinct nodes, scales columns by v, and
appends two tail columns; the last column carries the parameter delta.  Its
MDS / AMDS / NMDS behaviour is decided purely by subset sums of the node set,
and those predicates, with witness extraction, live here next to the builders.

Subset conventions: subsets are tuples of 0-based indices into the node list,
enumerated in lexicographic order, so every witness is deterministic.  The
quantity compared against delta for a subset S is (sum S)^2 - e2(S).

The criteria run as one vectorized pass per config.  The size-t subset sums
and delta quantities of a node set are int16 arrays in lex order, built by
table lookups over an index array of combinations (the delta quantities by
linalg.symmetric_sums over its rows) and kept in two bounded caches (1024
node-set entries each).  A "faces" table lists, for each size-t
subset, the lex ranks of its size-(t-1) subsets, so a universal clause is one
.all(axis=1) over it.  One scan yields every clause's first witness, and
criteria(cfg) turns it into the Criteria record of all four reports, which
is what search, classify and verify use.  The single-verdict entry points
and criteria_class read the same scan and build only what they return.  The
index and faces tables depend only on (n, t) and sit in their own small
caches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .gf import Field, parse_field
from .linalg import (
    Matrix,
    nonzero_product,
    power_matrix,
    require_distinct,
    symmetric_sums,
)
from .codes import (
    BadDimensionError,
    Classification,
    GrsReport,
    LengthMismatchError,
    LinearCode,
    NMDS,
    ZeroScaleError,
    class_label,
    grs_consistency_test,
)


class EllOutOfRangeError(ValueError):
    """Power-sum exponent outside the closed-form range [0, n+1]."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalConfig:
    """Node set A, column multipliers v, dimension k, tail parameter delta."""

    field: Field
    alphas: tuple[int, ...]
    v: tuple[int, ...]
    k: int
    delta: int

    def __post_init__(self):
        f = self.field
        object.__setattr__(self, "alphas", tuple(f.check(a) for a in self.alphas))
        object.__setattr__(self, "v", tuple(f.check(x) for x in self.v))
        object.__setattr__(self, "delta", f.check(self.delta))
        require_distinct(self.alphas)
        if len(self.v) != len(self.alphas):
            raise LengthMismatchError(
                f"v has {len(self.v)} entries for {len(self.alphas)} nodes")
        if any(x == 0 for x in self.v):
            raise ZeroScaleError("v entries must be nonzero")
        if not 3 <= self.k <= len(self.alphas):
            raise BadDimensionError(
                f"need 3 <= k <= n, got k={self.k}, n={len(self.alphas)}")

    @property
    def n(self) -> int:
        return len(self.alphas)

    @classmethod
    def ones(cls, field: Field, alphas: Sequence[int], k: int, delta: int) -> "EvalConfig":
        return cls(field, tuple(alphas), (1,) * len(tuple(alphas)), k, delta)

    @classmethod
    def from_json(cls, obj: Mapping) -> "EvalConfig":
        def fail(key: str, why: str):
            raise ValueError(f"config field {key!r}: {why}")

        def elements(key: str, values) -> tuple[int, ...]:
            if not isinstance(values, (list, tuple)):
                fail(key, f"expected a list of field elements, got {values!r}")
            return tuple(element(key, x) for x in values)

        def element(key: str, value) -> int:
            if isinstance(value, bool):
                fail(key, f"expected a field element, got {value!r}")
            try:
                return field.parse_element(value)
            except (TypeError, ValueError) as e:
                fail(key, str(e))

        if not isinstance(obj, Mapping):
            raise ValueError(f"config must be a JSON object, got {obj!r}")
        for key in ("field", "A", "k", "delta"):
            if key not in obj:
                fail(key, "missing")
        if not isinstance(obj["field"], str):
            fail("field", f"expected a field spec string, got {obj['field']!r}")
        try:
            field = parse_field(obj["field"])
        except ValueError as e:
            fail("field", str(e))
        alphas = elements("A", obj["A"])
        vspec = obj.get("v", "ones")
        v = (1,) * len(alphas) if vspec == "ones" else elements("v", vspec)
        if isinstance(obj["k"], bool) or not isinstance(obj["k"], int):
            fail("k", f"expected an integer, got {obj['k']!r}")
        return cls(field, alphas, v, obj["k"], element("delta", obj["delta"]))

    def to_json(self) -> dict:
        v = "ones" if all(x == 1 for x in self.v) else list(self.v)
        return {
            "field": self.field.spec_string(),
            "A": list(self.alphas),
            "v": v,
            "k": self.k,
            "delta": self.delta,
        }


# ---------------------------------------------------------------------------
# interpolation weights and power sums
# ---------------------------------------------------------------------------

def lagrange_weights(field: Field, alphas: Sequence[int]) -> tuple[int, ...]:
    """u_i = product over j != i of (alpha_i - alpha_j)^-1."""
    pts = require_distinct(alphas)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    diffs = field.sub_table[pts[:, None], pts]
    np.fill_diagonal(diffs, 1)
    return tuple(field.inv_table[nonzero_product(field, diffs)].tolist())


def weighted_power_sum(field: Field, alphas: Sequence[int], ell: int) -> int:
    """Closed form of sum(u_i * alpha_i^ell) for 0 <= ell <= n+1.

    The weighted power sums telescope: 0 until ell = n-2, then 1, then the
    complete homogeneous sums h_1 = e1 and h_2 = e1^2 - e2.
    """
    pts = require_distinct(alphas)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least three points")
    if not 0 <= ell <= n + 1:
        raise EllOutOfRangeError(f"exponent {ell} outside [0, {n + 1}]")
    if ell <= n - 2:
        return 0
    if ell == n - 1:
        return 1
    e1, h2 = symmetric_sums(field, pts)
    return int(e1 if ell == n else h2)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _scaled_power_rows(field: Field, alphas: Sequence[int], v: Sequence[int],
                       exponents: Sequence[int]) -> np.ndarray:
    P = power_matrix(field, alphas, exponents)
    vrow = np.asarray(v, dtype=np.int16)
    return field.mul_table[P.a, vrow[None, :]]


def _with_tail(field: Field, block: np.ndarray, tail: Sequence[Sequence[int]]) -> LinearCode:
    t = np.asarray(tail, dtype=np.int16)
    return LinearCode(Matrix(field, np.hstack([block, t])))


def family_code(cfg: EvalConfig) -> LinearCode:
    """The k x (n+2) gapped evaluation code with two tail columns.

    Rows are v_i alpha_i^r for r = 0..k-2 and r = k (no degree k-1 row); the
    tails put a 1 under the degree-(k-2) row in the last column, and (1, delta)
    under the degree-k row.  Parameters are [n+2, k] for every valid config.
    """
    f, k = cfg.field, cfg.k
    block = _scaled_power_rows(f, cfg.alphas, cfg.v, list(range(k - 1)) + [k])
    tail = [[0, 0]] * (k - 2) + [[0, 1], [1, cfg.delta]]
    return _with_tail(f, block, tail)


def family_generators(field: Field, nodes: np.typing.ArrayLike, k: int,
                      deltas: Sequence[int]) -> np.ndarray:
    """The generators of family_code with v all ones, for each row of the
    (S, n) nodes and each delta, as one (S * len(deltas), k, n+2) stack,
    node set-major.

    The power rows come from repeated products of the nodes; no matrix is
    reduced.  Each has rank k: its k-1 Vandermonde rows are independent on
    the nodes, and the degree-k row alone reaches the first tail column.
    """
    mul = field.mul_table
    pts = np.asarray(nodes, dtype=np.int16)
    S, n = pts.shape
    powers = [np.ones_like(pts)]
    for _ in range(k):
        powers.append(mul[powers[-1], pts])
    G = np.zeros((S, len(deltas), k, n + 2), dtype=np.int16)
    G[..., :n] = np.stack(powers[:k - 1] + powers[k:], axis=1)[:, None]
    G[..., k - 1, n] = 1
    G[..., k - 2, n + 1] = 1
    G[..., k - 1, n + 1] = deltas
    return G.reshape(-1, k, n + 2)


def grs_two_column_code(field: Field, alphas: Sequence[int], k: int, delta: int) -> LinearCode:
    """Full power ladder 0..k-1 plus the two tail columns; needs n >= k+1 >= 4."""
    pts = require_distinct(alphas)
    if not (k >= 3 and len(pts) >= k + 1):
        raise BadDimensionError(f"need 4 <= k+1 <= n, got k={k}, n={len(pts)}")
    block = _scaled_power_rows(field, pts, [1] * len(pts), range(k))
    tail = [[0, 0]] * (k - 2) + [[0, 1], [1, field.check(delta)]]
    return _with_tail(field, block, tail)


def grs_three_column_code(field: Field, alphas: Sequence[int], k: int,
                          delta: int, tau: int, pi: int) -> LinearCode:
    """Full power ladder plus three tail columns carrying delta, tau, pi."""
    pts = require_distinct(alphas)
    if not (k >= 3 and len(pts) >= k + 1):
        raise BadDimensionError(f"need 4 <= k+1 <= n, got k={k}, n={len(pts)}")
    block = _scaled_power_rows(field, pts, [1] * len(pts), range(k))
    tail = [[0, 0, 0]] * (k - 3) + [
        [0, 0, 1],
        [0, 1, field.check(tau)],
        [1, field.check(delta), field.check(pi)],
    ]
    return _with_tail(field, block, tail)


def gapped_grs_code(field: Field, alphas: Sequence[int], k: int) -> LinearCode:
    """Powers 0..k-2 and k, no tail columns; the bare degree-gapped code."""
    pts = require_distinct(alphas)
    if not 3 <= k <= len(pts):
        raise BadDimensionError(f"need 3 <= k <= n, got k={k}, n={len(pts)}")
    block = _scaled_power_rows(field, pts, [1] * len(pts), list(range(k - 1)) + [k])
    return LinearCode(Matrix(field, block))


def gapped_grs_one_column_code(field: Field, alphas: Sequence[int], k: int) -> LinearCode:
    """Gapped code with a single indicator tail column under the top row."""
    pts = require_distinct(alphas)
    if not 3 <= k <= len(pts):
        raise BadDimensionError(f"need 3 <= k <= n, got k={k}, n={len(pts)}")
    block = _scaled_power_rows(field, pts, [1] * len(pts), list(range(k - 1)) + [k])
    tail = [[0]] * (k - 1) + [[1]]
    return _with_tail(field, block, tail)


def family_parity_checks(field: Field, nodes: np.typing.ArrayLike, k: int,
                         deltas: Sequence[int]) -> np.ndarray:
    """parity_check_matrix of each config family_generators stacks (v all
    ones), as one (S * len(deltas), n-k+2, n+2) stack, node set-major: row r
    holds u_i alpha_i^r on the nodes, u the Lagrange weights; the tail columns
    hold -1 at row n-k-1 (absent when k = n), -e1 at row n-k, delta + e2 -
    e1^2 at row n-k+1, and a lone -1 in the corner."""
    mul, sub = field.mul_table, field.sub_table
    pts = np.asarray(nodes, dtype=np.intp)
    S, n = pts.shape
    diffs = sub[pts[:, :, None], pts[:, None, :]]
    diffs[:, range(n), range(n)] = 1
    rows = [field.inv_table[nonzero_product(field, diffs)]]    # u
    for _ in range(n - k + 1):
        rows.append(mul[rows[-1], pts])
    e1, h2 = symmetric_sums(field, pts)
    H = np.zeros((S, len(deltas), n - k + 2, n + 2), dtype=np.int16)
    H[..., :n] = np.stack(rows, axis=1)[:, None]
    if k < n:
        H[..., n - k - 1, n] = sub[0, 1]
    H[..., n - k, n] = sub[0, e1][:, None]
    H[..., n - k + 1, n] = sub[np.asarray(deltas, dtype=np.intp), h2[:, None]]
    H[..., n - k + 1, n + 1] = sub[0, 1]
    return H.reshape(-1, n - k + 2, n + 2)


def extension_vector(cfg: EvalConfig) -> tuple[int, ...]:
    """Weight vector w turning the one-tail code into the two-tail family.

    w_i = alpha_i^(n-k+1) u_i on the nodes; the last entry is
    delta - e1^2 + e2.  Guarantee (tested): extending the one-tail code by w
    reproduces family_code(cfg) whenever v is all ones.
    """
    H = family_parity_checks(cfg.field, [cfg.alphas], cfg.k, [cfg.delta])
    return tuple(H[0, -1, :-1].tolist())    # H's last row is (w, -1)


def parity_check_matrix(cfg: EvalConfig) -> Matrix:
    """Explicit (n-k+2) x (n+2) parity-check matrix of family_code(cfg):
    cfg's entry of family_parity_checks, its node columns divided by v, as
    scaling a generator column by v_i scales that column of H by v_i^-1."""
    f, n = cfg.field, cfg.n
    H = family_parity_checks(f, [cfg.alphas], cfg.k, [cfg.delta])[0]
    H[:, :n] = f.mul_table[H[:, :n], f.inv_table[list(cfg.v)]]
    return Matrix(f, H)


# ---------------------------------------------------------------------------
# subset-sum predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    holds: bool
    witness: tuple[int, ...] | None = None
    clause: str | None = None

    def to_json(self) -> dict:
        w = None
        if self.witness is not None:
            w = {"indices": list(self.witness), "clause": self.clause}
        return {"criterion": self.criterion, "holds": self.holds, "witness": w}


ZERO_SUM_CLAUSE = "zero_sum_k"
DELTA_CLAUSE = "delta_match_k_minus_1"
U1_CLAUSE = "all_k_subsets_sum_zero"
U2_CLAUSE = "all_k_minus_1_subsets_match_delta"


@lru_cache(maxsize=64)
def _combinations(n: int, t: int) -> np.ndarray:
    """(C(n, t), t) index array of the size-t subsets of range(n), lex order."""
    rows = np.array(list(itertools.combinations(range(n), t)), dtype=np.intp)
    rows = rows.reshape(-1, t)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=64)
def _faces(n: int, t: int) -> np.ndarray:
    """(C(n, t), t) lex ranks of the size-(t-1) subsets of each size-t subset."""
    rank = {c: i for i, c in enumerate(itertools.combinations(range(n), t - 1))}
    faces = np.array([[rank[f] for f in itertools.combinations(c, t - 1)]
                      for c in itertools.combinations(range(n), t)],
                     dtype=np.intp).reshape(-1, t)
    faces.flags.writeable = False
    return faces


def _subset_values(alphas: tuple[int, ...], t: int) -> np.ndarray:
    """(C(n, t), t) node values of the size-t subsets, lex order."""
    return np.asarray(alphas, dtype=np.intp)[_combinations(len(alphas), t)]


@lru_cache(maxsize=1024)
def _subset_sums(field: Field, alphas: tuple[int, ...], t: int) -> np.ndarray:
    """Sums of the size-t subsets of the nodes as one int16 array, lex order."""
    add = field.add_table
    vals = _subset_values(alphas, t)
    out = np.zeros(len(vals), dtype=np.int16)
    for x in vals.T:
        out = add[out, x]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=1024)
def _subset_delta_values(field: Field, alphas: tuple[int, ...], t: int) -> np.ndarray:
    """e1^2 - e2 = sum over i <= j of a_i a_j for each size-t subset, lex order."""
    _, h2 = symmetric_sums(field, _subset_values(alphas, t))
    h2.flags.writeable = False
    return h2


def _first_row(mask: np.ndarray, rows: np.ndarray) -> tuple[int, ...] | None:
    """The first row of rows where mask is set, as a tuple; None if none is."""
    i = int(mask.argmax())
    return tuple(rows[i].tolist()) if mask[i] else None


# ---------------------------------------------------------------------------
# the four classification criteria
# ---------------------------------------------------------------------------

class _Scan(NamedTuple):
    """Lexicographically first witness of each subset-sum clause; None: none.

    zero_sum: a size-k subset summing to 0 (E1).
    delta_match: a size-(k-1) subset whose e1^2 - e2 equals delta (E2).
    u1_failure: a size-(k+1) subset all of whose size-k subsets sum to 0.
      Distinct nodes never give one (S - a_i = 0 for every i would make
      all a_i equal to S), but the clause is checked as stated.
    u2_failure: a size-k subset all of whose size-(k-1) subsets match delta.
    """

    zero_sum: tuple[int, ...] | None
    delta_match: tuple[int, ...] | None
    u1_failure: tuple[int, ...] | None
    u2_failure: tuple[int, ...] | None

    def dual_amds(self) -> tuple[bool, tuple[int, ...] | None, str | None]:
        """E1 or E2, with the first witness (zero-sum family first)."""
        if self.zero_sum is not None:
            return True, self.zero_sum, ZERO_SUM_CLAUSE
        if self.delta_match is not None:
            return True, self.delta_match, DELTA_CLAUSE
        return False, None, None

    def amds(self) -> tuple[bool, tuple[int, ...] | None, str | None]:
        """U1 and U2 and (E1 or E2); a failed universal is reported first."""
        if self.u1_failure is not None:
            return False, self.u1_failure, U1_CLAUSE
        if self.u2_failure is not None:
            return False, self.u2_failure, U2_CLAUSE
        return self.dual_amds()

    def report(self, criterion: str) -> CriterionReport:
        """The named criterion's report.  mds is the negation of dual_amds,
        with the same witness; amds and nmds share their clauses."""
        if criterion in ("amds", "nmds"):
            return CriterionReport(criterion, *self.amds())
        holds, witness, clause = self.dual_amds()
        return CriterionReport(criterion, holds != (criterion == "mds"),
                               witness, clause)


def _scan(cfg: EvalConfig) -> _Scan:
    """One vectorized pass over the subset tables of cfg's node set.

    U1 (every size-(k+1) subset has a size-k subset with nonzero sum) fails
    on a row of the faces table whose entries all index zero sums; U2 (every
    size-k subset has a size-(k-1) subset not matching delta) likewise on
    delta matches.  Universals over empty families (k+1 > n) hold vacuously,
    and a universal cannot fail without a single zero sum or match.
    """
    f, pts, k, n = cfg.field, cfg.alphas, cfg.k, cfg.n
    zero = _subset_sums(f, pts, k) == 0
    match = _subset_delta_values(f, pts, k - 1) == cfg.delta
    zero_sum = _first_row(zero, _combinations(n, k))
    delta_match = _first_row(match, _combinations(n, k - 1))
    u1 = u2 = None
    if zero_sum is not None and k + 1 <= n:
        u1 = _first_row(zero[_faces(n, k + 1)].all(axis=1),
                        _combinations(n, k + 1))
    if delta_match is not None:
        u2 = _first_row(match[_faces(n, k)].all(axis=1), _combinations(n, k))
    return _Scan(zero_sum, delta_match, u1, u2)


class Criteria(NamedTuple):
    """The four criterion reports of one config, from one scan.

    The field names are the JSON keys.  The record also owns the class the
    verdicts imply and the rule each verdict must satisfy on the distance
    oracle's Classification.
    """

    mds: CriterionReport
    amds: CriterionReport
    dual_amds: CriterionReport
    nmds: CriterionReport

    def to_json(self) -> dict:
        return {name: rep.to_json() for name, rep in self._asdict().items()}

    @property
    def kind(self) -> str:
        """The class label the verdicts imply."""
        return class_label(self.mds.holds, self.amds.holds, self.dual_amds.holds)

    def checks(self, cls: Classification) -> Iterator[tuple[str, bool, bool]]:
        """(criterion, verdict, what the oracle's cls says it must be), in
        field order: mds iff defect 0, amds iff defect 1, dual_amds iff the
        dual has defect 1, nmds iff the class is NMDS."""
        truths = (cls.singleton_defect == 0, cls.singleton_defect == 1,
                  cls.dual_defect == 1, cls.kind == NMDS)
        for name, rep, truth in zip(self._fields, self, truths):
            yield name, rep.holds, truth


def criteria(cfg: EvalConfig) -> Criteria:
    """All four criterion reports of cfg from one scan."""
    scan = _scan(cfg)
    return Criteria(*map(scan.report, Criteria._fields))


def mds_criterion(cfg: EvalConfig) -> CriterionReport:
    """MDS iff no size-k subset sums to 0 and no size-(k-1) subset matches delta.

    Clause one is scanned before clause two; the witness of a failure is the
    lexicographically first violating subset of the violating clause.
    """
    return _scan(cfg).report("mds")


def dual_amds_criterion(cfg: EvalConfig) -> CriterionReport:
    """Dual is AMDS iff some size-k subset sums to 0 or some size-(k-1) subset
    matches delta; the witness is the first satisfying subset (zero-sum family
    scanned first)."""
    return _scan(cfg).report("dual_amds")


def amds_criterion(cfg: EvalConfig) -> CriterionReport:
    """U1 and U2 and (E1 or E2); see _Scan.  The amds and nmds conditions
    reduce to the same clauses for this family, so the two criteria coincide."""
    return _scan(cfg).report("amds")


def nmds_criterion(cfg: EvalConfig) -> CriterionReport:
    """The same clauses as amds_criterion, reported under the name nmds."""
    return _scan(cfg).report("nmds")


def criteria_class(cfg: EvalConfig) -> str:
    """Code class predicted from the subset-sum criteria alone.

    mds/amds/dual_amds decide the Singleton defects of code and dual without
    building anything, so this is the subset-sum route to the same label
    classify(family_code(cfg)) computes from distances.  It runs one scan and
    builds no report.
    """
    scan = _scan(cfg)
    dual_amds = scan.dual_amds()[0]
    return class_label(not dual_amds, scan.amds()[0], dual_amds)


def non_grs_certificate(cfg: EvalConfig) -> GrsReport:
    """Schur screen of the family member; NonGRS expected in both regimes."""
    return grs_consistency_test(family_code(cfg))
