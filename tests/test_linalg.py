"""Linear algebra tests: elimination against slow oracles, Vandermonde identities."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdslab.codes import LinearCode, codes_equal
from mdslab.gf import Field, FieldMismatchError, is_prime
from mdslab.linalg import (
    DuplicatePointsError,
    Matrix,
    NotSquareError,
    det,
    eliminate,
    nullspace,
    power_matrix,
    rref,
    symmetric_sums,
    vandermonde_det_skip_penultimate,
    vandermonde_det_skip_two,
)

GF7 = Field.from_order(7)


def identity(f: Field, n: int) -> Matrix:
    return Matrix(f, np.eye(n, dtype=np.int16))


def rank(M: Matrix) -> int:
    return rref(M)[1]


def det1(M: Matrix) -> int:
    """The determinant of one matrix, as a stack of one."""
    return int(det(M.field, M.a[None])[0])


def cofactor_det(f: Field, rows: list[list[int]]) -> int:
    """Independent oracle: textbook cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = f.mul(rows[0][j], cofactor_det(f, minor))
        total = f.add(total, term) if j % 2 == 0 else f.sub(total, term)
    return total


def random_matrix(f: Field, rows: int, cols: int, rng: np.random.Generator) -> Matrix:
    return Matrix(f, rng.integers(0, f.q, size=(rows, cols)))


def naive_matmul(f: Field, A: Matrix, B: Matrix) -> list[list[int]]:
    out = [[0] * B.ncols for _ in range(A.nrows)]
    for i in range(A.nrows):
        for j in range(B.ncols):
            s = 0
            for t in range(A.ncols):
                s = f.add(s, f.mul(int(A.a[i, t]), int(B.a[t, j])))
            out[i][j] = s
    return out


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

def test_det_known_value_gf7():
    m = Matrix(GF7, [[1, 1, 1], [1, 2, 3], [1, 1, 6]])
    assert cofactor_det(GF7, m.a.tolist()) == 5
    assert det1(m) == 5


def test_det_basics():
    assert det1(identity(GF7, 4)) == 1
    assert det1(Matrix(GF7, [[1, 2, 1], [3, 4, 3], [5, 6, 5]])) == 0  # repeated column
    assert det1(Matrix(GF7, [[4]])) == 4
    with pytest.raises(NotSquareError):
        det1(Matrix(GF7, [[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(NotSquareError):
        det(GF7, np.eye(3, dtype=np.int16))   # one matrix, not a stack


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_det_matches_cofactor_oracle(q):
    f = Field.from_order(q)
    rng = np.random.default_rng(q)
    for n in range(1, 5):
        for _ in range(8):
            m = random_matrix(f, n, n, rng)
            assert det1(m) == cofactor_det(f, m.a.tolist())


@pytest.mark.parametrize("q", [2, 5, 8, 9])
def test_det_multiplicative(q):
    f = Field.from_order(q)
    rng = np.random.default_rng(100 + q)
    for n in (2, 3, 5):
        for _ in range(6):
            a, b = random_matrix(f, n, n, rng), random_matrix(f, n, n, rng)
            assert det1(a @ b) == f.mul(det1(a), det1(b))


@pytest.mark.parametrize("q", [7, 9])
def test_det_sign_of_row_permutations(q):
    # upper-triangular with a nonzero diagonal, rows shuffled: the pivot rows
    # are the shuffle, so the odd ones must negate in odd characteristic
    f = Field.from_order(q)
    rng = np.random.default_rng(q)
    tri = np.triu(rng.integers(1, q, size=(4, 4)))
    perms = list(itertools.permutations(range(4)))
    stack = tri[np.array(perms)].astype(np.int16)
    before = stack.copy()
    got = det(f, stack)
    assert np.array_equal(stack, before)   # det works on its own copy
    assert got.tolist() == [cofactor_det(f, m.tolist()) for m in stack]
    assert len(set(got.tolist())) == 2


FIELDS_UP_TO_64 = [p**m for p in range(2, 65) if is_prime(p)
                   for m in range(1, 7) if p**m <= 64]


@st.composite
def stacks(draw, square: bool):
    """(field, (B, s, k) stack): rank-deficient in half of the draws, and
    upper-triangular with shuffled rows in half, so pivot rows come out of
    order."""
    f = Field.from_order(draw(st.sampled_from(FIELDS_UP_TO_64)))
    B, s = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    k = s if square else draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.integers(0, f.q - 1), min_size=B * s * k,
                               max_size=B * s * k)), dtype=np.int16)
    a = a.reshape(B, s, k)
    if draw(st.booleans()):
        a = np.triu(a)
    if draw(st.booleans()):
        # a scaled copy of the first row (s <= k) or column (s > k) leaves
        # rank below min(s, k)
        c = draw(st.integers(0, f.q - 1))
        if s <= k:
            a[:, -1] = f.mul_table[c, a[:, 0]] if s > 1 else 0
        else:
            a[:, :, -1] = f.mul_table[c, a[:, :, 0]] if k > 1 else 0
    a = a[:, draw(st.permutations(range(s)))]
    return f, a


@given(stacks(square=True))
def test_det_stack_matches_cofactor(case):
    f, a = case
    assert det(f, a).tolist() == [cofactor_det(f, m.tolist()) for m in a]


@given(stacks(square=False))
def test_eliminate_pivot_count_is_rank(case):
    f, a = case
    ranks = [rank(Matrix(f, m)) for m in a]
    pivots = eliminate(f, a.copy())
    assert pivots.shape == (a.shape[0], a.shape[2])
    assert (pivots >= 0).sum(axis=1).tolist() == ranks
    for rows in pivots:
        used = rows[rows >= 0].tolist()
        assert len(set(used)) == len(used)   # a row pivots one column at most


# ---------------------------------------------------------------------------
# rref / rank / nullspace
# ---------------------------------------------------------------------------

def test_rref_examples():
    r, rk, piv = rref(identity(GF7, 3))
    assert r == identity(GF7, 3) and rk == 3 and piv == (0, 1, 2)

    f2 = Field.from_order(2)
    r, rk, piv = rref(Matrix(f2, [[1, 1], [1, 1]]))
    assert r.a.tolist() == [[1, 1], [0, 0]] and rk == 1 and piv == (0,)

    vdm = power_matrix(GF7, [2, 3, 5], [0, 1, 2])
    assert rank(vdm) == 3


def test_rref_canonical_and_idempotent():
    rng = np.random.default_rng(7)
    for q in (3, 4, 9):
        f = Field.from_order(q)
        for _ in range(10):
            m = random_matrix(f, 4, 6, rng)
            r1, rk, _ = rref(m)
            assert rref(r1)[0] == r1
            # row space is permutation- and scaling-invariant
            perm = rng.permutation(4)
            scales = rng.integers(1, f.q, size=4)
            scaled = [[f.mul(int(s), int(x)) for x in m.a[p]] for p, s in zip(perm, scales)]
            assert rref(Matrix(f, scaled))[0] == r1
            assert rank(Matrix(f, scaled)) == rk


def test_nullspace_examples():
    assert nullspace(identity(GF7, 4)).nrows == 0
    f2 = Field.from_order(2)
    ns = nullspace(rref(Matrix(f2, [[1, 1]]))[0])
    assert ns.a.tolist() == [[1, 1]]


def test_nullspace_orthogonal_and_independent():
    rng = np.random.default_rng(11)
    for q in (4, 5, 8):
        f = Field.from_order(q)
        for _ in range(10):
            m = random_matrix(f, 3, 7, rng)
            ns = nullspace(rref(m)[0])
            assert ns.nrows == 7 - rank(m)
            if ns.nrows:
                assert rank(ns) == ns.nrows
                prod = m @ ns.transpose()
                assert not prod.a.any()


@st.composite
def matrices(draw):
    """A matrix over a field of order <= 64, rank-deficient about half the
    time: its last row is then a combination of two earlier rows."""
    f = Field.from_order(draw(st.sampled_from(FIELDS_UP_TO_64)))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    entries = st.integers(0, f.q - 1)
    a = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        c = draw(entries)
        a[-1] = [f.add(x, f.mul(c, y)) for x, y in zip(a[0], a[1])]
    return Matrix(f, a)


def loop_nullspace(r: Matrix, pivots: tuple[int, ...]) -> Matrix:
    """Reference: for each free column c, 1 at c and -r[i, c] at pivots[i]."""
    free = [c for c in range(r.ncols) if c not in pivots]
    basis = np.zeros((len(free), r.ncols), dtype=np.int16)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = r.field.neg(int(r.a[ri, fc]))
    return Matrix(r.field, basis)


@given(matrices(), st.data())
def test_rref_nullspace_round_trips(m, data):
    f = m.field
    r, rk, pivots = rref(m)
    ns = nullspace(r)
    assert ns == loop_nullspace(r, pivots)
    assert rk + ns.nrows == m.ncols
    if ns.nrows:
        assert not (m @ ns.transpose()).a.any()
        assert rank(ns) == ns.nrows
    assert rref(r) == (r, rk, pivots)
    if rk == m.nrows:
        # invertible row operations: permute, scale, add a multiple of a row
        perm = data.draw(st.permutations(range(m.nrows)))
        scales = [data.draw(st.integers(1, f.q - 1)) for _ in perm]
        rows = [[f.mul(s, int(x)) for x in m.a[i]] for i, s in zip(perm, scales)]
        c = data.draw(st.integers(0, f.q - 1))
        if m.nrows > 1:
            rows[0] = [f.add(x, f.mul(c, y)) for x, y in zip(rows[0], rows[-1])]
        assert codes_equal(LinearCode(m), LinearCode(Matrix(f, rows)))
        assert codes_equal(LinearCode(m), LinearCode(r))


# ---------------------------------------------------------------------------
# matrix mechanics
# ---------------------------------------------------------------------------

def test_matmul_against_naive():
    rng = np.random.default_rng(17)
    for q in (2, 7, 8):
        f = Field.from_order(q)
        a = random_matrix(f, 3, 5, rng)
        b = random_matrix(f, 5, 2, rng)
        assert (a @ b).a.tolist() == naive_matmul(f, a, b)
        assert (identity(f, 3) @ a) == a


def test_matrix_validation_and_identity():
    with pytest.raises(ValueError):
        Matrix(GF7, [[1, 9]])
    with pytest.raises(ValueError):
        Matrix(GF7, [1, 2, 3])
    m = Matrix(GF7, [[1, 2], [3, 4]])
    assert not m.a.flags.writeable
    assert m == Matrix(GF7, [[1, 2], [3, 4]])
    assert m != Matrix(GF7, [[1, 2], [3, 5]])
    assert m != Matrix(Field.from_order(11), [[1, 2], [3, 4]])
    with pytest.raises(FieldMismatchError):
        m @ Matrix(Field.from_order(11), [[1], [2]])


def test_stack_and_transpose():
    m = Matrix(GF7, [[1, 2], [3, 4]])
    assert m.hstack(identity(GF7, 2)).a.tolist() == [[1, 2, 1, 0], [3, 4, 0, 1]]
    assert m.transpose().a.tolist() == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        m.hstack(Matrix(GF7, [[1, 1]]))


def test_matrix_text_round_trip():
    m = Matrix(GF7, [[1, 2, 0], [6, 5, 4]])
    assert m.format() == "1,2,0;6,5,4"
    assert Matrix.parse(GF7, m.format()) == m
    f8 = Field.from_order(8)
    g = Matrix(f8, [[1, 2, 4], [0, 1, 7]])
    assert g.format() == "1,g,g^2;0,1,g^5"
    assert Matrix.parse(f8, g.format()) == g
    assert Matrix.parse(f8, "1, 2 ,4 ; 0,1,7") == g  # whitespace tolerated
    with pytest.raises(ValueError):
        Matrix.parse(GF7, "1,2;3")
    with pytest.raises(ValueError):
        Matrix.parse(GF7, "1,,2")


def test_power_matrix_zero_convention():
    m = power_matrix(GF7, [0, 1, 3], [0, 1, 2])
    assert m.a.tolist() == [[1, 1, 1], [0, 1, 3], [0, 1, 2]]


# ---------------------------------------------------------------------------
# Vandermonde-variant determinants
# ---------------------------------------------------------------------------

def skip_penultimate_matrix(f: Field, pts: tuple[int, ...]) -> Matrix:
    n = len(pts)
    return power_matrix(f, pts, list(range(n - 1)) + [n])


def skip_two_matrix(f: Field, pts: tuple[int, ...]) -> Matrix:
    n = len(pts)
    return power_matrix(f, pts, list(range(n - 1)) + [n + 1])


def test_vandermonde_det_known_values():
    assert skip_penultimate_matrix(GF7, (1, 2, 3)).a.tolist() == [[1, 1, 1], [1, 2, 3], [1, 1, 6]]
    assert vandermonde_det_skip_penultimate(GF7, (1, 2, 3)) == 5
    assert skip_two_matrix(GF7, (1, 2, 3)).a.tolist() == [[1, 1, 1], [1, 2, 3], [1, 2, 4]]
    assert vandermonde_det_skip_two(GF7, (1, 2, 3)) == 1

    f4 = Field.from_order(4)
    pts = (0, 1, 2)
    assert vandermonde_det_skip_penultimate(f4, pts) == det1(skip_penultimate_matrix(f4, pts))
    f8 = Field.from_order(8)
    pts8 = (1, 2, 4)
    assert vandermonde_det_skip_two(f8, pts8) == det1(skip_two_matrix(f8, pts8))


def test_vandermonde_det_zero_factor():
    # points summing to zero kill the first closed form
    assert vandermonde_det_skip_penultimate(GF7, (1, 2, 4)) == 0
    assert det1(skip_penultimate_matrix(GF7, (1, 2, 4))) == 0


@pytest.mark.parametrize("q,n", [(5, 3), (5, 4), (7, 3), (7, 4), (8, 3), (9, 3)])
def test_vandermonde_closed_forms_exhaustive_small(q, n):
    f = Field.from_order(q)
    for pts in itertools.permutations(range(q), n):
        assert vandermonde_det_skip_penultimate(f, pts) == det1(skip_penultimate_matrix(f, pts))
        assert vandermonde_det_skip_two(f, pts) == det1(skip_two_matrix(f, pts))


def test_vandermonde_det_size_five_sampled():
    rng = np.random.default_rng(19)
    for q in (7, 8, 9):
        f = Field.from_order(q)
        for _ in range(30):
            pts = tuple(int(x) for x in rng.choice(q, size=5, replace=False))
            assert vandermonde_det_skip_penultimate(f, pts) == det1(skip_penultimate_matrix(f, pts))
            assert vandermonde_det_skip_two(f, pts) == det1(skip_two_matrix(f, pts))


def test_vandermonde_det_errors():
    with pytest.raises(DuplicatePointsError):
        vandermonde_det_skip_penultimate(GF7, (1, 2, 1))
    with pytest.raises(DuplicatePointsError, match=r"not distinct: \(4, 0, 4\)$"):
        vandermonde_det_skip_two(GF7, [[1, 2, 3], [4, 0, 4], [5, 5, 6]])
    with pytest.raises(ValueError):
        vandermonde_det_skip_two(GF7, (1, 2))
    with pytest.raises(ValueError, match="need at least 3 points, got 2"):
        vandermonde_det_skip_penultimate(GF7, [[1, 2], [3, 4]])


def test_symmetric_sums_match_the_double_sum():
    # the one-pass recurrence against the definitions, in characteristics
    # 2, 3 and 7, with repeated values and the empty list included
    rng = np.random.default_rng(23)
    for q in (4, 7, 8, 9):
        f = Field.from_order(q)
        for size in (0, 1, 2, 3, 5, 6):
            vals = [int(x) for x in rng.integers(0, q, size=size)]
            e1 = h2 = 0
            for i in range(size):
                e1 = f.add(e1, vals[i])
                for j in range(i, size):
                    h2 = f.add(h2, f.mul(vals[i], vals[j]))
            assert symmetric_sums(f, vals) == (e1, h2)


@st.composite
def value_stacks(draw, distinct: bool):
    """(field, (..., n) values) over q <= 64 with one or two batch axes: for
    distinct=True, 3 <= n <= 6 distinct points a row; else 0 <= n <= 6
    values with repeats allowed."""
    f = Field.from_order(draw(st.sampled_from([q for q in FIELDS_UP_TO_64 if q >= 3])))
    n = draw(st.integers(3, min(f.q, 6))) if distinct else draw(st.integers(0, 6))
    batch = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    row = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n, unique=distinct)
    rows = [draw(row) for _ in range(int(np.prod(batch)))]
    return f, np.array(rows, dtype=np.intp).reshape(*batch, n)


@given(value_stacks(distinct=True))
def test_closed_forms_of_a_stack_match_det(case):
    f, pts = case
    n = pts.shape[-1]
    rows = pts.reshape(-1, n)
    for closed_form, top in ((vandermonde_det_skip_penultimate, n),
                             (vandermonde_det_skip_two, n + 1)):
        powers = np.array([power_matrix(f, r, [*range(n - 1), top]).a for r in rows])
        assert closed_form(f, pts).shape == pts.shape[:-1]
        assert closed_form(f, pts).ravel().tolist() == det(f, powers).tolist()


@given(value_stacks(distinct=False))
def test_symmetric_sums_of_a_stack_are_its_rows(case):
    f, vals = case
    e1, h2 = symmetric_sums(f, vals)
    assert e1.shape == h2.shape == vals.shape[:-1]
    rows = [symmetric_sums(f, r.tolist()) for r in vals.reshape(e1.size, -1)]
    assert list(zip(e1.ravel().tolist(), h2.ravel().tolist())) == \
        [(int(a), int(b)) for a, b in rows]
