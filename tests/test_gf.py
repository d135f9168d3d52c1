"""Field-layer tests: axioms, table correctness against a slow oracle, parsing."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdslab import gf
from mdslab.gf import (
    Field,
    NonPrimeError,
    ReducibleModulusError,
    UnsupportedSizeError,
    default_modulus,
    is_prime,
    parse_field,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
PRIME_POWERS = sorted(((p, m) for p in range(2, 1025) if is_prime(p)
                       for m in range(1, 11) if p**m <= 1024),
                      key=lambda pm: pm[0] ** pm[1])
FERMAT_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
                 41, 43, 47, 49, 53, 59, 61, 64]


def slow_mul(f: Field, a: int, b: int) -> int:
    """Independent oracle: schoolbook polynomial product reduced mod modulus."""
    p, m = f.p, f.m
    da = [(a // p**i) % p for i in range(m)]
    db = [(b // p**i) % p for i in range(m)]
    conv = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] = (conv[i + j] + x * y) % p
    # long division by the modulus, highest power first
    for t in range(2 * m - 2, m - 1, -1):
        c = conv[t]
        if c:
            conv[t] = 0
            for i in range(m):
                conv[t - m + i] = (conv[t - m + i] - c * f.modulus[i]) % p
    return sum(conv[i] * p**i for i in range(m))


def digitwise_add(f: Field, a: int, b: int) -> int:
    """Independent oracle: add the base-p digit vectors mod p."""
    p, m = f.p, f.m
    return sum((((a // p**i) + (b // p**i)) % p) * p**i for i in range(m))


def slow_pow(f: Field, a: int, e: int) -> int:
    """a^e by square-and-multiply over slow_mul, for e >= 0."""
    out = 1
    while e:
        if e & 1:
            out = slow_mul(f, out, a)
        a = slow_mul(f, a, a)
        e >>= 1
    return out


def table_digest(fields) -> str:
    """SHA-256 over each field's spec, primitive element and every table."""
    h = hashlib.sha256()
    for f in fields:
        h.update(f"{f.spec_string()} g={f.primitive_element()};".encode())
        for t in (f.add_table, f.sub_table, f.mul_table, f.inv_table, f.exp, f.log):
            h.update(f"{t.dtype.str}{t.shape};".encode())
            h.update(np.ascontiguousarray(t).tobytes())
    return h.hexdigest()


# table_digest of every prime-power field up to 1024 with its default
# modulus, in order of q, then gf(2^3):1,1,0,1 and gf(2^8):1,1,0,1,1,0,0,0,1;
# recorded from the element-by-element table build it replaced
GOLDEN_TABLES_SHA256 = (
    "3d2eb53af09c941bf7af44b1b6cead3da17eb3ced81c0e444cff2568872097e2")


def test_tables_match_golden_digest():
    def fields():  # built one at a time, so no more than one is held
        for p, m in PRIME_POWERS:
            yield Field(p, m)
        yield Field(2, 3, (1, 1, 0, 1))
        yield Field(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))
    assert len(PRIME_POWERS) == 198
    assert table_digest(fields()) == GOLDEN_TABLES_SHA256


@st.composite
def field_elements(draw):
    p, m = draw(st.sampled_from(PRIME_POWERS))
    f = Field.from_order(p**m)
    a, b, c = (draw(st.integers(0, f.q - 1)) for _ in range(3))
    return f, a, b, c


@given(field_elements())
def test_field_axioms_on_drawn_fields(fabc):
    f, a, b, c = fabc
    assert f.add(a, b) == digitwise_add(f, a, b) == f.add(b, a)
    assert f.mul(a, b) == slow_mul(f, a, b) == f.mul(b, a)
    assert f.sub(f.add(a, b), b) == a
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.exp[f.log[a]] == a
    for e in (0, 1, b, c + f.q):
        assert f.pow(a, e) == slow_pow(f, a, e)
    g = f.primitive_element()
    assert f.log[g] == 1 % (f.q - 1) and f.pow(g, b) == f.exp[b % (f.q - 1)]
    # order q - 1: g^((q-1)/r) != 1 for every prime r dividing q - 1
    assert slow_pow(f, g, f.q - 1) == 1
    assert all(slow_pow(f, g, (f.q - 1) // r) != 1
               for r in range(2, f.q) if (f.q - 1) % r == 0 and is_prime(r))


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_mul_table_matches_polynomial_oracle(q):
    f = Field.from_order(q)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == slow_mul(f, a, b)


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_add_table_matches_digitwise_oracle(q):
    f = Field.from_order(q)
    for a in f.elements():
        for b in f.elements():
            assert f.add(a, b) == digitwise_add(f, a, b)
            assert f.sub(f.add(a, b), b) == a


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = Field.from_order(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", FERMAT_ORDERS)
def test_unit_group_order_and_inverse_power(q):
    f = Field.from_order(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1
        assert f.inv(a) == f.pow(a, q - 2)


def test_enumeration_is_canonical():
    assert list(Field.from_order(4).elements()) == [0, 1, 2, 3]
    assert list(Field.from_order(7).elements()) == list(range(7))
    f = Field.from_order(9)
    assert len(set(f.elements())) == 9
    # index 2 is the class of x in any extension field under base-p digits
    assert Field.from_order(4).coeffs(2) == (0, 1)
    assert Field.from_order(8).coeffs(5) == (1, 0, 1)


def test_default_modulus_choices():
    assert Field.from_order(4).modulus == (1, 1, 1)    # x^2+x+1
    assert Field.from_order(8).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert Field.from_order(9).modulus == (1, 0, 1)     # x^2+1
    assert Field.from_order(7).modulus == (0, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)     # x^4+x+1 is the first hit


def test_gf4_identities():
    f = Field.from_order(4)
    w = 2  # class of x
    assert f.add(w, w) == 0
    assert f.mul(w, w) == 3          # w^2 = w+1, forced by the modulus
    assert f.inv(w) == 3             # w*(w+1) = 1
    assert f.add(1, w) == 3


def test_gf8_power_chain():
    f = Field.from_order(8)
    g = 2  # class of x
    powers = [f.pow(g, e) for e in range(8)]
    # 1, g, g^2, then g^3 = g+1 and onward per the modulus
    assert powers == [1, 2, 4, 3, 6, 7, 5, 1]
    assert f.mul(g, 4) == 3
    assert f.inv(g) == 5


def test_primitive_elements():
    assert Field.from_order(4).primitive_element() == 2
    assert Field.from_order(8).primitive_element() == 2
    assert Field.from_order(7).primitive_element() == 3
    assert Field.from_order(9).primitive_element() == 4  # x+1; x itself has order 4
    f = Field.from_order(13)

    def order(a):
        return next(e for e in range(1, f.q) if f.pow(a, e) == 1)

    g = f.primitive_element()
    assert order(g) == 12
    for a in range(1, g):
        assert order(a) < 12


def test_zero_power_conventions():
    f = Field.from_order(7)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    assert f.pow(3, -1) == f.inv(3)


def test_construction_errors():
    with pytest.raises(NonPrimeError):
        Field(6, 1)
    with pytest.raises(NonPrimeError):
        Field.from_order(12)
    with pytest.raises(UnsupportedSizeError):
        Field.from_order(2048)
    with pytest.raises(UnsupportedSizeError):   # refused before factoring
        Field.from_order(2305843009213693951)
    with pytest.raises(UnsupportedSizeError):   # refused before the power
        parse_field("gf(2^100000)")
    with pytest.raises(UnsupportedSizeError):
        parse_field("gf(2305843009213693951^2)")
    with pytest.raises(NonPrimeError):
        parse_field("gf(6^2)")
    with pytest.raises(ReducibleModulusError):
        Field(2, 2, [1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        Field(2, 2, [1, 1])  # not degree 2


def test_parse_and_format_round_trip():
    f = parse_field("gf(8)")
    assert f is Field.from_order(8)
    assert parse_field("gf(2^3):1,1,0,1") == f
    assert parse_field(f.spec_string()) == f
    assert parse_field("gf(49)").q == 49
    assert parse_field("GF(7)").q == 7
    with pytest.raises(ValueError):
        parse_field("gf(seven)")

    assert f.parse_element("g^4") == 6
    assert f.parse_element("g") == 2
    assert f.parse_element("g^0") == 1
    assert f.parse_element("5") == 5
    assert f.parse_element([1, 0, 1]) == 5
    assert f.parse_element("g^-1") == f.inv(2)
    for a in f.elements():
        assert f.parse_element(f.format_element(a)) == a
        assert f.parse_element(f.coeffs(a)) == a
    assert f.format_element(0) == "0"
    assert f.format_element(1) == "1"
    assert f.format_element(2) == "g"
    assert f.format_element(3) == "g^3"
    assert f.format_element(3, "digits") == "(1,1,0)"

    f7 = parse_field("gf(7)")
    assert f7.format_element(5) == "5"
    assert f7.parse_element(-1) == 6
    with pytest.raises(ValueError):
        f.parse_element(9)
    with pytest.raises(ValueError):
        f.parse_element([2, 0, 0])


@pytest.mark.parametrize("digits", [[1, 2.5], [1, True], [1.0, 2], [False], [1, "2"]])
def test_digit_vectors_refuse_non_integer_digits(digits):
    with pytest.raises(ValueError, match="^digit .* is not an integer$"):
        Field.from_order(9).parse_element(digits)


def test_digit_vectors_take_numpy_integers():
    f = Field.from_order(9)
    assert f.parse_element([1, 2]) == 7
    assert f.parse_element(np.array([1, 2])) == 7
    assert f.parse_element([np.int8(1), np.int64(2)]) == 7
    assert f.from_coeffs(f.coeffs(5)) == 5


def test_field_identity_semantics():
    a = Field.from_order(8)
    b = Field(2, 3)
    assert a == b and hash(a) == hash(b)
    assert a != Field(2, 3, [1, 0, 1, 1])  # the other cubic
    assert a != Field.from_order(9)


def test_prime_field_ignores_its_linear_modulus():
    """Every x + c gives GF(p) the same arithmetic, so the same field."""
    plain = Field.from_order(7)
    for field in (Field.from_order(7, (3, 1)), Field(7, 1, (3, 1)),
                  parse_field("gf(7):5,1")):
        assert field == plain and hash(field) == hash(plain)
        assert field.modulus == (0, 1)
    assert Field.from_order(7, (3, 1)) is plain       # one cache entry
    with pytest.raises(ValueError):
        Field.from_order(7, (3, 1, 5))                 # still checked
    with pytest.raises(ValueError):
        Field.from_order(7, (3, 2))


def test_field_cache_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    # the seven fields of `verify all` fit, so no run rebuilds one midway
    assert gf.FIELD_CACHE_SIZE >= len({4, 5, 7, 8, 9, 11, 13})
    orders = SMALL_ORDERS[:gf.FIELD_CACHE_SIZE + 1]
    fields = [Field.from_order(q) for q in orders]
    assert len(gf._FIELD_CACHE) == gf.FIELD_CACHE_SIZE
    assert Field.from_order(orders[1]) is fields[1]      # kept, now most recent
    rebuilt = Field.from_order(orders[0])               # least recent: evicted
    assert rebuilt is not fields[0] and rebuilt == fields[0]
    for table in ("add_table", "sub_table", "mul_table", "inv_table", "exp", "log"):
        assert np.array_equal(getattr(rebuilt, table), getattr(fields[0], table))
    assert Field.from_order(orders[1]) is fields[1]      # outlived orders[2]
    assert Field.from_order(orders[2]) is not fields[2]
    assert len(gf._FIELD_CACHE) == gf.FIELD_CACHE_SIZE


def test_cap_boundary_field_smoke():
    f = Field.from_order(1024)
    assert (f.p, f.m) == (2, 10)
    for a in (1, 2, 513, 1023):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1
    assert f.mul(3, 5) == slow_mul(f, 3, 5)


def test_is_prime():
    assert [n for n in range(2, 32) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
