"""Exact arithmetic in GF(p^m) for q = p^m up to 1024.

Elements are plain ints in range(q): the polynomial-basis digit vector
(c0, c1, ..., c_{m-1}) is read as the base-p integer sum(ci * p**i), so 0 and
1 are always the additive and multiplicative identities and prime fields look
like ordinary residues.  A Field instance owns dense int16 numpy lookup tables
for add/sub/mul/inv and the exp/log of its smallest primitive element, which
is what lets the matrix layer and the distance oracle run as fancy indexing
instead of per-element Python.  The tables are built by whole-array steps
(see Field._build_tables): gf(1024) takes about 20 ms.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_ORDER = 1024


class FieldError(ValueError):
    """Base class for field construction and lookup problems."""


class NonPrimeError(FieldError):
    """Characteristic is not prime (or the order is not a prime power)."""


class ReducibleModulusError(FieldError):
    """Proposed modulus polynomial is not irreducible over GF(p)."""


class UnsupportedSizeError(FieldError):
    """Field order exceeds the supported cap MAX_ORDER."""


class FieldMismatchError(FieldError):
    """Two operands belong to different fields."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, ascending degree
# ---------------------------------------------------------------------------

def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a mod b over GF(p).  b must have invertible lead."""
    r = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        f = (r[-1] * lead_inv) % p
        shift = len(r) - 1 - db
        for i, c in enumerate(b):
            r[shift + i] = (r[shift + i] - f * c) % p
    while r and r[-1] == 0:
        r.pop()
    return r


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    m = len(poly) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for idx in range(p**d):
            div = [(idx // p**i) % p for i in range(d)] + [1]
            if not _poly_mod(list(poly), div, p):
                return False
    return True


def _monic_modulus(p: int, m: int, modulus: Sequence[int]) -> tuple[int, ...]:
    """modulus reduced mod p; raises unless it is monic of degree m."""
    modulus = tuple(int(c) % p for c in modulus)
    if len(modulus) != m + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {m}, got {modulus}")
    return modulus


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m, by ascending digit index.

    Deterministic, so every process agrees on the representation of a given
    GF(p^m).  For GF(4) this yields x^2+x+1 and for GF(8) x^3+x+1, the two
    moduli the worked examples in the test-suite assume.
    """
    if m == 1:
        return (0, 1)
    for idx in range(p**m):
        cand = tuple((idx // p**i) % p for i in range(m)) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise ReducibleModulusError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Field:
    """GF(p^m) with dense lookup tables; elements are ints in range(q).

    Attributes:
        p, m, q: characteristic, extension degree, order.
        modulus: monic degree-m polynomial, ascending coefficients; (0, 1)
            whenever m = 1, as every x + c gives GF(p) the same arithmetic.
        add_table, sub_table, mul_table: (q, q) int16 arrays.
        inv_table: (q,) int16 array; entry 0 is 0 (linalg.eliminate needs it).
        exp, log: discrete exp/log w.r.t. the smallest primitive element.
    """

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise NonPrimeError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > MAX_ORDER:
            raise UnsupportedSizeError(f"q = {q} exceeds the supported cap {MAX_ORDER}")
        if modulus is None:
            modulus = default_modulus(p, m)
        else:
            modulus = _monic_modulus(p, m, modulus)
            if m > 1 and not _poly_is_irreducible(modulus, p):
                raise ReducibleModulusError(f"modulus {modulus} is reducible over GF({p})")
            if m == 1:
                # every x + c gives GF(p) the same residues and tables
                modulus = default_modulus(p, 1)
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(modulus)
        self._hash = hash((p, m, self.modulus))    # a key of every subset cache
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _build_tables(self) -> None:
        """Fill every table by whole-array numpy steps, none per element.

        add/sub: the table over p^(j+1) elements is the table over p^j
        elements broadcast against the p x p digit table, one step per digit.
        exp: "multiply by x" is one map over all q digit vectors; multiplying
        by a candidate c is the GF(p)-combination of the maps for x^0..x^(m-1)
        weighted by c's digits.  The primitive element is the smallest c
        whose walk from 1 has length q - 1, and that walk, built by doubling,
        is exp.  mul reads a Hankel view of the doubled exp, so log[a] +
        log[b] needs no reduction mod q - 1.
        """
        p, m, q = self.p, self.m, self.q
        vals = np.arange(q)
        pvec = p ** np.arange(m)
        digits = vals[:, None] // pvec % p

        # plus[i, j] = (i + j) % p, a view; minus[i, j] = plus[i, -j % p]
        plus = sliding_window_view(np.arange(2 * p - 1, dtype=np.int16) % p, p)
        minus = plus[:, -np.arange(p) % p]

        def digitwise(op: np.ndarray) -> np.ndarray:
            t = op
            for _ in range(m - 1):
                s = len(t)
                t = (t[None, :, None, :] + s * op[:, None, :, None]).reshape(s * p, s * p)
            return np.ascontiguousarray(t)

        add = digitwise(plus)
        sub = digitwise(minus)

        # x * (c0..c_{m-1}) = (0, c0..c_{m-2}) - c_{m-1} * (lower modulus)
        shifted = np.roll(digits, 1, axis=1)
        shifted[:, 0] = 0
        times_x = (shifted - digits[:, -1:] * self.modulus[:m]) % p @ pvec
        x_powers = [vals]                     # the maps a -> x^i * a
        for _ in range(m - 1):
            x_powers.append(times_x[x_powers[-1]])
        basis = digits[np.array(x_powers)].transpose(1, 0, 2)   # (q, m, m)

        for gen in range(1, q):
            times_c = digits[gen] @ basis % p @ pvec
            walk = np.ones(1, dtype=np.intp)
            while len(walk) < q - 1:          # append c^(2^k) * walk, square
                walk = np.concatenate([walk, times_c[walk]])
                times_c = times_c[times_c]
            walk = walk[:q - 1]
            if not (walk[1:] == 1).any():
                break
        exp = walk.astype(np.int16)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)

        # hankel[i, j] = exp[(i + j) % (q - 1)], a view of the doubled exp
        hankel = sliding_window_view(np.concatenate([exp, exp]), q - 1)
        mul = np.zeros((q, q), dtype=np.int16)
        mul[1:, 1:] = hankel[log[1:]][:, log[1:]]
        inv = np.zeros(q, dtype=np.int16)
        inv[1:] = exp[-log[1:]]
        digits = digits.astype(np.int16)

        for t in (add, sub, mul, inv, exp, log, digits):
            t.flags.writeable = False
        self.add_table = add
        self.sub_table = sub
        self.mul_table = mul
        self.inv_table = inv
        self.neg_table = sub[0].copy()
        self.neg_table.flags.writeable = False
        self.exp = exp
        self.log = log
        self._digits = digits
        self._primitive = gen

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild from parameters instead of shipping the tables around
        return (Field.from_order, (self.q, self.modulus if self.m > 1 else None))

    def __repr__(self) -> str:
        return f"Field({self.spec_string()})"

    def spec_string(self) -> str:
        """Canonical parseable form, e.g. "gf(7)" or "gf(2^3):1,1,0,1"."""
        if self.m == 1:
            return f"gf({self.p})"
        mod = ",".join(str(c) for c in self.modulus)
        return f"gf({self.p}^{self.m}):{mod}"

    # -- scalar arithmetic ---------------------------------------------------

    def check(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element index of {self.spec_string()}")
        return a

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.spec_string()}")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        # 0^0 = 1 so evaluation rows alpha^0 are all ones even when 0 is a node
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError(f"0 to a negative power in {self.spec_string()}")
            return 0
        return int(self.exp[(int(self.log[a]) * e) % (self.q - 1)])

    def elements(self) -> range:
        """All q elements in canonical order (digit vectors read base-p)."""
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis digit vector (c0, ..., c_{m-1}) of a."""
        return tuple(int(c) for c in self._digits[self.check(a)])

    def from_coeffs(self, digits: Iterable[int]) -> int:
        ds = list(digits)
        if len(ds) > self.m:
            raise ValueError(f"digit vector longer than degree {self.m}: {ds}")
        a = 0
        for i, d in enumerate(ds):
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
                raise ValueError(f"digit {d!r} is not an integer")
            d = int(d)
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} out of range [0, {self.p})")
            a += d * self.p**i
        return a

    def primitive_element(self) -> int:
        """Smallest element in canonical order generating the unit group."""
        return self._primitive

    # -- parsing and display -------------------------------------------------

    def parse_element(self, value: int | str | Sequence[int]) -> int:
        """Accepts an element index, a digit vector, or power notation "g^i".

        Ints are canonical indices (reduced mod p in a prime field, where the
        index is the residue); sequences are digit vectors; "g" is the
        primitive element returned by primitive_element().
        """
        if isinstance(value, str):
            s = value.strip()
            m = re.fullmatch(r"g(?:\^(-?\d+))?", s)
            if m:
                e = int(m.group(1)) if m.group(1) is not None else 1
                return self.pow(self._primitive, e)
            try:
                value = int(s)
            except ValueError:
                raise ValueError(f"cannot parse {value!r} as an element of {self.spec_string()}") from None
        if isinstance(value, (int, np.integer)):
            v = int(value)
            if self.m == 1:
                return v % self.p
            return self.check(v)
        return self.from_coeffs(value)

    def format_element(self, a: int, style: str = "auto") -> str:
        """Render a as "index", "power" ("g^i"), or "digits" notation."""
        a = self.check(a)
        if style == "auto":
            style = "index" if self.m == 1 else "power"
        if style == "index":
            return str(a)
        if style == "power":
            if a == 0:
                return "0"
            if a == 1:
                return "1"
            e = int(self.log[a])
            return "g" if e == 1 else f"g^{e}"
        if style == "digits":
            return "(" + ",".join(str(c) for c in self.coeffs(a)) + ")"
        raise ValueError(f"unknown element style {style!r}")

    # -- factories -----------------------------------------------------------

    @staticmethod
    def from_order(q: int, modulus: Sequence[int] | None = None) -> "Field":
        if q > MAX_ORDER:                     # before factoring, which is slow
            raise UnsupportedSizeError(f"q = {q} exceeds the supported cap {MAX_ORDER}")
        p, m = _factor_prime_power(q)
        if modulus is not None and m == 1:
            _monic_modulus(p, 1, modulus)     # then drop it: see __init__
            modulus = None
        key = (p, m, tuple(modulus) if modulus is not None else None)
        f = _FIELD_CACHE.pop(key, None) or Field(p, m, modulus)
        _FIELD_CACHE[key] = f                 # most recently used last
        if len(_FIELD_CACHE) > FIELD_CACHE_SIZE:
            del _FIELD_CACHE[next(iter(_FIELD_CACHE))]
        return f


# least recently used first; the bound holds the seven fields of `verify all`
_FIELD_CACHE: dict[tuple, Field] = {}
FIELD_CACHE_SIZE = 8

_FIELD_RE = re.compile(r"gf\((\d+)(?:\^(\d+))?\)(?::([0-9,]+))?", re.IGNORECASE)


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NonPrimeError(f"{q} is not a prime power")
    p = q
    for f in range(2, int(q**0.5) + 1):
        if q % f == 0:
            p = f
            break
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise NonPrimeError(f"{q} is not a prime power")
    return p, m


def parse_field(text: str) -> Field:
    """Parse "gf(q)", "gf(p^m)", optionally ":c0,c1,...,cm" for the modulus."""
    m = _FIELD_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse field spec {text!r}")
    q = base = int(m.group(1))
    if m.group(2) is not None:
        e = int(m.group(2))
        if base > 1 and e >= MAX_ORDER.bit_length():  # so base^e > MAX_ORDER
            raise UnsupportedSizeError(f"q = {base}^{e} exceeds the supported cap {MAX_ORDER}")
        q = base ** e
        if 1 < q <= MAX_ORDER and not is_prime(base):
            raise NonPrimeError(f"characteristic {base} is not prime")
    modulus = None
    if m.group(3) is not None:
        modulus = tuple(int(c) for c in m.group(3).split(","))
    return Field.from_order(q, modulus)
