"""GF(2^n) arithmetic backed by exp/log/Zech tables.

Field elements are integers whose bits are polynomial coefficients
(bit i = coefficient of x^i).  Addition is XOR; multiplication,
inversion, powers and discrete logarithms go through fully
materialized exp/log tables, so every operation after construction
is O(1).  The Zech table turns ``1 + xi^k`` into a single lookup,
which is what all the exponent-level machinery downstream runs on.

Default primitive polynomials, one per degree.  The entries for
n = 5, 6, 7, 12, 13, 19 are the ones the embedded datasets were
computed with; overriding them invalidates those datasets.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Primitive polynomial per degree, encoded as a coefficient bitmask
# (bit i = coefficient of x^i).
DEFAULT_POLYS: dict[int, int] = {
    1: 0b11,                      # x + 1
    2: 0b111,                     # x^2 + x + 1
    3: 0b1011,                    # x^3 + x + 1
    4: 0b10011,                   # x^4 + x + 1
    5: 0b100101,                  # x^5 + x^2 + 1
    6: 0b1011011,                 # x^6 + x^4 + x^3 + x + 1
    7: 0b10000011,                # x^7 + x + 1
    8: 0b100011101,               # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,              # x^9 + x^4 + 1
    10: 0b10000001001,            # x^10 + x^3 + 1
    11: 0b100000000101,           # x^11 + x^2 + 1
    12: 0b1000011101011,          # x^12 + x^7 + x^6 + x^5 + x^3 + x + 1
    13: 0b10000000011011,         # x^13 + x^4 + x^3 + x + 1
    14: 0b100000000101011,        # x^14 + x^5 + x^3 + x + 1
    15: 0b1000000000000011,       # x^15 + x + 1
    16: 0b10001000000001011,      # x^16 + x^12 + x^3 + x + 1
    17: 0b100000000000001001,     # x^17 + x^3 + 1
    18: 0b1000000000010000001,    # x^18 + x^7 + 1
    19: 0b10000000000000100111,   # x^19 + x^5 + x^2 + x + 1
    20: 0b100000000000000001001,  # x^20 + x^3 + 1
    21: 0b1000000000000000000101,
    22: 0b10000000000000000000011,
    23: 0b100000000000000000100001,
    24: 0b1000000000000000010000111,
    25: 0b10000000000000000000001001,
    26: 0b100000000000000000001000111,
    27: 0b1000000000000000000000100111,
    28: 0b10000000000000000000000001001,
}

MAX_DEGREE = 28


class FieldCtx:
    """A concrete GF(2^n): primitive polynomial plus exp/log/Zech tables.

    Immutable after construction; safe to share across threads.  The
    tables are fully materialized (three arrays of length 2^n - 1), so
    memory grows as ~3 * 2^n machine words: fine through n = 19-20,
    workable to n ~ 24 on a 16 GB machine, hard-capped at n = 28.
    """

    __slots__ = ("n", "poly", "order", "exp_table", "log_table",
                 "zech_table", "_np_cache")

    def __init__(self, n: int, poly: int, exp_table: list[int],
                 log_table: list[int], zech_table: list[int]):
        self.n = n
        self.poly = poly
        self.order = (1 << n) - 1
        self.exp_table = exp_table
        self.log_table = log_table
        self.zech_table = zech_table
        self._np_cache: dict[str, np.ndarray] = {}

    # -- element arithmetic -------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp_table[(self.log_table[x] + self.log_table[y]) % self.order]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero element has no inverse")
        return self.exp_table[(-self.log_table[x]) % self.order]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            return 1 if e == 0 else 0
        return self.exp_table[(self.log_table[x] * e) % self.order]

    def log(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero element has no logarithm")
        return self.log_table[x]

    def exp(self, k: int) -> int:
        return self.exp_table[k % self.order]

    def zech(self, k: int) -> int:
        """Zech logarithm: the exponent z with 1 + xi^k = xi^z."""
        k %= self.order
        if k == 0:
            raise ValueError("Zech undefined at 0: 1 + xi^0 = 0")
        return self.zech_table[k]

    # -- bulk views ----------------------------------------------------------

    def cached(self, name: str, build) -> np.ndarray:
        """The read-only array ``build(self)``, built once per field."""
        arr = self._np_cache.get(name)
        if arr is None:
            arr = build(self)
            arr.setflags(write=False)
            self._np_cache[name] = arr
        return arr

    def _np(self, name: str) -> np.ndarray:
        return self.cached(name, lambda ctx: np.asarray(
            getattr(ctx, name + "_table"), dtype=np.int64))

    @property
    def exp_np(self) -> np.ndarray:
        return self._np("exp")

    @property
    def log_np(self) -> np.ndarray:
        return self._np("log")

    @property
    def zech_np(self) -> np.ndarray:
        return self._np("zech")

    def mul_np(self, x, y) -> np.ndarray:
        """Elementwise (broadcast) product of two integer arrays."""
        x, y = np.asarray(x), np.asarray(y)
        log = self.log_np
        prod = self.exp_np[(log[x] + log[y]) % self.order]
        return np.where((x == 0) | (y == 0), 0, prod)

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, poly={hex(self.poly)})"


def build_field(n: int, poly: int | None = None) -> FieldCtx:
    """Construct GF(2^n) with all tables populated.

    ``poly`` must be a degree-n polynomial mask with constant term 1;
    it defaults to the entry in DEFAULT_POLYS.  Non-primitive
    polynomials are rejected when the power sequence repeats before
    running through all 2^n - 1 nonzero vectors.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} out of range 1..{MAX_DEGREE}")
    if poly is None:
        poly = DEFAULT_POLYS[n]
    if poly.bit_length() != n + 1:
        raise ValueError(f"polynomial {hex(poly)} does not have degree exactly {n}")
    if not poly & 1:
        raise ValueError(f"polynomial {hex(poly)} has zero constant term")
    return _build_field_cached(n, poly)


@lru_cache(maxsize=32)
def _build_field_cached(n: int, poly: int) -> FieldCtx:
    order = (1 << n) - 1
    high = 1 << n
    exp_table = [0] * order
    log_table = [-1] * (high)
    val = 1
    for k in range(order):
        if log_table[val] >= 0:
            raise ValueError(f"polynomial {hex(poly)} is not primitive "
                             f"(power sequence repeats at step {k})")
        exp_table[k] = val
        log_table[val] = k
        val <<= 1
        if val & high:
            val ^= poly
    if val != 1:
        raise ValueError(f"polynomial {hex(poly)} is not primitive")
    # 1 XOR xi^k is nonzero for every k != 0, so Zech is total on 1..order-1.
    zech_table = [-1] * order
    for k in range(1, order):
        zech_table[k] = log_table[1 ^ exp_table[k]]
    return FieldCtx(n, poly, exp_table, log_table, zech_table)


def zech(ctx: FieldCtx, k: int) -> int:
    return ctx.zech(k)


@lru_cache(maxsize=32)
def _embed_subfield_cached(sub_key: tuple[int, int], big_key: tuple[int, int]) -> tuple[int, ...]:
    sub = _build_field_cached(*sub_key)
    big = _build_field_cached(*big_key)
    m, n = sub.n, big.n
    if n % m:
        raise ValueError(f"no subfield of degree {m} in GF(2^{n})")
    # A field embedding sends the degree-m generator to a root of its
    # own polynomial inside the big field; roots live among the
    # elements of multiplicative order dividing 2^m - 1.
    g = big.order // sub.order
    root = None
    for j in range(1, sub.order):
        cand = big.exp_table[(g * j) % big.order]
        acc = 0
        p = sub.poly
        i = 0
        while p:
            if p & 1:
                acc ^= big.pow(cand, i)
            p >>= 1
            i += 1
        if acc == 0:
            if root is None or cand < root:
                root = cand
    if root is None:
        raise ValueError("no root of subfield polynomial found; fields incompatible")
    table = [0] * (1 << m)
    e0 = big.log_table[root]
    for k in range(sub.order):
        table[sub.exp_table[k]] = big.exp_table[(e0 * k) % big.order]
    # sending generator -> same-minimal-polynomial root makes the map a
    # ring hom; spot-check additivity anyway (cheap for small m).
    if m <= 8:
        for x in range(1 << m):
            tx = table[x]
            for y in range(x, 1 << m):
                if table[x ^ y] != tx ^ table[y]:
                    raise AssertionError("subfield embedding is not additive")
    return tuple(table)


def embed_subfield(sub: FieldCtx, big: FieldCtx) -> tuple[int, ...]:
    """Field embedding GF(2^m) -> GF(2^n), m | n, as a lookup table.

    ``table[x]`` is the image of the m-bit vector x; the map is a ring
    homomorphism onto the unique subfield of order 2^m, deterministic
    (smallest root of the sub polynomial is chosen).
    """
    return _embed_subfield_cached((sub.n, sub.poly), (big.n, big.poly))
