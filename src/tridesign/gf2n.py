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
    tables are read-only int64 arrays: ``exp_np[k] = xi^k`` and
    ``zech_np[k]`` (``zech_np[0] = -1``) over 0..2^n - 2, and
    ``log_np[x]`` over 0..2^n - 1 (``log_np[0] = -1``).  That is 24 B
    per element, so n = 19 takes 12.6 MB and n = 25 0.8 GB; the cap
    is n = 28.  A field holds these three tables and nothing else: an
    array derived from them, such as gamma keys, lives with its caller.
    Scalar methods return Python ints; ``mul``, ``inv``, ``pow`` and
    ``log`` refuse an element outside 0..2^n - 1 (ValueError).
    """

    __slots__ = ("n", "poly", "order", "exp_np", "log_np", "zech_np")

    def __init__(self, n: int, poly: int, exp_np: np.ndarray,
                 log_np: np.ndarray, zech_np: np.ndarray):
        self.n = n
        self.poly = poly
        self.order = (1 << n) - 1
        for arr in (exp_np, log_np, zech_np):
            arr.setflags(write=False)
        self.exp_np = exp_np
        self.log_np = log_np
        self.zech_np = zech_np

    # -- element arithmetic -------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def _element(self, x: int) -> int:
        if not 0 <= x <= self.order:
            raise ValueError(f"{x} is not an element 0..{self.order} of GF(2^{self.n})")
        return x

    def mul(self, x: int, y: int) -> int:
        if self._element(x) * self._element(y) == 0:
            return 0
        return self.exp(int(self.log_np[x]) + int(self.log_np[y]))

    def inv(self, x: int) -> int:
        if self._element(x) == 0:
            raise ZeroDivisionError("zero element has no inverse")
        return self.exp(-int(self.log_np[x]))

    def pow(self, x: int, e: int) -> int:
        if self._element(x) == 0:
            return 1 if e == 0 else 0
        return self.exp(int(self.log_np[x]) * e)

    def log(self, x: int) -> int:
        if self._element(x) == 0:
            raise ZeroDivisionError("zero element has no logarithm")
        return int(self.log_np[x])

    def exp(self, k: int) -> int:
        return int(self.exp_np[k % self.order])

    def zech(self, k: int) -> int:
        """Zech logarithm: the exponent z with 1 + xi^k = xi^z."""
        k %= self.order
        if k == 0:
            raise ValueError("Zech undefined at 0: 1 + xi^0 = 0")
        return int(self.zech_np[k])

    # -- bulk views ----------------------------------------------------------

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


def _power_basis(val: int, n: int, poly: int, count: int) -> list[int]:
    """``count`` successive powers val, val*xi, ... of the LFSR step."""
    out = []
    for _ in range(count):
        out.append(val)
        val <<= 1
        if val >> n:
            val ^= poly
    return out


@lru_cache(maxsize=32)
def _build_field_cached(n: int, poly: int) -> FieldCtx:
    order = (1 << n) - 1
    exp = np.empty(order, dtype=np.int64)
    size = min(order, 2 * n)
    exp[:size] = _power_basis(1, n, poly, size)
    # Doubling blocks: exp[L:L+B] = xi^L * exp[:B], and multiplication by
    # xi^L is GF(2)-linear, the XOR of xi^(L+i) over the set bits i.
    while size < order:
        block = min(size, order - size)
        basis = _power_basis(int(exp[size - 1]), n, poly, n + 1)[1:]
        src, out = exp[:block], exp[size:size + block]
        out[:] = 0
        for i, b in enumerate(basis):
            out ^= ((src >> i) & 1) * b
        size += block
    if np.bincount(exp, minlength=order + 1).max() > 1:
        k = int(np.flatnonzero(exp[1:] == 1)[0]) + 1
        raise ValueError(f"polynomial {hex(poly)} is not primitive "
                         f"(power sequence repeats at step {k})")
    log = np.full(order + 1, -1, dtype=np.int64)
    log[exp] = np.arange(order, dtype=np.int64)
    # 1 XOR xi^k is nonzero for every k != 0, so Zech is total on 1..order-1.
    zech = log[1 ^ exp]
    return FieldCtx(n, poly, exp, log, zech)


@lru_cache(maxsize=32)
def _embed_subfield_cached(sub_key: tuple[int, int], big_key: tuple[int, int]) -> np.ndarray:
    sub = _build_field_cached(*sub_key)
    big = _build_field_cached(*big_key)
    m, n = sub.n, big.n
    if n % m:
        raise ValueError(f"no subfield of degree {m} in GF(2^{n})")
    # A field embedding sends the degree-m generator to a root of its
    # own polynomial inside the big field; roots live among the
    # elements of multiplicative order dividing 2^m - 1, xi^(g*j).
    g = big.order // sub.order
    j = np.arange(sub.order, dtype=np.int64)
    acc = np.zeros(j.size, dtype=np.int64)
    for i in range(m + 1):
        if sub.poly >> i & 1:
            acc ^= big.exp_np[(g * j * i) % big.order]
    roots = big.exp_np[(g * j[acc == 0]) % big.order]
    if roots.size == 0:
        raise ValueError("no root of subfield polynomial found; fields incompatible")
    table = np.zeros(1 << m, dtype=np.int64)
    e0 = big.log(int(roots.min()))
    table[sub.exp_np] = big.exp_np[(e0 * np.arange(sub.order)) % big.order]
    # sending generator -> same-minimal-polynomial root makes the map a
    # ring hom; spot-check additivity anyway (cheap for small m).
    if m <= 8:
        x = np.arange(1 << m)
        if (table[x[:, None] ^ x] != table[:, None] ^ table).any():
            raise AssertionError("subfield embedding is not additive")
    table.setflags(write=False)
    return table


def embed_subfield(sub: FieldCtx, big: FieldCtx) -> np.ndarray:
    """Field embedding GF(2^m) -> GF(2^n), m | n, as a lookup table.

    ``table[x]`` is the image of the m-bit vector x, a read-only int64
    array; the map is a ring homomorphism onto the unique subfield of
    order 2^m, deterministic (smallest root of the sub polynomial is
    chosen).
    """
    return _embed_subfield_cached((sub.n, sub.poly), (big.n, big.poly))
