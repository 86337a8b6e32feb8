"""Arithmetic over small finite fields GF(p^k) and 2x2 matrices over them.

Elements are stored in polynomial basis (coefficient vectors over GF(p),
lowest degree first).  Supported field orders are capped at 16, which covers
everything the group catalog needs: GF(2), GF(3), GF(4), GF(5), GF(7),
GF(8), GF(9) and GF(16).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_ORDER = 16

# Fixed monic irreducible reduction polynomials (lowest degree first,
# including the leading 1).  Unique up to isomorphism at these sizes.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


def _poly_mod(a, modulus, p):
    """The k low coefficients of a modulo a monic degree-k polynomial over GF(p)."""
    a = list(a)
    k = len(modulus) - 1
    for top in range(len(a) - 1, k - 1, -1):
        factor = a[top]
        for i, c in enumerate(modulus):
            a[top - k + i] = (a[top - k + i] - factor * c) % p
    return tuple(a[:k])


class FieldContext:
    """A concrete field GF(p^k) with a fixed reduction polynomial."""

    def __init__(self, p: int, k: int = 1):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"characteristic must be one of {SUPPORTED_PRIMES}, got {p}")
        if k < 1:
            raise ValueError("degree must be >= 1")
        if p ** k > MAX_ORDER:
            raise ValueError(f"field order {p}^{k} exceeds the cap of {MAX_ORDER}")
        self.p = p
        self.k = k
        self.modulus = (0, 1) if k == 1 else DEFAULT_MODULI[(p, k)]
        self._build_tables()

    @property
    def q(self) -> int:
        return self.p ** self.k

    def _encode(self, coeffs) -> int:
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def _decode(self, value: int):
        coeffs = []
        for _ in range(self.k):
            value, c = divmod(value, self.p)
            coeffs.append(c)
        return tuple(coeffs)

    def _build_tables(self):
        p, q = self.p, self.q
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        self._neg = [0] * q
        for x in range(q):
            cx = self._decode(x)
            self._neg[x] = self._encode(tuple((-c) % p for c in cx))
            for y in range(q):
                cy = self._decode(y)
                self._add[x][y] = self._encode(
                    tuple((a + b) % p for a, b in zip(cx, cy)))
                raw = [0] * (2 * self.k - 1)
                for i, a in enumerate(cx):
                    for j, b in enumerate(cy):
                        raw[i + j] = (raw[i + j] + a * b) % p
                self._mul[x][y] = self._encode(_poly_mod(raw, self.modulus, p))
        self._inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if self._mul[x][y] == self._encode((1,) + (0,) * (self.k - 1)):
                    self._inv[x] = y
                    break

    def element(self, value) -> "FieldElement":
        """Build an element from an int code or a coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise ValueError("element belongs to a different field context")
            return value
        if isinstance(value, int):
            if self.k == 1:
                return FieldElement(self, value % self.p)
            if not 0 <= value < self.q:
                raise ValueError(f"element code {value} out of range for GF({self.q})")
            return FieldElement(self, value)
        coeffs = tuple(c % self.p for c in value)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, self._encode(coeffs))

    @cached_property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @cached_property
    def one(self) -> "FieldElement":
        return FieldElement(self, self._encode((1,) + (0,) * (self.k - 1)))

    def elements(self):
        return [FieldElement(self, v) for v in range(self.q)]

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (isinstance(other, FieldContext)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))


@dataclass(frozen=True)
class FieldElement:
    """A field element; `code` is the base-p encoding of its coefficient vector."""

    ctx: FieldContext
    code: int

    @property
    def coeffs(self):
        return self.ctx._decode(self.code)

    def _check(self, other: "FieldElement"):
        if self.ctx != other.ctx:
            raise ValueError("field context mismatch")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.ctx._add[self.code][other.code])

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx._neg[self.code])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.ctx._mul[self.code][other.code])

    def inv(self) -> "FieldElement":
        if self.code == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return FieldElement(self.ctx, self.ctx._inv[self.code])

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return str(self.code)


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix over a shared field context (row major: a b / c d)."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement

    @classmethod
    def of(cls, ctx: FieldContext, a, b, c, d) -> "Mat2":
        return cls(ctx.element(a), ctx.element(b), ctx.element(c), ctx.element(d))

    @classmethod
    def identity(cls, ctx: FieldContext) -> "Mat2":
        return cls(ctx.one, ctx.zero, ctx.zero, ctx.one)

    @property
    def ctx(self) -> FieldContext:
        return self.a.ctx

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.ctx != other.ctx:
            raise ValueError("field context mismatch")
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def inv(self) -> "Mat2":
        det = self.det()
        if not det:
            raise ValueError("matrix is singular")
        f = det.inv()
        return Mat2(f * self.d, -(f * self.b), -(f * self.c), f * self.a)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"
