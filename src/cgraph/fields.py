"""Arithmetic over small finite fields GF(p^k) and 2x2 matrices over them.

A field element is its integer code: the base-p encoding of its coefficient
vector in polynomial basis (lowest degree first), so 0 is zero and 1 is one.
Each `FieldContext` holds the add, mul, neg and inverse tables over the codes.
The supported fields are the eight in `FIELDS`, which covers everything the
group catalog needs.
"""

from __future__ import annotations

from typing import NamedTuple

# q -> (p, k, monic irreducible reduction polynomial, lowest degree first,
# including the leading 1).  Unique up to isomorphism at these sizes.
FIELDS = {
    2: (2, 1, (0, 1)),
    3: (3, 1, (0, 1)),
    4: (2, 2, (1, 1, 1)),          # x^2 + x + 1
    5: (5, 1, (0, 1)),
    7: (7, 1, (0, 1)),
    8: (2, 3, (1, 1, 0, 1)),       # x^3 + x + 1
    9: (3, 2, (1, 0, 1)),          # x^2 + 1
    16: (2, 4, (1, 1, 0, 0, 1)),   # x^4 + x + 1
}


def _poly_mulmod(u, v, modulus, p):
    """u*v modulo a monic degree-k polynomial over GF(p), as k coefficients."""
    k = len(modulus) - 1
    raw = [0] * (2 * k - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            raw[i + j] += a * b
    for top in range(len(raw) - 1, k - 1, -1):
        factor = raw[top]
        for i, c in enumerate(modulus):
            raw[top - k + i] -= factor * c
    return [c % p for c in raw[:k]]


class FieldContext:
    """GF(p^k) with the reduction polynomial `FIELDS` lists; its elements are
    the codes 0..q-1."""

    zero = 0
    one = 1

    def __init__(self, p: int, k: int = 1):
        q = next((q for q, (fp, fk, _) in FIELDS.items() if (fp, fk) == (p, k)), None)
        if q is None:
            raise ValueError(f"unsupported field GF({p}^{k}); "
                             f"supported orders are {sorted(FIELDS)}")
        self.p, self.k, self.q = p, k, q
        modulus = FIELDS[q][2]
        vecs = [self.coeffs(x) for x in range(q)]
        self.add = tuple(tuple(self._encode((a + b) % p for a, b in zip(u, v))
                               for v in vecs) for u in vecs)
        self.neg = tuple(self._encode(-a % p for a in u) for u in vecs)
        self.mul = tuple(tuple(self._encode(_poly_mulmod(u, v, modulus, p))
                               for v in vecs) for u in vecs)
        # zero has no inverse, so it has no entry
        self.inv = {x: self.mul[x].index(1) for x in range(1, q)}

    def _encode(self, coeffs) -> int:
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def coeffs(self, code: int) -> tuple:
        """The coefficient vector of a code, lowest degree first."""
        out = []
        for _ in range(self.k):
            code, c = divmod(code, self.p)
            out.append(c)
        return tuple(out)

    def element(self, value) -> int:
        """The code of an int (reduced mod p in a prime field) or of a
        coefficient sequence."""
        if isinstance(value, int):
            if self.k == 1:
                return value % self.p
            if not 0 <= value < self.q:
                raise ValueError(f"element code {value} out of range for GF({self.q})")
            return value
        coeffs = tuple(c % self.p for c in value)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return self._encode(coeffs)

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self.q == other.q

    def __hash__(self):
        return hash(self.q)


class Mat2(NamedTuple):
    """A 2x2 matrix over `ctx` with field codes as entries (row major: a b / c d)."""

    ctx: FieldContext
    a: int
    b: int
    c: int
    d: int

    @classmethod
    def of(cls, ctx: FieldContext, a, b, c, d) -> "Mat2":
        return cls(ctx, *map(ctx.element, (a, b, c, d)))

    @classmethod
    def identity(cls, ctx: FieldContext) -> "Mat2":
        return cls(ctx, 1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        ctx = self.ctx
        if ctx != other.ctx:
            raise ValueError("field context mismatch")
        add, mul = ctx.add, ctx.mul
        return Mat2(
            ctx,
            add[mul[self.a][other.a]][mul[self.b][other.c]],
            add[mul[self.a][other.b]][mul[self.b][other.d]],
            add[mul[self.c][other.a]][mul[self.d][other.c]],
            add[mul[self.c][other.b]][mul[self.d][other.d]],
        )

    def det(self) -> int:
        mul = self.ctx.mul
        return self.ctx.add[mul[self.a][self.d]][self.ctx.neg[mul[self.b][self.c]]]

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"
