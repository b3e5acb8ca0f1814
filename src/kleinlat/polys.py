"""Polynomial arithmetic over GF(2).

Coefficients are stored low to high as a tuple of 0/1 ints with no trailing
zeros, so the zero polynomial is the empty tuple.  Tube labels only ever use
monic polynomials, but the arithmetic here is general.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .checks import ensure
from .f2 import F2Matrix


class F2Poly:
    """Polynomial over GF(2), immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = [int(x) & 1 for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("F2Poly is immutable")

    @staticmethod
    def zero() -> "F2Poly":
        return F2Poly(())

    @staticmethod
    def one() -> "F2Poly":
        return F2Poly((1,))

    @staticmethod
    def t() -> "F2Poly":
        return F2Poly((0, 1))

    @staticmethod
    def from_string(s: str) -> "F2Poly":
        """Parse forms like "t^2+t+1", "t3+t+1" or a 0/1 coefficient string."""
        s = s.replace(" ", "").replace("**", "^")
        if not s:
            raise ValueError("empty polynomial")
        if set(s) <= {"0", "1"}:
            return F2Poly([int(ch) for ch in s])
        coeffs: dict[int, int] = {}
        for term in s.split("+"):
            if term in ("1",):
                d = 0
            elif term == "t":
                d = 1
            elif term.startswith("t^"):
                d = int(term[2:])
            elif term.startswith("t"):
                d = int(term[1:])
            else:
                raise ValueError(f"bad term {term!r}")
            coeffs[d] = coeffs.get(d, 0) ^ 1
        deg = max(coeffs) if coeffs else 0
        return F2Poly([coeffs.get(i, 0) for i in range(deg + 1)])

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, F2Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("F2Poly", self.coeffs))

    def __lt__(self, other: "F2Poly"):
        return (self.degree(), self.coeffs[::-1]) < (other.degree(), other.coeffs[::-1])

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                terms.append("1" if i == 0 else ("t" if i == 1 else f"t^{i}"))
        return "+".join(terms)

    def __repr__(self):
        return f"F2Poly({str(self)})"

    def __add__(self, other: "F2Poly") -> "F2Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return F2Poly([x ^ (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __sub__ = __add__

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        if self.is_zero() or other.is_zero():
            return F2Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] ^= b
        return F2Poly(out)

    def __pow__(self, e: int) -> "F2Poly":
        if e < 0:
            raise ValueError("negative exponent")
        out = F2Poly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def divmod(self, other: "F2Poly") -> tuple["F2Poly", "F2Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree()
        if self.degree() < d:
            return F2Poly.zero(), self
        quo = [0] * (self.degree() - d + 1)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                quo[i - d] = 1
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] ^= b
        return F2Poly(quo), F2Poly(rem)

    def __mod__(self, other: "F2Poly") -> "F2Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "F2Poly") -> "F2Poly":
        return self.divmod(other)[0]

    def gcd(self, other: "F2Poly") -> "F2Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a

    def compose_frac(self, num: "F2Poly", den: "F2Poly") -> "F2Poly":
        """den^deg * f(num/den), the homogenized substitution."""
        d = self.degree()
        if d < 0:
            return F2Poly.zero()
        out = F2Poly.zero()
        for i, c in enumerate(self.coeffs):
            if c:
                out = out + (num ** i) * (den ** (d - i))
        return out

    def is_irreducible(self) -> bool:
        """Rabin's test specialized to GF(2)."""
        d = self.degree()
        if d <= 0:
            return False
        if d == 1:
            return True
        if self.coeffs[0] == 0:  # divisible by t
            return False
        t = F2Poly.t()
        # t^(2^d) == t mod f
        if _frob_power(self, d) != t % self:
            return False
        for p in _prime_divisors(d):
            if _frob_power(self, d // p).gcd_shift(self):
                return False
        return True

    def gcd_shift(self, f: "F2Poly") -> bool:
        """True when gcd(self - t, f) is non-constant (helper for Rabin)."""
        g = (self + F2Poly.t()).gcd(f)
        return g.degree() >= 1

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def _frob_power(f: F2Poly, k: int) -> F2Poly:
    """t^(2^k) mod f by repeated squaring."""
    out = F2Poly.t() % f
    for _ in range(k):
        out = (out * out) % f
    return out


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def irreducibles_of_degree(d: int) -> tuple[F2Poly, ...]:
    """All monic irreducible polynomials of the given degree over GF(2)."""
    out = []
    for mask in range(1 << d):
        coeffs = [(mask >> i) & 1 for i in range(d)] + [1]
        f = F2Poly(coeffs)
        if f.is_irreducible():
            out.append(f)
    return tuple(sorted(out, key=lambda p: p.coeffs))


def companion_matrix(f: F2Poly) -> F2Matrix:
    """Companion matrix of a monic polynomial over GF(2).

    Ones on the subdiagonal; the last column carries the low-to-high
    coefficients, so t+1 -> [1] and t^2+t+1 -> [[0,1],[1,1]].
    """
    if not f.is_monic():
        raise ValueError("companion matrix needs a monic polynomial")
    d = f.degree()
    m = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        m[i + 1][i] = 1
    for i in range(d):
        m[i][d - 1] = f.coeffs[i]
    return F2Matrix(m, cols=d)


def char_poly(A: F2Matrix) -> F2Poly:
    """Characteristic polynomial of a square matrix over GF(2).

    Computed as det(tI + A) by fraction-free elimination over GF(2)[t].
    """
    n = A.rows
    if n != A.cols:
        raise ValueError("not square")
    if n == 0:
        return F2Poly.one()
    m = [[F2Poly((x,)) for x in r] for r in A.data]
    t = F2Poly.t()
    for i in range(n):
        m[i][i] = m[i][i] + t
    prev = F2Poly.one()
    for k in range(n - 1):
        # Bareiss pivots here are leading principal minors of tI + A, which
        # are monic of positive degree, hence never zero.
        ensure(not m[k][k].is_zero(), "a Bareiss pivot of tI + A is zero")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] + m[i][k] * m[k][j]
                q, r = num.divmod(prev)
                ensure(r.is_zero(), "a Bareiss division left a remainder")
                m[i][j] = q
            m[i][k] = F2Poly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1]


def primary_decomposition(f: F2Poly):
    """Write f as a product of irreducible powers; returns [(g, e)]."""
    out = []
    rem = f
    d = 1
    while rem.degree() > 0:
        ensure(d <= rem.degree(), "factorization ran away")
        for g in irreducibles_of_degree(d):
            e = 0
            while (rem % g).is_zero():
                rem = rem // g
                e += 1
            if e:
                out.append((g, e))
        d += 1
    return out
