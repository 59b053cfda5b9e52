"""Exact arithmetic for rotation numbers.

Values are rationals or quadratic surds (a + b*sqrt(d))/c kept in a canonical
form, so floors, ceilings and comparisons are decided by integer arithmetic
alone.

Two constructors share one normalisation, `_normalise`: collapse b*sqrt(1)
and b == 0 to a rational, make c positive, divide out gcd(a, b, c).
- The public `ExactReal(a, b, c, d)` checks c and d and splits d into its
  square and squarefree parts (`_squarefree_split`) before normalising, so
  any positive radicand is accepted.
- The internal `_from_squarefree(a, b, c, d)` only normalises.  It requires
  c != 0 and d squarefree: arithmetic on canonical operands, `floor_mul`,
  `ceil_mul` and `ellipsoid.capacities` use it, because their radicand comes
  from a canonical value and splitting it again would find nothing.

There is no floating-point fast path: every predicate that matters
downstream (membership in a best-approximation set, a partition entry, an
index parity) must be exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f and f squarefree (n > 0)."""
    s, f = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    return s, f * n


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), for squarefree d (d == 1 needs b == 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 d (never equal: d squarefree > 1)
    if a * a > b * b * d:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


class ExactReal:
    """(a + b*sqrt(d))/c with c > 0, d squarefree, gcd(a, b, c) = 1.

    b == 0 (and then d == 1) is the rational case; b != 0 is a genuine
    quadratic surd and the value is irrational.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int = 0, c: int = 1, d: int = 1):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d <= 0:
            raise ValueError("radicand must be positive")
        if b != 0:
            s, f = _squarefree_split(d)
            b *= s
            d = f
        _normalise(self, a, b, c, d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q) -> "ExactReal":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator)

    @classmethod
    def sqrt(cls, n) -> "ExactReal":
        """Square root of a nonnegative rational."""
        n = Fraction(n)
        if n < 0:
            raise ValueError("negative radicand")
        if n == 0:
            return cls(0)
        # sqrt(p/q) = sqrt(p*q)/q
        return cls(0, 1, n.denominator, n.numerator * n.denominator)

    # -- predicates --------------------------------------------------------

    @property
    def is_irrational(self) -> bool:
        return self.b != 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("irrational value has no rational form")
        return Fraction(self.a, self.c)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "ExactReal":
        if isinstance(other, ExactReal):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactReal.from_fraction(other)
        return NotImplemented

    def _common_d(self, other: "ExactReal") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ValueError(
                f"cannot mix sqrt({self.d}) and sqrt({other.d}) exactly"
            )
        return self.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = self._common_d(o)
        a = self.a * o.c + o.a * self.c
        b = self.b * o.c + o.b * self.c
        return _from_squarefree(a, b, self.c * o.c, d)

    __radd__ = __add__

    def __neg__(self):
        return _from_squarefree(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = self._common_d(o)
        a = self.a * o.a + self.b * o.b * d
        b = self.a * o.b + self.b * o.a
        return _from_squarefree(a, b, self.c * o.c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError
        if o.b == 0:
            return _from_squarefree(self.a * o.c, self.b * o.c, self.c * o.a,
                                    self.d)
        d = self._common_d(o)
        # multiply by the conjugate: (a - b sqrt(d)) / ((a^2 - b^2 d)/c)
        norm = o.a * o.a - o.b * o.b * d  # nonzero: sqrt(d) irrational
        num = self * _from_squarefree(o.a, -o.b, 1, d)
        return _from_squarefree(num.a * o.c, num.b * o.c, num.c * norm, num.d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o / self

    # -- ordering ----------------------------------------------------------

    def _sign(self) -> int:
        """Exact sign of the value (c > 0, so the sign of a + b*sqrt(d))."""
        return _sign(self.a, self.b, self.d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        # a rational value hashes as the equal int or Fraction does
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __lt__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else (self - o)._sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else (self - o)._sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else (self - o)._sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else (self - o)._sign() >= 0

    # -- floors ------------------------------------------------------------

    def floor(self) -> int:
        a, b, c, d = self.a, self.b, self.c, self.d
        if b == 0:
            return a // c
        t = b * b * d
        root = isqrt(t) if b > 0 else -isqrt(t) - 1  # floor(b*sqrt(d)), exact
        return (a + root) // c

    def ceil(self) -> int:
        return -((-self).floor())

    def __float__(self) -> float:
        from math import sqrt

        return (self.a + self.b * sqrt(self.d)) / self.c

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{Fraction(self.a, self.c)}"
        core = f"{self.a}{self.b:+d}*sqrt({self.d})"
        return f"({core})/{self.c}" if self.c != 1 else f"({core})"


def _normalise(r: ExactReal, a: int, b: int, c: int, d: int) -> ExactReal:
    """Store the canonical form of (a + b*sqrt(d))/c in r (c != 0, d squarefree)."""
    if b == 0 or d == 1:
        a, b, d = a + b, 0, 1
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    r.a, r.b, r.c, r.d = a, b, c, d
    return r


def _from_squarefree(a: int, b: int, c: int, d: int) -> ExactReal:
    """ExactReal (a + b*sqrt(d))/c for c != 0 and squarefree d, unchecked.

    Skips `__init__`'s checks and radicand split; d must come from a
    canonical value (or be 1).
    """
    return _normalise(object.__new__(ExactReal), a, b, c, d)


def floor_mul(q: int, theta: ExactReal) -> int:
    """Exact floor(q * theta) for a positive integer q."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return _from_squarefree(theta.a * q, theta.b * q, theta.c, theta.d).floor()


def ceil_mul(q: int, theta: ExactReal) -> int:
    """Exact ceil(q * theta); equals floor_mul(q, theta) + 1 off the integers."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return _from_squarefree(theta.a * q, theta.b * q, theta.c, theta.d).ceil()


# -- text syntax ------------------------------------------------------------
#
# Grammar used across the CLI and the JSON documents:
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := '-' factor | INT | 'sqrt' '(' expr ')' | '(' expr ')'
# e.g.  "3/7", "sqrt(2)-1", "(0+1*sqrt(2))/1-1", "(1+1*sqrt(5))/2".


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ValueError(f"bad expression {self.text!r} at {self.pos}: {msg}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> ExactReal:
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self) -> ExactReal:
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            f = self.factor()
            v = v * f if op == "*" else v / f
        return v

    def factor(self) -> ExactReal:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch == "(":
            self.pos += 1
            v = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return v
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return ExactReal(int(self.text[start : self.pos]))
        if self.text.startswith("sqrt", self.pos):
            self.pos += 4
            if self.peek() != "(":
                self.error("expected '(' after sqrt")
            self.pos += 1
            v = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            if not v.is_rational:
                self.error("nested radicals are not supported")
            return ExactReal.sqrt(v.as_fraction())
        self.error("expected a number, sqrt(...) or '('")


def parse_real(text: str) -> ExactReal:
    """Parse the shared text syntax for exact reals."""
    p = _Parser(text)
    v = p.expr()
    if p.peek():
        p.error("trailing input")
    return v
