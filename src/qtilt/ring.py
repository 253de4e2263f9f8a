"""Exact arithmetic: quantum integers and the supported ground rings.

Everything in this module is integer or rational arithmetic; there is no
floating point anywhere.  Elements of a ground ring are kept in a canonical
``uniformizer-power times unit`` form, so equality of elements is structural
equality of the canonical data.

Supported ground rings:

* ``generic``   -- the field Q(v) of rational functions in v, q = v,
* ``cyc:l``     -- rational-coefficient Laurent polynomials in v localized at
  the l-th cyclotomic polynomial, q = v (a discrete valuation ring),
* ``int:p``     -- rationals with denominator coprime to the prime p, q = 1
  (a discrete valuation ring),
* ``rational``  -- the field Q with q = 1 (arises as the fraction field of
  ``int:p``).

All four are generic: the image of every nonzero quantum integer is nonzero.
This is certified at construction time by an explicit check up to a
configurable bound.

The Laurent kinds compute on dense integer polynomials (:mod:`qtilt.zpoly`):
a canonical unit is v**s * n / d with n, d in Z[v] coprime in Q[v], so one
rational content per element replaces Fraction coefficients.  Gcds are
GCDHEU with a primitive pseudo-remainder-sequence fallback, and sigma_l,
being monic, is divided out by exact integer division.  Because sigma_l is
irreducible over Q, the valuation rules out most of the canonicalization:
products and quotients of canonical elements never gain a factor sigma_l,
and a sum of elements of different valuations has the smaller one.  Only
sums of equal valuation, ``embed`` and parsing search for sigma_l.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from . import zpoly


class RingError(ValueError):
    """Arithmetic request that the ring cannot satisfy exactly."""


# ---------------------------------------------------------------------------
# Laurent polynomials over Q
# ---------------------------------------------------------------------------


def _frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _coeff(c):
    """Normalize a coefficient: integral values are stored as plain ints.

    Fraction(n) == n and hash(Fraction(n)) == hash(n), so the normalization
    is invisible to equality while keeping the hot polynomial loops on
    integer arithmetic.
    """
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial in v with rational coefficients.

    Stored as a sorted tuple of (exponent, coefficient) pairs; zero
    coefficients are never stored, so structural equality is semantic
    equality.
    """

    coeffs: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def from_dict(d: dict[int, Fraction | int]) -> "LaurentPoly":
        items = []
        for e, c in d.items():
            if c:
                items.append((int(e), _coeff(c)))
        return LaurentPoly(tuple(sorted(items)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise RingError("zero polynomial has no degree")
        return self.coeffs[0][0]

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise RingError("zero polynomial has no degree")
        return self.coeffs[-1][0]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return LaurentPoly.from_dict(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple([(e, -c) for e, c in self.coeffs]))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d: dict = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def scale(self, c: Fraction | int) -> "LaurentPoly":
        if not c:
            return LaurentPoly()
        return LaurentPoly(tuple((e, _coeff(a * c)) for e, a in self.coeffs))

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by v**e."""
        return LaurentPoly(tuple((x + e, c) for x, c in self.coeffs))

    def eval_one(self) -> Fraction:
        """Image under v -> 1."""
        return Fraction(sum(c for _, c in self.coeffs))

    def __str__(self) -> str:
        return format_laurent(self)

    __repr__ = __str__


def lp(d: dict[int, Fraction | int]) -> LaurentPoly:
    return LaurentPoly.from_dict(d)


LP_ZERO = LaurentPoly()
LP_ONE = lp({0: 1})
LP_V = lp({1: 1})


# Dense polynomial helpers.  A "poly" here is a list of Fractions indexed by
# degree, with a nonzero last entry (or the empty list for zero).


def _poly_trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _lp_to_poly(p: LaurentPoly) -> tuple[int, list]:
    """Split p = v**shift * P with P an ordinary polynomial, P(0) != 0."""
    if p.is_zero():
        return 0, []
    shift = p.min_exp
    out = [0] * (p.max_exp - shift + 1)
    for e, c in p.coeffs:
        out[e - shift] = c
    return shift, out


def _poly_to_lp(shift: int, a: list[Fraction]) -> LaurentPoly:
    return LaurentPoly.from_dict({shift + i: c for i, c in enumerate(a)})


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    unit_lead = lead == 1 or lead == -1
    inv_lead = lead if unit_lead else Fraction(1) / lead
    for i in range(len(a) - len(b), -1, -1):
        c = r[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(r)


def div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division in Q[v, 1/v]; raises RingError on a remainder."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LP_ZERO
    sa, pa = _lp_to_poly(a)
    sb, pb = _lp_to_poly(b)
    q, r = _poly_divmod(pa, pb)
    if r:
        raise RingError("non-exact Laurent polynomial division")
    return _poly_to_lp(sa - sb, q)


# ---------------------------------------------------------------------------
# Quantum integers, factorials and binomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def qint(n: int, d: int = 1) -> LaurentPoly:
    """The quantum integer [n]_d = (v**(d n) - v**(-d n)) / (v**d - v**(-d))."""
    if d <= 0:
        raise ValueError("d must be positive")
    if n == 0:
        return LP_ZERO
    if n < 0:
        return -qint(-n, d)
    return LaurentPoly.from_dict({d * (n - 1 - 2 * i): 1 for i in range(n)})


@lru_cache(maxsize=None)
def qfact(n: int, d: int = 1) -> LaurentPoly:
    """The quantum factorial [n]_d! for n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return LP_ONE
    return qfact(n - 1, d) * qint(n, d)


@lru_cache(maxsize=None)
def qbinom(n: int, r: int, d: int = 1) -> LaurentPoly:
    """The quantum binomial coefficient; n may be negative, r >= 0.

    Computed by the exact incremental quotient
    qbinom(n, r) = qbinom(n, r-1) * [n-r+1]_d / [r]_d; every division is
    exact in Z[v, 1/v], and a remainder indicates an arithmetic bug and
    raises RingError.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return LP_ONE
    return div_exact(qbinom(n, r - 1, d) * qint(n - r + 1, d), qint(r, d))


@lru_cache(maxsize=None)
def cyclotomic_poly(l: int) -> LaurentPoly:
    """The l-th cyclotomic polynomial as an ordinary polynomial in v."""
    if l < 1:
        raise ValueError("l must be >= 1")
    num = lp({l: 1}) - LP_ONE
    for m in range(1, l):
        if l % m == 0:
            num = div_exact(num, cyclotomic_poly(m))
    return num


# ---------------------------------------------------------------------------
# Ground rings
# ---------------------------------------------------------------------------


class RingKind(Enum):
    GENERIC_FIELD = "generic"
    RATIONAL_FIELD = "rational"
    CYCLOTOMIC_LOCAL = "cyc"
    INTEGER_LOCAL = "int"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class GroundRing:
    """A supported ground ring; every kind is a field or a DVR, and generic."""

    kind: RingKind
    param: int | None = None

    # -- structure -----------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in (RingKind.GENERIC_FIELD, RingKind.RATIONAL_FIELD)

    @property
    def is_dvr(self) -> bool:
        return not self.is_field

    @property
    def is_laurent(self) -> bool:
        """True when elements live in (a localization of) Q(v); else q = 1."""
        return self.kind in (RingKind.GENERIC_FIELD, RingKind.CYCLOTOMIC_LOCAL)

    def descriptor(self) -> str:
        if self.kind is RingKind.CYCLOTOMIC_LOCAL:
            return f"cyc:{self.param}"
        if self.kind is RingKind.INTEGER_LOCAL:
            return f"int:{self.param}"
        return self.kind.value

    def uniformizer_symbol(self) -> str:
        if self.kind is RingKind.CYCLOTOMIC_LOCAL:
            return "s"
        if self.kind is RingKind.INTEGER_LOCAL:
            return str(self.param)
        raise RingError(f"{self.descriptor()} has no uniformizer")

    def fraction_field(self) -> "GroundRing":
        if self.is_field:
            return self
        if self.kind is RingKind.CYCLOTOMIC_LOCAL:
            return GroundRing(RingKind.GENERIC_FIELD)
        return GroundRing(RingKind.RATIONAL_FIELD)

    # -- element constructors -------------------------------------------

    def zero(self) -> "RingElem":
        return RingElem(self, 0, None, None)

    def one(self) -> "RingElem":
        return self._one

    # A per-ring constant, built on first use.  A cached_property lives in
    # the instance dict, which frozen dataclasses leave writable, and costs
    # one dict lookup; an lru_cache keyed on the ring would hash the
    # dataclass (and its Enum field) in Python on every call.
    @cached_property
    def _one(self) -> "RingElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "RingElem":
        return self.from_fraction(Fraction(n))

    def from_fraction(self, f: Fraction | int) -> "RingElem":
        f = _frac(f)
        if self.is_laurent:
            if not f:
                return self.zero()
            # A nonzero constant is prime to every sigma_l (degree >= 1).
            return _finish(self, 0, 0, [f.numerator], [f.denominator])
        return _make_numeric(self, f)

    def from_laurent(self, p: LaurentPoly) -> "RingElem":
        return embed(p, self)

    def uniformizer(self) -> "RingElem":
        if self.kind is RingKind.CYCLOTOMIC_LOCAL:
            return RingElem(self, 1, LP_ONE, LP_ONE)
        if self.kind is RingKind.INTEGER_LOCAL:
            return _make_numeric(self, Fraction(self.param))
        raise RingError(f"{self.descriptor()} has no uniformizer")

    def q(self) -> "RingElem":
        """The image of v under the structural map."""
        return embed(LP_V, self)

    def __str__(self) -> str:
        return self.descriptor()


def parse_ring(descriptor: str) -> GroundRing:
    """Inverse of GroundRing.descriptor()."""
    if descriptor == "generic":
        return generic_field()
    if descriptor == "rational":
        return rational_field()
    m = re.fullmatch(r"cyc:(\d+)", descriptor)
    if m:
        return cyclotomic_local(int(m.group(1)))
    m = re.fullmatch(r"int:(\d+)", descriptor)
    if m:
        return integer_local(int(m.group(1)))
    raise RingError(f"unknown ring descriptor {descriptor!r}")


_GENERICITY_CERTIFIED: set[tuple[RingKind, int | None, int]] = set()


def _certify_generic(ring: GroundRing, bound: int) -> None:
    """Check that [n]_d maps to a nonzero element for 0 < |n| <= bound.

    All supported kinds are generic for every n, but the library refuses to
    hand out a ring without having run the certificate: a non-generic
    configuration would silently produce wrong module ranks downstream.
    """
    key = (ring.kind, ring.param, bound)
    if key in _GENERICITY_CERTIFIED:
        return
    for d in (1, 2, 3):
        for n in range(1, bound + 1):
            for m in (n, -n):
                if embed(qint(m, d), ring).is_zero():
                    raise RingError(
                        f"ring {ring.descriptor()} is not generic: "
                        f"quantum integer [{m}]_{d} maps to zero"
                    )
    _GENERICITY_CERTIFIED.add(key)


def generic_field() -> GroundRing:
    return GroundRing(RingKind.GENERIC_FIELD)


def rational_field() -> GroundRing:
    return GroundRing(RingKind.RATIONAL_FIELD)


def cyclotomic_local(l: int, genericity_bound: int = 24) -> GroundRing:
    if l < 1:
        raise RingError("cyclotomic index must be >= 1")
    ring = GroundRing(RingKind.CYCLOTOMIC_LOCAL, l)
    _certify_generic(ring, genericity_bound)
    return ring


def integer_local(p: int, genericity_bound: int = 24) -> GroundRing:
    if not _is_prime(p):
        raise RingError(f"{p} is not prime")
    ring = GroundRing(RingKind.INTEGER_LOCAL, p)
    _certify_generic(ring, genericity_bound)
    return ring


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingElem:
    """Element of a ground ring in canonical form.

    Nonzero elements are pi**k * u with k >= 0 (k = 0 over a field) and u a
    unit.  For the Laurent kinds the unit is a reduced fraction num/den of
    integer-coefficient Laurent polynomials: den has minimal exponent 0 and a
    positive lowest coefficient, the contents of num and den are coprime, and
    the uniformizer divides neither.  For the numeric kinds the unit is a
    plain Fraction with numerator and denominator coprime to p.

    Laurent-kind arithmetic works on the integer coefficient lists of num and
    den and keeps each result canonical with the least work the valuation
    allows: a product of two elements with den 1 is one polynomial product;
    other products and quotients cancel gcd(n1, d2) and gcd(n2, d1) (resp.
    gcd(n1, n2) and gcd(d1, d2)) as ``fractions.Fraction`` does, and never
    look for sigma_l, which is prime and divides no canonical num or den; a
    sum with k1 != k2 has valuation min(k1, k2) exactly, so only a sum with
    k1 == k2 divides out sigma_l.

    The zero element is flagged by ``num is None``.
    """

    ring: GroundRing
    k: int
    num: LaurentPoly | Fraction | None
    den: LaurentPoly | None

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num is None

    def is_unit(self) -> bool:
        return self.num is not None and self.k == 0

    def is_one(self) -> bool:
        return self == self.ring.one()

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "RingElem") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingError(f"mixed rings: {self.ring} vs {other.ring}")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check_ring(other)
        if self.num is None:
            return other
        if other.num is None:
            return self
        ring = self.ring
        if not ring.is_laurent:
            return _make_numeric(ring, self._q_value() + other._q_value())
        return _laurent_add(ring, self, other)

    def __neg__(self) -> "RingElem":
        if self.is_zero():
            return self
        if self.ring.is_laurent:
            return RingElem(self.ring, self.k, -self.num, self.den)
        return RingElem(self.ring, self.k, -self.num, None)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check_ring(other)
        if self.num is None or other.num is None:
            return self.ring.zero()
        ring = self.ring
        if not ring.is_laurent:
            return _make_numeric(ring, self._q_value() * other._q_value())
        return _laurent_mul(ring, self, other)

    def divide(self, other: "RingElem") -> "RingElem":
        """Exact division inside the ring; raises RingError when impossible."""
        self._check_ring(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_zero():
            return self
        ring = self.ring
        if self.k < other.k:
            raise RingError("quotient has negative valuation; not in the ring")
        if not ring.is_laurent:
            return _make_numeric(ring, self._q_value() / other._q_value())
        return _laurent_div(ring, self, other)

    __truediv__ = divide

    def inverse(self) -> "RingElem":
        if not self.is_unit():
            raise RingError("element is not a unit")
        return self.ring.one().divide(self)

    def __pow__(self, n: int) -> "RingElem":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def _q_value(self) -> Fraction:
        """The rational value pi**k * u for the numeric kinds."""
        if self.is_zero():
            return Fraction(0)
        if self.ring.kind is RingKind.INTEGER_LOCAL:
            return self.num * Fraction(self.ring.param) ** self.k
        return self.num

    # -- valuation and residue -------------------------------------------

    def valuation(self) -> int | float:
        """The discrete valuation; infinity for zero, 0 for field units."""
        if self.is_zero():
            return math.inf
        return self.k

    def __str__(self) -> str:
        return format_elem(self)

    __repr__ = __str__


def _dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """Split a nonzero integer-coefficient p as v**shift * P, P(0) != 0."""
    cs = p.coeffs
    lo, hi = cs[0][0], cs[-1][0]
    if len(cs) == hi - lo + 1:
        return lo, [c for _, c in cs]
    out = [0] * (hi - lo + 1)
    for e, c in cs:
        out[e - lo] = c
    return lo, out


def _sparse(shift: int, a) -> LaurentPoly:
    # tuple() of an exact-size list: a tuple built from a generator keeps
    # its over-allocated block, which shows in the peak memory of builds.
    return LaurentPoly(tuple([(shift + i, c) for i, c in enumerate(a) if c]))


_ONE_TERMS = LP_ONE.coeffs


@lru_cache(maxsize=None)
def _sigma_pow(l: int, m: int) -> tuple[int, ...]:
    """sigma_l**m as a dense coefficient tuple."""
    sigma = _dense(cyclotomic_poly(l))[1]
    out = [1]
    for _ in range(m):
        out = zpoly.mul(out, sigma)
    return tuple(out)


def _make_numeric(ring: GroundRing, f: Fraction) -> RingElem:
    if not f:
        return ring.zero()
    if ring.kind is RingKind.RATIONAL_FIELD:
        return RingElem(ring, 0, f, None)
    p = ring.param
    k = 0
    num, den = f.numerator, f.denominator
    while num % p == 0:
        num //= p
        k += 1
    kd = 0
    while den % p == 0:
        den //= p
        kd += 1
    k -= kd
    if k < 0:
        raise RingError(f"{f} has negative {p}-adic valuation; not in {ring}")
    return RingElem(ring, k, Fraction(num, den), None)


def _finish(ring: GroundRing, k: int, shift: int, n, d) -> RingElem:
    """The element pi**k * v**shift * n/d, for n and d coprime in Q[v] with
    d(0) != 0 and neither divisible by the uniformizer: divides out the common
    integer content and makes the lowest coefficient of d positive."""
    g = math.gcd(math.gcd(*n), math.gcd(*d))
    if d[0] < 0:
        g = -g
    if g != 1:
        n = [x // g for x in n]
        d = [x // g for x in d]
    den = LP_ONE if len(d) == 1 and d[0] == 1 else _sparse(0, d)
    return RingElem(ring, k, _sparse(shift, n), den)


def _sigma_divides(a, l: int) -> bool:
    """Whether sigma_l divides the polynomial a.

    sigma_l divides v**l - 1, so a is congruent to its fold modulo v**l - 1
    (l sums of slices, at C speed): only the short fold is divided.
    """
    folded = [sum(a[i::l]) for i in range(l)]
    return not any(folded) or zpoly.quo(folded, _sigma_pow(l, 1)) is not None


def _strip_sigma(n, l: int, k: int):
    """Move every factor sigma_l of n into the exponent k."""
    while _sigma_divides(n, l):
        n, k = zpoly.quo(n, _sigma_pow(l, 1)), k + 1
    return n, k


def _make_laurent(ring: GroundRing, num: LaurentPoly, den: LaurentPoly) -> RingElem:
    """Canonicalize num/den in a Laurent kind, coefficients int or Fraction:
    clear denominators, cancel the gcd, move every factor sigma_l of the
    numerator into k and refuse a denominator that sigma_l divides."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero")
    if num.is_zero():
        return ring.zero()
    sn, n = _lp_to_poly(num)
    sd, d = _lp_to_poly(den)
    m = math.lcm(*[c.denominator for c in n + d if isinstance(c, Fraction)])
    if m != 1:
        n = [c.numerator * (m // c.denominator) for c in map(Fraction, n)]
        d = [c.numerator * (m // c.denominator) for c in map(Fraction, d)]
    n, d = zpoly.cancel(n, d)
    k = 0
    if ring.kind is RingKind.CYCLOTOMIC_LOCAL:
        n, k = _strip_sigma(n, ring.param, 0)
        if _sigma_divides(d, ring.param):
            raise RingError(f"denominator divisible by the uniformizer; not in {ring}")
    return _finish(ring, k, sn - sd, n, d)


def _laurent_add(ring: GroundRing, x: RingElem, y: RingElem) -> RingElem:
    """x + y for nonzero x, y.

    With k1 != k2 the sum has valuation exactly min(k1, k2): one summand is
    a unit times pi**min and the other a multiple of pi**(min + 1), so
    nothing is stripped.  Only k1 == k2 can cancel into sigma_l.  The
    denominators follow Knuth's rule, as ``fractions.Fraction`` does: with
    g = gcd(d1, d2) the sum is t / (d1 d2 / g) with t = n1 d2/g + n2 d1/g,
    and only gcd(t, g) can still cancel.
    """
    s1, n1 = _dense(x.num)
    s2, n2 = _dense(y.num)
    k = min(x.k, y.k)
    if x.k != y.k:
        sigma_m = _sigma_pow(ring.param, abs(x.k - y.k))
        if x.k < y.k:
            n2 = zpoly.mul(n2, sigma_m)
        else:
            n1 = zpoly.mul(n1, sigma_m)
    if x.den.coeffs == _ONE_TERMS and y.den.coeffs == _ONE_TERMS:
        shift, t = zpoly.add(s1, n1, s2, n2)
        d = [1]
    else:
        d1, d2 = _dense(x.den)[1], _dense(y.den)[1]
        g = [1]
        if len(d1) > 1 and len(d2) > 1:
            g, d1, d2 = zpoly.gcd(d1, d2)
        shift, t = zpoly.add(s1, zpoly.mul(n1, d2), s2, zpoly.mul(n2, d1))
        t, g = zpoly.cancel(t, g)
        d = zpoly.mul(zpoly.mul(d1, d2), g)
    if not t:
        return ring.zero()
    if x.k == y.k and ring.kind is RingKind.CYCLOTOMIC_LOCAL:
        t, k = _strip_sigma(t, ring.param, k)
    return _finish(ring, k, shift, t, d)


def _laurent_mul(ring: GroundRing, x: RingElem, y: RingElem) -> RingElem:
    """x * y for nonzero x, y.

    sigma_l is prime in Q[v], so a product of numerators prime to it stays
    prime to it: no stripping and no denominator check.  With both
    denominators 1 the product n1 n2 is already canonical (Gauss's lemma
    keeps its content, the denominator keeps content 1).  Otherwise Henrici's
    cross-cancellation by gcd(n1, d2) and gcd(n2, d1) leaves a reduced
    fraction.
    """
    s1, n1 = _dense(x.num)
    s2, n2 = _dense(y.num)
    if x.den.coeffs == _ONE_TERMS and y.den.coeffs == _ONE_TERMS:
        return RingElem(ring, x.k + y.k, _sparse(s1 + s2, zpoly.mul(n1, n2)), LP_ONE)
    n1, d2 = zpoly.cancel(n1, _dense(y.den)[1])
    n2, d1 = zpoly.cancel(n2, _dense(x.den)[1])
    return _finish(ring, x.k + y.k, s1 + s2, zpoly.mul(n1, n2), zpoly.mul(d1, d2))


def _laurent_div(ring: GroundRing, x: RingElem, y: RingElem) -> RingElem:
    """x / y for nonzero x, y with x.k >= y.k: (n1 d2) / (d1 n2) after
    Henrici's cancellation by gcd(n1, n2) and gcd(d1, d2); as for products,
    no factor sigma_l can appear."""
    s1, n1 = _dense(x.num)
    s2, n2 = _dense(y.num)
    n1, n2 = zpoly.cancel(n1, n2)
    d1, d2 = zpoly.cancel(_dense(x.den)[1], _dense(y.den)[1])
    return _finish(ring, x.k - y.k, s1 - s2, zpoly.mul(n1, d2), zpoly.mul(d1, n2))


def embed(p: LaurentPoly, ring: GroundRing) -> RingElem:
    """Image of a Laurent polynomial under the structural homomorphism.

    For ``int:p`` and ``rational`` the polynomial is evaluated at v = 1; for
    the DVR kinds the uniformizer power is extracted into canonical form.
    """
    if ring.is_laurent:
        return _make_laurent(ring, p, LP_ONE)
    return _make_numeric(ring, p.eval_one())


def valuation(x: RingElem) -> int | float:
    return x.valuation()


def to_fraction_field(x: RingElem) -> RingElem:
    """Image of x under the flat map into the fraction field of its ring."""
    ring = x.ring
    fk = ring.fraction_field()
    if fk == ring:
        return x
    if x.is_zero():
        return fk.zero()
    if ring.kind is RingKind.CYCLOTOMIC_LOCAL:
        # sigma_l**k is primitive and prime to the denominator: still reduced.
        shift, n = _dense(x.num)
        n = zpoly.mul(n, _sigma_pow(ring.param, x.k))
        return _finish(fk, 0, shift, n, _dense(x.den)[1])
    return _make_numeric(fk, x._q_value())


# ---------------------------------------------------------------------------
# Residue fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueElem:
    """Element of the residue field of a DVR kind.

    ``int:p`` reduces to F_p (value: an int in [0, p)); ``cyc:l`` reduces to
    Q[v]/(sigma_l), represented by its coefficient tuple of length
    deg(sigma_l).
    """

    field: tuple[str, int]
    value: int | tuple[Fraction, ...]

    def is_zero(self) -> bool:
        if isinstance(self.value, int):
            return self.value == 0
        return all(not c for c in self.value)

    def _check(self, other: "ResidueElem") -> None:
        if self.field != other.field:
            raise RingError("mixed residue fields")

    def __add__(self, other: "ResidueElem") -> "ResidueElem":
        self._check(other)
        if isinstance(self.value, int):
            return ResidueElem(self.field, (self.value + other.value) % self.field[1])
        return ResidueElem(
            self.field, tuple(a + b for a, b in zip(self.value, other.value))
        )

    def __neg__(self) -> "ResidueElem":
        if isinstance(self.value, int):
            return ResidueElem(self.field, (-self.value) % self.field[1])
        return ResidueElem(self.field, tuple(-a for a in self.value))

    def __sub__(self, other: "ResidueElem") -> "ResidueElem":
        return self + (-other)

    def __mul__(self, other: "ResidueElem") -> "ResidueElem":
        self._check(other)
        if isinstance(self.value, int):
            return ResidueElem(self.field, (self.value * other.value) % self.field[1])
        l = self.field[1]
        _, sigma = _lp_to_poly(cyclotomic_poly(l))
        prod = _poly_mul(list(self.value), list(other.value))
        _, rem = _poly_divmod(prod, sigma)
        rem += [Fraction(0)] * (len(sigma) - 1 - len(rem))
        return ResidueElem(self.field, tuple(rem))

    @staticmethod
    def from_int(n: int, field: tuple[str, int]) -> "ResidueElem":
        if field[0] == "fp":
            return ResidueElem(field, n % field[1])
        deg = len(_lp_to_poly(cyclotomic_poly(field[1]))[1]) - 1
        return ResidueElem(field, tuple([Fraction(n)] + [Fraction(0)] * (deg - 1)))

    def __str__(self) -> str:
        if isinstance(self.value, int):
            return str(self.value)
        return format_laurent(_poly_to_lp(0, list(self.value)))

    __repr__ = __str__


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _reduce_mod_sigma(p: LaurentPoly, l: int) -> list[Fraction]:
    """Reduce a Laurent polynomial modulo sigma_l, using v**l = 1 mod sigma_l."""
    folded: dict[int, Fraction] = {}
    for e, c in p.coeffs:
        ee = e % l
        folded[ee] = folded.get(ee, Fraction(0)) + c
    dense = [Fraction(0)] * l
    for e, c in folded.items():
        dense[e] += c
    _, sigma = _lp_to_poly(cyclotomic_poly(l))
    _, rem = _poly_divmod(_poly_trim(dense), sigma)
    return rem


def _invert_mod_sigma(a: list[Fraction], l: int) -> list[Fraction]:
    """Inverse of a modulo sigma_l in Q[v] (extended Euclid)."""
    _, sigma = _lp_to_poly(cyclotomic_poly(l))
    r0, r1 = list(sigma), list(a)
    t0: list[Fraction] = []
    t1: list[Fraction] = [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_trim(
            [
                (t0[i] if i < len(t0) else Fraction(0)) - c
                for i, c in enumerate(_poly_mul(q, t1) + [Fraction(0)] * len(t0))
            ]
        )
    if len(r0) != 1:
        raise RingError("element not invertible modulo the cyclotomic polynomial")
    inv_lead = 1 / r0[0]
    return [c * inv_lead for c in t0]


def residue(x: RingElem) -> ResidueElem:
    """Image in the residue field; requires a DVR kind.

    Elements of positive valuation map to zero.  The residue field is F_p for
    ``int:p`` and the l-th cyclotomic field for ``cyc:l``.
    """
    ring = x.ring
    if not ring.is_dvr:
        raise RingError("residue is defined for DVR kinds only")
    if ring.kind is RingKind.INTEGER_LOCAL:
        p = ring.param
        if x.is_zero() or x.k > 0:
            return ResidueElem(("fp", p), 0)
        u: Fraction = x.num
        val = u.numerator * pow(u.denominator, -1, p) % p
        return ResidueElem(("fp", p), val)
    l = ring.param
    deg = len(_lp_to_poly(cyclotomic_poly(l))[1]) - 1
    if x.is_zero() or x.k > 0:
        return ResidueElem(("cyc", l), tuple([Fraction(0)] * deg))
    num_r = _reduce_mod_sigma(x.num, l)
    den_r = _reduce_mod_sigma(x.den, l)
    inv = _invert_mod_sigma(den_r, l)
    _, sigma = _lp_to_poly(cyclotomic_poly(l))
    _, rem = _poly_divmod(_poly_mul(num_r, inv), sigma)
    rem += [Fraction(0)] * (deg - len(rem))
    return ResidueElem(("cyc", l), tuple(rem))


# ---------------------------------------------------------------------------
# Textual element format
# ---------------------------------------------------------------------------
#
# The format is the one used by every serialization in this package, e.g.
# "s^1 * (v^-2*(v^2-v+1))" over cyc:3 or "5^1 * 1" over int:5, "0" for zero.
# Parsing is the exact inverse of printing.


def _term_str(e: int, c: Fraction) -> str:
    if e == 0:
        return str(c)
    vp = "v" if e == 1 else f"v^{e}"
    if c == 1:
        return vp
    if c == -1:
        return f"-{vp}"
    return f"{c}*{vp}"


def format_laurent(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    if len(p.coeffs) == 1:
        e, c = p.coeffs[0]
        return _term_str(e, c)
    m = p.min_exp
    body = p.shift(-m) if m else p
    parts: list[str] = []
    for e, c in reversed(body.coeffs):
        t = _term_str(e, c)
        if parts and not t.startswith("-"):
            parts.append("+" + t)
        else:
            parts.append(t)
    s = "".join(parts)
    if m:
        vp = "v" if m == 1 else f"v^{m}"
        return f"{vp}*({s})"
    return s


def _unit_str(x: RingElem) -> str:
    if not x.ring.is_laurent:
        return str(x.num)
    ns = format_laurent(x.num)
    if x.den == LP_ONE:
        return ns
    return f"({ns})/({format_laurent(x.den)})"


def format_elem(x: RingElem) -> str:
    if x.is_zero():
        return "0"
    unit = _unit_str(x)
    if x.k == 0:
        return unit
    if re.search(r"[+*/]", unit) or "-" in unit[1:]:
        unit = f"({unit})"
    return f"{x.ring.uniformizer_symbol()}^{x.k} * {unit}"


_TERM_RE = re.compile(
    r"(?P<coef>-?\d+(?:/\d+)?)(?:\*(?P<vp1>v(?:\^-?\d+)?))?$|(?P<sign>-?)(?P<vp2>v(?:\^-?\d+)?)$"
)


def _parse_vpow(s: str) -> int:
    if s == "v":
        return 1
    if not s.startswith("v^"):
        raise RingError(f"bad monomial {s!r}")
    return int(s[2:])


def _parse_laurent_sum(s: str) -> LaurentPoly:
    # Split into signed terms at top level; the printed form never nests
    # parentheses inside a sum.
    terms: list[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-^*/(":
            terms.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    terms.append(cur)
    out: dict[int, Fraction] = {}
    for t in terms:
        m = _TERM_RE.fullmatch(t)
        if not m:
            raise RingError(f"cannot parse term {t!r}")
        if m.group("vp2") is not None:
            e = _parse_vpow(m.group("vp2"))
            c = Fraction(-1 if m.group("sign") == "-" else 1)
        else:
            c = Fraction(m.group("coef"))
            e = _parse_vpow(m.group("vp1")) if m.group("vp1") else 0
        out[e] = out.get(e, Fraction(0)) + c
    return LaurentPoly.from_dict(out)


def parse_laurent(s: str) -> LaurentPoly:
    s = s.strip()
    if s == "0":
        return LP_ZERO
    m = re.fullmatch(r"(v(?:\^-?\d+)?)\*\((.*)\)", s)
    if m:
        return _parse_laurent_sum(m.group(2)).shift(_parse_vpow(m.group(1)))
    return _parse_laurent_sum(s)


def _parse_unit(s: str, ring: GroundRing) -> RingElem:
    s = s.strip()
    if not ring.is_laurent:
        return ring.from_fraction(Fraction(s))
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", s)
    if m:
        return _make_laurent(ring, parse_laurent(m.group(1)), parse_laurent(m.group(2)))
    return _make_laurent(ring, parse_laurent(s), LP_ONE)


def parse_elem(s: str, ring: GroundRing) -> RingElem:
    """Parse the textual element format; exact inverse of format_elem."""
    s = s.strip()
    if s == "0":
        return ring.zero()
    if ring.is_dvr:
        sym = re.escape(ring.uniformizer_symbol())
        m = re.fullmatch(rf"{sym}\^(\d+) \* (.*)", s)
        if m:
            k = int(m.group(1))
            body = m.group(2).strip()
            if body.startswith("(") and body.endswith(")"):
                inner = body[1:-1]
                # Strip the wrapping parens only when they enclose the whole
                # unit (they do for every printed element).
                try:
                    unit = _parse_unit(inner, ring)
                except RingError:
                    unit = _parse_unit(body, ring)
            else:
                unit = _parse_unit(body, ring)
            return unit * ring.uniformizer() ** k
    return _parse_unit(s, ring)
