"""Exact arithmetic: quantum integers and the supported ground rings.

Everything in this module is integer arithmetic; rationals only enter, by
``from_fraction`` and parsed text, and there is no floating point anywhere.
Elements of a ground ring are kept in a canonical ``uniformizer-power times
unit`` form, so equality of elements is structural equality of the data.

Supported ground rings:

* ``generic``   -- the field Q(v) of rational functions in v, q = v,
* ``cyc:l``     -- rational-coefficient Laurent polynomials in v localized at
  the l-th cyclotomic polynomial sigma_l, q = v (a discrete valuation ring
  with uniformizer sigma_l),
* ``int:p``     -- rationals with denominator coprime to the prime p, q = 1
  (a discrete valuation ring with uniformizer p),
* ``rational``  -- the field Q with q = 1 (arises as the fraction field of
  ``int:p``).

All four are generic: each is a subring of Q(v) or of Q, and a quantum
integer [n]_d with n != 0 is nonzero in Q(v) and maps to n at q = 1.

Every kind stores its elements alike, as pi**k * v**s * n / d in plain
fields, with n and d dense integer coefficient tuples (the layout of
:mod:`qtilt.zpoly`, whose arithmetic they use); over ``int:p`` and
``rational`` n and d are constants.  A canonical unit is v**s * n / d with
n, d in Z[v] coprime in Q[v]: one rational content per element, and no
coefficient anywhere is a Fraction.  Gcds are GCDHEU with a
primitive pseudo-remainder-sequence fallback, and the uniformizer pi (the
monic sigma_l or the prime p) is divided out by exact integer division.
Because pi is prime (sigma_l is irreducible over Q, p is prime in Z), the
valuation rules out most of the canonicalization: products and quotients of
canonical elements never gain a factor pi, and a sum of elements of
different valuations has the smaller one.  Only sums of equal valuation,
``from_fraction``, ``embed`` and parsing search for pi.  The kinds differ
only where q does: ``embed`` evaluates at v = 1 when q = 1, and a unit of
``int:p`` or ``rational`` prints as ``a`` or ``a/b``.

Operations on constants run on Python integers, as ``fractions.Fraction``
does, and build the canonical element directly, with no zpoly call.  The
path is chosen by the shape of the operands: num and den of both are single
integers, which holds for every element of ``int:p`` and ``rational`` and
for constant units of ``cyc:l`` and ``generic``.  Products and quotients
cross-cancel (Henrici) and move a negative divisor's sign to the numerator;
sums follow Knuth's gcd rule, and over ``int:p`` a sum of equal valuation
strips p by ``while t % p == 0``.  The results keep the canonical
invariants: a/b reduced, b > 0, p dividing neither, and shift 0 over
``int:p``.  Two sums of constants take the polynomial path: different
shifts, and different valuations over ``cyc:l``, where sigma_l**j is not a
constant.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from . import zpoly


class RingError(ValueError):
    """Arithmetic request that the ring cannot satisfy exactly."""


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class LaurentPoly:
    """Laurent polynomial in v with integer coefficients.

    Stored in the dense layout of :mod:`qtilt.zpoly`: the value is
    v**shift * (c[0] + c[1]*v + ...) with c[0] and c[-1] nonzero ints, and
    zero is shift 0 with c == ().  So structural equality is semantic
    equality, and the arithmetic hands ``c`` to zpoly as it is.  These are
    the quantum integers and binomials, the argument of ``embed`` and the
    parsed parts of element text; a ring element stores its own integer
    tuples, not LaurentPolys.

    Immutable by contract, not by ``frozen=True``, as RingElem is: a frozen
    dataclass stores each field through ``object.__setattr__``.  Never
    assign a field.
    """

    shift: int = 0
    c: tuple = ()

    @staticmethod
    def from_dict(d: dict[int, int]) -> "LaurentPoly":
        if not all(isinstance(c, int) for c in d.values()):
            raise TypeError("LaurentPoly coefficients must be ints")
        d = {int(e): c for e, c in d.items() if c}
        if not d:
            return LP_ZERO
        lo = min(d)
        out = [0] * (max(d) - lo + 1)
        for e, c in d.items():
            out[e - lo] = c
        return LaurentPoly(lo, tuple(out))

    @property
    def coeffs(self) -> tuple[tuple[int, int], ...]:
        """The nonzero terms as sorted (exponent, coefficient) pairs."""
        return tuple([(self.shift + i, c) for i, c in enumerate(self.c) if c])

    def __bool__(self) -> bool:
        return bool(self.c)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.c:
            return other
        if not other.c:
            return self
        shift, c = zpoly.add(self.shift, self.c, other.shift, other.c)
        return LaurentPoly(shift, tuple(c)) if c else LP_ZERO

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.shift, tuple([-c for c in self.c]))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.c or not other.c:
            return LP_ZERO
        return LaurentPoly(self.shift + other.shift, tuple(zpoly.mul(self.c, other.c)))

    def eval_one(self) -> int:
        """Image under v -> 1."""
        return sum(self.c)

    def __str__(self) -> str:
        return _poly_str(self.shift, self.c)

    __repr__ = __str__


def lp(d: dict[int, int]) -> LaurentPoly:
    return LaurentPoly.from_dict(d)


# The coefficient tuple of 1: the den of every element whose den is 1.
_ONE = (1,)
LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly(0, _ONE)


def div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division in Q[v, 1/v] by a monic b; raises RingError on a
    remainder."""
    if not b.c:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a.c:
        return LP_ZERO
    q = zpoly.quo(a.c, b.c)
    if q is None:
        raise RingError("non-exact Laurent polynomial division")
    return LaurentPoly(a.shift - b.shift, tuple(q))


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

    Computed for d = 1 by the exact incremental quotient
    qbinom(n, r) = qbinom(n, r-1) * [n-r+1] / [r]; every division is exact
    in Z[v, 1/v], and a remainder indicates an arithmetic bug and raises
    RingError.  For d > 1 it is the d = 1 value at v**d, as [m]_d is.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return LP_ONE
    if d > 1:
        b = qbinom(n, r, 1)
        if not b.c:
            return b
        c = [0] * (d * (len(b.c) - 1) + 1)
        c[::d] = b.c
        return LaurentPoly(d * b.shift, tuple(c))
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


_KIND_CODE = {kind: i for i, kind in enumerate(RingKind)}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < _MR_BOUND, refused above."""
    if p >= _MR_BOUND:
        raise RingError(f"p = {p} is too large: int:p needs p < {_MR_BOUND}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
        return self._fraction_field

    # One instance per ring, so the entries of a base change share it and
    # their ring checks stay identity tests.
    @cached_property
    def _fraction_field(self) -> "GroundRing":
        if self.is_field:
            return self
        if self.kind is RingKind.CYCLOTOMIC_LOCAL:
            return GroundRing(RingKind.GENERIC_FIELD)
        return GroundRing(RingKind.RATIONAL_FIELD)

    # -- element constructors -------------------------------------------

    def zero(self) -> "RingElem":
        return self._zero

    def one(self) -> "RingElem":
        return self._one

    # Per-ring constants, built on first use.  A cached_property lives in
    # the instance dict, which frozen dataclasses leave writable, and costs
    # one dict lookup; an lru_cache keyed on the ring would hash the
    # dataclass (and its Enum field) in Python on every call.
    @cached_property
    def _zero(self) -> "RingElem":
        return RingElem(self, 0, 0, None, None)

    @cached_property
    def _one(self) -> "RingElem":
        return self.from_int(1)

    # The generated hash of (kind, param) runs the dataclass and Enum
    # __hash__ in Python, and xcat._qb's lru_cache hashes the ring on every
    # term of Lusztig's sum: hash it once.  Equality stays by value.  The
    # kind enters by its position, an int, so the cached value does not
    # depend on the process's string-hash seed and survives pickling.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((_KIND_CODE[self.kind], self.param))

    def from_int(self, n: int) -> "RingElem":
        return self.from_fraction(n)

    def from_fraction(self, f: Fraction | int) -> "RingElem":
        if not isinstance(f, (int, Fraction)):
            raise TypeError(f"expected an int or a Fraction, got {type(f).__name__}")
        if not f:
            return self.zero()
        n, d, k, p = f.numerator, f.denominator, 0, self._p
        # A nonzero constant is prime to every sigma_l (degree >= 1), not to p.
        if p:
            while n % p == 0:
                n, k = n // p, k + 1
            if d % p == 0:
                raise RingError(f"{f} has negative {p}-adic valuation; not in {self}")
        return _const(self, k, 0, n, d)

    def uniformizer(self) -> "RingElem":
        if self.is_field:
            raise RingError(f"{self.descriptor()} has no uniformizer")
        return RingElem(self, 1, 0, _ONE, _ONE)

    @cached_property
    def _pi(self) -> tuple[int, ...]:
        """sigma_l, the uniformizer of ``cyc:l``, as a dense integer
        polynomial.  Over ``int:p`` the uniformizer is the integer ``_p``."""
        if self.kind is RingKind.CYCLOTOMIC_LOCAL:
            return cyclotomic_poly(self.param).c
        raise RingError(f"{self.descriptor()} has no polynomial uniformizer")

    @cached_property
    def _p(self) -> int:
        """The uniformizer when it is an integer (p over ``int:p``), else 0:
        the only uniformizer that can divide a constant."""
        return self.param if self.kind is RingKind.INTEGER_LOCAL else 0

    def __str__(self) -> str:
        return self.descriptor()


_DESCRIPTOR_RE = re.compile(r"(cyc|int):(\d+)")


def parse_ring(descriptor: str) -> GroundRing:
    """Inverse of GroundRing.descriptor()."""
    if descriptor == "generic":
        return generic_field()
    if descriptor == "rational":
        return rational_field()
    m = _DESCRIPTOR_RE.fullmatch(descriptor)
    if not m:
        shown = _quoted(descriptor, f"{len(descriptor)} characters")
        raise RingError(f"unknown ring descriptor {shown}")
    return (cyclotomic_local if m[1] == "cyc" else integer_local)(_number(m[2]))


def generic_field() -> GroundRing:
    return GroundRing(RingKind.GENERIC_FIELD)


def rational_field() -> GroundRing:
    return GroundRing(RingKind.RATIONAL_FIELD)


def cyclotomic_local(l: int) -> GroundRing:
    """cyc:l, refused when sigma_l has degree phi(l) > _MAX_PARSED_SPAN: the
    first canonicalization would compute sigma_l, at a cost growing without
    bound in l, and no element with k >= 1 could be parsed."""
    if l < 1:
        raise RingError("cyclotomic index must be >= 1")
    if l > _MAX_CYC_INDEX:
        raise RingError(f"cyc:l with l > {_MAX_CYC_INDEX} has phi(l) > {_MAX_PARSED_SPAN}")
    phi = _totient(l)
    if phi > _MAX_PARSED_SPAN:
        raise RingError(f"cyc:{l} has phi({l}) = {phi} > {_MAX_PARSED_SPAN}")
    return GroundRing(RingKind.CYCLOTOMIC_LOCAL, l)


def _totient(n: int) -> int:
    """Euler's phi(n) by trial division; n <= _MAX_CYC_INDEX keeps it fast."""
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


def integer_local(p: int) -> GroundRing:
    if not _is_prime(p):
        raise RingError(f"{p} is not prime")
    return GroundRing(RingKind.INTEGER_LOCAL, p)


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class RingElem:
    """Element of a ground ring in canonical form.

    Nonzero elements are pi**k * v**shift * num/den with k >= 0 (k = 0 over
    a field), for every kind.  num and den are the dense integer coefficient
    tuples of polynomials in v coprime in Q[v]: den has a positive lowest
    coefficient, the contents of num and den are coprime, and the
    uniformizer pi (sigma_l or p) divides neither.  den is the shared (1,)
    when it is 1.  Over ``int:p`` and ``rational`` num and den are (a,) and
    (b,), and shift is 0.

    Arithmetic keeps each result canonical with the least work the valuation
    allows: a product of two elements with den 1 is one polynomial product;
    other products and quotients cancel gcd(n1, d2) and gcd(n2, d1) (resp.
    gcd(n1, n2) and gcd(d1, d2)) as ``fractions.Fraction`` does, and never
    look for pi, which is prime and divides no canonical num or den; a sum
    with k1 != k2 has valuation min(k1, k2) exactly, so only a sum with
    k1 == k2 divides out pi.  When num and den of both operands are
    constants (always over ``int:p`` and ``rational``), the same rules run
    on integers and keep a/b reduced with b > 0, p dividing neither a nor b,
    and the shift 0 over ``int:p``; see the module docstring.

    The zero element is flagged by ``num is None``; each ring has one,
    ``GroundRing.zero()``.

    Immutable by contract, not by ``frozen=True``.  Every ring operation
    builds a RingElem, and the __init__ of a frozen dataclass stores each
    field through ``object.__setattr__``: 1.1-1.6 us per 4-field object
    (Python 3.11, shared 2-core host) against 0.25-0.38 us for the plain
    slot stores used here.  Matrices, the word memo, the file loader's memo
    and the local cache share elements, so no code may assign a field after
    construction; ``tests/test_value_objects.py`` checks that over builds,
    checks, certificates and file round trips.
    """

    ring: GroundRing
    k: int
    shift: int
    num: tuple[int, ...] | None
    den: tuple[int, ...] | None

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num is None

    def is_unit(self) -> bool:
        return self.num is not None and self.k == 0

    # -- arithmetic ------------------------------------------------------

    # Each binary operation checks the rings inline: a method call per
    # operation is a measurable share of its cost.

    def __add__(self, other: "RingElem") -> "RingElem":
        if self.ring is not other.ring and self.ring != other.ring:
            _mixed(self, other)
        if self.num is None:
            return other
        if other.num is None:
            return self
        return _laurent_add(self.ring, self, other)

    def __neg__(self) -> "RingElem":
        if self.is_zero():
            return self
        return RingElem(self.ring, self.k, self.shift, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        if self.ring is not other.ring and self.ring != other.ring:
            _mixed(self, other)
        if self.num is None or other.num is None:
            return self.ring.zero()
        return _laurent_mul(self.ring, self, other)

    def divide(self, other: "RingElem") -> "RingElem":
        """Exact division inside the ring; raises RingError when impossible."""
        if self.ring is not other.ring and self.ring != other.ring:
            _mixed(self, other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_zero():
            return self
        if self.k < other.k:
            raise RingError("quotient has negative valuation; not in the ring")
        return _laurent_div(self.ring, self, other)

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

    # -- valuation -------------------------------------------------------

    def valuation(self) -> int | float:
        """The discrete valuation; infinity for zero, 0 for field units."""
        if self.is_zero():
            return math.inf
        return self.k

    def __str__(self) -> str:
        return format_elem(self)

    __repr__ = __str__


def _mixed(x: RingElem, y: RingElem):
    raise RingError(f"mixed rings: {x.ring} vs {y.ring}")


@lru_cache(maxsize=None)
def _pi_pow(pi: tuple[int, ...], m: int) -> tuple[int, ...]:
    """pi**m as a dense coefficient tuple, for pi = ``GroundRing._pi``."""
    out = [1]
    for _ in range(m):
        out = zpoly.mul(out, pi)
    return tuple(out)


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
    # tuple() of an exact-size list: a tuple built from a generator keeps
    # its over-allocated block, which shows in the peak memory of builds.
    return RingElem(ring, k, shift, tuple(n), _ONE if len(d) == 1 and d[0] == 1 else tuple(d))


def _pi_divides(ring: GroundRing, a) -> bool:
    """Whether sigma_l, the uniformizer of ``cyc:l``, divides the polynomial a.

    sigma_l divides v**l - 1, so a is congruent to its fold modulo
    v**l - 1 (l sums of slices, at C speed): only the short fold is divided.
    Over ``int:p`` every element is a constant, and the integer path strips p.
    """
    l = ring.param
    folded = [sum(a[i::l]) for i in range(l)]
    return not any(folded) or zpoly.quo(folded, ring._pi) is not None


def _strip_pi(ring: GroundRing, n, k: int):
    """Move every factor pi of the nonzero n into the exponent k."""
    while _pi_divides(ring, n):
        n, k = zpoly.quo(n, ring._pi), k + 1
    return n, k


def _make_laurent(ring: GroundRing, shift: int, n, d) -> RingElem:
    """Canonicalize v**shift * n/d in a Laurent kind, for integer
    polynomials n and d with d(0) != 0: cancel the gcd, move every factor
    sigma_l of the numerator into k and refuse a zero denominator or one
    that sigma_l divides."""
    if not d:
        raise RingError("zero denominator")
    if not n:
        return ring.zero()
    n, d = zpoly.cancel(n, d)
    k = 0
    if ring.is_dvr:
        n, k = _strip_pi(ring, n, 0)
        if _pi_divides(ring, d):
            raise RingError(f"denominator divisible by the uniformizer; not in {ring}")
    return _finish(ring, k, shift, n, d)


def _const(ring: GroundRing, k: int, shift: int, n: int, d: int) -> RingElem:
    """The element pi**k * v**shift * n/d for coprime integers n != 0 and
    d > 0, neither divisible by pi: already canonical, so built directly."""
    return RingElem(ring, k, shift, (n,), _ONE if d == 1 else (d,))


def _laurent_add(ring: GroundRing, x: RingElem, y: RingElem) -> RingElem:
    """x + y for nonzero x, y, in any kind.

    With k1 != k2 the sum has valuation exactly min(k1, k2): one summand is
    a unit times pi**min and the other a multiple of pi**(min + 1), so
    nothing is stripped.  Only k1 == k2 can cancel into pi.  The
    denominators follow Knuth's rule, as ``fractions.Fraction`` does: with
    g = gcd(d1, d2) the sum is t / (d1 d2 / g) with t = n1 d2/g + n2 d1/g,
    and only gcd(t, g) can still cancel.

    When both units are constants of one shift (every sum over ``int:p`` and
    ``rational``) the rule runs on integers.  pi**|k1 - k2| is then an
    integer over ``int:p`` only; a constant is prime to sigma_l, so only p
    can be stripped, by ``while t % p == 0``.
    """
    s1, n1, d1 = x.shift, x.num, x.den
    s2, n2, d2 = y.shift, y.num, y.den
    k = min(x.k, y.k)
    if (len(n1) == 1 and len(n2) == 1 and len(d1) == 1 and len(d2) == 1 and s1 == s2
            and (x.k == y.k or ring._p)):
        a1, a2, b1, b2 = n1[0], n2[0], d1[0], d2[0]
        p = ring._p
        if x.k != y.k:
            if x.k < y.k:
                a2 *= p ** (y.k - k)
            else:
                a1 *= p ** (x.k - k)
        g = math.gcd(b1, b2)
        if g == 1:
            t, d = a1 * b2 + a2 * b1, b1 * b2
        else:
            b1 //= g
            t = a1 * (b2 // g) + a2 * b1
            g = math.gcd(t, g)
            d = b1 * (b2 // g)
            if g != 1:
                t //= g
        if not t:
            return ring.zero()
        if p and x.k == y.k:
            while t % p == 0:
                t, k = t // p, k + 1
        return _const(ring, k, s1, t, d)
    if x.k != y.k:
        pi_m = _pi_pow(ring._pi, abs(x.k - y.k))
        if x.k < y.k:
            n2 = zpoly.mul(n2, pi_m)
        else:
            n1 = zpoly.mul(n1, pi_m)
    if d1 == d2 == (1,):
        shift, t = zpoly.add(s1, n1, s2, n2)
        d = [1]
    else:
        g = [1]
        if len(d1) > 1 and len(d2) > 1:
            g, d1, d2 = zpoly.gcd(d1, d2)
        shift, t = zpoly.add(s1, zpoly.mul(n1, d2), s2, zpoly.mul(n2, d1))
        t, g = zpoly.cancel(t, g)
        d = zpoly.mul(zpoly.mul(d1, d2), g)
    if not t:
        return ring.zero()
    if x.k == y.k and ring.is_dvr:
        t, k = _strip_pi(ring, t, k)
    return _finish(ring, k, shift, t, d)


def _laurent_mul(ring: GroundRing, x: RingElem, y: RingElem) -> RingElem:
    """x * y for nonzero x, y, in any kind.

    pi is prime (sigma_l in Q[v], p in Z), so a product of numerators prime
    to it stays prime to it: no stripping and no denominator check.  With both
    denominators 1 the product n1 n2 is already canonical (Gauss's lemma
    keeps its content, the denominator keeps content 1).  Otherwise Henrici's
    cross-cancellation by gcd(n1, d2) and gcd(n2, d1) leaves a reduced
    fraction; on constant units it runs on integers.
    """
    n1, n2, d1, d2 = x.num, y.num, x.den, y.den
    shift = x.shift + y.shift
    if len(n1) == 1 and len(n2) == 1 and len(d1) == 1 and len(d2) == 1:
        a1, a2, b1, b2 = n1[0], n2[0], d1[0], d2[0]
        g = math.gcd(a1, b2)
        if g != 1:
            a1, b2 = a1 // g, b2 // g
        g = math.gcd(a2, b1)
        if g != 1:
            a2, b1 = a2 // g, b1 // g
        return _const(ring, x.k + y.k, shift, a1 * a2, b1 * b2)
    if d1 == d2 == (1,):
        return RingElem(ring, x.k + y.k, shift, tuple(zpoly.mul(n1, n2)), _ONE)
    n1, d2 = zpoly.cancel(n1, d2)
    n2, d1 = zpoly.cancel(n2, d1)
    return _finish(ring, x.k + y.k, shift, zpoly.mul(n1, n2), zpoly.mul(d1, d2))


def _laurent_div(ring: GroundRing, x: RingElem, y: RingElem) -> RingElem:
    """x / y for nonzero x, y with x.k >= y.k: (n1 d2) / (d1 n2) after
    Henrici's cancellation by gcd(n1, n2) and gcd(d1, d2); as for products,
    no factor pi can appear.  On constant units it runs on integers, and a
    negative divisor moves its sign to the numerator."""
    n1, n2, d1, d2 = x.num, y.num, x.den, y.den
    shift = x.shift - y.shift
    if len(n1) == 1 and len(n2) == 1 and len(d1) == 1 and len(d2) == 1:
        a1, a2, b1, b2 = n1[0], n2[0], d1[0], d2[0]
        g = math.gcd(a1, a2)
        if g != 1:
            a1, a2 = a1 // g, a2 // g
        g = math.gcd(b1, b2)
        if g != 1:
            b1, b2 = b1 // g, b2 // g
        if a2 < 0:
            a1, a2 = -a1, -a2
        return _const(ring, x.k - y.k, shift, a1 * b2, b1 * a2)
    n1, n2 = zpoly.cancel(n1, n2)
    d1, d2 = zpoly.cancel(d1, d2)
    return _finish(ring, x.k - y.k, shift, zpoly.mul(n1, d2), zpoly.mul(d1, n2))


def embed(p: LaurentPoly, ring: GroundRing) -> RingElem:
    """Image of a Laurent polynomial under the structural homomorphism.

    For ``int:p`` and ``rational`` the polynomial is evaluated at v = 1; for
    the DVR kinds the uniformizer power is extracted into canonical form.
    """
    if ring.is_laurent:
        return _make_laurent(ring, p.shift, p.c, _ONE)
    return ring.from_int(p.eval_one())


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
    # pi**k is prime to the denominator: the fraction stays reduced.
    if ring._p:
        return _const(fk, 0, x.shift, x.num[0] * ring._p ** x.k, x.den[0])
    n = zpoly.mul(x.num, _pi_pow(ring._pi, x.k))
    return _finish(fk, 0, x.shift, n, x.den)


# ---------------------------------------------------------------------------
# Textual element format
# ---------------------------------------------------------------------------
#
# The format is the one used by every serialization in this package, e.g.
# "s^1 * (v^-2*(v^2-v+1))" over cyc:3 or "5^1 * 1" over int:5, "0" for zero.
# Printing gives canonical text.  Parsing reads a wider grammar (see
# docs/formats.md) and canonicalizes: parse then print gives canonical text,
# and print then parse gives the element back.


def _term_str(e: int, c: int) -> str:
    if e == 0:
        return str(c)
    vp = "v" if e == 1 else f"v^{e}"
    if c == 1:
        return vp
    if c == -1:
        return f"-{vp}"
    return f"{c}*{vp}"


def _poly_str(shift: int, c) -> str:
    """The text of v**shift * (c[0] + c[1]*v + ...) for a dense c."""
    if len(c) < 2:
        return _term_str(shift, c[0]) if c else "0"
    # Descending powers; a negative term's "-" takes the place of its "+".
    s = "+".join([_term_str(e, c[e]) for e in range(len(c) - 1, -1, -1) if c[e]])
    s = s.replace("+-", "-")
    return f"{_term_str(shift, 1)}*({s})" if shift else s


def _unit_str(x: RingElem) -> str:
    ns = _poly_str(x.shift, x.num)
    if x.den == _ONE:
        return ns
    if x.ring.is_laurent:
        return f"({ns})/({_poly_str(0, x.den)})"
    return f"{ns}/{x.den[0]}"


_COMPOUND_RE = re.compile(r"[+*/]")


def format_elem(x: RingElem) -> str:
    """The textual form of x; RingError when a coefficient has more digits
    than str() converts, which is also the most ``parse_elem`` reads."""
    if x.is_zero():
        return "0"
    try:
        unit = _unit_str(x)
    except ValueError:
        raise RingError(
            f"a coefficient exceeds {sys.get_int_max_str_digits()} decimal digits, "
            "the limit of the element format"
        ) from None
    if x.k == 0:
        return unit
    if _COMPOUND_RE.search(unit) or "-" in unit[1:]:
        unit = f"({unit})"
    return f"{x.ring.uniformizer_symbol()}^{x.k} * {unit}"


# Parsed polynomials are stored densely: refuse a degree span too wide to
# store and cancel in reasonable time instead of attempting it.  Over cyc:l
# the bound also caps k in s^k * u, since arithmetic expands sigma_l**k, of
# degree k * phi(l).
_MAX_PARSED_SPAN = 10**4
# phi(l) >= sqrt(l / 2), so every l above this bound has phi(l) > the span.
_MAX_CYC_INDEX = 2 * _MAX_PARSED_SPAN**2

# A Laurent polynomial is a sum or v^e*(sum).  A sum is a term, optionally
# led by "-", then terms each led by "+", "-" or "+-"; a term is c, c*V or
# V, with c = a or a/b and V = v or v^e.  A sum is matched whole, then
# _TERMS_RE reads its terms in order as (sign, c, v, e).
_V = r"v(?:\^-?\d+)?"
_TERM = rf"(?:\d+(?:/\d+)?(?:\*{_V})?|{_V})"
_SUM = rf"-?{_TERM}(?:(?:\+-?|-){_TERM})*"
_LAURENT_RE = re.compile(rf"v(?:\^(-?\d+))?\*\(({_SUM})\)|({_SUM})")
_TERMS_RE = re.compile(r"\+?(-?)(?=[\dv])(\d*(?:/\d+)?)\*?(v?)(?:\^(-?\d+))?")
_RATIO_RE = re.compile(r"\((.*)\)/\((.*)\)")
_NUMBER_RE = re.compile(r"-?\d+(?:/\d+)?")
_POWER_RE = re.compile(r"(s|\d+)\^(\d+) \* (.*)")


def _quoted(s: str, size: str) -> str:
    """s quoted for an error message: whole when it has at most 40
    characters, else its first 40 and then size."""
    return repr(s) if len(s) <= 40 else f"{s[:40]!r}... ({size})"


def _number(s: str) -> int | Fraction:
    """The integer or fraction s, of the form of _NUMBER_RE; RingError for
    a zero denominator and for more digits than int() converts, quoting at
    most 40 characters of s and then its digit count."""
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except (ValueError, ZeroDivisionError):
        shown = _quoted(s, f"{sum(map(str.isdigit, s))} digits")
        raise RingError(f"bad number {shown}") from None


def parse_laurent(s: str) -> tuple[LaurentPoly, int]:
    """(p, m) with p/m the Laurent polynomial of text s: m = 1 unless a
    coefficient is a fraction, and then the lcm of the denominators, which
    p's integer coefficients are cleared by."""
    m = _LAURENT_RE.fullmatch(s.strip())
    if not m:
        raise RingError(f"cannot parse {s[:40]!r}")
    if m[3] is None:  # v^e*(sum)
        shift, g = (_number(m[1]) if m[1] else 1), 2
    else:
        shift, g = 0, 3
    out: dict[int, int | Fraction] = {}
    for sign, c, v, e in _TERMS_RE.findall(m.string, m.start(g), m.end(g)):
        c = _number(sign + c) if c else -1 if sign else 1
        e = shift + (_number(e) if e else 1 if v else 0)
        out[e] = out.get(e, 0) + c
    exps = [e for e, c in out.items() if c]
    if exps and max(exps) - min(exps) > _MAX_PARSED_SPAN:
        raise RingError(f"degree span of {s[:40]!r} exceeds {_MAX_PARSED_SPAN}")
    dens = [c.denominator for c in out.values() if type(c) is Fraction]
    if not dens:
        return LaurentPoly.from_dict(out), 1
    den = math.lcm(*dens)
    return LaurentPoly.from_dict({e: c.numerator * (den // c.denominator)
                                  for e, c in out.items()}), den


def _parse_unit(s: str, ring: GroundRing) -> RingElem:
    s = s.strip()
    if ring.is_laurent:
        r = _RATIO_RE.fullmatch(s)
        if r is None:
            p, m = parse_laurent(s)
            return _make_laurent(ring, p.shift, p.c, (m,))
        (p, m), (q, mq) = parse_laurent(r[1]), parse_laurent(r[2])
        # (p/m) / (q/mq) is (mq p) / (m q).
        return _make_laurent(ring, p.shift - q.shift, zpoly.mul(p.c, (mq,)), zpoly.mul(q.c, (m,)))
    if not _NUMBER_RE.fullmatch(s):
        raise RingError(f"bad number {s[:40]!r}")
    return ring.from_fraction(_number(s))


def parse_elem(s: str, ring: GroundRing) -> RingElem:
    """Parse the textual element format into canonical form.  Malformed
    text, and a uniformizer power s^k over cyc:l with k * phi(l) above
    _MAX_PARSED_SPAN, raise RingError."""
    s = s.strip()
    if s == "0":
        return ring.zero()
    m = _POWER_RE.fullmatch(s)
    if not (m and ring.is_dvr and m[1] == ring.uniformizer_symbol()):
        return _parse_unit(s, ring)
    k = _number(m[2])
    if ring.is_laurent and k * (len(ring._pi) - 1) > _MAX_PARSED_SPAN:
        raise RingError(f"s^{m[2][:40]} exceeds degree {_MAX_PARSED_SPAN} over {ring}")
    body = m[3].strip()
    unit = None
    if body.startswith("(") and body.endswith(")"):
        # Strip the wrapping parens only when they enclose the whole unit
        # (they do for every printed element).
        try:
            unit = _parse_unit(body[1:-1], ring)
        except RingError:
            pass
    if unit is None:
        unit = _parse_unit(body, ring)
    # pi**k * (pi**j * u) is canonical as pi**(j + k) * u.
    if unit.is_zero():
        return unit
    return RingElem(ring, unit.k + k, unit.shift, unit.num, unit.den)
