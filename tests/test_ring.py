import math
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtilt.ring import (
    LP_ONE,
    LP_ZERO,
    LaurentPoly,
    RingError,
    cyclotomic_local,
    cyclotomic_poly,
    embed,
    format_elem,
    generic_field,
    integer_local,
    lp,
    parse_elem,
    parse_ring,
    qbinom,
    qfact,
    qint,
    rational_field,
    to_fraction_field,
    valuation,
)
from qtilt import ring as ring_mod
from qtilt import zpoly

V = sympy.Symbol("v")


def to_sympy(p: LaurentPoly):
    return sum(sympy.Integer(c) * V**e for e, c in p.coeffs) if p.coeffs else sympy.Integer(0)


def terms(shift, c):
    """The nonzero terms of v**shift * (c[0] + c[1]*v + ...), an element's
    num or den tuple, as sorted (exponent, coefficient) pairs."""
    return LaurentPoly(shift, c).coeffs


# ---------------------------------------------------------------------------
# quantum integers and binomials


def test_qint_base_cases():
    assert qint(0, 1) == LP_ZERO
    assert qint(2, 1) == lp({1: 1, -1: 1})
    assert qint(-2, 2) == lp({2: -1, -2: -1})
    assert qint(1, 3) == LP_ONE


def test_qint_odd_sign_symmetry():
    for n in range(1, 9):
        for d in (1, 2, 3):
            assert qint(-n, d) == -qint(n, d)


def test_qbinom_base_cases():
    assert qbinom(7, 0, 2) == LP_ONE
    assert qbinom(-5, 0, 1) == LP_ONE
    assert qbinom(3, 1, 1) == qint(3, 1)
    assert qbinom(4, 2, 1) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


@pytest.mark.parametrize("n,r,d", [(4, 2, 1), (6, 3, 1), (5, 2, 2), (-3, 2, 1), (7, 4, 3)])
def test_qbinom_against_symbolic_expansion(n, r, d):
    # Independent expansion: product formula simplified by sympy.
    num = sympy.Integer(1)
    for i in range(r):
        num *= (V ** (d * (n - i)) - V ** (-d * (n - i))) / (V**d - V**-d)
    den = sympy.Integer(1)
    for i in range(1, r + 1):
        den *= (V ** (d * i) - V ** (-d * i)) / (V**d - V**-d)
    expected = sympy.cancel(sympy.together(num / den))
    got = sympy.cancel(to_sympy(qbinom(n, r, d)))
    assert sympy.simplify(expected - got) == 0


def test_qbinom_at_d_is_the_incremental_quotient():
    # [n choose r]_d is computed as [n choose r]_1 at v**d; the recurrence
    # on [m]_d is the reference, including the zero values 0 <= n < r.
    for d in (2, 3):
        for n in range(-6, 9):
            ref = LP_ONE
            for r in range(1, 7):
                ref = ring_mod.div_exact(ref * qint(n - r + 1, d), qint(r, d))
                assert qbinom(n, r, d) == ref, (n, r, d)


def _binom(n, r):
    # generalized binomial coefficient, defined for negative n as well
    if n >= 0:
        return math.comb(n, r)
    return (-1) ** r * math.comb(r - n - 1, r)


def test_qint_qbinom_specialize_at_one():
    for d in (1, 2, 3):
        for n in range(-7, 8):
            assert qint(n, d).eval_one() == n
            for r in range(0, 5):
                assert qbinom(n, r, d).eval_one() == _binom(n, r), (n, r, d)
    assert qbinom(-2, 1, 1).eval_one() == -2
    assert qbinom(-2, 2, 1).eval_one() == 3
    assert qbinom(-3, 2, 2).eval_one() == 6


def test_qfact():
    assert qfact(0, 1) == LP_ONE
    assert qfact(3, 1) == qint(1) * qint(2) * qint(3)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 8, 12])
def test_cyclotomic_poly_matches_sympy(l):
    got = to_sympy(cyclotomic_poly(l))
    assert sympy.expand(got - sympy.cyclotomic_poly(l, V)) == 0


# ---------------------------------------------------------------------------
# ground rings: embed, valuation


def test_embed_cyclotomic_extracts_uniformizer(cyc3):
    x = embed(qint(3), cyc3)
    assert x.k == 1
    assert str(x) == "s^1 * (v^-2*(v^2-v+1))"
    y = embed(qint(2), cyc3)
    assert y.k == 0
    assert valuation(y) == 0


def test_embed_integer_local(int5):
    assert str(embed(qint(5), int5)) == "5^1 * 1"
    assert valuation(embed(qint(5), int5)) == 1


def test_valuation_examples(cyc3, int5):
    assert valuation(cyc3.zero()) == math.inf
    assert valuation(embed(qint(3), cyc3)) == 1
    assert valuation(int5.from_fraction(Fraction(10, 3))) == 1


def test_valuation_is_discrete(cyc3, int3):
    for ring in (cyc3, int3):
        xs = [embed(qint(n), ring) for n in (2, 3, 4, 6, 9)]
        for x in xs:
            for y in xs:
                assert valuation(x * y) == valuation(x) + valuation(y)
                s = x + y
                if not s.is_zero():
                    assert valuation(s) >= min(valuation(x), valuation(y))


def test_genericity_certificate(gf, qq, cyc3, cyc5, int3, int5):
    for ring in (gf, qq, cyc3, cyc5, int3, int5, cyclotomic_local(1), cyclotomic_local(2)):
        for d in (1, 2, 3):
            for n in range(1, 25):
                assert not embed(qint(n, d), ring).is_zero()
                assert not embed(qint(-n, d), ring).is_zero()


def test_integer_local_rejects_composites():
    with pytest.raises(RingError):
        integer_local(6)
    with pytest.raises(RingError):
        integer_local(1)


def _trial_division_is_prime(p):
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def test_is_prime_agrees_with_trial_division():
    is_prime = ring_mod._is_prime
    assert [p for p in range(10**5) if is_prime(p)] == [
        p for p in range(10**5) if _trial_division_is_prime(p)]


def test_is_prime_on_strong_pseudoprimes():
    # 3825123056546413051 passes Miller-Rabin for every prime base up to 23.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              2**61 - 1, 2**79 - 1, 10**24 + 7):
        assert ring_mod._is_prime(n) == sympy.isprime(n), n


def test_parse_ring_large_prime_is_fast():
    # Trial division up to the square root takes minutes on this one.
    start = time.perf_counter()
    ring = parse_ring("int:1000000000000000003")
    assert time.perf_counter() - start < 1
    assert ring.descriptor() == "int:1000000000000000003"
    with pytest.raises(RingError, match="not prime"):
        parse_ring("int:1000000000000000001")


def test_parse_ring_refuses_primes_beyond_the_exact_bound():
    with pytest.raises(RingError, match="too large"):
        parse_ring("int:10000000000000000000000013")  # a 26-digit prime


def test_parse_ring_refuses_more_digits_than_int_converts():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for kind in ("cyc", "int"):
        with pytest.raises(RingError, match="bad number"):
            parse_ring(f"{kind}:{digits}")


def test_parse_ring_refuses_cyc_l_without_computing_sigma_l(monkeypatch):
    # sigma_l has degree phi(l); above _MAX_PARSED_SPAN the ring is refused
    # from l alone, and a many-digit l is refused without factoring it.
    def unbuildable(l):
        raise AssertionError(f"sigma_{l} computed")

    monkeypatch.setattr(ring_mod, "cyclotomic_poly", unbuildable)
    for desc, phi in (("cyc:100000", "40000"), ("cyc:10007", "10006")):
        with pytest.raises(RingError, match=rf"phi\(\d+\) = {phi} > 10000"):
            parse_ring(desc)
    start = time.perf_counter()
    for desc in ("cyc:200000001", "cyc:" + "7" * 4000):
        with pytest.raises(RingError, match="l > 200000000"):
            parse_ring(desc)
    assert time.perf_counter() - start < 1
    for desc in ("cyc:10001", "cyc:30030", "cyc:1"):  # phi = 9792, 5760, 1
        assert parse_ring(desc).descriptor() == desc


def test_unknown_descriptor_is_quoted_by_a_prefix():
    # The whole descriptor used to be echoed: a 100 026-byte message for a
    # 100 000-character descriptor.
    desc = "cyc:x" + "9" * 99_995
    with pytest.raises(RingError) as err:
        parse_ring(desc)
    msg = str(err.value)
    assert msg == f"unknown ring descriptor '{desc[:40]}'... (100000 characters)"
    assert len(msg) < 100
    with pytest.raises(RingError, match=r"^unknown ring descriptor 'x{40}'$"):
        parse_ring("x" * 40)


def test_number_errors_quote_a_prefix(cyc3, int3):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    for ring, text in ((cyc3, digits + "*v"), (cyc3, "1/" + digits), (int3, digits)):
        with pytest.raises(RingError) as err:
            parse_elem(text, ring)
        msg = str(err.value)
        assert len(msg) < 100, msg
        assert msg.startswith("bad number '")
        assert msg.endswith(f"'... ({sum(map(str.isdigit, text))} digits)")
    with pytest.raises(RingError, match=r"^bad number 'x{40}'$"):
        parse_elem("x" * 5000, int3)


def test_elements_outside_ring_rejected(int3, cyc3):
    with pytest.raises(RingError):
        int3.from_fraction(Fraction(1, 3))
    with pytest.raises(RingError):
        embed(qint(3), cyc3).inverse()
    with pytest.raises(RingError):
        cyc3.one().divide(embed(qint(3), cyc3))


def test_division_exactness(cyc3, int3, gf):
    three = embed(qint(3), cyc3)
    two = embed(qint(2), cyc3)
    assert three.divide(two) * two == three
    assert (three * three).divide(three) == three
    nine = int3.from_int(9)
    assert nine.divide(int3.from_int(3)) == int3.from_int(3)
    a, b = embed(qint(5), gf), embed(qint(7), gf)
    assert a.divide(b) * b == a


def test_fraction_field_embedding(cyc3, int3):
    x = embed(qint(3), cyc3)
    fx = to_fraction_field(x)
    assert fx.ring == generic_field()
    assert fx == embed(qint(3), generic_field())
    y = int3.from_int(12)
    fy = to_fraction_field(y)
    assert fy.ring == rational_field()
    assert fy == rational_field().from_int(12)


def test_parse_ring_roundtrip(gf, qq, cyc3, int5):
    for ring in (gf, qq, cyc3, int5):
        assert parse_ring(ring.descriptor()) == ring
    with pytest.raises(RingError):
        parse_ring("weird:7")


# ---------------------------------------------------------------------------
# ring axioms and canonical forms (randomized)

_RINGS = [generic_field(), rational_field(), cyclotomic_local(3), integer_local(5)]


@st.composite
def ring_elems(draw):
    ring = draw(st.sampled_from(_RINGS))
    num = draw(st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=4))
    p = lp(num)
    x = embed(p, ring)
    scale = draw(st.integers(-3, 3))
    if scale:
        x = x * ring.from_fraction(Fraction(1, scale))
    return x


@st.composite
def ring_elem_triples(draw):
    ring = draw(st.sampled_from(_RINGS))
    out = []
    for _ in range(3):
        p = lp(draw(st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=4)))
        out.append(embed(p, ring))
    return out


@settings(max_examples=60, deadline=None)
@given(ring_elem_triples())
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == x.ring.zero()
    assert x * x.ring.one() == x


@settings(max_examples=60, deadline=None)
@given(ring_elems())
def test_canonical_form_structural_equality(x):
    # The same value reached along different routes canonicalizes identically.
    ring = x.ring
    assert x + ring.zero() == x
    assert (x + x) == x * ring.from_int(2)
    two = ring.from_int(2)
    assert (x * two).divide(two) == x


@settings(max_examples=80, deadline=None)
@given(ring_elems())
def test_format_parse_roundtrip(x):
    assert parse_elem(format_elem(x), x.ring) == x


@settings(max_examples=40, deadline=None)
@given(ring_elem_triples())
def test_valuation_properties_random(triple):
    x, y, _ = triple
    if x.ring.is_field:
        return
    assert valuation(x * y) == valuation(x) + valuation(y)
    s = x + y
    if not (x.is_zero() or y.is_zero()):
        assert valuation(s) >= min(valuation(x), valuation(y))



# ---------------------------------------------------------------------------
# the integer Laurent kernel against an independent sympy computation

_KERNEL_RINGS = [generic_field()] + [cyclotomic_local(l) for l in (2, 3, 4, 5, 6, 8, 12)]


def _sigma_sympy(ring):
    return sympy.Poly(sympy.cyclotomic_poly(ring.param, V), V, domain="QQ")


def _poly_dict(poly) -> dict[int, Fraction]:
    return {m[0]: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}


def _content(d: dict[int, Fraction]) -> Fraction:
    num, den = 0, 1
    for c in d.values():
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(num, den)


def oracle_canonical(ring, value):
    """(k, num terms, den terms) of the canonical form of the nonzero
    rational function ``value``, or None when it is not in the ring.

    sympy only: ``cancel`` reduces the fraction, repeated ``rem`` by the
    cyclotomic polynomial finds k, then the content and sign rules apply:
    num = a * (primitive), den = b * (primitive with positive constant
    term), a/b in lowest terms with b > 0.
    """
    p, q = sympy.fraction(sympy.cancel(sympy.together(value)))
    sp = min(m[0] for m in sympy.Poly(p, V).monoms())
    sq = min(m[0] for m in sympy.Poly(q, V).monoms())
    P = sympy.Poly(sympy.expand(p / V**sp), V, domain="QQ")
    Q = sympy.Poly(sympy.expand(q / V**sq), V, domain="QQ")
    k = 0
    if not ring.is_field:
        sigma = _sigma_sympy(ring)
        while sympy.rem(P, sigma).is_zero:
            P, k = sympy.quo(P, sigma), k + 1
        if sympy.rem(Q, sigma).is_zero:
            return None
    pd, qd = _poly_dict(P), _poly_dict(Q)
    cp = _content(pd)
    cq = _content(qd) * (1 if qd[0] > 0 else -1)
    r = cp / cq
    num = {e + sp - sq: c / cp * r.numerator for e, c in pd.items()}
    den = {e: c / cq * r.denominator for e, c in qd.items()}
    assert all(c.denominator == 1 for c in (*num.values(), *den.values()))
    return (k, tuple(sorted((e, int(c)) for e, c in num.items())),
            tuple(sorted((e, int(c)) for e, c in den.items())))


def elem_sympy(x):
    if x.is_zero():
        return sympy.Integer(0)
    pi = _sigma_sympy(x.ring).as_expr() if x.k else 1
    return pi**x.k * to_sympy(LaurentPoly(x.shift, x.num)) / to_sympy(LaurentPoly(0, x.den))


def assert_canonical(x, value):
    value = sympy.cancel(sympy.together(value))
    if value == 0:
        assert x.is_zero()
        return
    assert not x.is_zero()
    assert (x.k, terms(x.shift, x.num), terms(0, x.den)) == oracle_canonical(x.ring, value)


def _make(ring, num, den):
    try:
        return ring_mod._make_laurent(ring, num.shift - den.shift, num.c, den.c)
    except RingError:
        return None


_coeffs = st.integers(-9, 9)
_laurents = st.dictionaries(st.integers(-3, 3), _coeffs, max_size=4).map(lp).filter(bool)


@st.composite
def num_den_pairs(draw, ring=None):
    """A ring and a num/den pair with a planted common factor, which has a
    content of up to 12, and, over cyc:l, a planted power of sigma_l in the
    numerator."""
    ring = ring or draw(st.sampled_from(_KERNEL_RINGS))
    common = draw(_laurents) * lp({0: draw(st.integers(-12, 12).filter(bool))})
    num = draw(_laurents) * common
    den = draw(_laurents) * common
    if not ring.is_field:
        for _ in range(draw(st.integers(0, 2))):
            num = num * cyclotomic_poly(ring.param)
    return ring, num, den


@settings(max_examples=100, deadline=None)
@given(num_den_pairs())
def test_canonicalization_matches_sympy(pair):
    ring, num, den = pair
    expected = oracle_canonical(ring, to_sympy(num) / to_sympy(den))
    x = _make(ring, num, den)
    if expected is None:
        assert x is None
    else:
        assert (x.k, terms(x.shift, x.num), terms(0, x.den)) == expected


@st.composite
def elem_pairs(draw):
    ring, n1, d1 = draw(num_den_pairs())
    _, n2, d2 = draw(num_den_pairs(ring))
    if draw(st.booleans()):
        # n1 shares a factor with d2 and n2 with d1: cross-cancellation
        n2, d2 = n2 * d1, d2 * n1
    x, y = _make(ring, n1, d1), _make(ring, n2, d2)
    assume(x is not None and y is not None)
    return x, y


@settings(max_examples=60, deadline=None)
@given(elem_pairs())
def test_arithmetic_matches_sympy(pair):
    x, y = pair
    vx, vy = elem_sympy(x), elem_sympy(y)
    assert_canonical(x * y, vx * vy)
    assert_canonical(x + y, vx + vy)
    assert_canonical(x - y, vx - vy)
    if x.k >= y.k:
        assert_canonical(x.divide(y), vx / vy)
    else:
        with pytest.raises(RingError):
            x.divide(y)


# one targeted case per shortcut of the kernel


def test_unit_times_unit_is_one_product(cyc3):
    x, y = embed(qint(2), cyc3), embed(qint(4), cyc3)
    assert x.den is y.den is ring_mod._ONE == (1,)
    p = x * y
    assert p.den is ring_mod._ONE and LaurentPoly(p.shift, p.num) == qint(2) * qint(4)
    assert_canonical(p, elem_sympy(x) * elem_sympy(y))


def test_unit_over_unit(cyc3):
    x, y = embed(qint(2), cyc3), embed(lp({1: 2, 0: 3}), cyc3)
    q = x.divide(y)
    assert q.k == 0 and q.den != (1,)
    assert_canonical(q, elem_sympy(x) / elem_sympy(y))
    assert q * y == x


def test_sum_of_different_valuations_keeps_the_smaller(cyc3):
    s = cyc3.uniformizer()
    x = s * embed(lp({0: 1, 1: 3}), cyc3)
    y = embed(lp({0: 1}), cyc3).divide(embed(lp({0: 2, 1: 1}), cyc3))
    assert (x.k, y.k) == (1, 0)
    z = x + y
    assert z.k == 0
    assert_canonical(z, elem_sympy(x) + elem_sympy(y))


def test_sum_of_equal_valuations_cancels_into_sigma(cyc3):
    # v^2/(v+2) + (v+1)/(v+2) = sigma_3 / (v+2)
    d = embed(lp({1: 1, 0: 2}), cyc3)
    x = embed(lp({2: 1}), cyc3).divide(d)
    y = embed(lp({1: 1, 0: 1}), cyc3).divide(d)
    z = x + y
    assert z.k == 1
    assert z == cyc3.uniformizer().divide(d)
    assert str(embed(lp({2: 1}), cyc3) + embed(lp({1: 1, 0: 1}), cyc3)) == "s^1 * 1"


def test_gcd_fallback_path(monkeypatch):
    # GCDHEU giving up must leave every result unchanged.
    ring = cyclotomic_local(3)
    cases = [(lp({2: 1, 0: -1}), lp({1: 1, 0: 1})), (lp({3: 2, 0: 2}), lp({2: 1, 0: -1})),
             (lp({1: 1, 0: 2}), lp({2: 1, 1: 4, 0: 4})),
             (lp({5: 3, 4: 1, 1: -3, 0: -1}), lp({3: 1, 2: 5, 1: -1, 0: -5}))]
    before = [(_make(ring, n, d), _make(ring, d, n)) for n, d in cases]
    monkeypatch.setattr(zpoly, "heu_gcd", lambda f, g: None)
    after = [(_make(ring, n, d), _make(ring, d, n)) for n, d in cases]
    assert after == before
    for (x, y), (n, d) in zip(after, cases):
        assert_canonical(x, to_sympy(n) / to_sympy(d))
        assert_canonical(x * y, 1)
        assert_canonical(x.divide(x + x), sympy.Rational(1, 2))


_int_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(
    lambda a: a[0] and a[-1])


@settings(max_examples=100, deadline=None)
@given(_int_polys, _int_polys, _int_polys)
def test_gcd_matches_sympy(a, b, c):
    f, g = zpoly.mul(a, c), zpoly.mul(b, c)
    assume(len(f) > 1 and len(g) > 1)
    want = sympy.Poly(list(reversed(f)), V).gcd(sympy.Poly(list(reversed(g)), V))
    want = [abs(x) for x in reversed(want.primitive()[1].all_coeffs())]
    for h in (zpoly.gcd(f, g)[0], zpoly.prs_gcd(f, g)):
        assert [abs(x) for x in h] == want
    h, cf, cg = zpoly.gcd(f, g)
    assert zpoly.mul(h, cf) == f and zpoly.mul(h, cg) == g


def test_parse_rejects_denominator_divisible_by_sigma(cyc3):
    for text in ("(1)/(v^2+v+1)", "(v)/(v^3-1)", "s^1 * ((1)/(v^2+v+1))"):
        with pytest.raises(RingError):
            parse_elem(text, cyc3)


# ---------------------------------------------------------------------------
# the numeric kinds: int:p and rational against Fraction and the p-adic
# valuation

_NUMERIC_RINGS = [integer_local(2), integer_local(3), integer_local(5), rational_field()]


def numeric_canonical(ring, f):
    """(k, num coefficients, den coefficients) of the canonical form of the
    nonzero rational f over ``int:p`` or ``rational``, or None when f is not
    in the ring: k is the p-adic valuation of f, and f / p**k in lowest
    terms gives the constant num and the positive den."""
    k = 0
    if not ring.is_field:
        p, n, d = ring.param, f.numerator, f.denominator
        while n % p == 0:
            n, k = n // p, k + 1
        while d % p == 0:
            d, k = d // p, k - 1
        if k < 0:
            return None
    u = f / Fraction(ring.param or 1) ** k
    return k, (u.numerator,), (u.denominator,)


def assert_numeric(x, f):
    if not f:
        assert x.is_zero()
        return
    assert type(x.num) is tuple and type(x.den) is tuple
    assert x.shift == 0
    assert (x.k, x.num, x.den) == numeric_canonical(x.ring, f)


@st.composite
def numeric_values(draw, ring):
    """A nonzero rational p**a * n / d whose n and d often carry p."""
    p = ring.param or 2
    n = draw(st.integers(-40, 40).filter(bool)) * p ** draw(st.integers(0, 2))
    d = draw(st.integers(1, 40)) * p ** draw(st.integers(0, 1))
    return Fraction(n, d) * p ** draw(st.integers(0, 3))


@st.composite
def numeric_pairs(draw):
    """A numeric ring and two values; often the second has the valuation
    of the first and their sum cancels into a higher power of p."""
    ring = draw(st.sampled_from(_NUMERIC_RINGS))
    fx, fy = draw(numeric_values(ring)), draw(numeric_values(ring))
    if draw(st.booleans()):
        fy = -fx + fy * (ring.param or 2) ** draw(st.integers(1, 3))
    return ring, fx, fy


@settings(max_examples=300, deadline=None)
@given(numeric_pairs())
def test_numeric_canonical_form_matches_fraction(case):
    ring, fx, fy = case
    xs = []
    for f in (fx, fy):
        if not f:
            assert ring.from_fraction(f).is_zero()
        elif numeric_canonical(ring, f) is None:
            with pytest.raises(RingError):
                ring.from_fraction(f)
        else:
            xs.append(ring.from_fraction(f))
            assert_numeric(xs[-1], f)
    assume(len(xs) == 2 and fy)
    x, y = xs
    assert_numeric(x + y, fx + fy)
    assert_numeric(x - y, fx - fy)
    assert_numeric(-x, -fx)
    assert_numeric(x * y, fx * fy)
    if x.k >= y.k:
        assert_numeric(x.divide(y), fx / fy)
    else:
        with pytest.raises(RingError):
            x.divide(y)
    fk = to_fraction_field(x)
    assert fk.ring == rational_field()
    assert (fk.k, fk.num, fk.den) == (0, (fx.numerator,), (fx.denominator,))
    for z, f in ((x, fx), (x + y, fx + fy)):
        text = format_elem(z)
        assert parse_elem(text, ring) == z
        if z.k == 0:
            # a unit prints as the Fraction it is
            assert text == str(f)


def test_numeric_equal_valuation_sum_cancels_into_p(int3):
    # 3 * 1/2 + 3 * 1/4 = 9/4, so the sum gains a factor 3
    x, y = int3.from_fraction(Fraction(3, 2)), int3.from_fraction(Fraction(3, 4))
    assert x.k == y.k == 1
    z = x + y
    assert (z.k, z.num, z.den) == (2, (1,), (4,))
    assert str(z) == "3^2 * (1/4)"
    assert int3.uniformizer() == int3.from_int(3)
    assert (int3.uniformizer().shift, int3.uniformizer().num, int3.uniformizer().den) == (
        0, (1,), (1,))


# ---------------------------------------------------------------------------
# the integer path: operations on constant units against Fraction and sympy


def assert_constant_invariants(x):
    """A nonzero constant is pi**k * v**s * a/b with a/b reduced and b > 0;
    over int:p, p divides neither and s = 0."""
    (a,), (b,) = x.num, x.den
    assert a and b > 0 and math.gcd(a, b) == 1
    if x.ring.param and not x.ring.is_laurent:
        assert a % x.ring.param and b % x.ring.param and x.shift == 0


_big = st.integers(-2**100, 2**100).filter(bool)


@st.composite
def big_numeric_values(draw, ring):
    """p**j * a/b with |a|, b up to 2**100 and b prime to p over int:p."""
    p = ring.param or 2
    a, b = draw(_big), draw(st.integers(1, 2**100))
    while ring.param and b % p == 0:
        b //= p
    return Fraction(a, b) * p ** draw(st.integers(0, 3))


@st.composite
def big_numeric_pairs(draw):
    """Two values of one numeric ring; the second often cancels the first
    outright, or down to a multiple of a higher power of p."""
    ring = draw(st.sampled_from(_NUMERIC_RINGS))
    fx, fy = draw(big_numeric_values(ring)), draw(big_numeric_values(ring))
    mode = draw(st.sampled_from(["free", "zero", "gain"]))
    if mode == "zero":
        fy = -fx
    elif mode == "gain":
        fy = -fx + fy * (ring.param or 2) ** draw(st.integers(1, 3))
    return ring, fx, fy


@settings(max_examples=300, deadline=None)
@given(big_numeric_pairs())
def test_numeric_integer_path_matches_fraction(case):
    ring, fx, fy = case
    assume(fy)
    x, y = ring.from_fraction(fx), ring.from_fraction(fy)
    results = [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (y * x, fx * fy)]
    if x.k >= y.k:
        results.append((x.divide(y), fx / fy))
    if y.k >= x.k:
        results.append((y.divide(x), fy / fx))
    for z, f in results:
        assert_numeric(z, f)
        if f:
            assert_constant_invariants(z)


_CONSTANT_UNIT_RINGS = [cyclotomic_local(3), cyclotomic_local(6), generic_field()]


@st.composite
def constant_unit_pairs(draw):
    """Two constants sigma_l**k * v**s * a/b of one Laurent ring, with
    coefficients up to 2**70; the shifts are often equal, and the second
    is sometimes the negative of the first."""
    ring = draw(st.sampled_from(_CONSTANT_UNIT_RINGS))

    def elem(shift):
        a, b = draw(st.integers(-2**70, 2**70).filter(bool)), draw(st.integers(1, 2**70))
        x = ring_mod._make_laurent(ring, shift, (a,), (b,))
        return x * ring.uniformizer() ** draw(st.integers(0, 2)) if ring.is_dvr else x

    s1 = draw(st.integers(-3, 3))
    x = elem(s1)
    y = elem(s1 if draw(st.booleans()) else draw(st.integers(-3, 3)))
    return x, -x if draw(st.integers(0, 4)) == 0 else y


@settings(max_examples=150, deadline=None)
@given(constant_unit_pairs())
def test_constant_units_match_sympy(pair):
    x, y = pair
    assert_constant_invariants(x)
    vx, vy = elem_sympy(x), elem_sympy(y)
    products = [(x * y, vx * vy)]
    if x.k >= y.k:
        products.append((x.divide(y), vx / vy))
    for z, value in products:
        assert_canonical(z, value)
        assert_constant_invariants(z)
    assert_canonical(x + y, vx + vy)
    assert_canonical(x - y, vx - vy)


def test_constant_sum_of_unequal_valuation_over_cyc_takes_the_general_path(monkeypatch, cyc3):
    # 2 sigma_3 + 3/5 = (10 v^2 + 10 v + 13) / 5 is not a constant
    x, y = cyc3.uniformizer() * cyc3.from_int(2), cyc3.from_fraction(Fraction(3, 5))
    calls = []
    add = zpoly.add
    monkeypatch.setattr(zpoly, "add", lambda *a: calls.append(a) or add(*a))
    z = x + y
    assert calls and (z.k, z.shift, z.num, z.den) == (0, 0, (13, 10, 10), (5,))
    assert_canonical(z, elem_sympy(x) + elem_sympy(y))


def test_constant_division_by_a_negative_divisor(int3, cyc3):
    q = int3.from_fraction(Fraction(2, 5)).divide(int3.from_fraction(Fraction(-7, 4)))
    assert (q.k, q.num, q.den) == (0, (-8,), (35,))
    x = ring_mod._make_laurent(cyc3, 2, (4,), (9,))
    y = ring_mod._make_laurent(cyc3, -1, (-6,), (1,))
    q = x.divide(y)
    assert (q.shift, q.num, q.den) == (3, (-2,), (27,))
    assert_canonical(q, elem_sympy(x) / elem_sympy(y))


def test_constant_operations_call_no_polynomial_kernel(monkeypatch, int3):
    # Over int:p every operand is a constant: +, -, * and divide stay on
    # integers even when denominators, unequal valuations, sums that gain
    # powers of 3 and sums that cancel are involved.
    fs = [Fraction(1, 2), Fraction(1, 4), Fraction(-7, 4), Fraction(9, 10), Fraction(-3, 20),
          Fraction(27, 2**70 + 1), Fraction(2**80, 11)]
    xs = [int3.from_fraction(f) for f in fs]

    def refuse(*args):
        raise AssertionError("the polynomial kernel was called on constants")

    for name, f in vars(zpoly).items():
        if callable(f) and getattr(f, "__module__", None) == zpoly.__name__:
            monkeypatch.setattr(zpoly, name, refuse)
    monkeypatch.setattr(ring_mod, "_finish", refuse)
    for x, fx in zip(xs, fs):
        for y, fy in zip(xs, fs):
            assert_numeric(x + y, fx + fy)
            assert_numeric(x - y, fx - fy)
            assert_numeric(x * y, fx * fy)
            if x.k >= y.k:
                assert_numeric(x.divide(y), fx / fy)


# ---------------------------------------------------------------------------
# LaurentPoly: dense storage against sympy


def assert_dense(p):
    assert isinstance(p.c, tuple) and all(type(c) is int for c in p.c)
    if p.c:
        assert p.c[0] and p.c[-1]
    else:
        assert (p.shift, p.c) == (0, ()) and p == LP_ZERO


_lp_terms = st.dictionaries(st.integers(-4, 4), _coeffs, max_size=5)


@st.composite
def lp_pairs(draw):
    """Two Laurent polynomials; often the second cancels the lowest and the
    highest term of the first in a sum, or is its negative."""
    a, b = draw(_lp_terms), draw(_lp_terms)
    mode = draw(st.sampled_from(["free", "ends", "negative"]))
    if a and mode == "ends":
        lo, hi = min(a), max(a)
        b = {e: c for e, c in b.items() if lo < e < hi}
        b[lo], b[hi] = -a[lo], -a[hi]
    elif mode == "negative":
        b = {e: -c for e, c in a.items()}
    return a, b


def _sympy_terms(d):
    return sum((sympy.Integer(c) * V**e for e, c in d.items()), sympy.Integer(0))


@settings(max_examples=150, deadline=None)
@given(lp_pairs())
def test_laurent_arithmetic_matches_sympy(pair):
    da, db = pair
    a, b = lp(da), lp(db)
    sa, sb = _sympy_terms(da), _sympy_terms(db)
    for p, value in ((a, sa), (b, sb), (a + b, sa + sb), (a - b, sa - sb),
                     (a * b, sa * sb), (-a, -sa)):
        assert_dense(p)
        assert sympy.expand(to_sympy(p) - value) == 0
        # coeffs is the sorted sparse view of the same value
        assert list(p.coeffs) == sorted(p.coeffs) and all(c for _, c in p.coeffs)
    # equal values are equal and hash-equal however they were built
    for p, q in ((a + b, b + a), (a * b, b * a), ((a + b) - b, a), (a - a, LP_ZERO),
                 (lp(dict(a.coeffs)), a), (a * LP_ONE, a), (LP_ONE * a, a)):
        assert p == q and hash(p) == hash(q)
    # Fraction coefficients are refused, even integral ones
    if da:
        with pytest.raises(TypeError):
            lp({e: Fraction(c) for e, c in da.items()})


@pytest.mark.parametrize("terms", [
    {0: Fraction(1, 2)}, {0: 1, 2: Fraction(4, 2)}, {1: Fraction(0)}, {0: 0.5}, {0: "1"},
])
def test_laurent_coefficients_are_ints(terms):
    # A non-integral coefficient raises rather than being truncated: a
    # truncated all-zero polynomial would never leave the pi-stripping loop.
    with pytest.raises(TypeError):
        lp(terms)
    with pytest.raises(TypeError):
        LaurentPoly.from_dict(terms)


def test_from_fraction_takes_ints_and_fractions_only(gf, int3):
    for ring in (gf, int3):
        for bad in (0.5, "1", 0.0):
            with pytest.raises(TypeError):
                ring.from_fraction(bad)


# ---------------------------------------------------------------------------
# parse_elem: uniformizer powers and fuzzing


def test_parse_uniformizer_power_takes_no_products(monkeypatch, cyc3, int3):
    cases = [(int3, "3^5000 * 2"), (int3, "3^5000 * (-4/5)"),
             (cyc3, "s^5000 * 1"), (cyc3, "s^5000 * ((v^2+2)/(v+2))")]
    calls = []
    mul = ring_mod.RingElem.__mul__
    monkeypatch.setattr(ring_mod.RingElem, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    for ring, text in cases:
        x = parse_elem(text, ring)
        assert x.k == 5000 and format_elem(x) == text
    assert parse_elem("s^7 * 0", cyc3).is_zero()
    assert not calls
    monkeypatch.undo()
    # the same canonical element as pi**k times the unit
    for ring, unit in ((int3, "-4/5"), (cyc3, "(v^2+2)/(v+2)"), (cyc3, "v^2+v+1")):
        sym = ring.uniformizer_symbol()
        want = ring.uniformizer() ** 6 * parse_elem(unit, ring)
        assert parse_elem(f"{sym}^6 * ({unit})", ring) == want


def test_parse_refuses_a_huge_degree_span(gf):
    with pytest.raises(RingError):
        parse_elem("v^100000000+1", gf)
    assert str(parse_elem("v^100000000", gf)) == "v^100000000"


def test_format_refuses_more_digits_than_the_parser_reads(gf, int3):
    limit = sys.get_int_max_str_digits()
    big = 10**limit  # limit + 1 digits, prime to 3
    for ring in (gf, int3):
        for x in (ring.from_int(big), ring.from_fraction(Fraction(7, big)),
                  ring.from_int(big) * ring.from_int(3)):
            with pytest.raises(RingError, match=str(limit)):
                format_elem(x)
        with pytest.raises(RingError):
            parse_elem("1" + "0" * limit, ring)
        # a coefficient of exactly limit digits still prints and re-parses
        for x in (ring.from_int(-(big - 2)), ring.from_fraction(Fraction(1, big - 2))):
            text = format_elem(x)
            assert parse_elem(text, ring) == x


_FORMAT_ALPHABET = "0123456789-+*/^()vs "
_PARSE_RINGS = [generic_field(), rational_field(), cyclotomic_local(3), integer_local(3)]


@st.composite
def element_texts(draw):
    """Text from the alphabet of the element format: either free text or a
    printed element with one slice replaced."""
    ring = draw(st.sampled_from(_PARSE_RINGS))
    if draw(st.booleans()):
        return ring, draw(st.text(_FORMAT_ALPHABET, max_size=30))
    num = lp(draw(st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=4)))
    x = embed(num, ring)
    if ring.is_dvr and draw(st.booleans()):
        x = x * ring.uniformizer() ** draw(st.integers(1, 3))
    text = format_elem(x)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return ring, text[:i] + draw(st.text(_FORMAT_ALPHABET, max_size=4)) + text[j:]


@settings(max_examples=400, deadline=None)
@given(element_texts())
def test_parse_elem_fuzz(case):
    ring, text = case
    try:
        x = parse_elem(text, ring)
    except RingError:
        return
    assert x.ring == ring
    assert parse_elem(format_elem(x), ring) == x


# ---------------------------------------------------------------------------
# the element language: accepted text and its canonical form, refusals


# Rational coefficients are read by clearing denominators at parse time;
# the canonical text is the one the Fraction-coefficient parser printed.
_RATIONAL_COEFFICIENT_TEXTS = [
    (ring, text, canonical)
    for ring in ("cyc:3", "generic")
    for text, canonical in (
        ("1/2*v+1/3", "(3*v+2)/(6)"),
        ("(1/2*v)/(3/4+v)", "(2*v)/(4*v+3)"),
        ("v^-1*(2/3*v^2-1/6)", "(v^-1*(4*v^2-1))/(6)"),
        ("(2/3*v^2+1/3*v+1/3)/(5/6)", "(4*v^2+2*v+2)/(5)"),
        ("-1/4*v^-2+1/4", "(v^-2*(v^2-1))/(4)"),
        ("(3/4)/(1/8*v)", "6*v^-1"),
        ("1/2*v+1/2*v", "v"),
        ("1/3*v-1/3*v", "0"),
        ("4/2*v", "2*v"),
    )
] + [
    ("cyc:3", "s^2 * (1/2*v-5/3)", "s^2 * ((3*v-10)/(6))"),
    ("cyc:3", "(v^2+v+1)/(1/2)", "s^1 * 2"),
    ("cyc:3", "1/2*v^2+1/2*v+1/2", "s^1 * ((1)/(2))"),
    ("cyc:3", "(1/2*v^3-1/2)/(1/3*v-1/3)", "s^1 * ((3)/(2))"),
    ("generic", "(v^2+v+1)/(1/2)", "2*v^2+2*v+2"),
    ("generic", "1/2*v^2+1/2*v+1/2", "(v^2+v+1)/(2)"),
    ("generic", "(1/2*v^3-1/2)/(1/3*v-1/3)", "(3*v^2+3*v+3)/(2)"),
]


@pytest.mark.parametrize("ring,text,canonical", [
    ("cyc:3", "v^2+v^2", "2*v^2"),
    ("cyc:3", "v+-1", "v-1"),
    ("cyc:3", "1/2*v", "(v)/(2)"),
    ("cyc:3", "s^0 * v", "v"),
    ("cyc:3", "(1)/(v)", "v^-1"),
    ("cyc:3", "v^2*(1)", "v^2"),
    ("cyc:3", "0*v", "0"),
    ("cyc:3", "v^-1*(v^2+v+1)", "s^1 * (v^-1)"),
    ("cyc:3", "s^1 * (v+1)/(v+2)", "s^1 * ((v+1)/(v+2))"),
    ("cyc:3", "( v+1 )/( 2 )", "(v+1)/(2)"),
    ("cyc:3", "s^5000 * 1", "s^5000 * 1"),
    ("cyc:1", "s^10000 * 1", "s^10000 * 1"),
    ("int:3", "6/5", "3^1 * (2/5)"),
    ("int:3", "3^100000 * 1", "3^100000 * 1"),
    ("cyc:3", "+v", None),
    ("cyc:3", "v--1", None),
    ("cyc:3", "v2", None),
    ("cyc:3", "v+", None),
    ("cyc:3", "2*-v", None),
    ("cyc:3", "v^1/2", None),
    ("cyc:3", "(v+1)", None),
    ("cyc:3", "s^1*v", None),
    ("cyc:3", "v ^2", None),
    ("cyc:3", "1/0*v", None),
    ("int:3", "1/3", None),
    # s^k expands to degree k * phi(l): refused above 10^4.
    ("cyc:3", "s^5001 * 1", None),
    ("cyc:1", "s^10001 * 1", None),
    ("cyc:3", "s^100000 * (v^2+2)", None),
    *_RATIONAL_COEFFICIENT_TEXTS,
])
def test_element_language(ring, text, canonical):
    ring = parse_ring(ring)
    if canonical is None:
        with pytest.raises(RingError):
            parse_elem(text, ring)
    else:
        assert format_elem(parse_elem(text, ring)) == canonical


_HUGE_TEMPLATES = ["1/{}", "2/{}*v", "(1)/({})", "3^1 * (1/{})", "{}",
                   "v^{}", "v^-{}*(v+1)", "s^{} * 1", "3^{} * (2)", "s^1 * (v^{}+1)"]


@st.composite
def texts_with_huge_numbers(draw):
    """A number of more digits than int() converts, as a denominator, an
    exponent or a coefficient, with the rest of the text possibly mangled."""
    ring = draw(st.sampled_from(_PARSE_RINGS))
    digits = "9" * draw(st.integers(sys.get_int_max_str_digits() + 1,
                                    sys.get_int_max_str_digits() + 50))
    text = draw(st.sampled_from(_HUGE_TEMPLATES)).format(digits)
    i = draw(st.integers(0, len(text)))
    return ring, text[:i] + draw(st.text(_FORMAT_ALPHABET, max_size=3)) + text[i:]


@settings(max_examples=200, deadline=None)
@given(st.one_of(element_texts(), texts_with_huge_numbers()))
def test_parse_elem_raises_only_ring_error(case):
    ring, text = case
    try:
        x = parse_elem(text, ring)
    except RingError:
        return
    assert isinstance(x, ring_mod.RingElem) and x.ring == ring
