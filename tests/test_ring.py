import math
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
    residue,
    to_fraction_field,
    valuation,
)
from qtilt import ring as ring_mod
from qtilt import zpoly

V = sympy.Symbol("v")


def to_sympy(p: LaurentPoly):
    return sum(sympy.Rational(c.numerator, c.denominator) * V**e
               for e, c in p.coeffs) if p.coeffs else sympy.Integer(0)


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
# ground rings: embed, valuation, residue


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


def test_residue_examples(cyc3, int5):
    assert residue(embed(qint(3), cyc3)).is_zero()
    r = residue(embed(qint(2), cyc3))
    # v + 1/v reduces to -1 modulo the third cyclotomic polynomial
    assert r.value == (Fraction(-1), Fraction(0))
    assert residue(int5.from_fraction(Fraction(2, 3))).value == 4


def test_residue_is_multiplicative(cyc3, int3):
    for ring in (cyc3, int3):
        xs = [embed(qint(n), ring) for n in (1, 2, 4, 5)]
        for x in xs:
            for y in xs:
                assert residue(x * y) == residue(x) * residue(y)
                assert residue(x + y) == residue(x) + residue(y)


def test_residue_requires_dvr(gf):
    with pytest.raises(RingError):
        residue(gf.one())


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
    return pi**x.k * to_sympy(x.num) / to_sympy(x.den)


def assert_canonical(x, value):
    value = sympy.cancel(sympy.together(value))
    if value == 0:
        assert x.is_zero()
        return
    assert not x.is_zero()
    assert (x.k, x.num.coeffs, x.den.coeffs) == oracle_canonical(x.ring, value)


def _make(ring, num, den):
    try:
        return ring_mod._make_laurent(ring, num, den)
    except RingError:
        return None


_coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
_laurents = st.dictionaries(st.integers(-3, 3), _coeffs, max_size=4).map(lp).filter(bool)


@st.composite
def num_den_pairs(draw, ring=None):
    """A ring and a num/den pair with a planted common factor and, over
    cyc:l, a planted power of sigma_l in the numerator."""
    ring = ring or draw(st.sampled_from(_KERNEL_RINGS))
    common = draw(_laurents)
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
        assert (x.k, x.num.coeffs, x.den.coeffs) == expected


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
    assert x.den == y.den == LP_ONE
    p = x * y
    assert p.den == LP_ONE and p.num == qint(2) * qint(4)
    assert_canonical(p, elem_sympy(x) * elem_sympy(y))


def test_unit_over_unit(cyc3):
    x, y = embed(qint(2), cyc3), embed(lp({1: 2, 0: 3}), cyc3)
    q = x.divide(y)
    assert q.k == 0 and q.den != LP_ONE
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
