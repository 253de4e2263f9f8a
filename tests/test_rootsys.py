import itertools
import math
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qtilt import rootsys
from qtilt.rootsys import (
    RootSystemError,
    dominance_leq,
    root_system,
    weights_below,
    weyl_character,
    weyl_dimension,
)


def test_labels_a1_a2_g2(a1, a2, g2):
    assert a1.cartan == ((2,),) and a1.d == (1,)
    assert a2.cartan == ((2, -1), (-1, 2)) and a2.d == (1, 1)
    assert sorted(g2.d) == [1, 3]


def test_symmetrizer_identity():
    for lbl in ("A3", "B2", "B3", "C3", "D4", "F4", "G2"):
        rs = root_system(lbl)
        for i in range(rs.rank):
            assert rs.cartan[i][i] == 2
            for j in range(rs.rank):
                assert rs.d[i] * rs.cartan[i][j] == rs.d[j] * rs.cartan[j][i]
        assert min(rs.d) == 1


def test_explicit_cartan_matrix_accepted():
    rs = root_system([[2, -1], [-1, 2]])
    assert rs.d == (1, 1)
    assert rs.label == "custom"


def test_invalid_cartan_rejected():
    with pytest.raises(RootSystemError):
        root_system([[2, -2], [-2, 2]])  # affine
    with pytest.raises(RootSystemError):
        root_system([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(RootSystemError):
        root_system([[1]])
    with pytest.raises(RootSystemError):
        root_system([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(RootSystemError):
        root_system("Z9")


def test_add_root_moves_by_a_cartan_column(a2):
    # subtracting a simple root drops coordinates by the root's column
    mu = (2, 0)
    down = a2.add_root(mu, 0, -1)
    for b in range(2):
        assert down[b] == mu[b] - a2.cartan[b][0]


def test_dominance(a2, a1):
    assert dominance_leq(a2, (1, 1), (1, 1))
    assert dominance_leq(a1, (1,), (3,))
    assert not dominance_leq(a1, (3,), (1,))
    assert not dominance_leq(a2, (1, -1), (0, 0))
    assert not dominance_leq(a1, (0,), (3,))  # not in the root lattice shift


def test_weights_below_a1(a1):
    assert weights_below(a1, (2,)) == [(2,), (0,), (-2,)]
    assert weights_below(a1, (-1,)) == [(-1,)]


def test_weights_below_a2_rho(a2):
    out = weights_below(a2, (1, 1))
    assert len(out) == 7
    assert out[0] == (1, 1)
    assert (0, 0) in out
    # hexagon: six outer weights are the roots
    outer = set(out) - {(0, 0), (1, 1)}
    assert len(outer) == 5


def test_weights_below_order_is_reverse_dominance_extension(a2, b2):
    for rs, lam in ((a2, (2, 1)), (b2, (1, 1))):
        out = weights_below(rs, lam)
        pos = {w: i for i, w in enumerate(out)}
        for w in out:
            for i in range(rs.rank):
                for n in (1, 2):
                    up = rs.add_root(w, i, n)
                    if up in pos:
                        assert pos[up] < pos[w]


def test_weights_below_closed_upward_within_hull(a2):
    # Raising a hull weight stays in the list as long as it stays inside the
    # convex hull; weights <= lam but outside the hull are deliberately cut.
    lam = (2, 1)
    out = set(weights_below(a2, lam))
    for mu in out:
        for i in range(2):
            up = a2.add_root(mu, i, 1)
            in_hull = dominance_leq(a2, up, lam) and dominance_leq(
                a2, a2.dominant_conjugate(up), lam)
            assert (up in out) == in_hull or up == lam


def test_weights_below_without_pruning_needs_bound(a1):
    with pytest.raises(RootSystemError):
        weights_below(a1, (2,), prune_hull=False)
    out = weights_below(a1, (2,), prune_hull=False, height_bound=4)
    assert out == [(2,), (0,), (-2,), (-4,), (-6,)]


def test_weights_below_refuses_a_negative_height_bound(a1):
    for prune in (True, False):
        with pytest.raises(RootSystemError, match="height bound"):
            weights_below(a1, (3,), prune_hull=prune, height_bound=-1)
        assert weights_below(a1, (3,), prune_hull=prune, height_bound=0) == [(3,)]


def test_weyl_character_sl2(a1):
    for n in range(7):
        wc = weyl_character(a1, (n,))
        assert wc == {(n - 2 * i,): 1 for i in range(n + 1)}


def test_weyl_character_a2_adjoint(a2):
    wc = weyl_character(a2, (1, 1))
    assert sum(wc.values()) == 8
    assert wc[(0, 0)] == 2
    assert wc[(1, 1)] == 1


def test_weyl_character_rejects_non_dominant(a2):
    with pytest.raises(RootSystemError):
        weyl_character(a2, (-1, 0))


_RANK_3_4 = [("A3", (1, 0, 1)), ("A3", (2, 1, 0)), ("B3", (1, 0, 1)), ("B3", (0, 1, 1)),
             ("C3", (0, 1, 0)), ("C3", (1, 1, 0)), ("D4", (0, 1, 0, 0)), ("D4", (1, 0, 1, 1))]


def test_weyl_character_weyl_group_symmetric(a2, b2, g2):
    cases = [(a2, (2, 1)), (b2, (1, 1)), (g2, (1, 0))]
    cases += [(root_system(lbl), lam) for lbl, lam in _RANK_3_4]
    for rs, lam in cases:
        wc = weyl_character(rs, lam)
        for mu, m in wc.items():
            for i in range(rs.rank):
                assert wc.get(rs.reflect(mu, i), 0) == m


def test_weyl_character_total_matches_dimension_formula(a2, b2, g2):
    cases = [(a2, (1, 0)), (a2, (1, 1)), (a2, (2, 1)),
             (b2, (1, 0)), (b2, (0, 1)), (b2, (1, 1)), (g2, (1, 0))]
    cases += [(root_system(lbl), lam) for lbl, lam in _RANK_3_4]
    for rs, lam in cases:
        assert sum(weyl_character(rs, lam).values()) == weyl_dimension(rs, lam)


# Reference copies of the Fraction-based weyl_character and of the
# weights_below and dominant_conjugate it used; the integer versions must
# agree with them exactly, list order included.

def _ref_dominant_conjugate(rs, mu):
    while True:
        i = next((j for j, c in enumerate(mu) if c < 0), None)
        if i is None:
            return mu
        mu = rs.reflect(mu, i)


def _ref_weights_below(rs, lam, prune_hull=True, height_bound=None):
    def keep(mu):
        if prune_hull:
            return dominance_leq(rs, _ref_dominant_conjugate(rs, mu), lam)
        return True

    out = [lam]
    level = {lam}
    h = 0
    while level:
        h += 1
        if height_bound is not None and h > height_bound:
            break
        nxt = set()
        for mu in level:
            for i in range(rs.rank):
                cand = rs.add_root(mu, i, -1)
                if cand not in nxt and keep(cand):
                    nxt.add(cand)
        out.extend(sorted(nxt))
        level = nxt
    return out


def _ref_weyl_character(rs, lam):
    rho = rs.rho()
    pos = [(gamma, tuple(int(c) * d for c, d in zip(rs.root_coords(gamma), rs.d)))
           for gamma in rs.positive_roots()]
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    norm_top = rs.inner(lam_rho, lam_rho)
    mult = {lam: 1}
    for mu in _ref_weights_below(rs, lam, prune_hull=True)[1:]:
        acc = 0
        for gamma, pair in pos:
            k = 1
            while True:
                up = tuple(m + k * g for m, g in zip(mu, gamma))
                m_up = mult.get(up)
                if m_up is None:
                    break
                if m_up:
                    acc += m_up * sum(x * c for x, c in zip(up, pair))
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        denom = norm_top - rs.inner(mu_rho, mu_rho)
        assert denom != 0
        m = 2 * acc / denom
        assert m.denominator == 1 and m >= 0
        mult[mu] = int(m)
    return {mu: m for mu, m in mult.items() if m > 0}


@pytest.mark.parametrize("label,top", [
    ("A1", 3), ("A2", 3), ("A3", 3), ("A4", 3), ("B2", 3), ("B3", 3), ("B4", 3),
    ("C3", 3), ("C4", 3), ("D4", 2), ("G2", 3), ("F4", 2)])
def test_integer_oracle_matches_fraction_reference(label, top):
    rs = root_system(label)
    for lam in itertools.product(range(top + 1), repeat=rs.rank):
        if sum(lam) > top:
            continue
        order = weights_below(rs, lam)
        assert order == _ref_weights_below(rs, lam), lam
        assert all(rs.dominant_conjugate(mu) == _ref_dominant_conjugate(rs, mu)
                   for mu in order), lam
        want = _ref_weyl_character(rs, lam)
        got = weyl_character(rs, lam)
        assert got == want and list(got) == list(want), lam
    # The unpruned enumeration keeps its order too.
    lam = (top,) + (0,) * (rs.rank - 1)
    assert (weights_below(rs, lam, prune_hull=False, height_bound=4)
            == _ref_weights_below(rs, lam, prune_hull=False, height_bound=4))


def test_classical_dimensions(b2, g2):
    assert weyl_dimension(b2, (1, 0)) == 5
    assert weyl_dimension(b2, (0, 1)) == 4
    assert weyl_dimension(b2, (1, 1)) == 16
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14


def test_highest_weight_multiplicity_one(a2, b2):
    for rs, lam in ((a2, (3, 2)), (b2, (2, 1))):
        assert weyl_character(rs, lam)[lam] == 1


def test_inner_form_symmetric_positive(a2, b2, g2):
    for rs in (a2, b2, g2):
        roots = rs.positive_roots()
        for x in roots:
            for y in roots:
                assert rs.inner(x, y) == rs.inner(y, x)
            assert rs.inner(x, x) > 0


def test_positive_roots_count_and_fresh_list():
    counts = {"A1": 1, "A3": 6, "B3": 9, "C3": 9, "D4": 12, "G2": 6, "F4": 24, "E6": 36,
              "E7": 63, "E8": 120}
    for lbl, n in counts.items():
        rs = root_system(lbl)
        roots = rs.positive_roots()
        assert len(roots) == len(set(roots)) == n
        zero = (0,) * rs.rank
        assert set(roots[:rs.rank]) == {rs.add_root(zero, i) for i in range(rs.rank)}
        roots.clear()
        assert len(rs.positive_roots()) == n


def test_dominant_conjugate(a2):
    assert a2.dominant_conjugate((-1, -1)) == (1, 1)
    assert a2.dominant_conjugate((2, 0)) == (2, 0)


_LATTICE_LABELS = ("A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6")
_LATTICE_SYSTEMS = {lbl: root_system(lbl) for lbl in _LATTICE_LABELS}


def _fraction_dominance(rs, mu, lam):
    """lam - mu in the positive root cone, read off the Fraction root coordinates."""
    coords = rs.root_coords(tuple(a - b for a, b in zip(lam, mu)))
    return all(c.denominator == 1 and c >= 0 for c in coords)


def _sympy_lattice(cartan):
    """(den, den * C^-1) from sympy's inverse of the Cartan matrix, den the
    lcm of its denominators."""
    inv = sympy.Matrix(cartan).inv()
    den = math.lcm(*(int(x.q) for x in inv))
    return den, tuple(tuple(int(x * den) for x in inv.row(i)) for i in range(inv.rows))


def test_lattice_denominator_is_least(a2, b2, g2):
    assert a2.lattice[0] == 3 and b2.lattice[0] == 2 and g2.lattice[0] == 1
    for rs in _LATTICE_SYSTEMS.values():
        assert rs.lattice == _sympy_lattice(rs.cartan)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_LATTICE_LABELS), st.data())
def test_integer_dominance_matches_fraction_reference(label, data):
    rs = _LATTICE_SYSTEMS[label]
    small = st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank)
    lam = tuple(data.draw(small))
    if data.draw(st.booleans()):
        # mu = lam - (a nonnegative root combination), perturbed sometimes,
        # so both answers occur often.
        mu = lam
        for i, n in enumerate(data.draw(st.lists(st.integers(0, 3), min_size=rs.rank,
                                                 max_size=rs.rank))):
            mu = rs.add_root(mu, i, -n)
        if data.draw(st.booleans()):
            mu = rs.add_root(mu, data.draw(st.integers(0, rs.rank - 1)), 1)
    else:
        mu = tuple(data.draw(small))
    want = _fraction_dominance(rs, mu, lam)
    assert dominance_leq(rs, mu, lam) == want
    assert rs.lattice_leq(rs.lattice_coords(mu), rs.lattice_coords(lam)) == want


def test_rank_above_the_limit_is_refused_before_any_matrix(monkeypatch):
    # A label used to build its n x n matrix and eliminate it over Fraction
    # before any check: A1000 would have run for about an hour.
    def refuse(*args):
        raise AssertionError("a matrix was built for a refused rank")

    monkeypatch.setattr(rootsys, "_label_cartan", refuse)
    for label in ("A65", "D100", "A1000000000"):
        with pytest.raises(RootSystemError, match=r"exceeds the largest supported rank 64"):
            root_system(label)
    chain = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(65)]
             for i in range(65)]
    monkeypatch.setattr(rootsys, "_validate", refuse)
    with pytest.raises(RootSystemError, match=r"rank 65 exceeds"):
        root_system(chain)


def test_rank_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(rootsys, "MAX_RANK", 3)
    assert root_system("B3").rank == root_system([[2, -1], [-1, 2]]).rank + 1
    for spec in ("A4", [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]):
        with pytest.raises(RootSystemError, match="rank 4 exceeds the largest supported rank 3"):
            root_system(spec)


def test_a_label_is_read_in_ascii_digits_and_made_canonical(a1):
    # "A01" used to keep its label, so it compared unequal to A1.
    for spec in ("A01", "A001", " A1 "):
        assert root_system(spec) == a1 and root_system(spec).label == "A1"
    assert root_system("E08").label == "E8"
    with pytest.raises(RootSystemError, match="bad root system label"):
        root_system("A\u0661")  # ARABIC-INDIC DIGIT ONE, a Unicode digit


def test_a_bad_label_is_quoted_by_a_prefix():
    # The whole spec used to be echoed: a 100 026-byte message for a
    # 100 000-character label.
    spec = "Z" + "9" * 99_999
    with pytest.raises(RootSystemError) as err:
        root_system(spec)
    msg = str(err.value)
    assert msg == f"bad root system label '{spec[:40]}'... (100000 characters)"
    assert len(msg) < 100
    with pytest.raises(RootSystemError, match=r"^bad root system label 'Z{40}'$"):
        root_system("Z" * 40)


def test_a_rank_of_too_many_digits_is_refused():
    # A rank past the interpreter's int-string limit used to raise a plain
    # ValueError from int().
    n = sys.get_int_max_str_digits() + 1
    with pytest.raises(RootSystemError, match=f"rank of {n} digits exceeds"):
        root_system("A" + "1" * n)


def _minors_positive(cartan, d):
    """Sylvester's criterion on D C, with each leading minor a Leibniz sum
    over permutations: shares nothing with the elimination under test."""
    n = len(cartan)
    b = [[d[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        det = 0
        for perm in itertools.permutations(range(k)):
            inv = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            term = (-1) ** inv
            for i in range(k):
                term *= b[i][perm[i]]
            det += term
        if det <= 0:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_finite_type_test_matches_sylvester(data):
    # The pivot signs of the one elimination against the leading minors of
    # the symmetrized matrix; accepted matrices get sympy's C^-1.
    n = data.draw(st.integers(1, 5))
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    pairs = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4)]
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                c[i][j], c[j][i] = data.draw(st.sampled_from(pairs))
    try:
        d = rootsys._symmetrizer(c)
    except RootSystemError:
        return
    try:
        rs = root_system(c)
    except RootSystemError as exc:
        assert str(exc) == "Cartan matrix is not of finite type"
        assert not _minors_positive(c, d)
        return
    assert _minors_positive(c, d)
    assert rs.lattice == _sympy_lattice(c)


@pytest.mark.parametrize("label,index,dim", [
    ("E6", 0, 27), ("E7", 6, 56), ("E7", 0, 133), ("E8", 7, 248)])
def test_exceptional_e_fundamental_dimensions(label, index, dim):
    # The product formula and the Freudenthal oracle on E6-E8, which no
    # other test builds past their positive roots.
    rs = root_system(label)
    lam = tuple(int(i == index) for i in range(rs.rank))
    assert weyl_dimension(rs, lam) == dim
    char = weyl_character(rs, lam)
    assert sum(char.values()) == dim and char[lam] == 1
