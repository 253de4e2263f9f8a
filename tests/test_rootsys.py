from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtilt.rootsys import (
    RootSystemError,
    dominance_leq,
    pairing,
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


def test_pairing_reads_coordinates(a2, a1):
    assert pairing(a2, (1, 1), 0) == 1
    assert pairing(a1, (3,), 0) == 3
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


def test_weyl_character_weyl_group_symmetric(a2, b2, g2):
    for rs, lam in ((a2, (2, 1)), (b2, (1, 1)), (g2, (1, 0))):
        wc = weyl_character(rs, lam)
        for mu, m in wc.items():
            for i in range(rs.rank):
                assert wc.get(rs.reflect(mu, i), 0) == m


def test_weyl_character_total_matches_dimension_formula(a2, b2, g2):
    cases = [(a2, (1, 0)), (a2, (1, 1)), (a2, (2, 1)),
             (b2, (1, 0)), (b2, (0, 1)), (b2, (1, 1)), (g2, (1, 0))]
    for rs, lam in cases:
        assert sum(weyl_character(rs, lam).values()) == weyl_dimension(rs, lam)


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


def test_dominant_conjugate(a2):
    assert a2.dominant_conjugate((-1, -1)) == (1, 1)
    assert a2.dominant_conjugate((2, 0)) == (2, 0)


_LATTICE_LABELS = ("A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6")
_LATTICE_SYSTEMS = {lbl: root_system(lbl) for lbl in _LATTICE_LABELS}


def _fraction_dominance(rs, mu, lam):
    """lam - mu in the positive root cone, read off the Fraction root coordinates."""
    coords = rs.root_coords(tuple(a - b for a, b in zip(lam, mu)))
    return all(c.denominator == 1 and c >= 0 for c in coords)


def test_lattice_denominator_is_least(a2, b2, g2):
    assert a2.lattice[0] == 3 and b2.lattice[0] == 2 and g2.lattice[0] == 1
    for rs in _LATTICE_SYSTEMS.values():
        den, inv = rs.lattice
        assert all(c * den == x for row, irow in zip(rs._inv_cartan, inv)
                   for c, x in zip(row, irow))
        assert not any(all((c * d).denominator == 1 for row in rs._inv_cartan for c in row)
                       for d in range(1, den))


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
