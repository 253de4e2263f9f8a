import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtilt.linalg import (
    LinAlgError,
    Mat,
    hstack,
    is_unit_matrix,
    rank,
    relative_invariants,
    saturation_with_invariants,
    smith_normal_form,
    vstack,
)
from qtilt.ring import embed, generic_field, parse_ring, qbinom, qint
from qtilt.rootsys import root_system, weights_below, weyl_character
from qtilt.forms import build_smax_with_form, complete_nondegenerate
from qtilt.serialize import dump_form, dump_xobject, load_xobject
from qtilt.xcat import (
    Obstructed,
    Report,
    XCatError,
    XObject,
    base_change_to_field,
    build_smax,
    build_smin,
    character,
    check_axioms,
    delta_space,
    direct_sum,
    extend_hom,
    extend_hom_down,
    hat_matrices,
    maximal_extend,
    maximality_certificate,
    minimal_extend,
    minimality_certificate,
    restrict,
    verify_frontier,
    verify_hom,
    verify_relations,
    weyl_multiplicities,
)
from qtilt.xcat import _qb, _seed, _x2_failures


def seed(rs, ring, lam):
    return _seed(rs, ring, lam)


def block(index, alpha, n):
    for b in index:
        if (b.alpha, b.n) == (alpha, n):
            return b
    raise AssertionError(f"no block ({alpha},{n}) in {index}")


# ---------------------------------------------------------------------------
# delta spaces and hat matrices


def test_delta_space_empty_above(a1, gf):
    M = seed(a1, gf, (3,))
    index, e, f = delta_space(M, (3,))
    assert index == () and e.rows == 0 and f.cols == 0


def test_delta_space_first_step(a1, gf):
    # One step below a rank-1 top: the lowering matrix is the identity and
    # the raising matrix is multiplication by the quantum integer of the top.
    lam = 5
    M = minimal_extend(seed(a1, gf, (lam,)), (lam - 2,))
    index, e, f = delta_space(M, (lam - 2,))
    assert [(b.alpha, b.n, b.rank) for b in index] == [(0, 1, 1)]
    assert f == Mat.identity(gf, 1)
    assert e == Mat.from_rows(gf, [[embed(qint(lam), gf)]])


def test_delta_space_a2_blocks(a2, gf):
    M = seed(a2, gf, (1, 1))
    M = minimal_extend(M, (-1, 2))
    M = minimal_extend(M, (2, -1))
    index, _, _ = delta_space(M, (0, 0))
    assert [(b.alpha, b.n, b.rank) for b in index] == [(0, 1, 1), (1, 1, 1)]


@pytest.mark.parametrize("lam", [5, 6, 7])
def test_hat_matrix_two_step_worked_example(a1, gf, lam):
    M = minimal_extend(seed(a1, gf, (lam,)), (lam - 2,))
    ehat, fhat, index = hat_matrices(M, (lam - 4,))
    assert fhat == Mat.identity(gf, 2)
    b1, b2 = block(index, 0, 1), block(index, 0, 2)

    def q(p):
        return embed(p, gf)

    assert ehat[b1.offset, b1.offset] == q(qint(lam) + qint(lam - 2))
    assert ehat[b1.offset, b2.offset] == q(qint(lam - 1))
    assert ehat[b2.offset, b1.offset] == q(qint(lam) * qint(lam - 1))
    assert ehat[b2.offset, b2.offset] == q(qbinom(lam, 2))


def test_hat_matrix_a2_displayed_entries(a2, gf):
    lam = (3, 2)
    M = seed(a2, gf, lam)
    M = minimal_extend(M, a2.add_root(lam, 0, -1))
    M = minimal_extend(M, a2.add_root(lam, 1, -1))
    mu = a2.add_root(a2.add_root(lam, 0, -1), 1, -1)
    ehat, _, index = hat_matrices(M, mu)
    ba, bb = block(index, 0, 1), block(index, 1, 1)

    def q(n):
        return embed(qint(n), gf)

    lam_a, lam_b = lam
    # <lam - beta, alpha^vee> and <lam - alpha, beta^vee> via the Cartan matrix
    lam_mb_a = lam_a - a2.cartan[0][1]
    lam_ma_b = lam_b - a2.cartan[1][0]
    assert ehat[ba.offset, ba.offset] == q(lam_mb_a)
    assert ehat[bb.offset, ba.offset] == q(lam_b)
    assert ehat[ba.offset, bb.offset] == q(lam_a)
    assert ehat[bb.offset, bb.offset] == q(lam_ma_b)


def test_hat_matrix_empty(a1, gf):
    M = seed(a1, gf, (3,))
    ehat, fhat, index = hat_matrices(M, (3 + 2,))
    assert index == () and ehat.rows == 0 and fhat.rows == 0


# ---------------------------------------------------------------------------
# minimal extension


def test_minimal_extend_generic_rank_one(a1, gf):
    lam = 4
    M = minimal_extend(seed(a1, gf, (lam,)), (lam - 2,))
    assert M.rank((lam - 2,)) == 1
    _, e, f = delta_space(M, (lam - 2,))
    assert e[0, 0] == embed(qint(lam), gf)
    assert f == Mat.identity(gf, 1)


def test_minimal_extend_zero_when_qint_vanishes(a1, gf):
    # top weight 0: the raising matrix is [0] and the new space vanishes
    M = minimal_extend(seed(a1, gf, (0,)), (-2,))
    assert M.rank((-2,)) == 0


def test_minimal_extend_second_step_kernel_rank_two(a1, gf):
    # lam = 1: the two-step raising matrix has [lam - 1] = 0, so the kernel
    # has rank 2 and the new space vanishes.
    M = minimal_extend(seed(a1, gf, (1,)), (-1,))
    assert M.rank((-1,)) == 1
    M = minimal_extend(M, (-3,))
    assert M.rank((-3,)) == 0


def test_minimal_extend_rejects_existing_weight(a1, gf):
    M = seed(a1, gf, (2,))
    with pytest.raises(XCatError):
        minimal_extend(M, (2,))


# ---------------------------------------------------------------------------
# maximal extension


def test_maximal_extend_adds_torsion_generator(a1, cyc3):
    M = maximal_extend(seed(a1, cyc3, (3,)), (1,))
    assert M.rank((1,)) == 2
    _, e, f = delta_space(M, (1,))
    assert f.entries[1][0].is_zero()  # new generator lowers to zero
    _, exps = saturation_with_invariants(e)
    assert exps == ()


def test_maximal_extend_trivial_when_saturated(a1, cyc3):
    Ma = maximal_extend(seed(a1, cyc3, (2,)), (0,))
    Mb = minimal_extend(seed(a1, cyc3, (2,)), (0,))
    assert Ma == Mb


def test_maximal_extend_a2_rank_three(a2, cyc3):
    lam = (1, 1)
    M = seed(a2, cyc3, lam)
    for mu in weights_below(a2, lam)[1:]:
        M = maximal_extend(M, mu)
        if mu == (0, 0):
            assert M.rank((0, 0)) == 3
    assert maximality_certificate(M).ok


# ---------------------------------------------------------------------------
# full builds


def test_build_smin_a1_ranks(a1, gf):
    M = build_smin(a1, gf, (3,))
    assert character(M) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_build_smin_matches_oracle(a2, cyc3):
    M = build_smin(a2, cyc3, (1, 1))
    assert character(M) == weyl_character(a2, (1, 1))
    assert sum(character(M).values()) == 8


def test_build_smin_zero_weight(a2, gf):
    M = build_smin(a2, gf, (0, 0))
    assert character(M) == {(0, 0): 1}


def test_build_refuses_non_dominant(a1, gf):
    with pytest.raises(XCatError):
        build_smin(a1, gf, (-1,))
    with pytest.raises(XCatError):
        build_smax(a1, gf, (-2,))


def test_build_without_pruning_below_a_height_bound(a1, gf):
    # The region is (1,), (-1,), (-3,); the space at (-3,) has rank 0.
    M = build_smin(a1, gf, (1,), prune=False, height_bound=2)
    assert character(M) == {(1,): 1, (-1,): 1}


def test_build_smax_field_equals_smin(a1, a2, gf):
    for rs, lam in ((a1, (4,)), (a2, (1, 1))):
        assert character(build_smax(rs, gf, lam)) == character(build_smin(rs, gf, lam))


def test_build_smax_sl2_tilting_character(a1, cyc3):
    T = build_smax(a1, cyc3, (3,))
    assert character(T) == {(3,): 1, (1,): 2, (-1,): 2, (-3,): 1}


def _weyl_sl2(n):
    return {w: 1 for w in range(-n, n + 1, 2)}


def _donkin_tilting_sl2(p, lam):
    """The character {weight: multiplicity} of the SL2 tilting module T(lam)
    in characteristic p, from the weights alone: T(lam) = Delta(lam) for
    lam <= p-1, Delta(lam) + Delta(2p-2-lam) for p <= lam <= 2p-2, and above
    that Donkin's tensor product theorem
    T(p-1+r+pm) = T(p-1+r) (x) T(m)^[1] for 0 <= r <= p-1, where the
    Frobenius twist ^[1] multiplies every weight by p."""
    if lam <= p - 1:
        return _weyl_sl2(lam)
    if lam <= 2 * p - 2:
        out = _weyl_sl2(lam)
        for w in _weyl_sl2(2 * p - 2 - lam):
            out[w] += 1
        return out
    m, r = divmod(lam - (p - 1), p)
    out = {}
    for a, x in _donkin_tilting_sl2(p, p - 1 + r).items():
        for b, y in _donkin_tilting_sl2(p, m).items():
            out[a + p * b] = out.get(a + p * b, 0) + x * y
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_build_smax_int_p_matches_donkin_oracle(a1, p):
    ring = parse_ring(f"int:{p}")
    for lam in range(16):
        want = {(w,): m for w, m in _donkin_tilting_sl2(p, lam).items()}
        assert character(build_smax(a1, ring, (lam,))) == want, (p, lam)


def test_donkin_oracle_known_values():
    # Steinberg modules T(p**n - 1) = Delta(p**n - 1)
    for p, lam in ((2, 3), (2, 7), (3, 8), (5, 24)):
        assert _donkin_tilting_sl2(p, lam) == _weyl_sl2(lam)
    # T(4) in characteristic 3 is Delta(4) + Delta(0)
    assert _donkin_tilting_sl2(3, 4) == {4: 1, 2: 1, 0: 2, -2: 1, -4: 1}
    # T(5) in characteristic 2: T(1) (x) T(2)^[1] with T(2) = Delta(2) + Delta(0)
    assert _donkin_tilting_sl2(2, 5) == {5: 1, 3: 1, 1: 2, -1: 2, -3: 1, -5: 1}


@pytest.mark.parametrize("label,lam", [
    ("A3", (1, 0, 0)),
    ("B3", (1, 0, 0)),
    ("C2", (1, 0)),
    ("C3", (0, 0, 1)),
    ("D4", (1, 0, 0, 0)),
])
def test_build_smin_breadth_across_types(label, lam, cyc3):
    from qtilt.rootsys import root_system

    rs = root_system(label)
    M = build_smin(rs, cyc3, lam)
    assert character(M) == weyl_character(rs, lam)
    assert check_axioms(M).ok
    assert minimality_certificate(M).ok


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "B2"]),
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.sampled_from(["cyc:3", "cyc:5", "int:2", "int:5"]),
)
def test_random_dominant_builds_certify(label, coords, rdesc):
    from qtilt.ring import parse_ring
    from qtilt.rootsys import root_system

    rs = root_system(label)
    lam = (coords[0] + coords[1],) if rs.rank == 1 else coords[: rs.rank]
    ring = parse_ring(rdesc)
    S = build_smin(rs, ring, lam)
    assert character(S) == weyl_character(rs, lam)
    assert minimality_certificate(S).ok
    T = build_smax(rs, ring, lam)
    assert maximality_certificate(T).ok
    wm = weyl_multiplicities(T)
    assert wm.get(lam) == 1
    combo = {}
    for nu, m in wm.items():
        assert rs.is_dominant(nu)
        for mu, c in weyl_character(rs, nu).items():
            combo[mu] = combo.get(mu, 0) + m * c
    assert combo == character(T)


def test_verify_frontier_names_no_cause(a1, gf):
    # A height bound, not hull pruning, leaves (-2,) out here; the message
    # used to blame pruning all the same.
    M = build_smin(a1, gf, (2,), height_bound=1)
    with pytest.raises(XCatError, match=r"one level below the region, at \(-2,\)") as exc:
        verify_frontier(M)
    assert "pruning" not in str(exc.value)


def test_verify_frontier_flag(a1, a2, cyc3):
    verify_frontier(build_smin(a1, cyc3, (4,)))
    verify_frontier(build_smax(a2, cyc3, (1, 1)))
    with pytest.raises(XCatError):
        verify_frontier(direct_sum(build_smin(a1, cyc3, (2,)), build_smin(a1, cyc3, (0,))))


def test_verify_frontier_takes_no_snf(a2, cyc3, monkeypatch):
    # Each candidate's raising matrix is zero or not; its rank is never
    # computed.  A rank per candidate took one SNF each.
    import qtilt.linalg as linalg_mod
    import qtilt.xcat as xcat_mod

    M = build_smax(a2, cyc3, (2, 1))
    snfs, hats = [], []
    snf, hat = linalg_mod.smith_normal_form, xcat_mod.hat_matrices
    monkeypatch.setattr(linalg_mod, "smith_normal_form",
                        lambda *a, **kw: snfs.append(1) or snf(*a, **kw))
    monkeypatch.setattr(xcat_mod, "hat_matrices", lambda M, nu: hats.append(nu) or hat(M, nu))
    verify_frontier(M)
    assert hats and snfs == []


def test_verify_frontier_leaves_the_word_memo_as_it_was(a1, a2, cyc3):
    # The check used to leave the words of its hat matrices on the object,
    # 142 words on 12 sources here, which nothing reads.
    M = build_smax(a2, cyc3, (2, 1))
    verify_frontier(M)
    assert "_words" not in vars(M)
    # A mid-build object keeps its memo, unchanged, also when the check
    # finds a nonzero space below its region.
    M = seed(a1, cyc3, (8,))
    for mu in weights_below(a1, (8,))[1:5]:
        M = maximal_extend(M, mu)
    words = M._words
    before = {src: dict(memo) for src, memo in words.items()}
    with pytest.raises(XCatError, match="one level below the region"):
        verify_frontier(M)
    assert vars(M)["_words"] is words and words == before


def test_build_determinism(a2, cyc3):
    a = build_smax(a2, cyc3, (1, 1))
    b = build_smax(a2, cyc3, (1, 1))
    assert a == b
    assert dump_xobject(a) == dump_xobject(b)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_full_is_identity(a1, cyc3):
    M = build_smin(a1, cyc3, (2,))
    assert restrict(M, sorted(M.region)) == M


def test_restrict_to_top(a1, cyc3):
    M = build_smin(a1, cyc3, (2,))
    R = restrict(M, [(2,)])
    assert character(R) == {(2,): 1}
    assert not R.eops and not R.fops


def test_restrict_then_rebuild(a1, cyc3):
    M = build_smin(a1, cyc3, (4,))
    R = restrict(M, [(4,), (2,)])
    assert check_axioms(R).ok
    again = minimal_extend(minimal_extend(R, (0,)), (-2,))
    again = minimal_extend(again, (-4,))
    assert character(again) == character(M)


def test_restrict_rejects_non_closed(a1, cyc3):
    M = build_smin(a1, cyc3, (4,))
    with pytest.raises(XCatError):
        restrict(M, [(2,), (0,)])  # drops the top above (2,)
    with pytest.raises(XCatError):
        restrict(M, [(6,)])  # outside the region


# ---------------------------------------------------------------------------
# the support index behind ladder and max_op_index


def scan_multiple(diff, alpha):
    """n with diff == n*alpha, or None (a test-only root-multiple solver)."""
    n = None
    for d, a in zip(diff, alpha):
        if a == 0:
            if d != 0:
                return None
        else:
            if d % a != 0:
                return None
            q = d // a
            if n is None:
                n = q
            elif q != n:
                return None
    if n is None:
        n = 0 if all(d == 0 for d in diff) else None
    return n


def scan_ladder(M, mu, a):
    """ladder(mu, a) by a scan of every supported weight."""
    alpha = M.rs.add_root((0,) * M.rs.rank, a)
    out = []
    for nu in M.spaces:
        n = scan_multiple(tuple(x - y for x, y in zip(nu, mu)), alpha)
        if n is not None and n > 0:
            out.append(n)
    return sorted(out)


def scan_max_op_index(M):
    """max_op_index() from scan_ladder at every supported weight."""
    return max((n for mu in M.spaces for a in range(M.rs.rank)
                for n in scan_ladder(M, mu, a)), default=0)


_INDEX_BUILDS = [("A1", (5,)), ("A1", (6,)), ("A2", (2, 1)), ("B2", (1, 1)),
                 ("C3", (0, 1, 0)), ("G2", (0, 1))]


def _hand_built(label, ranks, extra=()):
    """An object with the given spaces, no operators, and region the
    support plus extra (rank-0) weights; its strings have gaps."""
    rs, ring = root_system(label), parse_ring("cyc:3")
    return XObject(ring, rs, dict(ranks), {}, {}, frozenset(ranks) | frozenset(extra))


_GAPPED = [
    ("A1", {(6,): 1, (2,): 2, (0,): 1, (-6,): 3, (3,): 1, (-5,): 2}, [(4,), (-2,), (1,)]),
    ("A2", {(2, 1): 1, (-2, 3): 1, (-4, 4): 2, (1, -1): 1, (-1, -3): 1, (5, -2): 1},
     [(0, 2), (3, -1)]),
    ("B2", {(1, 1): 1, (-3, 3): 2, (3, -1): 1, (-1, -1): 1, (2, 0): 1}, [(-1, 2)]),
    ("G2", {(1, 1): 1, (-3, 4): 1, (5, -2): 2, (-1, -1): 1, (0, 3): 1}, [(1, 0)]),
    ("C3", {(0, 1, 0): 1, (0, -1, 2): 1, (2, -1, 0): 1, (-2, 3, -2): 1}, []),
]


def _index_objects():
    out = []
    for label, lam in _INDEX_BUILDS:
        rs, ring = root_system(label), parse_ring("cyc:3")
        order = weights_below(rs, lam)
        for build in (build_smin, build_smax):
            M = build(rs, ring, lam)
            name = f"{label}-{','.join(map(str, lam))}-{build.__name__[6:]}"
            out += [pytest.param(M, id=name),
                    pytest.param(restrict(M, order[:len(order) // 2]), id=f"{name}-restricted")]
    out += [pytest.param(_hand_built(label, ranks, extra), id=f"{label}-gapped")
            for label, ranks, extra in _GAPPED]
    return out


@pytest.mark.parametrize("M", _index_objects())
def test_ladder_and_max_op_index_match_the_scan(M):
    rs = M.rs
    weights = M.region | {rs.add_root(mu, i, -1) for mu in M.region for i in range(rs.rank)}
    for mu in sorted(weights):
        for a in range(rs.rank):
            assert M.ladder(mu, a) == scan_ladder(M, mu, a), (mu, a)
    assert M.max_op_index() == scan_max_op_index(M)


def test_hand_built_strings_have_gaps():
    # The gapped objects are what the index must get right: a ladder that
    # skips a weight, and strings of both parities along one root.
    M = _hand_built(*_GAPPED[0])
    assert M.ladder((-6,), 0) == [3, 4, 6]
    assert M.ladder((-5,), 0) == [4]
    assert M.ladder((-4,), 0) == [2, 3, 5]
    assert M.max_op_index() == 6


# ---------------------------------------------------------------------------
# axioms / relations


def test_check_axioms_on_built_objects(a1, a2, cyc3, gf):
    for M in (build_smin(a1, gf, (4,)), build_smax(a1, cyc3, (3,)),
              build_smax(a2, cyc3, (1, 1))):
        rep = check_axioms(M)
        assert rep.ok, rep.failures()


def test_check_axioms_x3c_counterexample(a1, cyc3):
    # rank-1 spaces with E = (1), F = (sigma): the lowering image is not a
    # direct summand.
    sig = cyc3.uniformizer()
    spaces = {(3,): 1, (1,): 1}
    eops = {((1,), 0, 1): Mat.from_rows(cyc3, [[cyc3.one()]])}
    fops = {((1,), 0, 1): Mat.from_rows(cyc3, [[sig]])}
    M = XObject(cyc3, a1, spaces, eops, fops, frozenset(spaces), (3,))
    rep = check_axioms(M)
    assert any(e.check == "X3c" and e.status == "fail" for e in rep.entries)


def test_check_axioms_x3b_counterexample(a1, gf):
    # over a field: E = (1), F = (0) violates the kernel/image decomposition
    spaces = {(2,): 1, (0,): 1}
    eops = {((0,), 0, 1): Mat.from_rows(gf, [[gf.one()]])}
    M = XObject(gf, a1, spaces, eops, {}, frozenset(spaces), (2,))
    rep = check_axioms(M)
    assert any(e.check == "X3b" and e.status == "fail" for e in rep.entries)


def test_verify_relations_divided_powers(a1, gf):
    M = build_smin(a1, gf, (4,))
    rep = verify_relations(M)
    assert rep.ok
    # spot check E1 E1 = [2] E2 on a middle weight
    lhs = M.eop((0,), 0, 1)
    lhs = M.eop((2,), 0, 1) @ lhs
    rhs = M.eop((0,), 0, 2).scale(embed(qint(2), gf))
    assert lhs == rhs


def test_verify_relations_on_tilting(a2, cyc3):
    T = build_smax(a2, cyc3, (1, 1))
    assert verify_relations(T).ok


def test_verify_relations_catches_corruption(a1, cyc3):
    M = build_smin(a1, cyc3, (2,))
    bad_eops = dict(M.eops)
    key = ((0,), 0, 1)
    bad_eops[key] = bad_eops[key].scale(cyc3.uniformizer())
    bad = XObject(cyc3, a1, dict(M.spaces), bad_eops, dict(M.fops), M.region, M.top)
    assert not verify_relations(bad).ok


# ---------------------------------------------------------------------------
# certificates, multiplicities, characters


def test_certificates(a1, a2, cyc3):
    S = build_smin(a2, cyc3, (1, 1))
    T = build_smax(a2, cyc3, (1, 1))
    assert minimality_certificate(S).ok
    assert maximality_certificate(T).ok
    assert not maximality_certificate(build_smin(a1, cyc3, (3,))).ok
    assert not minimality_certificate(build_smax(a1, cyc3, (3,))).ok


@pytest.mark.parametrize("scale,witness", [
    ("zero", "fraction-field ranks differ"),
    ("uniformizer", "relative invariants (1,)"),
])
def test_minimality_certificate_witnesses(a1, cyc3, scale, witness):
    # Scaling every lowering operator of an smin object by 0 drops the rank
    # of e_mu @ f_mu; scaling by the uniformizer keeps the rank and leaves
    # torsion span(e_mu) / span(e_mu @ f_mu) of exponent 1.
    S = build_smin(a1, cyc3, (2,))
    c = getattr(cyc3, scale)()
    fops = {key: f.scale(c) for key, f in S.fops.items()}
    bad = XObject(cyc3, a1, dict(S.spaces), dict(S.eops), fops, S.region, S.top)
    fails = [(e.weight, e.witness) for e in minimality_certificate(bad).failures()]
    assert fails == [((-2,), witness), ((0,), witness)]


def test_minimality_certificate_snfs_per_weight(a2, cyc3, monkeypatch):
    # A Weyl module's F_mu is onto at every weight, so the certificate takes
    # one SNF per checked weight (of F_mu) on a fresh object, and none after
    # check_axioms, which decomposed F_mu already.  A weight where F_mu is
    # not onto takes the two SNFs of relative_invariants on top.
    import qtilt.linalg as linalg_mod

    S = build_smin(a2, cyc3, (2, 1))
    checked = [mu for mu in S.region if delta_space(S, mu)[1].rows]
    calls = []
    snf = linalg_mod.smith_normal_form
    monkeypatch.setattr(linalg_mod, "smith_normal_form",
                        lambda m, *args, **kwargs: calls.append(m) or snf(m, *args, **kwargs))
    assert minimality_certificate(S).ok
    assert len(calls) == len(checked)
    S = replace(S)
    assert check_axioms(S).ok
    calls.clear()
    assert minimality_certificate(S).ok
    assert calls == []
    T = build_smax(a2, cyc3, (1, 1))
    assert not minimality_certificate(T).ok
    local = [T._local[mu] for mu in T.region if T._local[mu].e.rows]
    onto = [loc for loc in local
            if loc.f_snf.rank == loc.f.rows and not any(loc.f_snf.exponents)]
    calls.clear()
    assert not minimality_certificate(T).ok
    assert 0 < len(onto) < len(local) and len(calls) == 2 * (len(local) - len(onto))


def test_weyl_multiplicities_smin(a2, cyc3):
    M = build_smin(a2, cyc3, (2, 1))
    assert weyl_multiplicities(M) == {(2, 1): 1}


def test_weyl_multiplicities_additive_on_sums(a1, cyc3):
    A = build_smax(a1, cyc3, (3,))
    B = build_smin(a1, cyc3, (1,))
    S = direct_sum(A, B)
    wa, wb = weyl_multiplicities(A), weyl_multiplicities(B)
    expected = dict(wa)
    for k, v in wb.items():
        expected[k] = expected.get(k, 0) + v
    assert weyl_multiplicities(S) == expected
    assert check_axioms(S).ok


def test_character_equation_for_tilting(a1, cyc3):
    T = build_smax(a1, cyc3, (4,))
    mults = weyl_multiplicities(T)
    combo = {}
    for lam, m in mults.items():
        for mu, c in weyl_character(a1, lam).items():
            combo[mu] = combo.get(mu, 0) + m * c
    assert combo == character(T)


def test_tilting_character_weyl_symmetric(a2, cyc3):
    T = build_smax(a2, cyc3, (1, 1))
    ch = character(T)
    for mu, r in ch.items():
        for i in range(a2.rank):
            assert ch.get(a2.reflect(mu, i), 0) == r


# ---------------------------------------------------------------------------
# base change


def test_base_change_fraction_field(a1, cyc3, int3):
    for ring in (cyc3, int3):
        T = build_smax(a1, ring, (3,))
        K = base_change_to_field(T)
        assert K.ring == ring.fraction_field()
        assert character(K) == character(T)
        assert check_axioms(K).ok
        # semisimple decomposition over the fraction field
        mults = weyl_multiplicities(T)
        combo = {}
        for lam, m in mults.items():
            for mu, c in weyl_character(a1, lam).items():
                combo[mu] = combo.get(mu, 0) + m * c
        assert character(K) == combo


def test_base_change_entries_share_one_fraction_field(a2, cyc3, gf):
    # The fraction field is made once per ring, so every entry and every
    # matrix of the base change carries that one instance; the dump is the
    # one the per-entry rings gave.
    K = base_change_to_field(build_smax(a2, cyc3, (2, 1)))
    assert K.ring is cyc3.fraction_field() and K.ring == gf
    mats = [*K.eops.values(), *K.fops.values()]
    entries = [e for m in mats for row in m.entries for e in row]
    assert len(entries) == 88
    assert {id(m.ring) for m in mats} | {id(e.ring) for e in entries} == {id(K.ring)}
    digest = hashlib.sha256(dump_xobject(K).encode()).hexdigest()
    assert digest == "77e29aa12bbf88dcebb6469438fa43e3eb1d17b4d06646b4fce011916395709e"


def test_base_change_over_int_p_calls_no_polynomial_kernel(monkeypatch, a2, int3):
    # Every entry over int:p is a constant n * 3**k / d, already reduced in
    # Q: the base change builds it on integers.  It used to make one
    # zpoly.mul and one _finish call per nonzero entry (364 here).  The
    # digest is the dump the polynomial route gave.
    from qtilt import ring as ring_mod
    from qtilt import zpoly
    T = build_smax(a2, int3, (3, 1))

    def refuse(*args):
        raise AssertionError("the polynomial kernel was called on constants")

    with monkeypatch.context() as m:
        for name, f in vars(zpoly).items():
            if callable(f) and getattr(f, "__module__", None) == zpoly.__name__:
                m.setattr(zpoly, name, refuse)
        m.setattr(ring_mod, "_finish", refuse)
        K = base_change_to_field(T)
    digest = hashlib.sha256(dump_xobject(K).encode()).hexdigest()
    assert digest == "2729f57f62197c8597555f9e2fe4de156debaa2a148ee4357f456d58a6ce88fc"


def test_base_change_identity_on_fields(a1, gf):
    M = build_smin(a1, gf, (2,))
    assert base_change_to_field(M) is M


# ---------------------------------------------------------------------------
# morphism extension


def test_extend_hom_identity_between_smax_builds(a1, cyc3):
    A = build_smax(a1, cyc3, (3,))
    B = build_smax(a1, cyc3, (3,))
    res = extend_hom_down(A, B, Mat.identity(cyc3, 1))
    assert not isinstance(res, Obstructed)
    assert verify_hom(A, B, res).ok
    assert all(is_unit_matrix(res[w]) for w in res)


@pytest.mark.parametrize("other", [
    pytest.param(("A1", "cyc:6", (3,)), id="rings"),
    pytest.param(("B2", "cyc:3", (1, 0)), id="cartan"),
])
def test_extend_hom_down_refuses_mismatched_data(other):
    # Objects over two rings used to reach a LinAlgError in a product.
    root, ring, top = other
    A = build_smax(root_system("A2" if root == "B2" else "A1"), parse_ring("cyc:3"), top)
    B = build_smax(root_system(root), parse_ring(ring), top)
    with pytest.raises(XCatError, match="ring and Cartan matrix"):
        extend_hom_down(A, B, Mat.identity(A.ring, 1))


def test_extend_hom_zero_morphism(a1, cyc3):
    A = build_smax(a1, cyc3, (3,))
    B = build_smax(a1, cyc3, (3,))
    f = {(3,): Mat.zero(cyc3, 1, 1)}
    for mu in [(1,), (-1,), (-3,)]:
        f = extend_hom(f, A, B, mu)
        assert not isinstance(f, Obstructed)
    assert all(f[w].is_zero() for w in f)


def test_extend_hom_smin_into_smax(a1, cyc3):
    S = build_smin(a1, cyc3, (3,))
    T = build_smax(a1, cyc3, (3,))
    f = {(3,): Mat.identity(cyc3, 1)}
    for mu in [(1,), (-1,), (-3,)]:
        f = extend_hom(f, S, T, mu)
        assert not isinstance(f, Obstructed)
    assert verify_hom(S, T, f).ok


def test_extend_hom_obstruction_smax_into_smin(a1, cyc3):
    T = build_smax(a1, cyc3, (3,))
    S = build_smin(a1, cyc3, (3,))
    res = extend_hom({(3,): Mat.identity(cyc3, 1)}, T, S, (1,))
    assert isinstance(res, Obstructed)
    assert res.weight == (1,)
    assert not res.witness.is_zero()


def _rank0_pair(a1, gf):
    """M: the Weyl module L(1) over generic, extended across (-3,), where its
    space has rank 0.  N: M with a rank-1 space at (-3,) that F maps (-1,)
    onto, which breaks X3a on N."""
    M = build_smin(a1, gf, (1,), prune=False, height_bound=2)
    assert (-3,) in M.region and M.rank((-3,)) == 0
    N = replace(M, spaces={**M.spaces, (-3,): 1},
                fops={**M.fops, ((-3,), 0, 1): Mat.from_rows(gf, [[gf.one()]])})
    return M, N


def test_extend_hom_checks_the_squares_at_a_rank_0_weight(a1, gf):
    # A rank-0 source weight used to get a zero map with no square check,
    # so extend_hom_down returned a map that verify_hom rejects: the zero
    # map at (-3,) does not commute with F from (-1,).
    M, N = _rank0_pair(a1, gf)
    with pytest.raises(XCatError, match=r"extension squares fail at \(-3,\)"):
        extend_hom_down(M, N, Mat.identity(gf, 1))


def test_extend_hom_across_a_rank_0_weight(a1, gf):
    M, _ = _rank0_pair(a1, gf)
    f = extend_hom_down(M, M, Mat.identity(gf, 1))
    assert not isinstance(f, Obstructed)
    assert sorted(f) == [(-3,), (-1,), (1,)]
    assert (f[(-3,)].rows, f[(-3,)].cols) == (0, 0)
    assert verify_hom(M, M, f).ok


# ---------------------------------------------------------------------------
# The one-SNF maximal step against the two-SNF composition of public steps


def _reference_maximal_extend(M, mu):
    """Minimal extension, then the saturation of the re-assembled raising
    image from a second SNF, adjoined as in the paper's maximal step."""
    Mt = minimal_extend(M, mu)
    index, e_mu, f_mu = delta_space(Mt, mu)
    sat, exps = saturation_with_invariants(e_mu)
    k = len(exps)
    if not k:
        return Mt
    dr = sum(b.rank for b in index)
    e_new = hstack([e_mu, sat.take_cols(range(sat.cols - k, sat.cols))])
    f_new = vstack([f_mu, Mat.zero(M.ring, k, dr)])
    spaces, eops, fops = dict(Mt.spaces), dict(Mt.eops), dict(Mt.fops)
    spaces[mu] = Mt.rank(mu) + k
    for b in index:
        rows = range(b.offset, b.offset + b.rank)
        eops[(mu, b.alpha, b.n)] = e_new.take_rows(rows)
        fops[(mu, b.alpha, b.n)] = f_new.take_cols(rows)
    return replace(Mt, spaces=spaces, eops=eops, fops=fops)


@pytest.mark.parametrize("root, ring, lam", [
    *[("A1", f"cyc:{l}", (lam,)) for l in range(2, 7) for lam in (4, 7)],
    *[("A1", "int:2", (lam,)) for lam in (5, 9)],
    ("A2", "cyc:3", (2, 1)), ("B2", "cyc:3", (1, 1)), ("A2", "int:2", (2, 1)),
    ("G2", "cyc:3", (1, 0)),
])
def test_maximal_step_matches_two_snf_reference(root, ring, lam):
    rs, ring = root_system(root), parse_ring(ring)
    M = seed(rs, ring, lam)
    for mu in weights_below(rs, lam, prune_hull=True)[1:]:
        M = _reference_maximal_extend(M, mu)
    assert dump_xobject(build_smax(rs, ring, lam)) == dump_xobject(M)


def _weyl_sl2_quantum_tilting(l, lam):
    """The character of the tilting module T(lam) of quantum SL2 over
    ``cyc:l``, from the weights alone.  [n] vanishes at a primitive l-th root
    of unity iff l divides 2n, so the quantum characteristic is e = l for odd
    l and l/2 for even l.  T(lam) = Delta(lam) + Delta(lam') when lam >= e
    and lam + 1 is not a multiple of e, where lam' is the reflection of lam
    in the wall a*e - 1 just below it; otherwise T(lam) = Delta(lam)."""
    e = l if l % 2 else l // 2
    out = _weyl_sl2(lam)
    if lam >= e and (lam + 1) % e:
        wall = (lam + 1) // e * e - 1
        for w in _weyl_sl2(2 * wall - lam):
            out[w] = out.get(w, 0) + 1
    return out


def test_quantum_sl2_tilting_oracle_known_values():
    # T(3) at l = 3 (e = 3): Delta(3) + Delta(1); T(5) at l = 3 is Delta(5)
    assert _weyl_sl2_quantum_tilting(3, 3) == {3: 1, 1: 2, -1: 2, -3: 1}
    assert _weyl_sl2_quantum_tilting(3, 5) == _weyl_sl2(5)
    # l = 8 gives e = 4: T(4) = Delta(4) + Delta(2)
    assert _weyl_sl2_quantum_tilting(8, 4) == {4: 1, 2: 2, 0: 2, -2: 2, -4: 1}


@pytest.mark.parametrize("l", [3, 4, 5, 6, 7, 8])
def test_build_smax_cyc_l_matches_closed_form(a1, l):
    # lam <= 10 keeps tier-1 at a few seconds; lam <= 16 takes minutes.
    ring = parse_ring(f"cyc:{l}")
    for lam in range(11):
        want = {(w,): m for w, m in _weyl_sl2_quantum_tilting(l, lam).items()}
        assert character(build_smax(a1, ring, (lam,))) == want, (l, lam)


def _entries(rep):
    return [(e.check, e.weight, e.status, e.witness) for e in rep.entries]


def _corrupt(M, ops, key):
    """M with the operator ops[key] ("eops" or "fops") scaled by the uniformizer."""
    new = dict(getattr(M, ops))
    new[key] = new[key].scale(M.ring.uniformizer())
    return replace(M, **{ops: new})


# Reports recorded before the X2 loop moved to integer root-lattice
# dominance.  The B2 failures at (-4, 5) lie outside the region but above a
# region weight, so they pin which bottom weights the X2 loop indexes.
_A2_RESTRICTED_CHECK = [
    ("X1", None, "pass", "6 weights, all ranks finite"),
    ("X2", (-2, 3), "fail", "alpha=0 beta=0 m=1 n=2 source=(2, 1)"),
    ("X2", (-2, 3), "fail", "alpha=0 beta=0 m=1 n=1 source=(0, 2)"),
    ("X2", (-1, 1), "fail", "alpha=0 beta=1 m=1 n=1 source=(-2, 3)"),
    ("X3a", None, "pass", None), ("X3b", None, "pass", None), ("X3c", None, "pass", None),
]
_A2_RESTRICTED_VERIFY = [
    ("commutation", (-2, 3), "fail", "alpha=0 beta=0 m=1 n=2"),
    ("commutation", (-2, 3), "fail", "alpha=0 beta=0 m=1 n=1"),
    ("commutation", (-1, 1), "fail", "alpha=0 beta=1 m=1 n=1"),
    ("divided-power-E", (-2, 3), "fail", "alpha=0 m=1 n=1"),
    ("serre", None, "pass", None),
]
_B2_CHECK = [
    ("X1", None, "pass", "12 weights, all ranks finite"),
    ("X2", (-2, 3), "fail", "alpha=0 beta=0 m=1 n=2 source=(2, -1)"),
    ("X2", (-2, 3), "fail", "alpha=0 beta=0 m=2 n=2 source=(2, -1)"),
    ("X2", (-4, 5), "fail", "alpha=0 beta=0 m=1 n=2 source=(0, 1)"),
    ("X3a", None, "pass", None), ("X3b", None, "pass", None), ("X3c", None, "pass", None),
]
_B2_VERIFY = [
    ("commutation", (-2, 3), "fail", "alpha=0 beta=0 m=1 n=2"),
    ("commutation", (-2, 3), "fail", "alpha=0 beta=0 m=2 n=2"),
    ("commutation", (-4, 5), "fail", "alpha=0 beta=0 m=1 n=2"),
    ("divided-power-F", (-2, 3), "fail", "alpha=0 m=1 n=1"),
    ("serre-F", (-2, 3), "fail", "alpha=0 beta=1"),
    ("serre-F", (-1, 1), "fail", "alpha=0 beta=1"),
]


def test_pinned_reports_on_a_restricted_a2_object(a2, cyc3):
    R = restrict(build_smax(a2, cyc3, (2, 1)), weights_below(a2, (2, 1))[:6])
    assert sorted(R.region) == [(-2, 3), (-1, 1), (0, 2), (1, 0), (2, 1), (3, -1)]
    assert _entries(check_axioms(R)) == [
        ("X1", None, "pass", "6 weights, all ranks finite"), ("X2", None, "pass", None),
        ("X3a", None, "pass", None), ("X3b", None, "pass", None), ("X3c", None, "pass", None)]
    assert _entries(verify_relations(R)) == [
        ("commutation", None, "pass", None), ("divided-power", None, "pass", None),
        ("serre", None, "pass", None)]
    bad = _corrupt(R, "eops", ((-2, 3), 0, 1))
    assert _entries(check_axioms(bad)) == _A2_RESTRICTED_CHECK
    assert _entries(verify_relations(bad)) == _A2_RESTRICTED_VERIFY


def test_pinned_reports_on_a_corrupted_b2_object(b2, cyc3):
    bad = _corrupt(build_smax(b2, cyc3, (1, 1)), "fops", ((-2, 3), 0, 2))
    assert _entries(check_axioms(bad)) == _B2_CHECK
    assert _entries(verify_relations(bad)) == _B2_VERIFY


def test_x2_cache_is_per_object(a2, cyc3):
    # The commutation identities are evaluated once per object; a copy made
    # by replace or restrict starts with no cache and reports its own.
    M = build_smax(a2, cyc3, (2, 1))
    check_m, verify_m = _entries(check_axioms(M)), _entries(verify_relations(M))
    assert "_x2" in vars(M)
    bad = _corrupt(M, "eops", ((-2, 3), 0, 1))
    assert "_x2" not in vars(bad)
    check_bad = _entries(check_axioms(bad))
    assert [e for e in check_bad if e[0] == "X2" and e[2] == "fail"]
    R = restrict(bad, weights_below(a2, (2, 1))[:6])
    assert "_x2" not in vars(R)
    assert _entries(check_axioms(R)) == _A2_RESTRICTED_CHECK != check_bad
    assert _entries(verify_relations(R)) == _A2_RESTRICTED_VERIFY
    assert _entries(check_axioms(M)) == check_m and _entries(verify_relations(M)) == verify_m
    # verify_relations on a fresh object equals verify_relations after check_axioms.
    assert _entries(verify_relations(bad)) == _entries(verify_relations(replace(bad)))
    assert bad._x2 == tuple(_x2_failures(bad)) and R._x2 == tuple(_x2_failures(R))


def _reference_x3(M):
    """The X3 entries of check_axioms as they were, with the rank of the
    square product E @ F (test-only copy)."""
    entries = []
    for mu in sorted(M.region):
        _, e_mu, f_mu = delta_space(M, mu)
        if e_mu.rows == 0 or e_mu.cols == 0:
            continue
        sat_f, exps = saturation_with_invariants(f_mu)
        rank_f, rank_ef, rank_e = sat_f.cols, rank(e_mu @ f_mu), rank(e_mu)
        if rank_ef != rank_f:
            entries.append(("X3a", mu, "fail", f"rank(EF)={rank_ef} < rank(F)={rank_f}"))
        if rank_ef != rank_e:
            entries.append(("X3b", mu, "fail", f"rank(EF)={rank_ef} != rank(E)={rank_e}"))
        if exps:
            entries.append(("X3c", mu, "fail", f"saturation exponents {exps}"))
    for check in ("X3a", "X3b", "X3c"):
        if not any(e[0] == check for e in entries):
            entries.append((check, None, "pass", None))
    return entries


def _x3_variants(M):
    """M, then M with each stored operator scaled by the uniformizer, then
    M with each stored operator dropped."""
    yield M
    for ops in ("eops", "fops"):
        for key in sorted(getattr(M, ops)):
            yield _corrupt(M, ops, key)
            kept = dict(getattr(M, ops))
            del kept[key]
            yield replace(M, **{ops: kept})


@pytest.mark.parametrize("label,lam", [("A1", (4,)), ("A2", (1, 1)), ("B2", (1, 1)),
                                       ("G2", (0, 1))])
def test_x3_matches_the_square_product_reference(label, lam, cyc3, monkeypatch):
    # rank(E @ sat F) = rank(E @ F), as sat F spans im F over the fraction
    # field: every X3 entry and witness is the reference's.  X2 is not under
    # test and is skipped.
    monkeypatch.setattr("qtilt.xcat._x2_failures", lambda M, unit=False: iter(()))
    rs = root_system(label)
    failed = set()
    for build in (build_smin, build_smax):
        for X in _x3_variants(build(rs, cyc3, lam)):
            got = [e for e in _entries(check_axioms(X)) if e[0].startswith("X3")]
            assert got == _reference_x3(X)
            failed |= {e[0] for e in got if e[2] == "fail"}
    assert failed == {"X3a", "X3b", "X3c"}


# ---------------------------------------------------------------------------
# caches handed on by the extension steps


def _fresh(M):
    """A copy of M through the serializer, with no caches."""
    return load_xobject(dump_xobject(M))


@pytest.mark.parametrize("label,ring,lam,unpruned", [
    ("A1", "cyc:3", (8,), False), ("A1", "int:3", (14,), False),
    ("A2", "cyc:3", (2, 1), False), ("B2", "cyc:3", (1, 1), False),
    ("G2", "cyc:3", (1, 0), False),
    # Outside the hull: seven supported weights among 15, rank-0 steps
    # between supported ones.
    ("A2", "cyc:3", (1, 1), True)])
def test_step_by_step_on_fresh_copies_matches_the_build(label, ring, lam, unpruned):
    # Every step runs on a copy with no word memo and no support index,
    # so it evaluates every word itself; the builds hand both on from step
    # to step.  The outputs are byte-identical, and the index a step hands
    # on is the one its object would compute.
    rs, R = root_system(label), parse_ring(ring)
    order = (weights_below(rs, lam, prune_hull=False, height_bound=4) if unpruned
             else weights_below(rs, lam, prune_hull=True))
    kw = {"prune": False, "height_bound": 4} if unpruned else {}
    if unpruned:
        assert any(w not in build_smin(rs, R, lam, **kw).spaces for w in order[:-1])
    for build, step in ((build_smin, minimal_extend), (build_smax, maximal_extend),
                        (build_smax_with_form, complete_nondegenerate)):
        M, b = seed(rs, R, lam), {lam: Mat.identity(R, 1)}
        for mu in order[1:]:
            if step is complete_nondegenerate:
                M, b = step(_fresh(M), b, mu)
            else:
                M = step(_fresh(M), mu)
            assert vars(M)["_strings"] == replace(M)._strings, mu
        built = build(rs, R, lam, **kw)
        if build is build_smax_with_form:
            built, form = built
            assert dump_form(M, b) == dump_form(built, form)
        assert dump_xobject(M) == dump_xobject(built), build.__name__
        assert "_words" not in vars(built)


def test_replace_drops_the_word_memo(a1, cyc3):
    # A mid-build object carries the words its steps evaluated; a replace
    # copy with one operator scaled by the uniformizer has no memo, so its
    # hat matrix sees the scaled operator.  A memo passed through replace
    # would give M's hat matrix back.
    order = weights_below(a1, (8,))
    M = seed(a1, cyc3, (8,))
    for mu in order[1:5]:
        M = maximal_extend(M, mu)
    nu = order[5]
    ehat = hat_matrices(M, nu)[0]
    assert (4,) in M._words
    eops = dict(M.eops)
    eops[((4,), 0, 1)] = eops[((4,), 0, 1)].scale(cyc3.uniformizer())
    bad = replace(M, eops=eops)
    assert hat_matrices(bad, nu)[0] != ehat
    assert hat_matrices(bad, nu)[0] == hat_matrices(_fresh(bad), nu)[0]
    assert hat_matrices(M, nu)[0] == ehat == hat_matrices(_fresh(M), nu)[0]
    assert "_strings" not in vars(replace(M))


def test_sibling_steps_do_not_share_words(a1, cyc3):
    # Two steps from one parent store different spaces at (0,): rank 1 by
    # minimal_extend and rank 2 by maximal_extend.  The next step below
    # each evaluates its own words on (0,), so the parent's memo must not
    # reach both children.
    P = maximal_extend(seed(a1, cyc3, (4,)), (2,))
    C1 = minimal_extend(P, (0,))
    C2 = maximal_extend(P, (0,))
    assert (C1.rank((0,)), C2.rank((0,))) == (1, 2)
    for C in (C1, C2):
        D = maximal_extend(C, (-2,))
        assert dump_xobject(D) == dump_xobject(maximal_extend(_fresh(C), (-2,)))


# ---------------------------------------------------------------------------
# the local pair at each weight, decomposed once per object


def _pair(M, mu):
    """E_mu and F_mu assembled from the stored operators (test-only)."""
    ups = [(a, n) for a in range(M.rs.rank) for n in M.ladder(mu, a)]
    r = M.rank(mu)
    if not ups:
        return Mat.zero(M.ring, 0, r), Mat.zero(M.ring, r, 0)
    return (vstack([M.eop(mu, a, n) for a, n in ups]),
            hstack([M.fop(mu, a, n) for a, n in ups]))


def _reference_certificates(M):
    """minimality_certificate, maximality_certificate and weyl_multiplicities
    as they were before the per-object local cache, each SNF taken afresh
    (test-only copy): both reports' entries, then the multiplicities or the
    torsion message."""
    minimal, maximal = Report(), Report()
    for mu in sorted(M.region):
        e_mu, f_mu = _pair(M, mu)
        if e_mu.rows == 0:
            continue
        try:
            inv = relative_invariants(e_mu @ f_mu, e_mu)
        except LinAlgError as exc:
            minimal.add("minimal", mu, False, str(exc))
        else:
            if inv:
                minimal.add("minimal", mu, False, f"relative invariants {inv}")
        exps = tuple(e for e in smith_normal_form(e_mu, track=()).exponents if e > 0)
        if exps:
            maximal.add("maximal", mu, False, f"saturation exponents {exps}")
    minimal.close("minimal")
    maximal.close("maximal")
    mults = {}
    for mu in sorted(M.spaces):
        snf = smith_normal_form(_pair(M, mu)[1], track=())
        exps = tuple(e for e in snf.exponents if e > 0)
        if exps:
            mults = f"M_mu / im F_mu has torsion at {mu}: {exps}"
            break
        if M.rank(mu) - snf.rank:
            mults[mu] = M.rank(mu) - snf.rank
    return _entries(minimal), _entries(maximal), mults


def _certificates(M):
    try:
        mults = weyl_multiplicities(M)
    except XCatError as exc:
        mults = str(exc)
    return (_entries(minimality_certificate(M)), _entries(maximality_certificate(M)),
            mults)


def _cert_variants(M):
    """M, its restriction to the upper half of its weights, then M with each
    stored operator scaled by the uniformizer, scaled by 0, and dropped."""
    yield M
    order = weights_below(M.rs, M.top)
    yield restrict(M, order[:len(order) // 2 + 1])
    for ops in ("eops", "fops"):
        stored = getattr(M, ops)
        for key in sorted(stored):
            for c in (M.ring.uniformizer(), M.ring.zero(), None):
                kept = dict(stored)
                if c is None:
                    del kept[key]
                else:
                    kept[key] = stored[key].scale(c)
                yield replace(M, **{ops: kept})


@pytest.mark.parametrize("label,ring,lam", [
    ("A1", "cyc:3", (8,)), ("A2", "cyc:3", (2, 1)), ("B2", "cyc:3", (1, 1)),
    ("G2", "cyc:3", (1, 0)), ("A3", "int:3", (1, 0, 1))])
def test_certificates_match_the_uncached_reference(label, ring, lam, monkeypatch):
    # Both certificates and the multiplicities read the SNFs of the
    # object's cached local pairs, and minimality skips a weight where F_mu
    # is onto.  Their reports, witnesses and torsion messages are the
    # reference's on a fresh object and after check_axioms took the SNFs
    # on the same object.  X2 is not under test and is skipped.
    monkeypatch.setattr("qtilt.xcat._x2_failures", lambda M, unit=False: iter(()))
    rs, R = root_system(label), parse_ring(ring)
    seen = set()
    for build in (build_smin, build_smax):
        for X in _cert_variants(build(rs, R, lam)):
            want = _reference_certificates(X)
            assert _certificates(replace(X)) == want
            check_axioms(X)
            assert _certificates(X) == want
            seen |= {e[3].split(" ")[0] for rep in want[:2] for e in rep if e[2] == "fail"}
            seen |= {"torsion"} if isinstance(want[2], str) else set()
    assert seen >= {"relative", "fraction-field", "saturation", "torsion"}


def _x3(rep):
    return [e for e in _entries(rep) if e[0].startswith("X3")]


def test_local_cache_is_per_object(a1, cyc3):
    # The local pairs and their SNFs are cached once per object.  A copy
    # made by replace, restrict, direct_sum or the loader starts with an
    # empty cache, a corrupted copy of a checked object reports its own X3,
    # certificates and multiplicities, and an extension step's child does
    # not inherit its parent's cache.
    M = build_smax(a1, cyc3, (4,))
    assert "_local" not in vars(M)
    x3_m, certs_m = _x3(check_axioms(M)), _certificates(M)
    assert set(M._local) == set(M.region)
    order = weights_below(a1, (4,))
    for copy in (replace(M), restrict(M, order[:3]), _fresh(M), direct_sum(M, M)):
        assert "_local" not in vars(copy)
    bad_f = _corrupt(M, "fops", ((2,), 0, 1))
    bad_e = _corrupt(M, "eops", ((2,), 0, 1))
    for bad in (bad_f, bad_e):
        assert "_local" not in vars(bad)
        assert _x3(check_axioms(bad)) == _reference_x3(replace(bad))
        assert _certificates(bad) == _reference_certificates(bad) != certs_m
    assert _x3(check_axioms(bad_f)) != x3_m
    assert isinstance(_certificates(bad_f)[2], str)
    assert _certificates(bad_e)[1] != certs_m[1]
    assert _x3(check_axioms(M)) == x3_m and _certificates(M) == certs_m

    P, b = seed(a1, cyc3, (4,)), {(4,): Mat.identity(cyc3, 1)}
    for mu in order[1:3]:
        P, b = complete_nondegenerate(P, b, mu)
    check_axioms(P)
    _certificates(P)
    assert set(P._local) == set(P.region)
    for step in (minimal_extend, maximal_extend):
        assert "_local" not in vars(step(P, order[3]))
    C, _ = complete_nondegenerate(P, b, order[3])
    assert set(vars(C).get("_local", ())) <= {order[3]}


def test_checks_and_certificates_snf_count(a1, monkeypatch):
    # On a loaded object, check_axioms takes two SNFs per weight below the
    # top (F_mu and E_mu) and a third, of E_mu against the saturation basis
    # of im F_mu, only at the one weight where F_mu has not full rank; at
    # the other 13, that basis is all of the unimodular Uinv and X3 reads
    # rank(E_mu) (ranking the product there too took 42, 42, 42, 43).
    # verify_relations takes none.  maximality_certificate then reads the
    # SNF of every E_mu and weyl_multiplicities that of every F_mu, so only
    # the top's F_mu, which X3 skips, is decomposed again (71 before the
    # per-object local cache: 42, 42, 56, 71).
    import qtilt.linalg as linalg_mod

    M = _fresh(build_smax(a1, parse_ring("int:3"), (14,)))
    calls, counted = [], []
    snf = linalg_mod.smith_normal_form
    monkeypatch.setattr(linalg_mod, "smith_normal_form",
                        lambda m, *args, **kwargs: calls.append(m) or snf(m, *args, **kwargs))
    for run in (check_axioms, verify_relations, maximality_certificate):
        assert run(M).ok
        counted.append(len(calls))
    assert weyl_multiplicities(M) == {(14,): 1, (2,): 1}
    counted.append(len(calls))
    assert counted == [29, 29, 29, 30]


def test_checks_evaluate_only_the_generator_relations(a1, monkeypatch):
    # On a valid loaded object, check_axioms and verify_relations evaluate
    # the generator certificate once: the commutation identities with
    # m = n = 1 (14 Lusztig sums) and the divided-power rule with n = 1
    # (91 E words and 91 F words), and nothing of higher index.  With every
    # identity and every divided-power rule evaluated they took 1015 sums
    # and 910 words; over check_axioms and verify_relations on two fresh
    # copies, 28 sums against 2030.
    import qtilt.xcat as xcat_mod

    M = _fresh(build_smax(a1, parse_ring("int:3"), (14,)))
    sums, words = [], []
    rhs, word = xcat_mod._commutation_rhs, xcat_mod._word

    def counting_rhs(M, mu, a, b, m, n, *rest):
        sums.append((a, b, m, n))
        return rhs(M, mu, a, b, m, n, *rest)

    def counting_word(M, src, w):
        if len(w) == 2 and w[0][:2] == w[1][:2]:
            words.append(tuple(f[2] for f in w))
        return word(M, src, w)

    monkeypatch.setattr(xcat_mod, "_commutation_rhs", counting_rhs)
    monkeypatch.setattr(xcat_mod, "_word", counting_word)
    assert check_axioms(M).ok and verify_relations(M).ok
    assert len(sums) == 14 and set(sums) == {(0, 0, 1, 1)}
    assert len(words) == 182 and {w[0] for w in words} == {1}
    assert verify_relations(replace(M)).ok and len(sums) == 28


def test_qb_at_v_equal_one_is_the_ordinary_binomial():
    # Over int:p and rational, _qb returns the ordinary binomial without
    # building the Laurent polynomial; it must equal the embedded q-binomial.
    rings = [parse_ring(s) for s in ("int:2", "int:3", "int:5", "rational")]
    for d in (1, 2, 3):
        for n in range(-30, 61):
            for r in range(21):
                p = qbinom(n, r, d)
                for ring in rings:
                    assert _qb(ring, n, r, d) == embed(p, ring), (ring, n, r, d)
    # The Laurent kinds keep the Laurent path.
    cyc3 = parse_ring("cyc:3")
    for d in (1, 2, 3):
        for n in range(-30, 61, 7):
            for r in range(0, 21, 4):
                assert _qb(cyc3, n, r, d) == embed(qbinom(n, r, d), cyc3), (n, r, d)
    # The sweep filled the q-binomial caches with long polynomials.
    qbinom.cache_clear()
    _qb.cache_clear()
