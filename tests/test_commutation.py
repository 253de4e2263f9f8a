"""The commutation kernel of xcat against a matrix-level reference.

``_reference_rhs`` evaluates Lusztig's commutation rule one ``Mat`` at a
time: every term multiplies full operator matrices, with identities for the
degree-0 factors and zero matrices for absent operators, and nothing is
shared between identities.  The kernel (``xcat._commutation_rhs``) must give
the same matrix for every X2 instance and every hat block, and a corrupted
object must fail the checks exactly as the reference says.
``_reference_dp_serre`` does the same for the divided-power and Serre
relations of ``verify_relations``, and ``_reference_x3`` for X3 of
``check_axioms``, with an explicit rank at every weight.  The X2 loop must evaluate exactly the
identities ``_reference_instances`` lists, and both references take their
support bound from a scan of every supported weight (``test_xcat``), not
from the object's string index.
"""

import hashlib
import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from qtilt import xcat
from qtilt.linalg import LinAlgError, Mat, hstack, smith_normal_form, vstack
from qtilt.linalg import rank as linalg_rank
from qtilt.ring import generic_field, parse_ring
from qtilt.rootsys import dominance_leq, root_system, weights_below
from qtilt.xcat import (
    _commutation_rhs,
    _delta_index,
    _qb,
    _x2_failures,
    build_smax,
    check_axioms,
    hat_matrices,
    restrict,
    verify_relations,
)

from test_xcat import scan_max_op_index

OUTCOMES = Path(__file__).resolve().parent / "x2_corruption_outcomes.json"

OBJECTS = [
    *[("A1", ring, (lam,)) for ring, lam in
      (("cyc:3", 8), ("cyc:6", 8), ("int:2", 7), ("int:3", 8))],
    ("A2", "cyc:3", (2, 1)), ("B2", "cyc:3", (1, 1)), ("G2", "cyc:3", (1, 0)),
]


@lru_cache(maxsize=None)
def _build(root, ring, lam):
    return build_smax(root_system(root), parse_ring(ring), lam)


def _reference_rhs(M, mu, a, b, m, n, src, tgt):
    """The normal-ordered side of E_{a,m} F_{b,n} on src, one Mat per term."""
    if a != b:
        return M.fop(tgt, b, n) @ M.eop(src, a, m)
    out = Mat.zero(M.ring, M.rank(tgt), M.rank(src))
    for r in range(min(m, n) + 1):
        coeff = _qb(M.ring, mu[a] + m + n, r, M.rs.d[a])
        if coeff.is_zero():
            continue
        term = M.fop(tgt, a, n - r) @ M.eop(src, a, m - r)
        out = out + term.scale(coeff)
    return out


def _reference_hat(M, mu):
    """The raising matrix of hat_matrices, assembled from reference blocks."""
    index = _delta_index(M, mu)
    if not index:
        return Mat.zero(M.ring, 0, 0)
    ups = [M.rs.add_root(mu, blk.alpha, blk.n) for blk in index]
    return vstack([
        hstack([_reference_rhs(M, mu, rb.alpha, cb.alpha, rb.n, cb.n, src, tgt)
                for cb, src in zip(index, ups)])
        for rb, tgt in zip(index, ups)])


def _weights_and_frontier(M):
    """The region and the weights one simple root below it, sorted."""
    rs = M.rs
    return sorted(M.region | {rs.add_root(mu, i, -1)
                              for mu in M.region for i in range(rs.rank)})


def _reference_instances(M):
    """(mu, a, b, m, n, src, tgt) for every X2 identity, in the order of
    ``_x2_failures``, with the index set read off ``dominance_leq`` and the
    support bound off a scan of every supported weight."""
    rs = M.rs
    bound = 2 * scan_max_op_index(M) + 2
    for src in M.spaces:
        for b in range(rs.rank):
            for n in range(1, bound):
                mu = rs.add_root(src, b, -n)
                if mu not in M.region and not any(
                        dominance_leq(rs, x, mu) for x in M.region):
                    continue
                for a in range(rs.rank):
                    for m in range(1, bound):
                        tgt = rs.add_root(mu, a, m)
                        if tgt in M.spaces:
                            yield mu, a, b, m, n, src, tgt


def _reference_failures(M):
    return [inst[:6] for inst in _reference_instances(M)
            if M.eop(inst[0], inst[1], inst[3]) @ M.fop(inst[0], inst[2], inst[4])
            != _reference_rhs(M, *inst)]


def _reference_dp_serre(M):
    """(check, weight, witness) of the divided-power and Serre entries of
    verify_relations, from Mat-level loops: every term multiplies the
    matrices of eop/fop, identities and zero matrices included."""
    ring, rs = M.ring, M.rs
    out = []
    bound = scan_max_op_index(M) + 1
    for mu in sorted(M.spaces):
        for a in range(rs.rank):
            for n in range(1, bound):
                for m in range(1, bound - n + 1):
                    if rs.add_root(mu, a, m + n) not in M.spaces:
                        continue
                    coeff = _qb(ring, m + n, n, rs.d[a])
                    mid = rs.add_root(mu, a, n)
                    if M.eop(mid, a, m) @ M.eop(mu, a, n) != M.eop(mu, a, m + n).scale(coeff):
                        out.append(("divided-power-E", mu, f"alpha={a} m={m} n={n}"))
                    low = rs.add_root(mu, a, m)
                    if M.fop(mu, a, m) @ M.fop(low, a, n) != M.fop(mu, a, m + n).scale(coeff):
                        out.append(("divided-power-F", mu, f"alpha={a} m={m} n={n}"))
    if not out:
        out.append(("divided-power", None, None))
    serre = []
    minus_one = ring.from_int(-1)
    for mu in sorted(M.spaces):
        for a in range(rs.rank):
            for b in range(rs.rank):
                if a == b:
                    continue
                nab = 1 - rs.cartan[a][b]
                tgt = rs.add_root(rs.add_root(mu, a, nab), b, 1)
                if M.rank(tgt) == 0 or M.rank(mu) == 0:
                    continue
                acc = Mat.zero(ring, M.rank(tgt), M.rank(mu))
                for s in range(nab + 1):
                    w1 = rs.add_root(mu, a, nab - s)
                    w2 = rs.add_root(w1, b, 1)
                    term = M.eop(w2, a, s) @ M.eop(w1, b, 1) @ M.eop(mu, a, nab - s)
                    acc = acc + term.scale(minus_one ** s)
                if not acc.is_zero():
                    serre.append(("serre-E", mu, f"alpha={a} beta={b}"))
                acc = Mat.zero(ring, M.rank(mu), M.rank(tgt))
                for s in range(nab + 1):
                    w1 = rs.add_root(mu, a, s)
                    w2 = rs.add_root(w1, b, 1)
                    term = M.fop(mu, a, s) @ M.fop(w1, b, 1) @ M.fop(w2, a, nab - s)
                    acc = acc + term.scale(minus_one ** s)
                if not acc.is_zero():
                    serre.append(("serre-F", mu, f"alpha={a} beta={b}"))
    return out + (serre or [("serre", None, None)])


def _ids(obj):
    return "-".join([obj[0], obj[1], ",".join(map(str, obj[2]))])


@pytest.mark.parametrize("root, ring, lam", OBJECTS, ids=map(_ids, OBJECTS))
def test_kernel_matches_reference_on_every_x2_instance(root, ring, lam):
    M = _build(root, ring, lam)
    memo, coeffs, last_src, count = {}, {}, None, 0
    for inst in _reference_instances(M):
        if inst[5] != last_src:
            memo, coeffs, last_src = {}, {}, inst[5]
        rows, cols, prod = _commutation_rhs(M, *inst, memo, coeffs)
        got = prod if prod is not None else Mat.zero(M.ring, rows, cols)
        assert got == _reference_rhs(M, *inst), inst
        count += 1
    assert count > 0


def _restricted(root, lam):
    M = _build(root, "cyc:3", lam)
    order = weights_below(M.rs, lam)
    return restrict(M, order[:len(order) // 2])


def _deep_region(root, lam, depth):
    """The smax build with rank-0 weights added down to depth simple roots
    below its region: its index set reaches past both cuts of the X2 loop
    at twice the support bound."""
    M = _build(root, "cyc:3", lam)
    rs = M.rs
    region = set(M.region)
    for _ in range(depth):
        region |= {rs.add_root(mu, i, -1) for mu in region for i in range(rs.rank)}
    return replace(M, region=frozenset(region))


@pytest.mark.parametrize("M", [
    *[pytest.param(_build(*obj), id=_ids(obj)) for obj in OBJECTS],
    *[pytest.param(_restricted(root, lam), id=f"{_ids((root, 'cyc:3', lam))}-restricted")
      for root, lam in (("A1", (8,)), ("A2", (2, 1)), ("B2", (1, 1)))],
    pytest.param(_deep_region("A1", (2,), 6), id="A1-cyc:3-2-deep"),
    pytest.param(_deep_region("B2", (0, 1), 4), id="B2-cyc:3-0,1-deep"),
])
def test_x2_loop_evaluates_exactly_the_reference_instances(M, monkeypatch):
    # Every identity the X2 loop evaluates, in order, is one the reference
    # lists, and it evaluates all of them.
    calls = []

    def recording(M, mu, a, b, m, n, src, tgt, memo, coeffs):
        calls.append((mu, a, b, m, n, src, tgt))
        return _commutation_rhs(M, mu, a, b, m, n, src, tgt, memo, coeffs)

    monkeypatch.setattr(xcat, "_commutation_rhs", recording)
    failures = list(_x2_failures(M))
    assert calls == list(_reference_instances(M))
    assert calls
    assert failures == _reference_failures(M)


# Beyond OBJECTS, the hat assembly is compared on every other ring kind: A1
# (14) over int:5 has only 1x1 blocks, as numeric-ladder builds do; the
# fields rational and generic; and A2 (2,1) over int:2 has cross-root
# blocks (a != b) and 2x2 blocks.
HAT_OBJECTS = OBJECTS + [
    ("A1", "int:5", (14,)), ("A1", "rational", (6,)), ("A1", "generic", (6,)),
    ("A2", "int:2", (2, 1)),
]


@pytest.mark.parametrize("root, ring, lam", HAT_OBJECTS, ids=map(_ids, HAT_OBJECTS))
def test_kernel_matches_reference_on_every_hat_block(root, ring, lam):
    M = _build(root, ring, lam)
    for mu in _weights_and_frontier(M):
        assert hat_matrices(M, mu)[0] == _reference_hat(M, mu), mu


@pytest.mark.parametrize("root, ring, lam", OBJECTS[4:], ids=map(_ids, OBJECTS[4:]))
def test_divided_power_and_serre_match_reference(root, ring, lam):
    # Intact, then with each stored operator scaled by the uniformizer in
    # turn; rank 2 objects have absent operators and run the Serre loops.
    M = _build(root, ring, lam)
    pi = M.ring.uniformizer()
    objects = [M] + [replace(M, **{side: {**getattr(M, side), key: op.scale(pi)}})
                     for side in ("eops", "fops") for key, op in getattr(M, side).items()]
    failed = 0
    for bad in objects:
        got = [(e.check, e.weight, e.witness) for e in verify_relations(bad).entries
               if not e.check.startswith("commutation")]
        want = _reference_dp_serre(bad)
        assert got == want
        failed += want[0][0] != "divided-power" or want[-1][0] != "serre"
    assert failed > 0


def test_corrupted_shared_product_fails_as_reference(a1, cyc3):
    # On the source (0,), the product F_2 E_1 is the r-th term of the
    # identities at mu = (-4,), (-6,), (-8,) with (m, n) = (1 + r, 2 + r),
    # r = 0, 1, 2: the memo computes it once for all three.  Corrupting E_1
    # there must fail each of them, as the unshared reference does.
    M = build_smax(a1, cyc3, (8,))
    key = ((0,), 0, 1)
    eops = dict(M.eops)
    eops[key] = eops[key].scale(cyc3.uniformizer())
    bad = replace(M, eops=eops)
    got = list(_x2_failures(bad))
    assert got == _reference_failures(bad)
    assert {((-4 - 2 * r,), 0, 0, 1 + r, 2 + r, (0,)) for r in range(3)} <= set(got)
    assert _reference_failures(M) == list(_x2_failures(M)) == []


def _corrupt(M, side, key, extra):
    """M with one stored operator given an extra row or column of ones, or
    (extra == "ring") replaced by ones over another ring."""
    ops = dict(getattr(M, side))
    old = ops[key]
    if extra == "ring":
        gf = generic_field()
        ops[key] = Mat.from_rows(gf, [[gf.one()] * old.cols for _ in range(old.rows)],
                                 cols=old.cols)
        return replace(M, **{side: ops})
    rows = [list(r) for r in old.entries]
    one = M.ring.one()
    if extra == "row":
        rows.append([one] * old.cols)
    else:
        rows = [r + [one] for r in rows]
    ops[key] = Mat.from_rows(M.ring, rows, cols=old.cols + (extra == "col"))
    return replace(M, **{side: ops})


def _or_error(fn):
    """fn(), or the name of the exception type it raises."""
    try:
        return fn()
    except Exception as exc:  # the outcome names the type
        return type(exc).__name__


def _outcome(check, M):
    """The exception type a check raises, or its failure count and digest."""
    rep = _or_error(lambda: check(M))
    if isinstance(rep, str):
        return rep
    fails = [f"{e.check}|{e.weight}|{e.witness}" for e in rep.failures()]
    return f"{len(fails)}:" + hashlib.sha256("\n".join(fails).encode()).hexdigest()[:16]


@pytest.mark.parametrize("extra", ["row", "col"])
@pytest.mark.parametrize("side", ["eops", "fops"])
@pytest.mark.parametrize("ring, lam", [("cyc:3", 4), ("cyc:3", 6), ("int:3", 8)])
def test_misshapen_operator_fails_as_recorded(ring, lam, side, extra):
    # Outcomes recorded with the Mat-level evaluation of the commutation
    # rule, one per stored operator; case ids are
    # <ring>-<lam>-<E|F><weight>,<n>-<row|col>.
    expected = json.loads(OUTCOMES.read_text())
    M = _build("A1", ring, (lam,))
    got, want = {}, {}
    for key in sorted(getattr(M, side)):
        (mu,), _, n = key
        cid = f"{ring}-{lam}-{side[0].upper()}{mu},{n}-{extra}"
        bad = _corrupt(M, side, key, extra)
        got[cid] = [_outcome(check_axioms, bad), _outcome(verify_relations, bad)]
        want[cid] = expected[cid]
    assert got == want


@pytest.mark.parametrize("root, ring, lam", [("A1", "cyc:3", (4,)), ("A2", "cyc:3", (1, 1))],
                         ids=["A1-cyc:3-4", "A2-cyc:3-1,1"])
def test_hat_blocks_of_misshapen_objects_match_reference(root, ring, lam):
    # The hat assembly reaches shapes and rings the X2 loop rejects earlier
    # through the identities' left-hand sides, so it is compared on its own.
    M = _build(root, ring, lam)
    weights = _weights_and_frontier(M)
    raised = 0
    for side in ("eops", "fops"):
        for key in sorted(getattr(M, side)):
            for extra in ("row", "col", "ring"):
                bad = _corrupt(M, side, key, extra)
                for mu in weights:
                    got = _or_error(lambda: hat_matrices(bad, mu)[0])
                    want = _or_error(lambda: _reference_hat(bad, mu))
                    assert got == want, (side, key, extra, mu)
                    raised += got == "LinAlgError"
    assert raised > 0



@pytest.mark.parametrize("root, ring, lam, key, grow, want", [
    # A word with the wrong-shaped E as one of two factors: _word's check.
    ("A1", "cyc:3", (4,), ((0,), 0, 1), (1, 0), {
        (-6,): "shape mismatch 1x1 @ 2x2", (-4,): "shape mismatch 1x1 @ 2x2",
        (-2,): "shape mismatch 2x1 @ 2x2"}),
    # The wrong-shaped E as a lone factor: the sum's check.
    ("A1", "cyc:3", (4,), ((-2,), 0, 3), (0, 1), {
        (-6,): "shape mismatch in sum", (-4,): "shape mismatch in sum"}),
    ("A2", "int:2", (2, 1), ((-1, 1), 1, 1), (1, 0), {
        (0, -1): "shape mismatch 4x1 @ 2x4", (1, -3): "shape mismatch 4x1 @ 2x4",
        (2, -5): "shape mismatch 1x1 @ 2x4"}),
], ids=["A1-two-factors", "A1-lone-factor", "A2"])
def test_hat_raises_below_a_wrong_shaped_operator(root, ring, lam, key, grow, want):
    # The in-place assembly keeps the shape checks of the word and the sum:
    # the weights that raise and the messages are those recorded with the
    # per-block assembly (one Mat per block, then hstack and vstack).
    M = _build(root, ring, lam)
    op = M.eops[key]
    bad = replace(M, eops={**M.eops, key: Mat.zero(M.ring, op.rows + grow[0], op.cols + grow[1])})
    got = {}
    for mu in _weights_and_frontier(M):
        try:
            hat_matrices(bad, mu)
        except LinAlgError as exc:
            got[mu] = str(exc)
    assert got == want


# Builds whose steps have same-root blocks with a middle weight off the
# support (A1 ladders up to 14 and 8) and cross-root blocks (A2).
WORD_BUILDS = [("A1", "int:5", (14,)), ("A1", "cyc:3", (8,)), ("A2", "cyc:3", (2, 1))]


@pytest.mark.parametrize("root, ring, lam", WORD_BUILDS, ids=map(_ids, WORD_BUILDS))
def test_hat_evaluates_no_word_through_an_unsupported_weight(root, ring, lam, monkeypatch):
    # The r-th term of a Lusztig sum is F_{a,n-r} E_{a,m-r}, through the
    # weight mu + (m + n - r)*alpha_a; off the support it is a zero word,
    # which the hat assembly skips before evaluating it.
    middles, word = [], xcat._word

    def recording(M, src, w):
        if len(w) == 2 and (w[0][0], w[1][0]) == ("E", "F"):
            middles.append((w[0][3], w[0][3] in M.spaces))
        return word(M, src, w)

    monkeypatch.setattr(xcat, "_word", recording)
    build_smax(root_system(root), parse_ring(ring), lam)
    assert middles
    assert [mid for mid, supported in middles if not supported] == []


def _reference_x3(M):
    """(check, weight, status, witness) of the X3 entries of check_axioms:
    E_mu and F_mu stacked anew from eop and fop at every weight, F_mu
    decomposed with every transform, and E_mu ranked against the saturation
    basis Uinv[:, :rank(F_mu)] by an explicit product at every weight."""
    out = []
    for mu in sorted(M.region):
        index = _delta_index(M, mu)
        if not index or M.rank(mu) == 0:
            continue
        e = vstack([M.eop(mu, b.alpha, b.n) for b in index])
        f = hstack([M.fop(mu, b.alpha, b.n) for b in index])
        f_snf = smith_normal_form(f)
        rank_f = f_snf.rank
        rank_ef = linalg_rank(e @ f_snf.Uinv.take_cols(range(rank_f)))
        rank_e = linalg_rank(e)
        exps = tuple(x for x in f_snf.exponents if x > 0)
        if rank_ef != rank_f:
            out.append(("X3a", mu, "fail", f"rank(EF)={rank_ef} < rank(F)={rank_f}"))
        if rank_ef != rank_e:
            out.append(("X3b", mu, "fail", f"rank(EF)={rank_ef} != rank(E)={rank_e}"))
        if exps:
            out.append(("X3c", mu, "fail", f"saturation exponents {exps}"))
    failed = {entry[0] for entry in out}
    return out + [(check, None, "pass", None) for check in ("X3a", "X3b", "X3c")
                  if check not in failed]


def _x3_entries(M):
    return [(e.check, e.weight, e.status, e.witness) for e in check_axioms(M).entries
            if e.check.startswith("X3")]


def _x3_mutants(M):
    """M with one stored block of E_mu zeroed, or scaled by the uniformizer,
    at each weight mu where F_mu has full rank: one mutant per block and
    change."""
    pi = M.ring.uniformizer()
    for mu in sorted(M.region):
        index = _delta_index(M, mu)
        if not index or M.rank(mu) == 0:
            continue
        f = hstack([M.fop(mu, b.alpha, b.n) for b in index])
        if linalg_rank(f) != f.rows:
            continue
        for b in index:
            key = (mu, b.alpha, b.n)
            op = M.eops.get(key)
            if op is not None:
                for new in (Mat.zero(M.ring, op.rows, op.cols), op.scale(pi)):
                    yield replace(M, eops={**M.eops, key: new})


# X2 is set aside (an empty cache of failures) in the X3 tests below, so
# that check_axioms reaches X3 on objects whose identities fail or raise.
X3_OBJECTS = [("A1", "cyc:3", (8,)), ("A1", "int:5", (14,)), ("A2", "cyc:3", (2, 1)),
              ("B2", "cyc:3", (1, 1))]


@pytest.mark.parametrize("root, ring, lam", X3_OBJECTS, ids=map(_ids, X3_OBJECTS))
def test_x3_matches_an_explicit_rank_on_mutants(root, ring, lam, monkeypatch):
    # Where F_mu has full rank, X3 reads rank(E_mu) for the rank of E_mu
    # against the saturation basis of im F_mu; a mutant there must get the
    # entries the explicit product gives.
    monkeypatch.setattr(xcat.XObject, "_x2", ())
    M = _build(root, ring, lam)
    mutants = list(_x3_mutants(M))
    assert mutants
    failed = 0
    for bad in mutants:
        got = _x3_entries(bad)
        assert got == _reference_x3(bad)
        failed += any(check in ("X3a", "X3b") and status == "fail"
                      for check, _, status, _ in got)
    assert failed > 0


@pytest.mark.parametrize("ring, lam", [("cyc:3", 4), ("cyc:3", 6), ("int:3", 8)])
def test_x3_matches_an_explicit_rank_on_misshapen_objects(ring, lam, monkeypatch):
    # The corrupted objects of x2_corruption_outcomes.json: an F_mu with an
    # extra row can have full rank and still not match E_mu's columns, so
    # X3 must take the product, and raise as the reference does.
    monkeypatch.setattr(xcat.XObject, "_x2", ())
    M = _build("A1", ring, (lam,))
    for side in ("eops", "fops"):
        for key in sorted(getattr(M, side)):
            for extra in ("row", "col"):
                bad = _corrupt(M, side, key, extra)
                got = _or_error(lambda: _x3_entries(bad))
                assert got == _or_error(lambda: _reference_x3(bad)), (side, key, extra)
