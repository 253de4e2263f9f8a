"""The generator certificate against test-only copies of the full loops.

``check_axioms`` and ``verify_relations`` decide the commutation identities
and the divided-power rule from the generators: when the identities with
m = n = 1 and the rule with n = 1 hold, all of them do, and the full loops
are not run.  Here the reports, witnesses and order are compared with
copies of the full loops as they stood before that shortcut
(``_reference_x2``, ``_reference_dp``): on valid objects, restricted objects,
objects with one operator of index >= 2 or of index 1 corrupted, and
misshapen objects, whose exception must be the full loops' exception.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from qtilt import xcat
from qtilt.linalg import LinAlgError, Mat
from qtilt.ring import RingKind, parse_ring
from qtilt.rootsys import root_system, weights_below
from qtilt.xcat import (
    _commutation_rhs,
    _qb,
    _same,
    _sum,
    _word,
    build_smax,
    build_smin,
    check_axioms,
    restrict,
    verify_relations,
)

# ---------------------------------------------------------------------------
# Test-only copies of the full loops
# ---------------------------------------------------------------------------


def _reference_x2(M):
    """Every failed commutation identity (mu, a, b, m, n, source), in the
    order of the full X2 loop."""
    rs = M.rs
    bound = 2 * M.max_op_index() + 2
    in_index = {}
    region = [rs.lattice_coords(w) for w in M.region]

    def index_member(mu):
        hit = in_index.get(mu)
        if hit is None:
            y = rs.lattice_coords(mu)
            hit = mu in M.region or any(rs.lattice_leq(x, y) for x in region)
            in_index[mu] = hit
        return hit

    out = []
    for src in M.spaces:
        memo, coeffs = {}, {}
        for b in range(rs.rank):
            for n in range(1, bound):
                mu = rs.add_root(src, b, -n)
                if not index_member(mu):
                    break
                for a in range(rs.rank):
                    for m in M.ladder(mu, a):
                        if m >= bound:
                            break
                        tgt = rs.add_root(mu, a, m)
                        lhs = _word(M, src, (("F", b, n, mu), ("E", a, m, tgt)))
                        rhs = _commutation_rhs(M, mu, a, b, m, n, src, tgt, memo, coeffs)
                        if not _same(lhs, rhs):
                            out.append((mu, a, b, m, n, src))
    return out


def _reference_dp(M):
    """Every failed divided-power rule (kind, mu, a, m, n), in the order of
    the full divided-power loop."""
    ring, rs = M.ring, M.rs
    out = []
    for mu in sorted(M.spaces):
        for a in range(rs.rank):
            lad = M.ladder(mu, a)
            for n in range(1, lad[-1] if lad else 0):
                for m in (k - n for k in lad if k > n):
                    top = rs.add_root(mu, a, m + n)
                    coeff = _qb(ring, m + n, n, rs.d[a])
                    mid = rs.add_root(mu, a, n)
                    low = rs.add_root(mu, a, m)
                    for kind, src, word, whole in (
                            ("E", mu, (("E", a, n, mid), ("E", a, m, top)), ("E", a, m + n, top)),
                            ("F", top, (("F", a, n, low), ("F", a, m, mu)), ("F", a, m + n, mu))):
                        rhs = _word(M, src, (whole,))
                        if not _same(_word(M, src, word), _sum(ring, *rhs[:2], [(coeff, rhs)])):
                            out.append((kind, mu, a, m, n))
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _entries(rep):
    return [(e.check, e.weight, e.status, e.witness) for e in rep.entries]


def _run(fn, *args):
    """The entries of fn(*args), a report or a list of entries, or the type
    and message of the exception it raises."""
    try:
        out = fn(*args)
    except (LinAlgError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return out if isinstance(out, list) else _entries(out)


def _raised(result):
    return isinstance(result, tuple)


def _expected(M, got_check, got_verify):
    """The check_axioms and verify_relations results the full loops give:
    their X2, commutation and divided-power sections spliced between the
    entries of the reports got that this change leaves alone (X1, X3,
    Serre).  An exception of the full loops must be raised as it is; one
    that X3 or the Serre loop raises after them is taken as got."""
    try:
        x2 = _reference_x2(M)
    except (LinAlgError, ValueError) as exc:
        err = type(exc).__name__, str(exc)
        return err, err
    check = got_check
    if not _raised(got_check):
        check = [e for e in got_check if e[0] == "X1"]
        check += [("X2", mu, "fail", f"alpha={a} beta={b} m={m} n={n} source={src}")
                  for mu, a, b, m, n, src in x2] or [("X2", None, "pass", None)]
        check += [e for e in got_check if e[0].startswith("X3")]
    try:
        dp = _reference_dp(M)
    except (LinAlgError, ValueError) as exc:
        return check, (type(exc).__name__, str(exc))
    if _raised(got_verify):
        return check, got_verify
    verify = [("commutation", mu, "fail", f"alpha={a} beta={b} m={m} n={n}")
              for mu, a, b, m, n, _ in x2] or [("commutation", None, "pass", None)]
    verify += [(f"divided-power-{kind}", mu, "fail", f"alpha={a} m={m} n={n}")
               for kind, mu, a, m, n in dp] or [("divided-power", None, "pass", None)]
    verify += [e for e in got_verify if e[0].startswith("serre")]
    return check, verify


def _both_orders(X):
    """(check_axioms, verify_relations) results on a fresh copy of X, after
    asserting that verify_relations first on another fresh copy gives the
    same."""
    first = replace(X)
    got = _run(check_axioms, first), _run(verify_relations, first)
    second = replace(X)
    verify = _run(verify_relations, second)
    assert (_run(check_axioms, second), verify) == got
    return got


def _assert_matches_reference(X, label=None):
    """Both call orders report what the full loops report; returns whether
    anything failed."""
    got = _both_orders(X)
    assert got == _expected(X, *got), label
    return any(_raised(r) or any(e[2] == "fail" for e in r) for r in got)


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------


OBJECTS = [("A1", "cyc:3", (8,)), ("A1", "int:3", (14,)), ("A2", "cyc:3", (2, 1)),
           ("B2", "cyc:3", (1, 1)), ("G2", "cyc:3", (1, 0))]


def _ids(obj):
    return "-".join([obj[0], obj[1], ",".join(map(str, obj[2]))])


@lru_cache(maxsize=None)
def _build(kind, root, ring, lam):
    build = build_smax if kind == "smax" else build_smin
    return build(root_system(root), parse_ring(ring), lam)


def _spread(keys, count):
    """count keys spread evenly over keys, the first always included and
    the last when count > 1."""
    if len(keys) <= count:
        return keys
    return [keys[i * (len(keys) - 1) // max(count - 1, 1)] for i in range(count)]


def _corruptions(M, unit, per_side):
    """(side, change, key) and M with one stored operator of index 1 (unit)
    or >= 2 scaled by the uniformizer, by -1 or by 0, or dropped, for
    per_side keys per side."""
    ring = M.ring
    changes = (("pi", ring.uniformizer()), ("-1", ring.from_int(-1)), ("0", ring.zero()),
               ("drop", None))
    for side in ("eops", "fops"):
        stored = getattr(M, side)
        for key in _spread(sorted(k for k in stored if (k[2] == 1) == unit), per_side):
            for change, c in changes:
                ops = dict(stored)
                if c is None:
                    del ops[key]
                else:
                    ops[key] = stored[key].scale(c)
                yield (side[0].upper(), change, key), replace(M, **{side: ops})


@pytest.mark.parametrize("kind", ["smin", "smax"])
@pytest.mark.parametrize("root, ring, lam", OBJECTS, ids=map(_ids, OBJECTS))
def test_valid_objects_match_the_full_loops(kind, root, ring, lam):
    M = _build(kind, root, ring, lam)
    assert not _assert_matches_reference(M)
    # The certificate decided the identities and named no failure.
    N = replace(M)
    verify_relations(N)
    assert N._generators_hold and N._x2 == ()


@pytest.mark.parametrize("root, lam", [("A1", (8,)), ("A2", (2, 1)), ("B2", (1, 1))])
def test_restricted_objects_match_the_full_loops(root, lam):
    M = _build("smax", root, "cyc:3", lam)
    order = weights_below(M.rs, lam)
    R = restrict(M, order[:len(order) // 2])
    assert not _assert_matches_reference(R)
    failing = [label for label, bad in _corruptions(R, unit=False, per_side=2)
               if _assert_matches_reference(bad, label)]
    assert failing


# Keys per side of each corruption class: fewer on the large A1 (14) object.
_PER_SIDE = {("A1", "int:3", (14,)): 1}


@pytest.mark.parametrize("unit", [False, True], ids=["index>=2", "index1"])
@pytest.mark.parametrize("root, ring, lam", OBJECTS, ids=map(_ids, OBJECTS))
def test_one_corrupted_operator_matches_the_full_loops(root, ring, lam, unit):
    # Every corruption class fails somewhere: E or F, scaled by the
    # uniformizer, by -1 or by 0, or dropped.  An operator of index >= 2
    # spoils no identity with m = n = 1, only a divided-power rule of index
    # n = 1 and the identities that read it.
    M = _build("smax", root, ring, lam)
    classes, failing = set(), set()
    for label, bad in _corruptions(M, unit, _PER_SIDE.get((root, ring, lam), 2)):
        classes.add(label[:2])
        if _assert_matches_reference(bad, label):
            failing.add(label[:2])
    assert failing == classes


def _misshapen(M, side, key, extra):
    """M with one stored operator given an extra row or column of ones."""
    ops = dict(getattr(M, side))
    old = ops[key]
    rows = [list(r) for r in old.entries]
    one = M.ring.one()
    if extra == "row":
        rows.append([one] * old.cols)
    else:
        rows = [r + [one] for r in rows]
    ops[key] = Mat.from_rows(M.ring, rows, cols=old.cols + (extra == "col"))
    return replace(M, **{side: ops})


@pytest.mark.parametrize("root, ring, lam", [("A1", "cyc:3", (4,)), ("A2", "cyc:3", (1, 1))],
                         ids=["A1-cyc:3-4", "A2-cyc:3-1,1"])
def test_misshapen_objects_raise_the_full_loops_exception(root, ring, lam):
    M = _build("smax", root, ring, lam)
    raised = 0
    for side in ("eops", "fops"):
        for key in sorted(getattr(M, side)):
            for extra in ("row", "col"):
                bad = _misshapen(M, side, key, extra)
                check, verify = _both_orders(bad)
                assert (check, verify) == _expected(bad, check, verify), (side, key, extra)
                raised += _raised(check) and key[2] == 1
    assert raised


def test_an_operator_at_an_unsupported_weight_fails_the_certificate(cyc3):
    # An index-2 F into a weight outside the support, with a row it cannot
    # have: no generator relation reads it, the full X2 loop raises on it.
    # The bottom weight (-8,) joins the index set as a rank-0 weight of the
    # region, so the X2 loop reads F_{0,2} from (-4,) down to it.
    M = _build("smax", "A1", "cyc:3", (4,))
    M = replace(M, region=M.region | {(-6,), (-8,)})
    assert not _assert_matches_reference(M)
    bad = replace(M, fops={**M.fops, ((-8,), 0, 2): Mat.from_rows(cyc3, [[cyc3.one()]])})
    assert not xcat._well_shaped(bad) and not bad._generators_hold
    check, verify = _both_orders(bad)
    assert (check, verify) == _expected(bad, check, verify)
    assert check[0] == "LinAlgError"



def test_a_ring_kind_without_quantum_characteristic_0_takes_the_full_loops(monkeypatch):
    # The generator theorem needs every quantum factorial nonzero in the
    # fraction field.  All four kinds have that today; a kind not listed in
    # _QUANTUM_CHAR_0 is refused the certificate and runs the full loops.
    assert xcat._QUANTUM_CHAR_0 == set(RingKind)
    M = _build("smax", "A1", "cyc:3", (4,))
    shortcut = _both_orders(M)
    monkeypatch.setattr(xcat, "_QUANTUM_CHAR_0", xcat._QUANTUM_CHAR_0 - {M.ring.kind})
    loops = []
    full = xcat._x2_failures

    def spy(M, unit=False):
        loops.append(unit)
        return full(M, unit)

    monkeypatch.setattr(xcat, "_x2_failures", spy)
    N = replace(M)
    assert not N._generators_hold and loops == []
    assert _both_orders(N) == shortcut == _expected(M, *shortcut)
    assert loops and not any(loops)
