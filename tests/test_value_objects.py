"""The value-object contract of ``LaurentPoly``, ``RingElem`` and ``Mat``.

The three classes are plain slotted dataclasses: nothing stops an assignment
to a field at run time.  They stay immutable by contract, because matrices,
the word memo, the file loader's memo and an object's local cache share
their instances.  These tests check that no code path assigns a field after
construction, and that value equality, hashing and the slotted layout hold.
"""

import pickle

import pytest

from qtilt.forms import build_smax_with_form, check_form
from qtilt.linalg import Mat
from qtilt.ring import (
    LaurentPoly,
    RingElem,
    RingError,
    embed,
    format_elem,
    lp,
    parse_elem,
    parse_ring,
    qint,
)
from qtilt.rootsys import root_system
from qtilt.serialize import dump_form, dump_xobject, load_form, load_xobject
from qtilt.xcat import (
    Obstructed,
    build_smax,
    build_smin,
    check_axioms,
    extend_hom_down,
    maximality_certificate,
    minimality_certificate,
    verify_relations,
    weyl_multiplicities,
)

VALUE_CLASSES = (LaurentPoly, RingElem, Mat)


@pytest.fixture
def reassignments(monkeypatch):
    """Install a ``__setattr__`` on the value classes that refuses to assign
    a field that is already set; returns the list of refused assignments."""
    seen = []

    def guard(self, name, value):
        try:
            getattr(self, name)
        except AttributeError:  # an unset slot: the constructor's store
            object.__setattr__(self, name, value)
            return
        seen.append(f"{type(self).__name__}.{name}")
        raise AssertionError(f"{type(self).__name__}.{name} assigned after construction")

    for cls in VALUE_CLASSES:
        monkeypatch.setattr(cls, "__setattr__", guard)
    return seen


def test_the_guard_refuses_a_reassignment(reassignments, cyc3):
    x = embed(qint(3), cyc3)
    m = Mat.identity(cyc3, 2)
    p = qint(3)
    for obj, name in ((x, "k"), (x, "shift"), (p, "shift"), (m, "rows")):
        before = getattr(obj, name)
        with pytest.raises(AssertionError, match="assigned after construction"):
            setattr(obj, name, before + 1)
        assert getattr(obj, name) == before
    assert reassignments == ["RingElem.k", "RingElem.shift", "LaurentPoly.shift", "Mat.rows"]


@pytest.mark.parametrize("root,ring,lam", [
    ("A1", "int:3", (6,)),
    ("A2", "cyc:3", (1, 1)),
    ("B2", "cyc:3", (1, 1)),
])
def test_no_code_path_reassigns_a_field(reassignments, root, ring, lam):
    rs, ring = root_system(root), parse_ring(ring)
    smin = build_smin(rs, ring, lam)
    smax = build_smax(rs, ring, lam)
    M, b = build_smax_with_form(rs, ring, lam)

    loaded = load_xobject(dump_xobject(M))
    assert loaded == M
    assert load_form(dump_form(M, b), loaded) == b

    for X in (smin, smax, M, loaded):
        assert check_axioms(X).ok
        assert verify_relations(X).ok
    assert check_form(M, b).ok
    assert check_form(loaded, b).ok
    assert minimality_certificate(smin).ok
    assert maximality_certificate(smax).ok
    assert weyl_multiplicities(smax) == weyl_multiplicities(M)
    hom = extend_hom_down(smax, M, Mat.identity(ring, 1))
    assert not isinstance(hom, Obstructed)
    assert reassignments == []


def test_equal_values_hash_equal_and_key_dicts(cyc3, int3):
    a = embed(qint(3), cyc3) * embed(qint(2), cyc3)
    b = parse_elem(format_elem(a), cyc3)
    assert a is not b and a == b and hash(a) == hash(b)
    p, q = qint(3) * qint(2), lp({3: 1, 1: 2, -1: 2, -3: 1})
    assert p is not q and p == q and hash(p) == hash(q)
    m1 = build_smax(root_system("A1"), int3, (4,)).eops
    m2 = build_smax(root_system("A1"), int3, (4,)).eops
    assert m1 == m2 and m1 is not m2
    for key, m in m1.items():
        assert m is not m2[key] and hash(m) == hash(m2[key])
        assert {m: key}[m2[key]] == key
    table = {a: "a", p: "p"}
    assert table[b] == "a" and table[q] == "p"
    assert a != a + cyc3.one() and p != p + qint(1)


def test_value_instances_have_no_dict(cyc3):
    x = embed(qint(3), cyc3)
    m = Mat.identity(cyc3, 2)
    for obj in (x, qint(3), m):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    for cls in VALUE_CLASSES:
        assert "__slots__" in vars(cls), cls.__name__


def test_value_instances_pickle(cyc3):
    x = embed(qint(3), cyc3)
    m = Mat.from_rows(cyc3, [[x, cyc3.zero()]])
    for obj in (x, qint(3), m, cyc3):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)


@pytest.mark.parametrize("op", ["+", "-", "*", "divide"])
def test_ring_ops_refuse_mixed_rings(op, cyc3, int3, int5):
    for x, y in ((cyc3.one(), int3.one()), (int3.from_int(2), int5.from_int(2)),
                 (int3.zero(), int5.one())):
        with pytest.raises(RingError, match="mixed rings"):
            if op == "+":
                x + y
            elif op == "-":
                x - y
            elif op == "*":
                x * y
            else:
                x.divide(y)


def test_each_ring_has_one_zero_and_a_cached_hash(cyc3):
    again = parse_ring("cyc:3")
    assert again is not cyc3 and again == cyc3 and hash(again) == hash(cyc3)
    assert cyc3.zero() is cyc3.zero() and cyc3.zero().is_zero()
    assert again.zero() == cyc3.zero()
    x = embed(qint(3), cyc3)
    assert x * cyc3.zero() is cyc3.zero()
    assert {cyc3: 1}[again] == 1
    assert len({parse_ring(d) for d in ("cyc:3", "cyc:3", "int:3", "generic", "rational")}) == 4
