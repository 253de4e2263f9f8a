"""The object-file writer and loader: ``serialize.dumps`` writes exactly the
text of ``json.dumps(x, indent=2)``, and the loaders parse each distinct
element string of a file once."""

import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtilt import serialize
from qtilt.cli import main
from qtilt.forms import build_smax_with_form, check_form
from qtilt.linalg import Mat
from qtilt.ring import RingError, parse_ring
from qtilt.rootsys import root_system
from qtilt.serialize import SerializeError, dumps, load_form, load_xobject, report_to_dict
from qtilt.xcat import XObject, check_axioms, verify_relations

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")
GOLDEN_FILES = sorted(f for f in os.listdir(GOLDEN) if f.endswith(".json"))
OBJECTS = ["a1_smax_cyc3_w3.json", "a2_smin_int3_w11.json"]
FORM = "a1_smaxform_cyc3_w3.form.json"


def _text(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def _same_as_json(x):
    assert dumps(x) == json.dumps(x, indent=2) + "\n"


def _form_object():
    return build_smax_with_form(root_system("A1"), parse_ring("cyc:3"), (3,))


# ---------------------------------------------------------------------------
# writer


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_dumps_writes_the_goldens(name):
    text = _text(name)
    d = json.loads(text)
    _same_as_json(d)
    assert dumps(d) == text


def test_dumps_matches_json_on_reports(a1, cyc3):
    # Summary entries carry null weights and witnesses; failures carry both.
    M, b = _form_object()
    sig = cyc3.uniformizer()
    spaces = {(3,): 1, (1,): 1}
    bad = XObject(cyc3, a1, spaces, {((1,), 0, 1): Mat.from_rows(cyc3, [[cyc3.one()]])},
                  {((1,), 0, 1): Mat.from_rows(cyc3, [[sig]])}, frozenset(spaces), (3,))
    zeroed = {w: Mat.zero(cyc3, g.rows, g.cols) for w, g in b.items()}
    reports = [check_axioms(M), verify_relations(M), check_form(M, b),
               check_axioms(bad), verify_relations(bad), check_form(M, zeroed)]
    assert {r.ok for r in reports} == {True, False}
    for rep in reports:
        d = report_to_dict(rep)
        assert any(e["weight"] is None and e["witness"] is None for e in d["checks"])
        _same_as_json(d)


def _cli_json(args, code=0):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == code, res.output
    payload = json.loads(res.output)
    _same_as_json(payload)
    assert dumps(payload) == res.output
    return payload


def test_dumps_matches_json_on_cli_payloads(tmp_path):
    objs = {}
    for kind in ("smax", "smax-form", "smin"):
        objs[kind] = str(tmp_path / f"{kind}.json")
        res = CliRunner().invoke(main, ["build", "--kind", kind, "--root", "A1", "--ring",
                                        "cyc:3", "--weight", "3", "--out", objs[kind]])
        assert res.exit_code == 0, res.output
    assert _cli_json(["character", objs["smax"]]) == {"3": 1, "1": 2, "-1": 2, "-3": 1}
    _cli_json(["weyl-mults", objs["smax"]])
    _cli_json(["weyl-char", "--root", "B2", "--weight", "1,1"])
    assert _cli_json(["hom-extend", objs["smax"], objs["smax-form"]])["status"] == "extended"
    assert _cli_json(["hom-extend", objs["smax"], objs["smin"]], 1)["status"] == "obstructed"


_tricky = st.sampled_from(["", "\x00", "\x1f\x7f", '"\\/', "é", " ", "\ud800", "😀"])
_leaves = st.one_of(
    st.text(), _tricky, st.integers(), st.integers(-10**400, 10**400),
    st.booleans(), st.none(), st.floats(),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text() | _tricky, kids,
                                                              max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text() | _tricky, _trees, max_size=5))
@example({"a": [], "b": {}, "c": [[], {}, [[{}]], {"d": [[]]}], "e": {"f": {"g": {}}}})
@example({"int": [0, -1, 10**300, -(10**300), True, False], "none": None, "nan": float("nan")})
def test_dumps_matches_json_on_nested_values(d):
    _same_as_json(d)


# ---------------------------------------------------------------------------
# loader


def _entry_strings(d):
    """Every entry string of an object or form dict, in file order."""
    key = "operators" if "operators" in d else "weights"
    field = "entries" if key == "operators" else "gram"
    return [s for rec in d[key] for row in rec[field] for s in row]


@pytest.fixture()
def parses(monkeypatch):
    """The strings handed to serialize.parse_elem, in call order."""
    seen = []
    parse = serialize.parse_elem

    def counting(s, ring):
        seen.append(s)
        return parse(s, ring)

    monkeypatch.setattr(serialize, "parse_elem", counting)
    return seen


@pytest.mark.parametrize("name", OBJECTS + [FORM])
def test_loader_parses_each_distinct_string_once_per_file(name, parses):
    text = _text(name)
    strings = _entry_strings(json.loads(text))
    assert len(set(strings)) < len(strings)
    if name == FORM:
        M, _ = _form_object()
        load = lambda: load_form(text, M)  # noqa: E731
    else:
        load = lambda: load_xobject(text)  # noqa: E731
    load()
    assert sorted(parses) == sorted(set(strings))
    # A second file (here: the same text again) parses its strings afresh.
    load()
    assert len(parses) == 2 * len(set(strings))


def _loaded_entries(d, name):
    """Pairs (entry string, loaded element) over every entry of a golden."""
    text = json.dumps(d)
    if name == FORM:
        M, _ = _form_object()
        b = load_form(text, M)
        mats = [b[tuple(w["coords"])] for w in d["weights"]]
        blocks = [w["gram"] for w in d["weights"]]
    else:
        M = load_xobject(text)
        tables = {"E": M.eops, "F": M.fops}
        mats = [tables[op["kind"]][(tuple(op["mu"]), op["alpha"], op["n"])]
                for op in d["operators"]]
        blocks = [op["entries"] for op in d["operators"]]
    for mat, block in zip(mats, blocks):
        for row, loaded in zip(block, mat.entries):
            yield from zip(row, loaded)


@pytest.mark.parametrize("name", OBJECTS + [FORM])
def test_equal_strings_load_to_one_element(name):
    first = {}
    pairs = list(_loaded_entries(json.loads(_text(name)), name))
    for s, e in pairs:
        assert first.setdefault(s, e) is e
    assert len(first) < len(pairs)


@pytest.mark.parametrize("name,bad,error,message", [
    ("a1_smax_cyc3_w3.json", "1/0", RingError, "bad number '1/0'"),
    ("a1_smax_cyc3_w3.json", "(1)/(0)", RingError, "zero denominator"),
    ("a2_smin_int3_w11.json", "abc", RingError, "bad number 'abc'"),
    ("a2_smin_int3_w11.json", "s^1 * 1", RingError, "bad number 's^1 * 1'"),
    ("a1_smax_cyc3_w3.json", 7, SerializeError,
     "entry block must be a list of rows of element strings"),
    (FORM, "1/0", RingError, "bad number '1/0'"),
    (FORM, 7, SerializeError, "entry block must be a list of rows of element strings"),
])
def test_a_repeated_malformed_entry_raises_as_before(name, bad, error, message, parses):
    d = json.loads(_text(name))
    key, field = ("weights", "gram") if name == FORM else ("operators", "entries")
    for rec in d[key][:3]:
        rec[field][0][0] = bad
    text = json.dumps(d)
    with pytest.raises(error) as exc:
        if name == FORM:
            load_form(text, _form_object()[0])
        else:
            load_xobject(text)
    assert str(exc.value) == message
    assert parses.count(bad) <= 1


def test_a_string_that_fails_to_parse_is_not_stored():
    parsed = serialize._Parsed(parse_ring("cyc:3"))
    with pytest.raises(RingError):
        parsed["1/0"]
    assert "1/0" not in parsed
    one = parsed["1"]
    assert parsed["1"] is one and list(parsed) == ["1"]

