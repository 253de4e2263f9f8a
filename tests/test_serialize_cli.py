import copy
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from cli_runner import CliRunner
from qtilt.cli import main
from qtilt.forms import FormError, build_smax_with_form, check_form
from qtilt.ring import RingError, parse_ring
from qtilt.rootsys import RootSystemError, root_system
from qtilt.serialize import (
    SerializeError,
    dump_form,
    dump_xobject,
    load_form,
    load_xobject,
)
from qtilt.xcat import (
    XCatError,
    build_smax,
    build_smin,
    character,
    check_axioms,
    direct_sum,
)


def test_xobject_roundtrip(a2, cyc3):
    M = build_smax(a2, cyc3, (1, 1))
    text = dump_xobject(M)
    assert load_xobject(text) == M


def test_xobject_roundtrip_explicit_cartan(cyc3):
    from qtilt.rootsys import root_system

    rs = root_system([[2, -1], [-1, 2]])
    M = build_smin(rs, cyc3, (1, 0))
    assert load_xobject(dump_xobject(M)) == M


def test_form_roundtrip(a1, cyc3):
    M, b = build_smax_with_form(a1, cyc3, (3,))
    text = dump_form(M, b)
    assert load_form(text, M) == b


def test_dump_is_deterministic(a1, cyc3):
    a = dump_xobject(build_smax(a1, cyc3, (4,)))
    b = dump_xobject(build_smax(a1, cyc3, (4,)))
    assert a == b


def test_load_rejects_bad_payloads(a1, cyc3):
    M = build_smin(a1, cyc3, (2,))
    d = json.loads(dump_xobject(M))
    d["format"] = "something-else"
    with pytest.raises(SerializeError):
        load_xobject(json.dumps(d))
    d = json.loads(dump_xobject(M))
    d["version"] = 99
    with pytest.raises(SerializeError):
        load_xobject(json.dumps(d))
    d = json.loads(dump_xobject(M))
    d["operators"][0]["entries"] = [["1", "1"]]
    with pytest.raises(SerializeError):
        load_xobject(json.dumps(d))


def test_golden_files_parse_and_match():
    from qtilt.ring import cyclotomic_local, integer_local
    from qtilt.rootsys import root_system
    from qtilt.xcat import check_axioms

    here = os.path.dirname(__file__)
    golden = os.path.join(here, "..", "docs", "golden")
    with open(os.path.join(golden, "a1_smax_cyc3_w3.json")) as fh:
        M = load_xobject(fh.read())
    assert character(M) == {(3,): 1, (1,): 2, (-1,): 2, (-3,): 1}
    # regeneration is bit-identical
    again = build_smax(root_system("A1"), cyclotomic_local(3), (3,))
    with open(os.path.join(golden, "a1_smax_cyc3_w3.json")) as fh:
        assert dump_xobject(again) == fh.read()
    # the golden form file checks out against the regenerated object
    F, b = build_smax_with_form(root_system("A1"), cyclotomic_local(3), (3,))
    with open(os.path.join(golden, "a1_smaxform_cyc3_w3.form.json")) as fh:
        text = fh.read()
    assert load_form(text, F) == b
    assert dump_form(F, b) == text
    with open(os.path.join(golden, "a2_smin_int3_w11.json")) as fh:
        text = fh.read()
    W = load_xobject(text)
    assert W.ring == integer_local(3)
    assert check_axioms(W).ok
    assert dump_xobject(build_smin(root_system("A2"), integer_local(3), (1, 1))) == text


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def runner():
    return CliRunner()


def test_cli_build_check_character(runner, tmp_path):
    out = tmp_path / "obj.json"
    res = runner.invoke(main, ["build", "--kind", "smax", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "3",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["character", str(out)])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"3": 1, "1": 2, "-1": 2, "-3": 1}
    res = runner.invoke(main, ["check", str(out)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["verify", str(out)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["weyl-mults", str(out)])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"3": 1, "1": 1}


def test_cli_weyl_mults_on_smin(runner, tmp_path):
    out = tmp_path / "smin.json"
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A2",
                               "--ring", "int:3", "--weight", "1,1",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["weyl-mults", str(out)])
    assert json.loads(res.output) == {"1,1": 1}


def test_cli_weyl_char_csv(runner):
    res = runner.invoke(main, ["weyl-char", "--root", "A1", "--weight", "2",
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "weight,multiplicity"
    assert len(lines) == 4


def test_cli_form_workflow(runner, tmp_path):
    out = tmp_path / "t.json"
    form = tmp_path / "t.form.json"
    res = runner.invoke(main, ["build", "--kind", "smax-form", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "3",
                               "--out", str(out), "--form-out", str(form)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["form-check", str(out), str(form)])
    assert res.exit_code == 0, res.output


def test_cli_check_failure_exit_code(runner, tmp_path, a1, cyc3):
    from qtilt.linalg import Mat
    from qtilt.xcat import XObject

    sig = cyc3.uniformizer()
    spaces = {(3,): 1, (1,): 1}
    eops = {((1,), 0, 1): Mat.from_rows(cyc3, [[cyc3.one()]])}
    fops = {((1,), 0, 1): Mat.from_rows(cyc3, [[sig]])}
    bad = XObject(cyc3, a1, spaces, eops, fops, frozenset(spaces), (3,))
    path = tmp_path / "bad.json"
    path.write_text(dump_xobject(bad))
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert not rep["ok"]


def _golden_dict(name):
    golden = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")
    with open(os.path.join(golden, name)) as fh:
        return json.load(fh)


def _coords_not_int(d):
    d["weights"][0]["coords"] = ["x"]


def _weight_as_list(d):
    d["weights"][0] = [3]


def _no_weights(d):
    del d["weights"]


def _first_entry(text):
    def corrupt(d):
        if "operators" in d:
            d["operators"][0]["entries"][0][0] = text
        else:
            d["weights"][0]["gram"][0][0] = text
    return corrupt


def _ints_as(convert):
    """Replace each integer of the weight and operator records (coordinates,
    ranks, operator indices) by convert(x).  Each file made so loaded as the
    original did while the loaders converted numbers with int()."""
    def walk(x):
        if type(x) is int:
            return convert(x)
        if isinstance(x, list):
            return [walk(y) for y in x]
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        return x

    def corrupt(d):
        for key in ("weights", "operators"):
            if key in d:
                d[key] = walk(d[key])
    return corrupt


def _weight_twice(d):
    d["weights"].append(dict(d["weights"][0]))


def _version_true(d):
    d["version"] = True


def _weight_of_wrong_length(d):
    # A weight record with three coordinates on an A1 object; the form
    # loader kept {"coords": [7, 7, 7], "gram": []}.
    payload = {"rank": 0} if "operators" in d else {"gram": []}
    d["weights"].append({"coords": [7, 7, 7], **payload})


def _misspelt_field(d):
    # A second, misspelt copy of a weight record's payload field.
    rec = d["weights"][0]
    key = "rank" if "rank" in rec else "gram"
    rec[key + key[-1]] = rec[key]


_CYC3_OBJ = "a1_smax_cyc3_w3.json"


@pytest.mark.parametrize("golden,corrupt,error", [
    pytest.param(_CYC3_OBJ, _coords_not_int, SerializeError, id="_coords_not_int"),
    pytest.param(_CYC3_OBJ, _weight_as_list, SerializeError, id="_weight_as_list"),
    pytest.param(_CYC3_OBJ, _no_weights, SerializeError, id="_no_weights"),
    pytest.param("a2_smin_int3_w11.json", _first_entry("abc"), RingError, id="abc_int3"),
    pytest.param(_CYC3_OBJ, _first_entry("1/0"), RingError, id="one_over_zero_cyc3"),
    pytest.param(_CYC3_OBJ, _first_entry("(1)/(0)"), RingError, id="zero_den_cyc3"),
    pytest.param(_CYC3_OBJ, _first_entry("s^100000 * 1"), RingError,
                 id="uniformizer_power_too_large_cyc3"),
    pytest.param(_CYC3_OBJ, _ints_as(float), SerializeError, id="ints_as_floats"),
    pytest.param(_CYC3_OBJ, _ints_as(lambda x: x + 0.5 if x > 0 else x), SerializeError,
                 id="positive_ints_plus_half"),
    pytest.param(_CYC3_OBJ, _ints_as(str), SerializeError, id="ints_as_strings"),
    pytest.param(_CYC3_OBJ, _ints_as(lambda x: bool(x) if x in (0, 1) else x), SerializeError,
                 id="ints_as_bools"),
    pytest.param(_CYC3_OBJ, _version_true, SerializeError, id="version_true"),
    pytest.param(_CYC3_OBJ, _weight_twice, SerializeError, id="weight_twice"),
    pytest.param(_CYC3_OBJ, _weight_of_wrong_length, RootSystemError,
                 id="weight_of_wrong_length"),
    pytest.param(_CYC3_OBJ, _misspelt_field, SerializeError, id="misspelt_field"),
])
def test_malformed_files_exit_2(runner, tmp_path, golden, corrupt, error):
    obj = _golden_dict(golden)
    form = _golden_dict("a1_smaxform_cyc3_w3.form.json")
    good_obj = tmp_path / "obj.json"
    good_obj.write_text(json.dumps(_golden_dict(_CYC3_OBJ)))
    corrupt(obj)
    corrupt(form)
    bad_obj, bad_form = tmp_path / "bad.json", tmp_path / "bad.form.json"
    bad_obj.write_text(json.dumps(obj))
    bad_form.write_text(json.dumps(form))
    with pytest.raises(error):
        load_xobject(bad_obj.read_text())
    with pytest.raises(error):
        load_form(bad_form.read_text(), load_xobject(good_obj.read_text()))
    for args in (["check", str(bad_obj)], ["form-check", str(good_obj), str(bad_form)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "error:" in res.output
        assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("golden,path", [
    (_CYC3_OBJ, ()), (_CYC3_OBJ, ("root_system",)), (_CYC3_OBJ, ("weights", 0)),
    (_CYC3_OBJ, ("operators", 0)), ("a1_smaxform_cyc3_w3.form.json", ()),
    ("a1_smaxform_cyc3_w3.form.json", ("weights", 0)),
])
def test_unknown_fields_exit_2(runner, tmp_path, golden, path):
    # Every level where the schemas set additionalProperties: false.
    good_obj = tmp_path / "obj.json"
    good_obj.write_text(json.dumps(_golden_dict(_CYC3_OBJ)))
    d = _golden_dict(golden)
    node = d
    for key in path:
        node = node[key]
    node["extra"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    if golden == _CYC3_OBJ:
        load, args = load_xobject, ["check", str(bad)]
    else:
        load = lambda text: load_form(text, load_xobject(good_obj.read_text()))  # noqa: E731
        args = ["form-check", str(good_obj), str(bad)]
    with pytest.raises(SerializeError, match="unknown field.*'extra'"):
        load(bad.read_text())
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "unknown field" in res.output


def test_root_system_label_and_cartan_exit_2():
    # The schema admits exactly one of the two descriptors.
    d = _golden_dict(_CYC3_OBJ)
    d["root_system"]["cartan"] = [[2]]
    with pytest.raises(SerializeError, match="unknown field"):
        load_xobject(json.dumps(d))


def _zeroed_e_copy(offset):
    """Insert a zeroed copy of the first E record before (0) or after (1) it."""
    def corrupt(d):
        i = next(i for i, op in enumerate(d["operators"]) if op["kind"] == "E")
        op = d["operators"][i]
        d["operators"].insert(i + offset, {**op, "entries": [["0"] * len(r) for r in op["entries"]]})
    return corrupt


@pytest.mark.parametrize("corrupt", [
    pytest.param(_zeroed_e_copy(0), id="zeroed_e_first"),
    pytest.param(_zeroed_e_copy(1), id="zeroed_e_last"),
    pytest.param(_weight_twice, id="weight_twice"),
])
def test_duplicate_records_exit_2(runner, tmp_path, corrupt):
    # Keeping the last of two records made check pass or fail with their order.
    obj = _golden_dict(_CYC3_OBJ)
    corrupt(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(SerializeError, match="duplicate"):
        load_xobject(bad.read_text())
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and "duplicate" in res.output


def test_non_string_operator_kind_exits_2(runner, tmp_path):
    # An unhashable kind used to reach a dict lookup and give a traceback.
    obj = _golden_dict(_CYC3_OBJ)
    assert obj["operators"][2]["kind"] == "E"  # a square block: the shape fits either kind
    obj["operators"][2]["kind"] = {"x": 1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(SerializeError, match="kind"):
        load_xobject(bad.read_text())
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert isinstance(res.exception, SystemExit)


_LIBRARY_ERRORS = (SerializeError, RingError, RootSystemError, XCatError, FormError)
_POOL = [None, True, 0, -1, 1.5, "x", [], [[]], {}, 10**30, "s^1 * 1"]


def _node_paths(x, path=()):
    """The path of every node of a JSON value, the root included."""
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, y in items:
        yield from _node_paths(y, path + (key,))


def _mutants(d):
    """d with one node replaced by one value of the pool, for every node and
    every value."""
    for path in _node_paths(d):
        for value in _POOL:
            if not path:
                yield value
                continue
            out = copy.deepcopy(d)
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            yield out


@pytest.mark.parametrize("golden", [_CYC3_OBJ, "a2_smin_int3_w11.json",
                                    "a1_smaxform_cyc3_w3.form.json"])
def test_mutated_goldens_load_or_raise_a_library_error(golden):
    # A mutant either loads or is refused with an error the CLI maps to
    # exit 2; a mutant that loads is checked and must raise nothing else.
    if golden.endswith(".form.json"):
        M, _ = build_smax_with_form(root_system("A1"), parse_ring("cyc:3"), (3,))
        load, check = (lambda text: load_form(text, M)), (lambda b: check_form(M, b))
    else:
        load, check = load_xobject, check_axioms
    loaded = 0
    for mutant in _mutants(_golden_dict(golden)):
        text = json.dumps(mutant)
        try:
            got = load(text)
        except _LIBRARY_ERRORS:
            continue
        loaded += 1
        try:
            check(got)
        except _LIBRARY_ERRORS:
            pass
    assert loaded > 0


def test_check_refuses_a_ring_prime_too_large(runner, tmp_path):
    obj = _golden_dict("a2_smin_int3_w11.json")
    obj["ring"] = "int:10000000000000000000000013"  # a 26-digit prime
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and "too large" in res.output
    assert isinstance(res.exception, SystemExit)


def test_check_refuses_a_ring_index_of_too_many_digits(runner, tmp_path):
    obj = _golden_dict(_CYC3_OBJ)
    obj["ring"] = "cyc:" + "1" * (sys.get_int_max_str_digits() + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and "bad number" in res.output
    assert isinstance(res.exception, SystemExit)


def test_check_refuses_a_cyclotomic_index_too_large_at_once(runner, tmp_path, monkeypatch):
    # phi(100000) = 40000 > 10^4: refused from the index alone, before any
    # entry is read and without computing sigma_l.
    from qtilt import ring

    def unbuildable(l):
        raise AssertionError(f"sigma_{l} computed")

    monkeypatch.setattr(ring, "cyclotomic_poly", unbuildable)
    obj = _golden_dict(_CYC3_OBJ)
    obj["ring"] = "cyc:100000"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 2, res.output
    assert "error: cyc:100000 has phi(100000) = 40000 > 10000" in res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("golden", [_CYC3_OBJ, "a2_smin_int3_w11.json"])
def test_check_quotes_a_prefix_of_a_huge_number(runner, tmp_path, golden):
    obj = _golden_dict(golden)
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    obj["operators"][0]["entries"][0][0] = digits
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 2, res.output
    (line,) = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
    assert line == f"error: bad number '{digits[:40]}'... ({len(digits)} digits)"
    assert isinstance(res.exception, SystemExit)


def _error_line(res):
    (line,) = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
    return line


def test_cli_quotes_a_prefix_of_a_long_root_or_ring(runner, tmp_path):
    # A 20 000-character --root or --ring used to be printed whole.
    long = "Z" + "9" * 19_999
    for args, prefix in (
            (["weyl-char", "--root", long, "--weight", "1"], "error: bad root system label 'Z999"),
            (["build", "--kind", "smax", "--root", "A1", "--ring", long, "--weight", "2",
              "--out", str(tmp_path / "o.json")], "error: unknown ring descriptor 'Z999")):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        line = _error_line(res)
        assert line.startswith(prefix) and line.endswith("... (20000 characters)"), line
        assert len(line) < 120
        assert isinstance(res.exception, SystemExit)
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command", ["check", "build"])
def test_a_long_path_is_quoted_by_a_prefix(runner, tmp_path, command):
    # The system's error on a 100 000-character file name used to be
    # printed whole, path and all: about 100 kB on stderr.
    path = str(tmp_path / ("x" * 100_000))
    args = {"check": ["check", path],
            "build": ["build", "--kind", "smin", "--root", "A1", "--ring", "cyc:3",
                      "--weight", "2", "--out", path]}[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    line = _error_line(res)
    assert line.startswith("error: ") and line.endswith(f"... ({len(path)} characters)"), line
    assert len(res.stderr.encode()) < 200
    assert "wrote" not in res.output


def test_check_quotes_a_prefix_of_a_long_ring_field(runner, tmp_path):
    obj = _golden_dict(_CYC3_OBJ)
    obj["ring"] = "cyc:" + "x" * 19_996
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 2, res.output
    line = _error_line(res)
    assert line.startswith("error: unknown ring descriptor 'cyc:xxx"), line
    assert len(line) < 120
    assert isinstance(res.exception, SystemExit)


_LONG = "x" * 100_000


def _check_with(*path_and_value):
    """The arguments of ``qtilt check`` on the cyc:3 golden with the field
    at path set to value."""
    *path, value = path_and_value

    def args(tmp_path):
        d = _golden_dict(_CYC3_OBJ)
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        return ["check", str(bad)]
    return args


def _build_with(*extra):
    """The arguments of a build of A1 (2) over cyc:3 into o.json, then extra."""
    return lambda tmp_path: ["build", "--kind", "smax", "--root", "A1", "--ring", "cyc:3",
                             "--weight", "2", "--out", str(tmp_path / "o.json"), *extra]


_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "golden", _CYC3_OBJ)

# Usage errors whose value the option parser itself refuses: the arguments
# and the start of what the error line says.
_USAGE_ERRORS = {
    "build_kind": (_build_with("--kind", _LONG), "argument --kind: invalid choice: 'xxx"),
    "build_height_bound": (_build_with("--height-bound", _LONG),
                           "argument --height-bound: invalid int value: 'xxx"),
    "character_format": (lambda tmp_path: ["character", _GOLDEN_PATH, "--format", _LONG],
                         "argument --format: invalid choice: 'xxx"),
    "unknown_command": (lambda tmp_path: [_LONG], "argument COMMAND: invalid choice: 'xxx"),
    "unknown_option": (lambda tmp_path: ["check", _GOLDEN_PATH, "--" + _LONG],
                       "unrecognized arguments: '--xxx"),
}


@pytest.mark.parametrize("args", [
    pytest.param(_check_with("format", _LONG), id="format"),
    pytest.param(_check_with("version", _LONG), id="version"),
    pytest.param(_check_with(_LONG, 1), id="unknown_field"),
    pytest.param(_check_with("weights", _LONG), id="weights"),
    pytest.param(_check_with("weights", 0, "rank", _LONG), id="rank"),
    pytest.param(_check_with("weights", 0, "coords", [0] * 50_000), id="weight_coords"),
    pytest.param(_check_with("operators", 0, "mu", [0] * 50_000), id="operator_mu"),
    pytest.param(_check_with("operators", 0, "alpha", 10 ** 4000), id="operator_alpha"),
    # Record 6 is the golden's first F record, whose entry block has the
    # shape an F record needs, so its kind is read next.
    pytest.param(_check_with("operators", 6, "kind", _LONG), id="operator_kind"),
    pytest.param(lambda tmp_path: ["weyl-char", "--root", "A1",
                                   "--weight", ",".join(["0"] * 50_000)],
                 id="weyl_char_weight_length"),
    pytest.param(lambda tmp_path: ["build", "--kind", "smax", "--root", "A1", "--ring", "cyc:3",
                                   "--weight", ",".join(["-1"] * 50_000),
                                   "--out", str(tmp_path / "o.json")],
                 id="build_weight_length"),
    pytest.param(lambda tmp_path: ["weyl-char", "--root", "A1", "--weight", "1," + _LONG],
                 id="weight_not_integers"),
    *[pytest.param(args, id=name) for name, (args, _) in _USAGE_ERRORS.items()],
])
def test_refusals_quote_a_bounded_prefix_of_the_input(runner, tmp_path, args):
    # Each of these echoed the whole value read from input, 100 KB or more.
    res = runner.invoke(main, args(tmp_path))
    assert res.exit_code == 2, res.output[:400]
    assert isinstance(res.exception, SystemExit)
    assert 0 < len(res.stderr.encode()) < 300, res.stderr[:400]
    assert not (tmp_path / "o.json").exists()


_DEEP_JSON = "[" * 200_000 + "]" * 200_000


def _deep_json(path):
    path.write_text(_DEEP_JSON)


def _not_utf8(path):
    path.write_bytes(b'{"format": "qtilt-object\xff"}')


def _directory(path):
    path.mkdir()


@pytest.mark.parametrize("make_bad", [
    pytest.param(_deep_json, id="deep_json"),
    pytest.param(_not_utf8, id="not_utf8"),
    pytest.param(_directory, id="directory"),
])
def test_unreadable_files_exit_2(runner, tmp_path, make_bad):
    good = tmp_path / "obj.json"
    good.write_text(json.dumps(_golden_dict(_CYC3_OBJ)))
    bad = tmp_path / "bad.json"
    make_bad(bad)
    for args in (["check", str(bad)], ["form-check", str(good), str(bad)],
                 ["hom-extend", str(good), str(bad)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "error:" in res.output
        assert isinstance(res.exception, SystemExit)


def test_deep_json_is_a_serialize_error():
    M = load_xobject(json.dumps(_golden_dict(_CYC3_OBJ)))
    with pytest.raises(SerializeError):
        load_xobject(_DEEP_JSON)
    with pytest.raises(SerializeError):
        load_form(_DEEP_JSON, M)


def test_build_out_directory_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A1", "--ring", "cyc:3",
                               "--weight", "1", "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert isinstance(res.exception, SystemExit)


def test_build_of_an_unprintable_object_exits_2(runner, tmp_path, monkeypatch):
    # A coefficient longer than the element format allows is refused when
    # the object is written, with exit 2 and no traceback.
    from qtilt import xcat

    build_smin = xcat.build_smin
    huge = parse_ring("int:3").from_int(10**sys.get_int_max_str_digits())

    def build_huge(*args, **kwargs):
        M = build_smin(*args, **kwargs)
        return replace(M, eops={key: m.scale(huge) for key, m in M.eops.items()})

    monkeypatch.setattr(xcat, "build_smin", build_huge)
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A1", "--ring", "int:3",
                               "--weight", "2", "--out", str(tmp_path / "obj.json")])
    assert res.exit_code == 2, res.output
    assert "digits" in res.output
    assert isinstance(res.exception, SystemExit)


def test_internal_key_error_is_not_a_usage_error(runner, tmp_path, monkeypatch):
    # A KeyError raised by library code is a bug, not malformed input: it
    # must surface as a traceback, not as exit 2.
    from qtilt import xcat

    def broken(M):
        raise KeyError("internal")

    monkeypatch.setattr(xcat, "check_axioms", broken)
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(_golden_dict("a1_smax_cyc3_w3.json")))
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code != 2
    assert isinstance(res.exception, KeyError)


@pytest.mark.parametrize("null", ["block", "entry"])
def test_cli_check_null_entries_exit_code(runner, tmp_path, null):
    # Malformed input is a usage error (exit 2 with a message), never a
    # traceback or the "check failed" code 1.
    golden = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")
    with open(os.path.join(golden, "a1_smax_cyc3_w3.json")) as fh:
        d = json.load(fh)
    op = d["operators"][0]
    if null == "block":
        op["entries"] = None
    else:
        op["entries"][0][0] = None
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert isinstance(res.exception, SystemExit)
    with pytest.raises(SerializeError):
        load_xobject(json.dumps(d))


def test_cli_hom_extend(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for kind, path in (("smax", a), ("smax-form", b)):
        res = runner.invoke(main, ["build", "--kind", kind, "--root", "A1",
                                   "--ring", "cyc:3", "--weight", "3",
                                   "--out", str(path)])
        assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["hom-extend", str(a), str(b)])
    assert res.exit_code == 0, res.output
    golden = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")
    with open(os.path.join(golden, "a1_hom_smax_to_smaxform_cyc3_w3.json")) as fh:
        assert res.output == fh.read()
    # obstructed direction: maximal into minimal
    s = tmp_path / "s.json"
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "3", "--out", str(s)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["hom-extend", str(a), str(s)])
    assert res.exit_code == 1
    assert json.loads(res.output)["status"] == "obstructed"


def test_cli_usage_errors(runner, tmp_path):
    res = runner.invoke(main, ["build", "--kind", "nope", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "3",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A1",
                               "--ring", "cyc:zzz", "--weight", "3",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["check", str(tmp_path / "missing.json")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["build", "--unknown-flag", "x"])
    assert res.exit_code == 2


def test_cli_out_dir_env(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("QTILT_OUT_DIR", str(tmp_path))
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A1",
                               "--ring", "generic", "--weight", "2",
                               "--out", "rel.json"])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "rel.json").exists()


def test_cli_verify_frontier_flag(runner, tmp_path):
    out = tmp_path / "o.json"
    for kind in ("smax", "smax-form"):
        res = runner.invoke(main, ["build", "--kind", kind, "--root", "A1",
                                   "--ring", "cyc:3", "--weight", "2",
                                   "--verify-frontier", "--out", str(out)])
        assert res.exit_code == 0, res.output


@pytest.mark.parametrize("prune", [[], ["--no-prune"]])
def test_cli_negative_height_bound_exits_2(runner, tmp_path, prune):
    # A negative bound used to end the weight list at the top weight: the
    # build exited 0 and wrote a one-weight object.
    out = tmp_path / "o.json"
    res = runner.invoke(main, ["build", "--kind", "smax", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "3", *prune,
                               "--height-bound", "-1", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and "height bound" in res.output
    assert isinstance(res.exception, SystemExit)
    assert not out.exists()


def test_cli_no_prune_with_bound(runner, tmp_path):
    out = tmp_path / "o.json"
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A1",
                               "--ring", "generic", "--weight", "2",
                               "--no-prune", "--height-bound", "4",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["character", str(out)])
    assert json.loads(res.output) == {"2": 1, "0": 1, "-2": 1}


@pytest.mark.parametrize("top,error,message", [
    pytest.param([3, 1], RootSystemError, "wrong length", id="wrong_length"),
    pytest.param([7], SerializeError, "top weight", id="not_a_weight_record"),
])
def test_malformed_top_exits_2(runner, tmp_path, top, error, message):
    # check and character used to exit 0: the top was zipped against weights
    # of another length, or named a weight the file does not have.
    obj = _golden_dict(_CYC3_OBJ)
    obj["top"] = top
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(error, match=message):
        load_xobject(bad.read_text())
    for command in ("check", "character"):
        res = runner.invoke(main, [command, str(bad)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and message in res.output
        assert isinstance(res.exception, SystemExit)


def _refused_invocations(command, tmp_path):
    """Invocations of command that must be refused: a missing object file and
    the int:3 golden with an unparsable first entry, in each object position;
    a weight that is not dominant and one of the wrong length."""
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "abc.json"
    d = _golden_dict("a2_smin_int3_w11.json")
    _first_entry("abc")(d)
    bad.write_text(json.dumps(d))
    good = tmp_path / "obj.json"
    good.write_text(json.dumps(_golden_dict(_CYC3_OBJ)))
    form = os.path.join(os.path.dirname(__file__), "..", "docs", "golden",
                        "a1_smaxform_cyc3_w3.form.json")
    weights = ("--weight=-1", "--weight=1,2")
    return {
        "build": [["build", "--kind", "smax", "--root", "A1", "--ring", "cyc:3", w,
                   "--out", str(tmp_path / "out.json")] for w in weights],
        "weyl-char": [["weyl-char", "--root", "A1", w] for w in weights],
        "form-check": [["form-check", f, form] for f in (missing, str(bad))],
        "hom-extend": [args for f in (missing, str(bad))
                       for args in (["hom-extend", f, str(good)], ["hom-extend", str(good), f])],
    }.get(command, [[command, f] for f in (missing, str(bad))])


@pytest.mark.parametrize("command", ["build", "check", "verify", "character", "weyl-mults",
                                     "weyl-char", "form-check", "hom-extend"])
def test_every_command_refuses_bad_input_with_exit_2(runner, tmp_path, command):
    for args in _refused_invocations(command, tmp_path):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert "error:" in res.stderr, args
        assert isinstance(res.exception, SystemExit), args
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["character", "weyl-mults"])
def test_count_outputs_match_the_library(runner, command, fmt):
    from qtilt.xcat import weyl_multiplicities

    path = os.path.join(os.path.dirname(__file__), "..", "docs", "golden", _CYC3_OBJ)
    with open(path) as fh:
        M = load_xobject(fh.read())
    counts = (character if command == "character" else weyl_multiplicities)(M)
    rows = [(",".join(map(str, w)), m) for w, m in sorted(counts.items(), reverse=True)]
    if fmt == "json":
        expected = json.dumps(dict(rows), indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows([("weight", "multiplicity"), *rows])
        expected = buf.getvalue()
    res = runner.invoke(main, [command, path, "--format", fmt])
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == expected.encode()


def test_cli_relative_out_dir_env_with_form(runner, tmp_path, monkeypatch):
    # The default form path used to join a relative QTILT_OUT_DIR twice, so
    # the build wrote the object and then failed on outdir/outdir/...
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    monkeypatch.setenv("QTILT_OUT_DIR", "outdir")
    res = runner.invoke(main, ["build", "--kind", "smax-form", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "3", "--out", "x.json"])
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in (tmp_path / "outdir").iterdir()) == [
        "x.json", "x.json.form.json"]
    assert res.output == (f"wrote {os.path.join('outdir', 'x.json')}\n"
                          f"wrote {os.path.join('outdir', 'x.json.form.json')}\n")


@pytest.mark.parametrize("form_out", ["d", os.path.join("nodir", "f.json")])
def test_refused_form_path_writes_nothing(runner, tmp_path, monkeypatch, form_out):
    # The object file used to be written before the form path was tried,
    # so a refused form path left o.json behind.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    res = runner.invoke(main, ["build", "--kind", "smax-form", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "2", "--out", "o.json",
                               "--form-out", form_out])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error:")
    assert "wrote" not in res.output
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("form_out", ["o.json", os.path.join(".", "o.json")])
def test_form_out_equal_to_out_is_refused(runner, tmp_path, monkeypatch, form_out):
    # A form path naming the object file used to overwrite the object with
    # the form, exit 0.
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, ["build", "--kind", "smax-form", "--root", "A1",
                               "--ring", "cyc:3", "--weight", "2", "--out", "o.json",
                               "--form-out", form_out])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error:")
    assert "wrote" not in res.output
    assert not (tmp_path / "o.json").exists()


def test_cli_hom_extend_across_rings_exits_2(runner, tmp_path):
    # Objects over two rings used to end in a LinAlgError traceback, exit 1.
    paths = []
    for ring in ("cyc:3", "cyc:6"):
        path = tmp_path / f"{ring.replace(':', '')}.json"
        res = runner.invoke(main, ["build", "--kind", "smax", "--root", "A1",
                                   "--ring", ring, "--weight", "3", "--out", str(path)])
        assert res.exit_code == 0, res.output
        paths.append(str(path))
    res = runner.invoke(main, ["hom-extend", *paths])
    assert res.exit_code == 2, res.output
    assert "error:" in res.stderr
    assert isinstance(res.exception, SystemExit)


def _build_pair(runner, tmp_path):
    paths = []
    for kind, name in (("smax", "a.json"), ("smax-form", "b.json")):
        path = tmp_path / name
        res = runner.invoke(main, ["build", "--kind", kind, "--root", "A1",
                                   "--ring", "cyc:3", "--weight", "3", "--out", str(path)])
        assert res.exit_code == 0, res.output
        paths.append(path)
    return paths


def test_cli_hom_extend_out_writes_the_map(runner, tmp_path):
    a, b = _build_pair(runner, tmp_path)
    m = tmp_path / "m.json"
    res = runner.invoke(main, ["hom-extend", str(a), str(b), "--out", str(m)])
    assert res.exit_code == 0, res.output
    assert res.output == f"wrote {m}\n"
    golden = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")
    with open(os.path.join(golden, "a1_hom_smax_to_smaxform_cyc3_w3.json")) as fh:
        assert m.read_text() == fh.read()


@pytest.mark.parametrize("target", ["a", "b", "dot_a", "out_dir_a"])
def test_cli_hom_extend_out_naming_an_input_is_refused(runner, tmp_path, monkeypatch, target):
    # --out a.json used to overwrite the input a.json with the map, exit 0.
    a, b = _build_pair(runner, tmp_path)
    before = {p: p.read_bytes() for p in (a, b)}
    out = {"a": str(a), "b": str(b), "dot_a": os.path.join(str(tmp_path), ".", "a.json"),
           "out_dir_a": "a.json"}[target]
    if target == "out_dir_a":
        monkeypatch.setenv("QTILT_OUT_DIR", str(tmp_path))
    res = runner.invoke(main, ["hom-extend", str(a), str(b), "--out", out])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error:") and "input file" in res.stderr
    assert "wrote" not in res.output
    assert {p: p.read_bytes() for p in (a, b)} == before


def test_cli_verify_frontier_below_a_height_bound_exits_2(runner, tmp_path):
    # The height bound, not pruning, cuts this build; the error used to
    # blame hull pruning.
    out = tmp_path / "f.json"
    res = runner.invoke(main, ["build", "--kind", "smax", "--root", "A1", "--ring", "cyc:3",
                               "--weight", "4", "--no-prune", "--height-bound", "1",
                               "--verify-frontier", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: nonzero weight space one level below the region, at (0,)\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["weyl-char", "--root", "A65", "--weight", "1"],
    ["build", "--kind", "smin", "--root", "A65", "--ring", "generic", "--weight", "1",
     "--out", "x.json"],
])
def test_cli_root_rank_above_the_limit_exits_2(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: rank 65 exceeds the largest supported rank 64\n"
    assert not (tmp_path / "x.json").exists()


def test_cli_form_check_of_a_form_over_another_ring_exits_2(runner, tmp_path):
    paths = {}
    for ring in ("cyc:3", "generic"):
        obj, form = tmp_path / f"{ring[:3]}.json", tmp_path / f"{ring[:3]}.form.json"
        res = runner.invoke(main, ["build", "--kind", "smax-form", "--root", "A1",
                                   "--ring", ring, "--weight", "3", "--out", str(obj),
                                   "--form-out", str(form)])
        assert res.exit_code == 0, res.output
        paths[ring] = (obj, form)
    res = runner.invoke(main, ["form-check", str(paths["cyc:3"][0]), str(paths["generic"][1])])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: form ring does not match object ring\n"


@pytest.mark.parametrize("kind", ["smin", "smax"])
def test_cli_form_out_without_a_form_build_exits_2(runner, tmp_path, monkeypatch, kind):
    # --form-out used to be ignored without --kind smax-form: exit 0 and
    # no form file.
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, ["build", "--kind", kind, "--root", "A1", "--ring", "cyc:3",
                               "--weight", "2", "--out", "o.json", "--form-out", "f.json"])
    assert res.exit_code == 2, res.output
    assert f"--form-out needs --kind smax-form, not {kind}" in res.stderr
    assert "wrote" not in res.output
    assert sorted(tmp_path.iterdir()) == []


def _with_a_huge_int(d):
    """The JSON text of d with its "HUGE" placeholder replaced by an integer
    one digit past the interpreter's int-string limit."""
    return json.dumps(d).replace('"HUGE"', "1" * (sys.get_int_max_str_digits() + 1))


def test_a_json_integer_past_the_digit_limit_exits_2(runner, tmp_path):
    # json.loads raises a plain ValueError here, which used to end in a
    # traceback, exit 1.
    M = load_xobject(json.dumps(_golden_dict(_CYC3_OBJ)))
    obj, form = _golden_dict(_CYC3_OBJ), _golden_dict("a1_smaxform_cyc3_w3.form.json")
    obj["operators"][0]["alpha"] = form["weights"][0]["coords"][0] = "HUGE"
    obj, form = _with_a_huge_int(obj), _with_a_huge_int(form)
    with pytest.raises(SerializeError, match="JSON integer has more than"):
        load_xobject(obj)
    with pytest.raises(SerializeError, match="JSON integer has more than"):
        load_form(form, M)
    bad, good, bad_form = tmp_path / "o.json", tmp_path / "m.json", tmp_path / "f.json"
    bad.write_text(obj)
    good.write_text(dump_xobject(M))
    bad_form.write_text(form)
    for args in (["check", str(bad)], ["form-check", str(good), str(bad_form)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("error: JSON integer has more than")
        assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("source", ["root", "file"])
def test_a_root_label_of_too_many_digits_exits_2(runner, tmp_path, source):
    # int() of the rank used to raise ValueError, a traceback with exit 1.
    label = "A" + "1" * (sys.get_int_max_str_digits() + 1)
    if source == "root":
        args = ["weyl-char", "--root", label, "--weight", "1"]
    else:
        d = _golden_dict(_CYC3_OBJ)
        d["root_system"]["label"] = label
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        args = ["check", str(bad)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "digits exceeds the largest supported rank 64" in res.stderr
    assert isinstance(res.exception, SystemExit)


def test_an_object_file_label_is_made_canonical(a1, cyc3):
    # "A01" used to be kept: the object compared unequal to one over A1,
    # direct_sum refused the pair, and a re-dump carried "A01".
    d = _golden_dict(_CYC3_OBJ)
    d["root_system"]["label"] = "A01"
    M = load_xobject(json.dumps(d))
    assert M.rs == a1
    assert dump_xobject(M) == dump_xobject(load_xobject(json.dumps(_golden_dict(_CYC3_OBJ))))
    assert character(direct_sum(M, build_smin(a1, cyc3, (1,)))) == {
        (3,): 1, (1,): 3, (-1,): 3, (-3,): 1}


@pytest.mark.parametrize("args,says", [pytest.param(*case, id=name)
                                       for name, case in _USAGE_ERRORS.items()])
def test_usage_errors_are_one_line_naming_the_option(runner, tmp_path, args, says):
    res = runner.invoke(main, args(tmp_path))
    assert res.exit_code == 2
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: " + says) and " characters)" in line, line[:400]


@pytest.mark.parametrize("prefix", [["--verify"], ["--form", "f.json"]])
def test_option_prefixes_are_refused(runner, tmp_path, monkeypatch, prefix):
    # An option must be spelt in full: neither --verify for --verify-frontier
    # nor --form for --form-out runs a build.
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, ["build", "--kind", "smax-form", "--root", "A1", "--ring", "cyc:3",
                               "--weight", "2", "--out", "o.json", *prefix])
    assert res.exit_code == 2, res.output
    assert list(tmp_path.iterdir()) == []


def test_a_weight_starting_with_a_dash_reaches_the_library(runner, tmp_path):
    res = runner.invoke(main, ["build", "--kind", "smax", "--root", "A2", "--ring", "cyc:3",
                               "--weight", "-1,2", "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    assert res.stderr == "error: (-1, 2) is not dominant; full builds are refused\n"


_OPTIONS = {
    "build": ["--kind", "--root", "--ring", "--weight", "--out", "--form-out", "--prune",
              "--no-prune", "--height-bound", "--verify-frontier"],
    "check": [], "verify": [], "form-check": [],
    "character": ["--format"], "weyl-mults": ["--format"],
    "weyl-char": ["--root", "--weight", "--format"],
    "hom-extend": ["--out"],
}


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("command", [*_OPTIONS, None])
def test_help_names_every_option(runner, command, flag):
    # Without a command, help names every command.
    res = runner.invoke(main, [command, flag] if command else [flag])
    assert res.exit_code == 0 and res.stderr == ""
    names = _OPTIONS.get(command, list(_OPTIONS))
    assert [name for name in names if name not in res.stdout] == []


def _run_module(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "qtilt.cli", *args], env=env,
                          capture_output=True, timeout=120)


def test_module_entry_point_writes_what_the_runner_gets(runner):
    args = ["weyl-char", "--root", "A1", "--weight", "2", "--format", "csv"]
    proc = _run_module(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == runner.invoke(main, args).stdout_bytes


def test_module_entry_point_without_a_command_exits_2():
    proc = _run_module()
    assert proc.returncode == 2
