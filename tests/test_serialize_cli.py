import json
import os

import pytest
from click.testing import CliRunner

from qtilt.cli import main
from qtilt.forms import build_smax_with_form
from qtilt.serialize import (
    SerializeError,
    dump_form,
    dump_xobject,
    load_form,
    load_xobject,
)
from qtilt.xcat import build_smax, build_smin, character


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
        W = load_xobject(fh.read())
    assert W.ring == integer_local(3)
    assert check_axioms(W).ok


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
    assert json.loads(res.output)["status"] == "extended"
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


def test_cli_no_prune_with_bound(runner, tmp_path):
    out = tmp_path / "o.json"
    res = runner.invoke(main, ["build", "--kind", "smin", "--root", "A1",
                               "--ring", "generic", "--weight", "2",
                               "--no-prune", "--height-bound", "4",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["character", str(out)])
    assert json.loads(res.output) == {"2": 1, "0": 1, "-2": 1}
