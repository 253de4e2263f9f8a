"""Versioned JSON serialization for objects, forms and reports.

Object files are self-describing: ring descriptor, root-system descriptor
(label or explicit Cartan matrix), the weight list with ranks (zero-rank
region weights included, so restriction domains survive a round trip), and
one record per stored operator with row-major entries in the textual element
format of :mod:`qtilt.ring`.  Output is deterministic: keys and records are
sorted, and there are no timestamps in the payload.
"""

from __future__ import annotations

import json
import sys

from .linalg import Mat
from .ring import GroundRing, RingElem, parse_elem, parse_ring
from .rootsys import RootSystem, Weight, root_system
from .xcat import Report, XObject

XOBJ_FORMAT = "qtilt-object"
XFORM_FORMAT = "qtilt-form"
XREPORT_FORMAT = "qtilt-report"
VERSION = 1


class SerializeError(ValueError):
    pass


def _field(d: object, key: str, kind: type = object):
    """d[key] of a JSON object, checked to be of the given type."""
    if not isinstance(d, dict) or key not in d:
        raise SerializeError(f"missing field {key!r}")
    if not isinstance(d[key], kind):
        raise SerializeError(f"field {key!r} has the wrong type: {d[key]!r}")
    return d[key]


def _only(d: dict, keys: set[str], what: str) -> None:
    """Refuse a field of d outside keys, as the schemas do
    (``additionalProperties: false``), so a misspelt field is not ignored."""
    if not d.keys() <= keys:
        extra = ", ".join(map(repr, sorted(d.keys() - keys)))
        raise SerializeError(f"unknown field(s) in {what}: {extra}")


def _int(x: object) -> int:
    """A JSON integer: no float, string or bool stands in for one."""
    if type(x) is not int:
        raise SerializeError(f"expected an integer, got {x!r}")
    return x


def _ints(x: object) -> tuple[int, ...]:
    """A JSON array of integers, such as the coordinates of a weight."""
    if not isinstance(x, list):
        raise SerializeError(f"expected an array of integers, got {x!r}")
    return tuple(_int(c) for c in x)


def _rs_descriptor(rs: RootSystem) -> dict:
    if rs.label != "custom":
        return {"label": rs.label}
    return {"cartan": [list(r) for r in rs.cartan]}


def _rs_from_descriptor(d: dict) -> RootSystem:
    if "label" in d:
        _only(d, {"label"}, "the root-system descriptor")
        return root_system(_field(d, "label", str))
    if "cartan" in d:
        _only(d, {"cartan"}, "the root-system descriptor")
        return root_system([list(_ints(row)) for row in _field(d, "cartan", list)])
    raise SerializeError("root-system descriptor needs 'label' or 'cartan'")


def _mat_entries(m: Mat) -> list[list[str]]:
    return [[str(e) for e in row] for row in m.entries]


class _Parsed(dict):
    """The elements of one file, keyed by their exact entry string: each
    distinct string is parsed once, and equal strings load to one (immutable)
    element.  A string that fails to parse raises and is not stored."""

    def __init__(self, ring: GroundRing):
        super().__init__()
        self.ring = ring

    def __missing__(self, s: str) -> RingElem:
        e = self[s] = parse_elem(s, self.ring)
        return e


def _mat_from_entries(parsed: _Parsed, rows: int, cols: int,
                      entries: list[list[str]]) -> Mat:
    if not isinstance(entries, list) or any(
            not isinstance(r, list) or not all(isinstance(s, str) for s in r)
            for r in entries):
        raise SerializeError("entry block must be a list of rows of element strings")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise SerializeError("operator entry block has the wrong shape")
    return Mat.from_rows(parsed.ring, [[parsed[s] for s in row] for row in entries], cols=cols)


def xobject_to_dict(M: XObject) -> dict:
    weights = []
    for w in sorted(M.region):
        weights.append({"coords": list(w), "rank": M.rank(w)})
    ops = []
    for kind, table in (("E", M.eops), ("F", M.fops)):
        for (mu, a, n), mat in sorted(table.items()):
            ops.append({
                "kind": kind,
                "mu": list(mu),
                "alpha": a,
                "n": n,
                "entries": _mat_entries(mat),
            })
    out = {
        "format": XOBJ_FORMAT,
        "version": VERSION,
        "ring": M.ring.descriptor(),
        "root_system": _rs_descriptor(M.rs),
        "top": list(M.top) if M.top is not None else None,
        "weights": weights,
        "operators": ops,
    }
    return out


def _check_header(d: object, fmt: str, what: str) -> None:
    got = d.get("format") if isinstance(d, dict) else None
    if got != fmt:
        raise SerializeError(f"not {what} (format={got!r})")
    if type(d.get("version")) is not int or d["version"] != VERSION:
        raise SerializeError(f"unsupported version {d.get('version')!r}")


def xobject_from_dict(d: dict) -> XObject:
    _check_header(d, XOBJ_FORMAT, "an object file")
    _only(d, {"format", "version", "ring", "root_system", "top", "weights", "operators"},
          "the object file")
    ring = parse_ring(_field(d, "ring", str))
    rs = _rs_from_descriptor(_field(d, "root_system", dict))
    spaces: dict[Weight, int] = {}
    region = set()
    for w in _field(d, "weights", list):
        coords = _ints(_field(w, "coords"))
        _only(w, {"coords", "rank"}, "a weight record")
        rs.check_weight(coords)
        if coords in region:
            raise SerializeError(f"duplicate weight record {coords}")
        region.add(coords)
        r = _int(_field(w, "rank"))
        if r < 0:
            raise SerializeError("negative rank")
        if r:
            spaces[coords] = r
    eops, fops, parsed = {}, {}, _Parsed(ring)
    for op in _field(d, "operators", list):
        mu = _ints(_field(op, "mu"))
        _only(op, {"kind", "mu", "alpha", "n", "entries"}, "an operator record")
        a, n = _int(_field(op, "alpha")), _int(_field(op, "n"))
        if not (0 <= a < rs.rank and n >= 1):
            raise SerializeError(f"bad operator index alpha={a} n={n}")
        up = rs.add_root(mu, a, n)
        if mu not in spaces or up not in spaces:
            raise SerializeError(f"operator at {mu} touches a zero weight space")
        r_mu, r_up = spaces[mu], spaces[up]
        kind = _field(op, "kind", str)
        shape = (r_up, r_mu) if kind == "E" else (r_mu, r_up)
        mat = _mat_from_entries(parsed, shape[0], shape[1], _field(op, "entries"))
        table = {"E": eops, "F": fops}.get(kind)
        if table is None:
            raise SerializeError(f"bad operator kind {kind!r}")
        if (mu, a, n) in table:
            raise SerializeError(f"duplicate {kind} record at mu={mu} alpha={a} n={n}")
        table[(mu, a, n)] = mat
    top = d.get("top")
    if top is not None:
        top = _ints(top)
        rs.check_weight(top)
        if top not in region:
            raise SerializeError(f"top weight {top} has no weight record")
    return XObject(ring, rs, spaces, eops, fops, frozenset(region), top)


def form_to_dict(M: XObject, b: dict[Weight, Mat]) -> dict:
    weights = []
    for w in sorted(b):
        weights.append({"coords": list(w), "gram": _mat_entries(b[w])})
    return {
        "format": XFORM_FORMAT,
        "version": VERSION,
        "ring": M.ring.descriptor(),
        "weights": weights,
    }


def form_from_dict(d: dict, M: XObject) -> dict[Weight, Mat]:
    _check_header(d, XFORM_FORMAT, "a form file")
    _only(d, {"format", "version", "ring", "weights"}, "the form file")
    ring = parse_ring(_field(d, "ring", str))
    if ring != M.ring:
        raise SerializeError("form ring does not match object ring")
    out: dict[Weight, Mat] = {}
    parsed = _Parsed(ring)
    for w in _field(d, "weights", list):
        coords = _ints(_field(w, "coords"))
        _only(w, {"coords", "gram"}, "a weight record")
        M.rs.check_weight(coords)
        if coords in out:
            raise SerializeError(f"duplicate weight record {coords}")
        r = M.rank(coords)
        out[coords] = _mat_from_entries(parsed, r, r, _field(w, "gram"))
    return out


def report_to_dict(rep: Report) -> dict:
    return {
        "format": XREPORT_FORMAT,
        "version": VERSION,
        "ok": rep.ok,
        "checks": [
            {
                "id": e.check,
                "weight": list(e.weight) if e.weight is not None else None,
                "status": e.status,
                "witness": e.witness,
            }
            for e in rep.entries
        ],
    }


_str = json.encoder.encode_basestring_ascii


def _json(x: object, pad: str) -> str:
    """json.dumps(x, indent=2) for x nested one level deeper than pad, without
    the pure-Python encoder that any indent selects before CPython 3.14."""
    if type(x) is str:
        return _str(x)
    if type(x) is int:
        return int.__repr__(x)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(x, (list, tuple)) and x:
        return f"[\n{inner}{sep.join([_json(v, inner) for v in x])}\n{pad}]"
    if isinstance(x, dict) and x:
        items = sep.join([f"{_str(k)}: {_json(v, inner)}" for k, v in x.items()])
        return f"{{\n{inner}{items}\n{pad}}}"
    return json.dumps(x)


def dumps(d: dict) -> str:
    """The text of ``json.dumps(d, indent=2)`` plus a newline: ASCII escapes,
    keys and records in the order given.  Keys must be strings."""
    return _json(d, "") + "\n"


def dump_xobject(M: XObject) -> str:
    return dumps(xobject_to_dict(M))


def _loads(text: str) -> object:
    try:
        return json.loads(text)
    except RecursionError:
        raise SerializeError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer literal past the int-string limit
        raise SerializeError("JSON integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None


def load_xobject(text: str) -> XObject:
    return xobject_from_dict(_loads(text))


def dump_form(M: XObject, b: dict[Weight, Mat]) -> str:
    return dumps(form_to_dict(M, b))


def load_form(text: str, M: XObject) -> dict[Weight, Mat]:
    return form_from_dict(_loads(text), M)
