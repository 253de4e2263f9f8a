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

from .linalg import Mat
from .ring import GroundRing, parse_elem, parse_ring
from .rootsys import RootSystem, Weight, root_system
from .xcat import Report, XObject

XOBJ_FORMAT = "qtilt-object"
XFORM_FORMAT = "qtilt-form"
XREPORT_FORMAT = "qtilt-report"
VERSION = 1


class SerializeError(ValueError):
    pass


def _rs_descriptor(rs: RootSystem) -> dict:
    if rs.label != "custom":
        return {"label": rs.label}
    return {"cartan": [list(r) for r in rs.cartan]}


def _rs_from_descriptor(d: dict) -> RootSystem:
    if "label" in d:
        return root_system(d["label"])
    if "cartan" in d:
        return root_system([list(map(int, row)) for row in d["cartan"]])
    raise SerializeError("root-system descriptor needs 'label' or 'cartan'")


def _mat_entries(m: Mat) -> list[list[str]]:
    return [[str(e) for e in row] for row in m.entries]


def _mat_from_entries(ring: GroundRing, rows: int, cols: int,
                      entries: list[list[str]]) -> Mat:
    if not isinstance(entries, list) or any(
            not isinstance(r, list) or not all(isinstance(s, str) for s in r)
            for r in entries):
        raise SerializeError("entry block must be a list of rows of element strings")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise SerializeError("operator entry block has the wrong shape")
    return Mat.from_rows(
        ring, [[parse_elem(s, ring) for s in row] for row in entries], cols=cols)


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


def xobject_from_dict(d: dict) -> XObject:
    if d.get("format") != XOBJ_FORMAT:
        raise SerializeError(f"not an object file (format={d.get('format')!r})")
    if d.get("version") != VERSION:
        raise SerializeError(f"unsupported version {d.get('version')!r}")
    ring = parse_ring(d["ring"])
    rs = _rs_from_descriptor(d["root_system"])
    spaces: dict[Weight, int] = {}
    region = set()
    for w in d["weights"]:
        coords = tuple(int(c) for c in w["coords"])
        rs.check_weight(coords)
        region.add(coords)
        r = int(w["rank"])
        if r < 0:
            raise SerializeError("negative rank")
        if r:
            spaces[coords] = r
    eops, fops = {}, {}
    for op in d["operators"]:
        mu = tuple(int(c) for c in op["mu"])
        a, n = int(op["alpha"]), int(op["n"])
        if not (0 <= a < rs.rank and n >= 1):
            raise SerializeError(f"bad operator index alpha={a} n={n}")
        up = rs.add_root(mu, a, n)
        if mu not in spaces or up not in spaces:
            raise SerializeError(f"operator at {mu} touches a zero weight space")
        r_mu, r_up = spaces[mu], spaces[up]
        shape = (r_up, r_mu) if op["kind"] == "E" else (r_mu, r_up)
        mat = _mat_from_entries(ring, shape[0], shape[1], op["entries"])
        if op["kind"] == "E":
            eops[(mu, a, n)] = mat
        elif op["kind"] == "F":
            fops[(mu, a, n)] = mat
        else:
            raise SerializeError(f"bad operator kind {op['kind']!r}")
    top = tuple(int(c) for c in d["top"]) if d.get("top") is not None else None
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
    if d.get("format") != XFORM_FORMAT:
        raise SerializeError(f"not a form file (format={d.get('format')!r})")
    if d.get("version") != VERSION:
        raise SerializeError(f"unsupported version {d.get('version')!r}")
    ring = parse_ring(d["ring"])
    if ring != M.ring:
        raise SerializeError("form ring does not match object ring")
    out: dict[Weight, Mat] = {}
    for w in d["weights"]:
        coords = tuple(int(c) for c in w["coords"])
        r = M.rank(coords)
        out[coords] = _mat_from_entries(ring, r, r, w["gram"])
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


def dumps(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=False) + "\n"


def dump_xobject(M: XObject) -> str:
    return dumps(xobject_to_dict(M))


def load_xobject(text: str) -> XObject:
    return xobject_from_dict(json.loads(text))


def dump_form(M: XObject, b: dict[Weight, Mat]) -> str:
    return dumps(form_to_dict(M, b))


def load_form(text: str, M: XObject) -> dict[Weight, Mat]:
    return form_from_dict(json.loads(text), M)
