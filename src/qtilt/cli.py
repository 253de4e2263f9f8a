"""Command-line front end.

Exit codes: 0 on success; 1 when a check fails or ``hom-extend`` is
obstructed; 2 on a usage error, on an input or output file that cannot be
read, decoded or written, and on an input the library refuses.  Weights on
the command line are comma-separated fundamental-weight coordinates.  The
QTILT_OUT_DIR environment variable supplies a default directory for relative
output paths.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys

import click

from . import forms, serialize, xcat
from .linalg import Mat
from .ring import RingError, _quoted, parse_ring
from .rootsys import RootSystemError, Weight, root_system, weyl_character
from .xcat import Obstructed, XCatError

_INPUT_ERRORS = (RingError, RootSystemError, XCatError, forms.FormError,
                 serialize.SerializeError, OSError, UnicodeDecodeError,
                 json.JSONDecodeError)


def _exits(command):
    """Exit with command's return code, or with 2 and a message on stderr
    when the library or the file system refuses its input."""
    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            code = command(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        sys.exit(code)
    return wrapper


def _parse_weight(s: str) -> Weight:
    try:
        return tuple(int(c.strip()) for c in s.split(","))
    except ValueError:
        raise click.UsageError(f"bad weight {_quoted(s)}: expected comma-separated integers")


def _write(*outputs: tuple[str, str], inputs: tuple[str, ...] = ()) -> None:
    """Write each (path, text), a relative path under QTILT_OUT_DIR.  All
    paths are checked first, so a refused path leaves no file behind; two
    paths naming one file are refused, and so is a path naming one of the
    command's input files."""
    base = os.environ.get("QTILT_OUT_DIR", "")
    outputs = [(os.path.join(base, path), text) for path, text in outputs]
    read = {os.path.realpath(path): path for path in inputs}
    seen: dict[str, str] = {}
    for path, _ in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise FileExistsError(f"cannot write {seen[real]} and {path}: they are one file")
        if real in read:
            raise FileExistsError(f"cannot write {path}: it is the input file {read[real]}")
        seen[real] = path
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise FileNotFoundError(f"cannot write {path}: no such directory")
    for path, text in outputs:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {path}")


def _load_object(path: str) -> xcat.XObject:
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.load_xobject(fh.read())


def _report(rep: xcat.Report) -> int:
    click.echo(serialize.dumps(serialize.report_to_dict(rep)), nl=False)
    return 0 if rep.ok else 1


def _counts(counts: dict[Weight, int], fmt: str) -> int:
    rows = [(",".join(str(c) for c in wt), m) for wt, m in sorted(counts.items(), reverse=True)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([("weight", "multiplicity"), *rows])
        text = buf.getvalue()
    else:
        text = serialize.dumps(dict(rows))
    click.echo(text, nl=False)
    return 0


@click.group()
def main():
    """Exact Weyl and tilting module constructions over local ground rings."""


_root_opt = click.option("--root", required=True, help="root system label, e.g. A1, B2, G2")
_ring_opt = click.option("--ring", required=True,
                         help="ground ring: generic | rational | cyc:<l> | int:<p>")
_weight_opt = click.option("--weight", required=True,
                           help="comma-separated fundamental-weight coordinates")
_fmt_opt = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                        default="json", show_default=True)


@main.command()
@click.option("--kind", type=click.Choice(["smin", "smax", "smax-form"]), required=True)
@_root_opt
@_ring_opt
@_weight_opt
@click.option("--out", required=True, help="output object file")
@click.option("--form-out", default=None, help="output form file (smax-form)")
@click.option("--prune/--no-prune", default=True, show_default=True,
              help="restrict enumeration to the dominant-conjugate hull")
@click.option("--height-bound", type=int, default=None,
              help="explicit height bound (required with --no-prune)")
@click.option("--verify-frontier", is_flag=True,
              help="recompute one level beyond the hull and require zero ranks")
@_exits
def build(kind, root, ring, weight, out, form_out, prune, height_bound, verify_frontier):
    """Construct a minimal (Weyl) or maximal (tilting) object."""
    lam = _parse_weight(weight)  # a usage error, reported before any library error
    if form_out is not None and kind != "smax-form":
        raise click.UsageError(f"--form-out needs --kind smax-form, not {kind}")
    args = (root_system(root), parse_ring(ring), lam)
    kw = dict(prune=prune, height_bound=height_bound)
    b = None
    if kind == "smin":
        M = xcat.build_smin(*args, **kw)
    elif kind == "smax":
        M = xcat.build_smax(*args, **kw)
    else:
        M, b = forms.build_smax_with_form(*args, **kw)
    if verify_frontier:
        xcat.verify_frontier(M)
    outputs = [(out, serialize.dump_xobject(M))]
    if b is not None:
        outputs.append((form_out or out + ".form.json", serialize.dump_form(M, b)))
    _write(*outputs)
    return 0


@main.command()
@click.argument("object_file")
@_exits
def check(object_file):
    """Check the structural axioms of an object file."""
    return _report(xcat.check_axioms(_load_object(object_file)))


@main.command()
@click.argument("object_file")
@_exits
def verify(object_file):
    """Verify the full operator-relation suite of an object file."""
    return _report(xcat.verify_relations(_load_object(object_file)))


@main.command()
@click.argument("object_file")
@_fmt_opt
@_exits
def character(object_file, fmt):
    """Print the character (weight -> rank) of an object file."""
    return _counts(xcat.character(_load_object(object_file)), fmt)


@main.command("weyl-mults")
@click.argument("object_file")
@_fmt_opt
@_exits
def weyl_mults(object_file, fmt):
    """Print the Weyl-filtration multiplicities of an object file."""
    return _counts(xcat.weyl_multiplicities(_load_object(object_file)), fmt)


@main.command("weyl-char")
@_root_opt
@_weight_opt
@_fmt_opt
@_exits
def weyl_char(root, weight, fmt):
    """Print the independent Weyl-character oracle for a dominant weight."""
    lam = _parse_weight(weight)  # a usage error, reported before any library error
    return _counts(weyl_character(root_system(root), lam), fmt)


@main.command("form-check")
@click.argument("object_file")
@click.argument("form_file")
@_exits
def form_check(object_file, form_file):
    """Check a contravariant form file against an object file."""
    M = _load_object(object_file)
    with open(form_file, "r", encoding="utf-8") as fh:
        b = serialize.load_form(fh.read(), M)
    return _report(forms.check_form(M, b))


@main.command("hom-extend")
@click.argument("object_a")
@click.argument("object_b")
@click.option("--out", default=None, help="write the extended map to a file")
@_exits
def hom_extend(object_a, object_b, out):
    """Extend the identity at the shared top weight to a full morphism."""
    M = _load_object(object_a)
    N = _load_object(object_b)
    if M.top is None or M.top != N.top or M.rank(M.top) != 1 or N.rank(N.top) != 1:
        raise XCatError("hom-extend needs two objects with the same rank-1 top weight")
    res = xcat.extend_hom_down(M, N, Mat.identity(M.ring, 1))
    if isinstance(res, Obstructed):
        click.echo(serialize.dumps({
            "status": "obstructed",
            "weight": list(res.weight),
            "witness": [str(res.witness[i, 0]) for i in range(res.witness.rows)],
        }), nl=False)
        return 1
    text = serialize.dumps({
        "status": "extended",
        "maps": [
            {"weight": list(w), "entries": serialize._mat_entries(res[w])}
            for w in sorted(res)
        ],
    })
    if out:
        _write((out, text), inputs=(object_a, object_b))
    else:
        click.echo(text, nl=False)
    return 0


if __name__ == "__main__":
    main()
