"""Command-line front end.

Exit codes: 0 on success, 1 when a check fails, 2 on usage errors and on
input or output files that cannot be read, decoded or written.  Weights
on the command line are comma-separated fundamental-weight coordinates.  The
QTILT_OUT_DIR environment variable supplies a default directory for relative
output paths.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

import click

from . import forms, serialize, xcat
from .linalg import Mat
from .ring import RingError, parse_ring
from .rootsys import RootSystemError, Weight, root_system, weyl_character
from .xcat import Obstructed, XCatError


@dataclass
class JobSpec:
    """A fully parsed unit of work; unknown inputs are rejected at parse time."""

    command: str
    root: str | None = None
    ring: str | None = None
    weight: tuple[int, ...] | None = None
    kind: str | None = None
    prune: bool = True
    height_bound: int | None = None
    verify_frontier: bool = False
    out: str | None = None
    form_out: str | None = None
    fmt: str = "json"
    inputs: list[str] = field(default_factory=list)


def _parse_weight(s: str) -> Weight:
    try:
        return tuple(int(c.strip()) for c in s.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad weight {s!r}: {exc}")


def _outpath(path: str) -> str:
    base = os.environ.get("QTILT_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_object(path: str) -> xcat.XObject:
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.load_xobject(fh.read())


def _emit_counts(counts: dict[Weight, int], fmt: str) -> str:
    items = sorted(counts.items(), key=lambda kv: kv[0], reverse=True)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["weight", "multiplicity"])
        for wt, m in items:
            w.writerow([",".join(str(c) for c in wt), m])
        return buf.getvalue()
    return serialize.dumps({",".join(str(c) for c in wt): m for wt, m in items})


def run(spec: JobSpec) -> int:
    """Execute a job; returns the process exit code."""
    try:
        return _dispatch(spec)
    except (RingError, RootSystemError, XCatError, forms.FormError,
            serialize.SerializeError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


def _dispatch(spec: JobSpec) -> int:
    if spec.command == "build":
        rs = root_system(spec.root)
        ring = parse_ring(spec.ring)
        lam = spec.weight
        kw = dict(prune=spec.prune, height_bound=spec.height_bound)
        b = None
        if spec.kind == "smin":
            M = xcat.build_smin(rs, ring, lam, **kw)
        elif spec.kind == "smax":
            M = xcat.build_smax(rs, ring, lam, **kw)
        elif spec.kind == "smax-form":
            M, b = forms.build_smax_with_form(rs, ring, lam, **kw)
        else:
            raise click.UsageError(f"unknown build kind {spec.kind!r}")
        if spec.verify_frontier:
            xcat.verify_frontier(M)
        out = _outpath(spec.out)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialize.dump_xobject(M))
        click.echo(f"wrote {out}")
        if b is not None:
            form_out = _outpath(spec.form_out or out + ".form.json")
            with open(form_out, "w", encoding="utf-8") as fh:
                fh.write(serialize.dump_form(M, b))
            click.echo(f"wrote {form_out}")
        return 0

    if spec.command == "check":
        M = _load_object(spec.inputs[0])
        rep = xcat.check_axioms(M)
        click.echo(serialize.dumps(serialize.report_to_dict(rep)), nl=False)
        return 0 if rep.ok else 1

    if spec.command == "verify":
        M = _load_object(spec.inputs[0])
        rep = xcat.verify_relations(M)
        click.echo(serialize.dumps(serialize.report_to_dict(rep)), nl=False)
        return 0 if rep.ok else 1

    if spec.command == "character":
        M = _load_object(spec.inputs[0])
        click.echo(_emit_counts(xcat.character(M), spec.fmt), nl=False)
        return 0

    if spec.command == "weyl-mults":
        M = _load_object(spec.inputs[0])
        click.echo(_emit_counts(xcat.weyl_multiplicities(M), spec.fmt), nl=False)
        return 0

    if spec.command == "weyl-char":
        rs = root_system(spec.root)
        click.echo(_emit_counts(weyl_character(rs, spec.weight), spec.fmt), nl=False)
        return 0

    if spec.command == "form-check":
        M = _load_object(spec.inputs[0])
        with open(spec.inputs[1], "r", encoding="utf-8") as fh:
            b = serialize.load_form(fh.read(), M)
        rep = forms.check_form(M, b)
        click.echo(serialize.dumps(serialize.report_to_dict(rep)), nl=False)
        return 0 if rep.ok else 1

    if spec.command == "hom-extend":
        M = _load_object(spec.inputs[0])
        N = _load_object(spec.inputs[1])
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
        payload = {
            "status": "extended",
            "maps": [
                {"weight": list(w), "entries": serialize._mat_entries(res[w])}
                for w in sorted(res)
            ],
        }
        text = serialize.dumps(payload)
        if spec.out:
            out = _outpath(spec.out)
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            click.echo(f"wrote {out}")
        else:
            click.echo(text, nl=False)
        return 0

    raise click.UsageError(f"unknown command {spec.command!r}")


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------


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
def build(kind, root, ring, weight, out, form_out, prune, height_bound, verify_frontier):
    """Construct a minimal (Weyl) or maximal (tilting) object."""
    sys.exit(run(JobSpec(
        command="build", kind=kind, root=root, ring=ring,
        weight=_parse_weight(weight), out=out, form_out=form_out,
        prune=prune, height_bound=height_bound, verify_frontier=verify_frontier,
    )))


@main.command()
@click.argument("object_file")
def check(object_file):
    """Check the structural axioms of an object file."""
    sys.exit(run(JobSpec(command="check", inputs=[object_file])))


@main.command()
@click.argument("object_file")
def verify(object_file):
    """Verify the full operator-relation suite of an object file."""
    sys.exit(run(JobSpec(command="verify", inputs=[object_file])))


@main.command()
@click.argument("object_file")
@_fmt_opt
def character(object_file, fmt):
    """Print the character (weight -> rank) of an object file."""
    sys.exit(run(JobSpec(command="character", inputs=[object_file], fmt=fmt)))


@main.command("weyl-mults")
@click.argument("object_file")
@_fmt_opt
def weyl_mults(object_file, fmt):
    """Print the Weyl-filtration multiplicities of an object file."""
    sys.exit(run(JobSpec(command="weyl-mults", inputs=[object_file], fmt=fmt)))


@main.command("weyl-char")
@_root_opt
@_weight_opt
@_fmt_opt
def weyl_char(root, weight, fmt):
    """Print the independent Weyl-character oracle for a dominant weight."""
    sys.exit(run(JobSpec(command="weyl-char", root=root,
                         weight=_parse_weight(weight), fmt=fmt)))


@main.command("form-check")
@click.argument("object_file")
@click.argument("form_file")
def form_check(object_file, form_file):
    """Check a contravariant form file against an object file."""
    sys.exit(run(JobSpec(command="form-check", inputs=[object_file, form_file])))


@main.command("hom-extend")
@click.argument("object_a")
@click.argument("object_b")
@click.option("--out", default=None, help="write the extended map to a file")
def hom_extend(object_a, object_b, out):
    """Extend the identity at the shared top weight to a full morphism."""
    sys.exit(run(JobSpec(command="hom-extend", inputs=[object_a, object_b], out=out)))


if __name__ == "__main__":
    main()
