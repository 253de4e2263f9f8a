"""Command-line front end, on the standard library's argparse.

Exit codes: 0 on success; 1 when a check fails or ``hom-extend`` is
obstructed; 2, with one ``error:`` line on stderr, on a usage error, on an
input or output file that cannot be read, decoded or written, and on an
input the library refuses.  An option must be spelt in full, and one taking
a value reads the next word even when it starts with a dash (``--weight
-1,2``).  Weights on the command line are comma-separated fundamental-weight
coordinates.  QTILT_OUT_DIR supplies a directory for relative output paths.
"""

import argparse
import csv
import io
import json
import os
import sys

from . import forms, serialize, xcat
from .linalg import Mat
from .ring import RingError, _quoted, parse_ring
from .rootsys import RootSystemError, Weight, root_system, weyl_character
from .xcat import Obstructed, XCatError

_INPUT_ERRORS = (argparse.ArgumentError, RingError, RootSystemError, XCatError,
                 forms.FormError, serialize.SerializeError, OSError, UnicodeDecodeError,
                 json.JSONDecodeError)


class _Parser(argparse.ArgumentParser):
    """A parser that reads the word after an option taking a value as that
    value, even one starting with a dash, and raises where argparse exits."""

    def parse_known_args(self, args=None, namespace=None):
        self.words = sys.argv[1:] if args is None else list(args)
        words, joined = iter(self.words), []
        for word in words:
            action = self._option_string_actions.get(word)
            value = next(words, None) if action is not None and action.nargs is None else None
            joined.append(word if value is None else f"{word}={value}")
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        # Cut each long word or value after '=' it echoes; longest first.
        values = {w for word in self.words for w in (word, word.partition("=")[2]) if len(w) > 40}
        for value in sorted(values, key=len, reverse=True):
            message = message.replace(repr(value), _quoted(value)).replace(value, _quoted(value))
        raise argparse.ArgumentError(None, message)


PARSER = _Parser(prog="qtilt", allow_abbrev=False, description=(
    "Exact Weyl and tilting module constructions over local ground rings."))
_commands = PARSER.add_subparsers(metavar="COMMAND", required=True)


def _command(*arguments: tuple[str, dict]):
    """Add the decorated function as the command named after it, its
    docstring as help, with arguments: each add_argument's (name, keywords)."""
    def add(run):
        parser = _commands.add_parser(run.__name__.replace("_", "-"), allow_abbrev=False,
                                      help=run.__doc__, description=run.__doc__)
        parser.set_defaults(run=run)
        for name, keywords in arguments:
            parser.add_argument(name, **keywords)
        return run
    return add


def _parse_weight(s: str) -> Weight:
    try:
        return tuple(int(c.strip()) for c in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad weight {_quoted(s)}: expected comma-separated integers") from None


_FILE = ("object_file", {})
_ROOT = ("--root", dict(required=True, help="root system label, e.g. A1, B2, G2"))
_WEIGHT = ("--weight", dict(required=True, type=_parse_weight,
                            help="comma-separated fundamental-weight coordinates"))
_FORMAT = ("--format", dict(dest="fmt", choices=["json", "csv"], default="json",
                            help="output format (default: %(default)s)"))


def _write(*outputs: tuple[str, str], inputs: tuple[str, ...] = ()) -> None:
    """Write each (path, text), a relative path under QTILT_OUT_DIR.  All
    paths are checked first, so a refused path leaves no file behind; two
    paths naming one file are refused, and so is a path naming one of the
    command's input files.  A refusal quotes each path by ``_quoted``."""
    base = os.environ.get("QTILT_OUT_DIR", "")
    outputs = [(os.path.join(base, path), text) for path, text in outputs]
    read = {os.path.realpath(path): path for path in inputs}
    seen: dict[str, str] = {}
    for path, _ in outputs:
        real = os.path.realpath(path)
        shown = _quoted(path)
        if real in seen:
            raise FileExistsError(
                f"cannot write {_quoted(seen[real])} and {shown}: they are one file")
        if real in read:
            raise FileExistsError(
                f"cannot write {shown}: it is the input file {_quoted(read[real])}")
        seen[real] = path
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {shown}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise FileNotFoundError(f"cannot write {shown}: no such directory")
    for path, text in outputs:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")


def _load_object(path: str) -> xcat.XObject:
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.load_xobject(fh.read())


def _report(rep: xcat.Report) -> int:
    sys.stdout.write(serialize.dumps(serialize.report_to_dict(rep)))
    return 0 if rep.ok else 1


def _counts(counts: dict[Weight, int], fmt: str) -> int:
    rows = [(",".join(str(c) for c in wt), m) for wt, m in sorted(counts.items(), reverse=True)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([("weight", "multiplicity"), *rows])
        text = buf.getvalue()
    else:
        text = serialize.dumps(dict(rows))
    sys.stdout.write(text)
    return 0


@_command(("--kind", dict(choices=["smin", "smax", "smax-form"], required=True)), _ROOT,
          ("--ring", dict(required=True,
                          help="ground ring: generic | rational | cyc:<l> | int:<p>")),
          _WEIGHT, ("--out", dict(required=True, help="output object file")),
          ("--form-out", dict(help="output form file (smax-form)")),
          ("--prune", dict(action=argparse.BooleanOptionalAction, default=True,
                           help="restrict enumeration to the dominant-conjugate hull")),
          ("--height-bound", dict(type=int,
                                  help="explicit height bound (required with --no-prune)")),
          ("--verify-frontier", dict(action="store_true", help=(
              "recompute one level beyond the hull and require zero ranks"))))
def build(kind, root, ring, weight, out, form_out, prune, height_bound, verify_frontier):
    """Construct a minimal (Weyl) or maximal (tilting) object."""
    if form_out is not None and kind != "smax-form":
        raise argparse.ArgumentError(None, f"--form-out needs --kind smax-form, not {kind}")
    args = (root_system(root), parse_ring(ring), weight)
    kw = dict(prune=prune, height_bound=height_bound)
    if kind == "smax-form":
        M, b = forms.build_smax_with_form(*args, **kw)
    else:
        M, b = (xcat.build_smin if kind == "smin" else xcat.build_smax)(*args, **kw), None
    if verify_frontier:
        xcat.verify_frontier(M)
    outputs = [(out, serialize.dump_xobject(M))]
    if b is not None:
        outputs.append((form_out or out + ".form.json", serialize.dump_form(M, b)))
    _write(*outputs)
    return 0


@_command(_FILE)
def check(object_file):
    """Check the structural axioms of an object file."""
    return _report(xcat.check_axioms(_load_object(object_file)))


@_command(_FILE)
def verify(object_file):
    """Verify the full operator-relation suite of an object file."""
    return _report(xcat.verify_relations(_load_object(object_file)))


@_command(_FILE, _FORMAT)
def character(object_file, fmt):
    """Print the character (weight -> rank) of an object file."""
    return _counts(xcat.character(_load_object(object_file)), fmt)


@_command(_FILE, _FORMAT)
def weyl_mults(object_file, fmt):
    """Print the Weyl-filtration multiplicities of an object file."""
    return _counts(xcat.weyl_multiplicities(_load_object(object_file)), fmt)


@_command(_ROOT, _WEIGHT, _FORMAT)
def weyl_char(root, weight, fmt):
    """Print the independent Weyl-character oracle for a dominant weight."""
    return _counts(weyl_character(root_system(root), weight), fmt)


@_command(_FILE, ("form_file", {}))
def form_check(object_file, form_file):
    """Check a contravariant form file against an object file."""
    M = _load_object(object_file)
    with open(form_file, "r", encoding="utf-8") as fh:
        b = serialize.load_form(fh.read(), M)
    return _report(forms.check_form(M, b))


@_command(("object_a", {}), ("object_b", {}),
          ("--out", dict(help="write the extended map to a file")))
def hom_extend(object_a, object_b, out):
    """Extend the identity at the shared top weight to a full morphism."""
    M, N = _load_object(object_a), _load_object(object_b)
    if M.top is None or M.top != N.top or M.rank(M.top) != 1 or N.rank(N.top) != 1:
        raise XCatError("hom-extend needs two objects with the same rank-1 top weight")
    res = xcat.extend_hom_down(M, N, Mat.identity(M.ring, 1))
    if isinstance(res, Obstructed):
        sys.stdout.write(serialize.dumps({
            "status": "obstructed",
            "weight": list(res.weight),
            "witness": [str(res.witness[i, 0]) for i in range(res.witness.rows)],
        }))
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
        sys.stdout.write(text)
    return 0


def _message(exc: Exception) -> str:
    """The text of a refusal: an error the system raised on a file as its
    reason and the path cut by ``_quoted``, any other error as it is."""
    if isinstance(exc, OSError) and exc.strerror:
        return exc.strerror if exc.filename is None else f"{exc.strerror}: {_quoted(exc.filename)}"
    return str(exc)


def main(argv: list[str] | None = None) -> None:
    """Run the command line argv (by default the process's) and exit with its
    code, or with 2 and one error line when it or its input is refused."""
    try:
        args = vars(PARSER.parse_args(argv))
        code = args.pop("run")(**args)
    except _INPUT_ERRORS as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
