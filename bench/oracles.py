"""Basis-independent oracles and size statistics that share no code with the
construction.

Everything here reads either characters (weight -> rank maps) or the
documented serialized element strings (``docs/formats.md``), never the
library's internal element representation, so a change of basis or of the
arithmetic kernel still passes and is still measured the same way.
"""

from __future__ import annotations

import json
import re
from collections import Counter


def a1_weyl(n: int) -> Counter:
    """Character of the A1 Weyl module with highest weight n."""
    return Counter({(m,): 1 for m in range(-n, n + 1, 2)})


def a1_tilting_cyc(lam: int, l: int) -> Counter:
    """Character of T(lam) for A1 over ``cyc:l``, in closed form.

    [n] vanishes at a primitive l-th root of unity exactly when l | 2n, so
    the quantum characteristic is e = l for odd l and l/2 for even l.  For
    lam >= e with lam != -1 mod e, T(lam) = W(lam) + W(lam'), lam' the
    reflection of lam in the wall a*e - 1 just below it; otherwise
    T(lam) = W(lam).
    """
    e = l if l % 2 else l // 2
    ch = a1_weyl(lam)
    if lam >= e and (lam + 1) % e:
        wall = (lam + 1) // e * e - 1
        ch += a1_weyl(2 * wall - lam)
    return ch


def character_sum(mults: dict, weyl_chars: dict) -> Counter:
    """sum over mu of mults[mu] * weyl_chars[mu], as a Counter."""
    out: Counter = Counter()
    for mu, m in mults.items():
        for nu, k in weyl_chars[mu].items():
            out[tuple(nu)] += m * k
    return out


def as_counter(ch: dict) -> Counter:
    return Counter({tuple(mu): m for mu, m in ch.items() if m})


# ---------------------------------------------------------------------------
# Entry-size statistics from serialized element strings
# ---------------------------------------------------------------------------

_SIGN_SPLIT = re.compile(r"(?<![\^(])(?=[+-])")


def _poly_stats(s: str) -> tuple[int, int]:
    """(degree span, max coefficient bits) of a printed Laurent polynomial:
    ``P``, ``v^m*(P)``, ``c*v^e``, ``v^e`` or a constant."""
    shift = 0
    m = re.fullmatch(r"v(?:\^(-?\d+))?\*\((.*)\)", s)
    if m:
        shift, s = int(m.group(1) or 1), m.group(2)
    exps = []
    bits = 0
    for term in _SIGN_SPLIT.split(s):
        term = term.lstrip("+-")
        if not term:
            continue
        coeff, _, var = term.partition("v")
        for c in (coeff.rstrip("*") or "1").split("/"):
            bits = max(bits, int(c).bit_length())
        if "v" in term:
            exps.append(shift + (int(var[1:]) if var.startswith("^") else 1))
        else:
            exps.append(shift)
    return (max(exps) - min(exps) if exps else 0), bits


def _closing(s: str, i: int) -> int:
    """Index of the parenthesis closing the one at s[i]."""
    depth = 0
    for j in range(i, len(s)):
        depth += {"(": 1, ")": -1}.get(s[j], 0)
        if depth == 0:
            return j
    raise ValueError(f"unbalanced element string {s!r}")


def _unit(s: str) -> str:
    """The unit of ``SYM^k * UNIT`` (unwrapped) or of a plain unit."""
    head, sep, tail = s.partition(" * ")
    if not sep:
        return s
    if tail.startswith("(") and _closing(tail, 0) == len(tail) - 1:
        return tail[1:-1]
    return tail


def entry_stats(obj_text: str) -> dict[str, int]:
    """Size statistics of the stored operator entries of a serialized
    object: nonzero count, maximum degree span of a numerator or denominator,
    maximum coefficient bit length, and the number of entries with a
    nontrivial denominator."""
    doc = json.loads(obj_text)
    laurent = doc["ring"].startswith(("cyc:", "generic"))
    nonzero = span = bits = with_den = 0
    for op in doc["operators"]:
        for row in op["entries"]:
            for s in row:
                if s == "0":
                    continue
                nonzero += 1
                unit = _unit(s)
                if laurent:
                    parts = [unit]
                    if unit.startswith("("):
                        j = _closing(unit, 0)
                        parts = [unit[1:j], unit[j + 3:-1]]
                        with_den += 1
                    for p in parts:
                        sp, b = _poly_stats(p)
                        span, bits = max(span, sp), max(bits, b)
                else:
                    num, _, den = unit.partition("/")
                    with_den += bool(den)
                    bits = max(bits, abs(int(num)).bit_length(),
                               int(den or 1).bit_length())
    return {
        "xcat.entries_nonzero": nonzero,
        "xcat.entry_max_degree_span": span,
        "xcat.entry_max_coeff_bits": bits,
        "xcat.entries_with_den": with_den,
    }
