"""Dense polynomials over Z: the arithmetic kernel of the Laurent kinds.

A poly is a list (or tuple) of ints indexed by degree whose first and last
entries are nonzero, so an integer Laurent polynomial is ``v**shift * P``
with P(0) != 0 and powers of v never reach a gcd; [] is zero.  Functions
never mutate their arguments and may return one of them unchanged.

Divisibility in Q[v] is tested in Z[v]: by Gauss's lemma a primitive or
monic divisor of an integer polynomial leaves an integer quotient, so
exact integer division decides it and no Fraction is ever built.
"""

from __future__ import annotations

import math


def mul(a, b):
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else [c * y for y in b]
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else [c * x for x in a]
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + lb] = [o + x * y for o, y in zip(out[i:i + lb], b)]
    return out


def add(s1: int, a, s2: int, b) -> tuple[int, list[int]]:
    """v**s1 * a + v**s2 * b as (shift, poly)."""
    if s1 > s2:
        s1, a, s2, b = s2, b, s1, a
    off = s2 - s1
    out = list(a)
    if off + len(b) > len(out):
        out.extend([0] * (off + len(b) - len(out)))
    out[off:off + len(b)] = [x + y for x, y in zip(out[off:off + len(b)], b)]
    while out and not out[-1]:
        out.pop()
    z = 0
    while z < len(out) and not out[z]:
        z += 1
    return s1 + z, out[z:] if z else out


def quo(a, b) -> list[int] | None:
    """a / b when a primitive or monic b divides a, else None.

    a may end in zeros; the quotient is then only good as a yes/no answer.
    """
    lb = len(b)
    n = len(a) - lb + 1
    if n <= 0:
        return None
    lc = b[-1]
    r = list(a)
    q = [0] * n
    m = lb - 1
    for i in range(n - 1, -1, -1):
        c = r[i + m]
        if c:
            if lc != 1:
                c, rem = divmod(c, lc)
                if rem:
                    return None
            q[i] = c
            r[i:i + m] = [x - c * y for x, y in zip(r[i:i + m], b)]
    if any(r[:m]):
        return None
    return q


def primitive(a):
    c = math.gcd(*a)
    return a if c == 1 else [x // c for x in a]


def heu_gcd(f, g):
    """GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989).

    Returns (h, f/h, g/h) with h a primitive gcd of the nonconstant f and g,
    or None after six evaluation points.  Both are evaluated at an integer
    xi >= 2 min(|f|, |g|) + 2; the balanced xi-adic digits of the integer
    gcd give a candidate, whose primitive part is the gcd as soon as it
    divides f and g.  A constant candidate divides everything: it certifies
    gcd 1 with no trial division, the common case.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(6):
        vf = vg = 0
        for c in reversed(f):
            vf = vf * xi + c
        for c in reversed(g):
            vg = vg * xi + c
        h = math.gcd(vf, vg)
        cand = []
        half = xi // 2
        while h:
            c = h % xi
            if c > half:
                c -= xi
            cand.append(c)
            h = (h - c) // xi
        if len(cand) == 1:
            return [1], f, g
        cand = primitive(cand)
        cf = quo(f, cand)
        if cf is not None:
            cg = quo(g, cand)
            if cg is not None:
                return cand, cf, cg
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def prs_gcd(f, g) -> list[int]:
    """A primitive gcd of f and g by the primitive pseudo-remainder sequence."""
    f, g = primitive(f), primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = list(f)
        lc = g[-1]
        while len(r) >= len(g):
            c, off = r[-1], len(r) - len(g)
            r = [lc * x for x in r]
            r[off:] = [x - c * y for x, y in zip(r[off:], g)]
            while r and not r[-1]:
                r.pop()
        if not r:
            return g
        f, g = g, primitive(r)
    return [1]


def gcd(f, g):
    """(h, f/h, g/h) for a primitive gcd h of the nonconstant f and g."""
    out = heu_gcd(f, g)
    if out is None:
        h = prs_gcd(f, g)
        out = (h, quo(f, h), quo(g, h)) if len(h) > 1 else ([1], f, g)
    return out


def cancel(a, b):
    """(a/h, b/h) for h = gcd(a, b); a constant is a unit in Q[v]."""
    if len(a) > 1 and len(b) > 1:
        _, a, b = gcd(a, b)
    return a, b
