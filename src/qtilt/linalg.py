"""Deterministic exact linear algebra over the supported ground rings.

The workhorse is a Smith normal form over a discrete valuation ring (fields
run through the same code path with every exponent forced to 0).  All derived
operations (saturated kernels, saturations with torsion invariants, solving
inside column spans, free complements) read their bases off the SNF
transformation matrices, so identical inputs produce bit-identical outputs.

Every block-diagonal matrix (direct sums, the Gram matrix and the morphism
on an upper-neighbour sum, the SNF diagonal) is built by ``block_diag``.

Pivot rule: among the entries of minimal valuation pick the lexicographically
smallest (row, col).

``smith_normal_form(M, track=...)`` updates only the transforms named in
``track``, a subset of U, Uinv, V and Vinv (all four by default); the others
come back None, and the pivots and exponents are the same either way.  Each
derived operation tracks what it reads:

* none: ``rank``, ``is_unit_matrix``, ``det_valuation``, and the SNF of the
  coordinates in ``relative_invariants``; so does the SNF of E_mu that an
  ``xcat.XObject`` caches per weight, of which X3, the certificates and
  ``xcat.weyl_multiplicities`` read only the rank and the exponents;
* V: ``kernel_saturated``;
* Uinv: ``saturation_with_invariants``, ``free_complement``, and the cached
  SNF of F_mu, whose first rank columns of Uinv are X3's saturation basis;
* U: ``relative_invariants`` (the SNF of ``sup``);
* U and V: ``solve_in_span``, ``inverse_unit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .ring import GroundRing, RingElem, RingError


class LinAlgError(ValueError):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Mat:
    """Dense matrix of ring elements sharing one ground ring.

    ``from_rows`` and ``from_cols`` check the ring of every entry, for input
    from outside; the arithmetic and the stacking build their results
    directly and check only that their input matrices share one ring.

    Immutable by contract, not by ``frozen=True``, as ``ring.RingElem`` is:
    every product builds a matrix, and a frozen dataclass stores each field
    through ``object.__setattr__``.  Objects, their caches and the word memo
    share matrices, so never assign a field.
    """

    ring: GroundRing
    rows: int
    cols: int
    entries: tuple[tuple[RingElem, ...], ...]

    @staticmethod
    def from_rows(ring: GroundRing, rows: Iterable[Iterable[RingElem]],
                  cols: int | None = None) -> "Mat":
        rs = tuple(tuple(r) for r in rows)
        if rs:
            cols = len(rs[0])
        elif cols is None:
            cols = 0
        for r in rs:
            if len(r) != cols:
                raise LinAlgError("ragged rows")
            for e in r:
                if e.ring != ring:
                    raise LinAlgError("entry from a different ring")
        return Mat(ring, len(rs), cols, rs)

    @staticmethod
    def zero(ring: GroundRing, rows: int, cols: int) -> "Mat":
        z = ring.zero()
        return Mat(ring, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(ring: GroundRing, n: int) -> "Mat":
        z, o = ring.zero(), ring.one()
        return Mat(ring, n, n, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_cols(ring: GroundRing, cols: Sequence[Sequence[RingElem]],
                  rows: int | None = None) -> "Mat":
        cs = [list(c) for c in cols]
        if cs:
            rows = len(cs[0])
        elif rows is None:
            rows = 0
        return Mat.from_rows(
            ring, [[cs[j][i] for j in range(len(cs))] for i in range(rows)],
            cols=len(cs))

    def __getitem__(self, ij: tuple[int, int]) -> RingElem:
        return self.entries[ij[0]][ij[1]]

    def col(self, j: int) -> "Mat":
        return self.take_cols((j,))

    def take_cols(self, idx: Sequence[int]) -> "Mat":
        return Mat(self.ring, self.rows, len(idx),
                   tuple(tuple([r[j] for j in idx]) for r in self.entries))

    def take_rows(self, idx: Sequence[int]) -> "Mat":
        return Mat(self.ring, len(idx), self.cols, tuple(self.entries[i] for i in idx))

    def transpose(self) -> "Mat":
        return Mat(self.ring, self.cols, self.rows,
                   tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    @property
    def T(self) -> "Mat":
        return self.transpose()

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        _common_ring((self, other), "matrix product")
        z = self.ring.zero()
        cols = range(other.cols)
        out = []
        for arow in self.entries:
            row = []
            for j in cols:
                acc = z
                for a, brow in zip(arow, other.entries):
                    b = brow[j]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return Mat(self.ring, self.rows, other.cols, tuple(out))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in sum")
        _common_ring((self, other), "matrix sum")
        return Mat(self.ring, self.rows, self.cols, tuple(
            tuple([a + b for a, b in zip(r1, r2)])
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat(self.ring, self.rows, self.cols,
                   tuple(tuple([-a for a in r]) for r in self.entries))

    def scale(self, c: RingElem) -> "Mat":
        return Mat(self.ring, self.rows, self.cols,
                   tuple(tuple([a * c for a in r]) for r in self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.entries for e in r)

    def to_lists(self) -> list[list[RingElem]]:
        return [list(r) for r in self.entries]

    def __str__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in r) for r in self.entries)
        return f"[{body}]"


def _common_ring(mats: Sequence[Mat], what: str) -> GroundRing:
    """The ring the matrices share, checked once per matrix (their entries
    were checked when they were built)."""
    ring = mats[0].ring
    for m in mats[1:]:
        if m.ring is not ring and m.ring != ring:
            raise LinAlgError(f"mixed rings in {what}")
    return ring


def hstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise LinAlgError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise LinAlgError("hstack row mismatch")
    ring = _common_ring(mats, "hstack")
    return Mat(ring, rows, sum(m.cols for m in mats), tuple(
        tuple([e for m in mats for e in m.entries[i]]) for i in range(rows)))


def vstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise LinAlgError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise LinAlgError("vstack col mismatch")
    ring = _common_ring(mats, "vstack")
    return Mat(ring, sum(m.rows for m in mats), cols,
               tuple(r for m in mats for r in m.entries))


def block_diag(ring: GroundRing, mats: Sequence[Mat]) -> Mat:
    """The block-diagonal matrix of mats, each over ring; a block may have
    no rows or no columns."""
    z = ring.zero()
    cols = sum(m.cols for m in mats)
    out = []
    left = 0
    for m in mats:
        if m.ring is not ring and m.ring != ring:
            raise LinAlgError("mixed rings in block_diag")
        pad_l, pad_r = (z,) * left, (z,) * (cols - left - m.cols)
        out.extend(pad_l + r + pad_r for r in m.entries)
        left += m.cols
    return Mat(ring, len(out), cols, tuple(out))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


TRANSFORMS = ("U", "Uinv", "V", "Vinv")


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V = diag(pi**e for e in exponents), padded by zero rows/cols.

    U and V (and their inverses) have unit determinant valuation and the
    exponents are weakly increasing; over a field all exponents are zero.
    A transform the caller did not ask to track is None.
    """

    ring: GroundRing
    U: Mat | None
    Uinv: Mat | None
    V: Mat | None
    Vinv: Mat | None
    exponents: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def diagonal(self, rows: int, cols: int) -> Mat:
        ring, r = self.ring, self.rank
        pi = ring.uniformizer() if ring.is_dvr else ring.one()
        return block_diag(ring, [Mat(ring, 1, 1, ((pi ** e,),)) for e in self.exponents]
                          + [Mat.zero(ring, rows - r, cols - r)])


def smith_normal_form(M: Mat, *, track: Iterable[str] = TRANSFORMS) -> SmithDecomposition:
    """SNF of M, updating only the transforms named in ``track``.

    The pivots and exponents do not depend on ``track``; a tracked transform
    equals the one the full decomposition gives, an untracked one is None.
    """
    track = frozenset(track)
    if not track <= set(TRANSFORMS):
        raise LinAlgError(f"unknown transforms {sorted(track - set(TRANSFORMS))}")
    ring = M.ring
    a = M.to_lists()
    m, n = M.rows, M.cols
    zero, one = ring.zero(), ring.one()

    def eye(k: int, name: str) -> list[list[RingElem]] | None:
        if name not in track:
            return None
        return [[one if i == j else zero for j in range(k)] for i in range(k)]

    u, uinv, v, vinv = eye(m, "U"), eye(m, "Uinv"), eye(n, "V"), eye(n, "Vinv")

    # Companion updates; an untracked companion is None, and zero source
    # entries are skipped.
    def add_row(x, dst: int, src: int, c: RingElem) -> None:
        if x is not None:
            xd = x[dst]
            for j, s in enumerate(x[src]):
                if not s.is_zero():
                    xd[j] = xd[j] + c * s

    def add_col(x, dst: int, src: int, c: RingElem) -> None:
        if x is not None:
            for r in x:
                if not r[src].is_zero():
                    r[dst] = r[dst] + c * r[src]

    def swap_rows(x, i: int, j: int) -> None:
        if x is not None:
            x[i], x[j] = x[j], x[i]

    def swap_cols(x, i: int, j: int) -> None:
        if x is not None:
            for r in x:
                r[i], r[j] = r[j], r[i]

    exps: list[int] = []
    t = 0
    while t < min(m, n):
        # Row-major scan; a valuation-0 entry is the smallest possible, so the
        # first one found is the lexicographically smallest of minimal valuation.
        pivot, pval = None, math.inf
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                val = row[j].valuation()  # infinite for zero
                if val < pval:
                    pivot, pval = (i, j), val
                    if val == 0:
                        break
            if pval == 0:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(a, pi, t)
            swap_rows(u, pi, t)
            swap_cols(uinv, pi, t)
        if pj != t:
            swap_cols(a, pj, t)
            swap_cols(v, pj, t)
            swap_rows(vinv, pj, t)
        at = a[t]
        piv = at[t]
        # R_i += c * R_t (inverse C_t -= c * C_i on Uinv): columns < t of row t
        # are zero and column t of row i becomes zero, so only the columns > t
        # of the working matrix change.
        for i in range(t + 1, m):
            ai = a[i]
            if ai[t].is_zero():
                continue
            c = -(ai[t].divide(piv))
            ai[t] = zero
            for j in range(t + 1, n):
                if not at[j].is_zero():
                    ai[j] = ai[j] + c * at[j]
            add_row(u, i, t, c)
            add_col(uinv, t, i, -c)
        # C_j += c * C_t (inverse R_t -= c * R_j on Vinv): column t is clear
        # below the pivot, so only the entry in row t changes, to zero.
        for j in range(t + 1, n):
            if at[j].is_zero():
                continue
            c = -(at[j].divide(piv))
            at[j] = zero
            add_col(v, j, t, c)
            add_row(vinv, t, j, -c)
        exps.append(pval if ring.is_dvr else 0)
        t += 1

    # Normalize the diagonal to pure uniformizer powers (1 over a field):
    # row t of U is divided by the diagonal unit, column t of Uinv multiplied.
    if u is not None or uinv is not None:
        for t, e in enumerate(exps):
            unit = a[t][t].divide(ring.uniformizer() ** e) if e else a[t][t]
            if u is not None:
                c = unit.inverse()
                u[t] = [x if x.is_zero() else x * c for x in u[t]]
            if uinv is not None:
                for r in uinv:
                    if not r[t].is_zero():
                        r[t] = r[t] * unit

    def mat(rows: list[list[RingElem]] | None, k: int) -> Mat | None:
        return None if rows is None else Mat(ring, k, k, tuple(map(tuple, rows)))

    return SmithDecomposition(
        ring=ring, U=mat(u, m), Uinv=mat(uinv, m), V=mat(v, n), Vinv=mat(vinv, n),
        exponents=tuple(exps),
    )


def rank(M: Mat) -> int:
    """Rank of M over the fraction field."""
    return smith_normal_form(M, track=()).rank


def kernel_saturated(M: Mat) -> Mat:
    """Basis (as columns) of ker M.

    Over a domain the kernel of a matrix inside a free module is saturated,
    so the quotient by it is torsion free; over a DVR that quotient is free.
    """
    snf = smith_normal_form(M, track=("V",))
    return snf.V.take_cols(range(snf.rank, M.cols))


def saturation_with_invariants(G: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Saturation of the column span of G inside the ambient free module.

    Returns (S, exponents): the columns of S form a basis of
    {m in ambient : xi * m in span(G) for some xi != 0}, and
    span(S)/span(G) is isomorphic to the direct sum of A/pi**e over the
    returned exponents (zero exponents are omitted, so the tuple is empty
    exactly when span(G) is already saturated).
    """
    snf = smith_normal_form(G, track=("Uinv",))
    S = snf.Uinv.take_cols(range(snf.rank))
    return S, tuple(e for e in snf.exponents if e > 0)


def _diagonal_solve(snf: SmithDecomposition, B: Mat) -> Mat | None:
    """Z with diag(pi**e) @ Z == (U @ B)[:rank], or None when no such Z exists
    over the ring or the rows of U @ B below the rank do not vanish.

    For G with SNF snf, the columns of Z are the coordinates of the columns
    of B in the basis Uinv[:, :rank] @ diag(pi**e) of span(G).
    """
    ring = B.ring
    ub = snf.U @ B
    pi = ring.uniformizer() if ring.is_dvr else ring.one()
    z = []
    for t, e in enumerate(snf.exponents):
        d = pi ** e  # exponents are 0 over a field
        try:
            z.append([x.divide(d) for x in ub.entries[t]])
        except RingError:
            return None
    if any(not x.is_zero() for row in ub.entries[snf.rank:] for x in row):
        return None
    return Mat.from_rows(ring, z, cols=B.cols)


def solve_in_span(G: Mat, B: Mat) -> Mat | None:
    """Solve G @ X = B exactly over the ring, for any number of columns with
    one SNF of G; None when some column of B is not in the span.

    Membership is ring-exact, not fraction-field membership.  Free
    coordinates of the solution are set to zero, so the output is
    deterministic.
    """
    if B.rows != G.rows:
        raise LinAlgError("right-hand side must have the height of G")
    snf = smith_normal_form(G, track=("U", "V"))
    z = _diagonal_solve(snf, B)
    if z is None:
        return None
    return snf.V.take_cols(range(snf.rank)) @ z


def free_complement(G: Mat) -> Mat:
    """Columns completing a basis of span(G) to a basis of the ambient module.

    Requires the quotient ambient/span(G) to be free, i.e. the saturation
    exponents of G must be empty.
    """
    snf = smith_normal_form(G, track=("Uinv",))
    if any(e > 0 for e in snf.exponents):
        raise LinAlgError(
            "column span is not a direct summand (nonzero saturation exponents)"
        )
    return snf.Uinv.take_cols(range(snf.rank, G.rows))


def relative_invariants(sub: Mat, sup: Mat) -> tuple[int, ...]:
    """Invariant factors of span(sup)/span(sub) for span(sub) inside span(sup).

    Both matrices live in the same ambient free module (equal row count) and
    every column of sub must lie in the ring-span of sup.  Zero invariants
    are omitted: an empty tuple certifies equality of the spans.  Takes one
    SNF of sup and one of the coordinates of sub; raises LinAlgError
    "fraction-field ranks differ" when the quotient is not torsion.
    """
    if sub.rows != sup.rows:
        raise LinAlgError("ambient rank mismatch")
    snf = smith_normal_form(sup, track=("U",))
    X = _diagonal_solve(snf, sub)
    if X is None:
        raise LinAlgError("sub is not contained in the span of sup")
    snf_x = smith_normal_form(X, track=())
    if snf_x.rank < snf.rank:
        raise LinAlgError("fraction-field ranks differ")
    return tuple(e for e in snf_x.exponents if e > 0)


def is_unit_matrix(M: Mat) -> bool:
    """True when M is square and invertible over the ring."""
    if M.rows != M.cols:
        return False
    snf = smith_normal_form(M, track=())
    return snf.rank == M.rows and all(e == 0 for e in snf.exponents)


def inverse_unit(M: Mat) -> Mat:
    """Inverse of a matrix that is invertible over the ring."""
    snf = smith_normal_form(M, track=("U", "V"))
    if snf.rank != M.rows or M.rows != M.cols or any(snf.exponents):
        raise LinAlgError("matrix is not invertible over the ring")
    return snf.V @ snf.U


def det_valuation(M: Mat) -> int | float:
    """Valuation of det(M): the sum of the SNF exponents, or infinity."""
    if M.rows != M.cols:
        raise LinAlgError("determinant of a non-square matrix")
    snf = smith_normal_form(M, track=())
    if snf.rank < M.rows:
        return math.inf
    return sum(snf.exponents)
