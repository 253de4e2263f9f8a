"""The graded-module engine.

An :class:`XObject` is a weight-graded family of free modules over a ground
ring together with raising operators ``E[(mu, alpha, n)]`` of degree
``+n*alpha`` and lowering operators ``F[(mu, alpha, n)]`` of degree
``-n*alpha`` (divided-power index n).  Operators are stored only when both
endpoint spaces are nonzero; an absent operator is the zero map, and the
index-0 operators are identities by convention.

This module implements the two weight-by-weight extension steps at the heart
of the construction:

* ``minimal_extend``: adjoin a new lowest weight as the quotient of the
  formal sum of the upper neighbours by the kernel of the assembled raising
  matrix.  Iterating from a rank-1 seed yields ``build_smin`` (the Weyl
  module: its character is the Weyl character over a generic ring).

* ``maximal_extend``: additionally saturate, adjoining one free generator
  per nonzero torsion invariant of the minimally-extended raising image.
  Iterating yields ``build_smax``, the indecomposable tilting module over a
  local generic ring.

Verification entry points (``check_axioms``, ``verify_relations``,
``minimality_certificate``, ``maximality_certificate``) re-derive everything
from the stored matrices, so they are meaningful checks on the constructions
and on hand-built or deserialized objects alike.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from . import linalg
from .linalg import Mat, block_diag, hstack, vstack
from .ring import GroundRing, RingElem, RingError, RingKind, embed, qbinom, to_fraction_field
from .rootsys import RootSystem, Weight, dominance_leq, weights_below

__all__ = [
    "XObject",
    "DeltaBlock",
    "Report",
    "CheckEntry",
    "Obstructed",
    "XCatError",
    "delta_space",
    "hat_matrices",
    "minimal_extend",
    "maximal_extend",
    "build_smin",
    "build_smax",
    "verify_frontier",
    "restrict",
    "check_axioms",
    "verify_relations",
    "weyl_multiplicities",
    "character",
    "base_change_to_field",
    "extend_hom",
    "extend_hom_down",
    "verify_hom",
    "minimality_certificate",
    "maximality_certificate",
    "direct_sum",
]


class XCatError(ValueError):
    pass


OpKey = tuple[Weight, int, int]


@dataclass(frozen=True)
class XObject:
    """Weight-graded free modules with raising/lowering operator matrices.

    ``spaces`` maps a weight to its (positive) rank; weights in ``region``
    but not in ``spaces`` have rank zero.  ``eops[(mu, a, n)]`` has shape
    rank(mu + n*alpha_a) x rank(mu) and ``fops[(mu, a, n)]`` the transpose
    shape.  Objects are immutable; every operation returns a new object, so
    what an object caches is computed at most once and lives as long as the
    object:

    * ``_strings``, the support index that ``ladder`` reads;
    * ``_words``, the operator words that ``hat_matrices`` evaluated;
    * ``_generators_hold``, the generator certificate: whether the relations
      on E_{a,1} and F_{a,1} hold, which imply every commutation identity
      and every divided-power rule;
    * ``_x2``, the failed commutation identities that ``check_axioms`` and
      ``verify_relations`` both report;
    * ``_local``, per weight the pair E_mu, F_mu that ``delta_space``
      assembles and the SNF of each, read by X3, both certificates and
      ``weyl_multiplicities``.

    An extension step hands its parent's support index to the object it
    makes with the new weight inserted, and moves the parent's word memo
    (``_inherit``); ``_generators_hold``, ``_x2`` and ``_local`` are never
    handed on.
    ``replace``, ``restrict``, ``direct_sum`` and the loaders make new
    objects with empty caches, a build drops the word memo of the object it
    returns, and ``verify_frontier`` leaves the memo as it found it.  A dict of an object must not be changed in place.
    """

    ring: GroundRing
    rs: RootSystem
    spaces: dict[Weight, int]
    eops: dict[OpKey, Mat]
    fops: dict[OpKey, Mat]
    region: frozenset[Weight]
    top: Weight | None = None

    def rank(self, mu: Weight) -> int:
        return self.spaces.get(mu, 0)

    def eop(self, mu: Weight, a: int, n: int) -> Mat:
        """E_{mu, alpha_a, n}: M_mu -> M_{mu + n alpha_a} (zero when absent)."""
        if n == 0:
            return Mat.identity(self.ring, self.rank(mu))
        m = self.eops.get((mu, a, n))
        if m is not None:
            return m
        return Mat.zero(self.ring, self.rank(self.rs.add_root(mu, a, n)), self.rank(mu))

    def fop(self, mu: Weight, a: int, n: int) -> Mat:
        """F_{mu, alpha_a, n}: M_{mu + n alpha_a} -> M_mu (zero when absent)."""
        if n == 0:
            return Mat.identity(self.ring, self.rank(mu))
        m = self.fops.get((mu, a, n))
        if m is not None:
            return m
        return Mat.zero(self.ring, self.rank(mu), self.rank(self.rs.add_root(mu, a, n)))

    @cached_property
    def _strings(self) -> tuple[dict[Weight, tuple[int, ...]], ...]:
        """Per simple root a, the alpha_a-strings of the support: the base
        mu - p*alpha_a with p = mu[a] // 2 keys the sorted positions p of
        its supported weights (alpha_a has coordinate 2 at a, so the base is
        the same for every weight of one string and for no other)."""
        out = []
        for a in range(self.rs.rank):
            strings: dict[Weight, list[int]] = {}
            for mu in self.spaces:
                p = mu[a] // 2
                strings.setdefault(self.rs.add_root(mu, a, -p), []).append(p)
            out.append({base: tuple(sorted(pos)) for base, pos in strings.items()})
        return tuple(out)

    @cached_property
    def _words(self) -> dict[Weight, dict]:
        """The F.E words evaluated by ``hat_matrices``, per source weight,
        each keyed as in ``_lusztig_terms``."""
        return {}

    @cached_property
    def _local(self) -> dict[Weight, _Local]:
        """Per weight, the local pair E_mu, F_mu and its SNFs (``_Local``),
        read by ``delta_space``, X3, both certificates and
        ``weyl_multiplicities``."""
        return {}

    @cached_property
    def _generators_hold(self) -> bool:
        """Whether the generator certificate holds
        (``_generator_certificate``)."""
        return _generator_certificate(self)

    @cached_property
    def _x2(self) -> tuple[tuple, ...]:
        """The failed commutation identities, in the order ``_x2_failures``
        yields them; none when the generator certificate holds."""
        return () if self._generators_hold else tuple(_x2_failures(self))

    def ladder(self, mu: Weight, a: int) -> list[int]:
        """Sorted n > 0 with rank(mu + n*alpha_a) > 0."""
        p = mu[a] // 2
        pos = self._strings[a].get(self.rs.add_root(mu, a, -p), ())
        return [q - p for q in pos[bisect_right(pos, p):]]

    def max_op_index(self) -> int:
        """Support bound: the largest n for which any operator can be nonzero."""
        return max((pos[-1] - pos[0] for strings in self._strings
                    for pos in strings.values()), default=0)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    check: str
    weight: Weight | None
    status: str  # "pass" | "fail"
    witness: str | None = None


@dataclass
class Report:
    entries: list[CheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if e.status != "pass"]

    def add(self, check: str, weight: Weight | None, ok: bool, witness: str | None = None):
        self.entries.append(CheckEntry(check, weight, "pass" if ok else "fail", witness))

    def close(self, check: str, *failed: str) -> None:
        """Add the pass entry of check unless an entry with one of the ids
        in failed (by default check itself) has failed."""
        failed = failed or (check,)
        if not any(e.check in failed and e.status != "pass" for e in self.entries):
            self.add(check, None, True)


# ---------------------------------------------------------------------------
# Delta spaces and hat matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaBlock:
    alpha: int
    n: int
    offset: int
    rank: int


DeltaIndex = tuple[DeltaBlock, ...]


def _delta_index(M: XObject, mu: Weight) -> DeltaIndex:
    blocks = []
    offset = 0
    for a in range(M.rs.rank):
        for n in M.ladder(mu, a):
            r = M.rank(M.rs.add_root(mu, a, n))
            blocks.append(DeltaBlock(a, n, offset, r))
            offset += r
    return tuple(blocks)


@lru_cache(maxsize=None)
def _qb(ring: GroundRing, n: int, r: int, d: int) -> RingElem:
    """The image of the quantum binomial [n choose r]_d in ring."""
    if ring.is_laurent:
        return embed(qbinom(n, r, d), ring)
    # At v = 1 it is the ordinary binomial; n < 0 by upper negation.
    return ring.from_int(math.comb(n, r) if n >= 0 else (-1) ** r * math.comb(r - n - 1, r))


class _Local:
    """The local pair at one weight mu: the delta index, the assembled
    raising map E_mu and lowering map F_mu, and the SNF of each, taken when
    first read.  Only the rank and exponents of E_mu's SNF are read; F_mu's
    tracks Uinv, whose first rank columns are a basis of the saturation of
    im F_mu.  Pivots and exponents do not depend on the tracked transforms,
    so every reader of a rank or an exponent sees the values an untracked
    SNF gives."""

    def __init__(self, M: XObject, mu: Weight):
        self.index = index = _delta_index(M, mu)
        r = M.rank(mu)
        if not index:
            self.e, self.f = Mat.zero(M.ring, 0, r), Mat.zero(M.ring, r, 0)
        else:
            self.e = vstack([M.eop(mu, b.alpha, b.n) for b in index])
            self.f = hstack([M.fop(mu, b.alpha, b.n) for b in index])

    @cached_property
    def e_snf(self) -> linalg.SmithDecomposition:
        return linalg.smith_normal_form(self.e, track=())

    @cached_property
    def f_snf(self) -> linalg.SmithDecomposition:
        return linalg.smith_normal_form(self.f, track=("Uinv",))


def _local_at(M: XObject, mu: Weight) -> _Local:
    """The local pair at mu, from the object's cache (``XObject._local``)."""
    loc = M._local.get(mu)
    if loc is None:
        loc = M._local[mu] = _Local(M, mu)
    return loc


def _positive(snf: linalg.SmithDecomposition) -> tuple[int, ...]:
    """The nonzero exponents of an SNF: the torsion invariants of the
    cokernel of the decomposed matrix."""
    return tuple(e for e in snf.exponents if e > 0)


def delta_space(M: XObject, mu: Weight) -> tuple[DeltaIndex, Mat, Mat]:
    """The block decomposition of the upper-neighbour sum at mu, with the
    assembled column operator E_mu: M_mu -> M_dmu and row operator
    F_mu: M_dmu -> M_mu, assembled once per object and weight."""
    loc = _local_at(M, mu)
    return loc.index, loc.e, loc.f


# An evaluated word or sum: (rows, cols, P), P None when the matrix is zero.
Value = tuple[int, int, Mat | None]


def _word(M: XObject, src: Weight, word) -> Value:
    """The composite of the operators of word, applied in order to src.

    A factor (kind, a, n, out) is E_{a,n} or F_{a,n} (kind "E" or "F") from
    the current weight to out.  A degree-0 factor is skipped, an absent one
    makes the composite zero with no matmul, a lone stored factor comes back
    as it is, and only a word of identities gives a built identity.  Shapes
    are checked as ``@`` checks them, each factor against the one before, an
    identity or an absent operator taking the shape its endpoint ranks give.
    """
    w, rows, cols, prod, zero = src, None, None, None, False
    for kind, a, n, out in word:
        op = (M.eops.get((w, a, n)) if kind == "E" else M.fops.get((out, a, n))) if n else None
        if op is None:
            r, c, zero = M.rank(out), M.rank(w), zero or n != 0
        else:
            r, c = op.rows, op.cols
            if not zero:
                prod = op if prod is None else op @ prod
        if c != rows:
            if rows is not None:
                raise linalg.LinAlgError(f"shape mismatch {r}x{c} @ {rows}x{cols}")
            cols = c
        rows, w = r, out
    if zero:
        return rows, cols, None
    return rows, cols, prod if prod is not None else Mat.identity(M.ring, cols)


def _accumulate(ring: GroundRing, acc: list[list[RingElem]], i0: int, j0: int,
                rows: int, cols: int, terms) -> bool:
    """Add the (coeff, value) terms, coeff None standing for 1, entrywise
    into the rows x cols window of acc whose top left entry is (i0, j0);
    returns whether any term was nonzero.

    Every term must be rows x cols over ring (a ``LinAlgError`` otherwise,
    as ``Mat.__add__`` raises).  Only nonzero entries are scaled and added,
    in term order, so each entry of the window gains the sum a term-by-term
    ``Mat`` sum would give it.  This is the one accumulation loop of the
    module: ``_sum`` runs it on a fresh buffer and ``hat_matrices`` on the
    blocks of one buffer.
    """
    live = False
    for coeff, (r, c, prod) in terms:
        if r != rows or c != cols:
            raise linalg.LinAlgError("shape mismatch in sum")
        if prod is None:
            continue
        if prod.ring is not ring and prod.ring != ring:
            raise linalg.LinAlgError("mixed rings in sum")
        live = True
        for i, prow in enumerate(prod.entries, i0):
            arow = acc[i]
            for j, x in enumerate(prow, j0):
                if not x.is_zero():
                    y = x if coeff is None else x * coeff
                    z = arow[j]
                    arow[j] = y if z.is_zero() else z + y
    return live


def _sum(ring: GroundRing, rows: int, cols: int, terms) -> Value:
    """The sum of the (coeff, value) terms, coeff None standing for 1, each
    rows x cols: zero (no matrix) when every term is zero, else the matrix
    ``_accumulate`` fills in from a zero buffer."""
    z = ring.zero()
    acc = [[z] * cols for _ in range(rows)]
    if not _accumulate(ring, acc, 0, 0, rows, cols, terms):
        return rows, cols, None
    return rows, cols, Mat(ring, rows, cols, tuple(map(tuple, acc)))


def _same(x: Value, y: Value) -> bool:
    """Whether two values are the same matrix."""
    if x == y:
        return True
    (rows, cols, p), (r, c, q) = x, y
    if (rows, cols) != (r, c) or p is not None and q is not None:
        return False
    return (p if q is None else q).is_zero()


def _lusztig_terms(M: XObject, mu: Weight, a: int, b: int, m: int, n: int,
                   src: Weight, tgt: Weight, memo: dict, coeffs: dict,
                   ladder: set[int] | None = None) -> list:
    """The (coeff, value) terms of the normal-ordered side of
    E_{a,m} F_{b,n} on the source src = mu + n*alpha_b, with target
    tgt = mu + m*alpha_a: the word F_{b,n} E_{a,m} when a != b, else
    Lusztig's sum over r of [mu_a + m + n choose r]_{d_a} F_{a,n-r} E_{a,m-r}.

    coeff None stands for 1, the r = 0 coefficient.  A term with a zero
    coefficient is left out and its word not evaluated.  Given ``ladder``,
    the positions k >= 1 of mu's supported weights mu + k*alpha_a, a term
    whose middle weight mu + (m + n - r)*alpha_a is not supported is left
    out too, before its coefficient, memo entry or word is read: both of
    its factors then have degree >= 1 and join a zero space, so on an
    object whose operators join supported weights the word is zero
    (m + n - r >= max(m, n) >= 1, so the middle weight is never mu).  The
    hat assembly passes it; the X2 loop does not, and evaluates every term.

    ``memo`` holds the sum's words on src, keyed by (a, m - r, n - r), for
    the caller to share between the identities on src (identity
    (mu + r*alpha_a, m - r, n - r) reuses the r-th word here).  ``coeffs``
    holds per (a, mu_a + m + n) the coefficients read so far, r = 0 first,
    for the caller to share between the sums with that top.
    """
    rs = M.rs
    if a != b:
        return [(None, _word(M, src, (("E", a, m, rs.add_root(src, a, m)), ("F", b, n, tgt))))]
    k, top = min(m, n), mu[a] + m + n
    row = coeffs.get((a, top))
    if row is None:
        row = coeffs[(a, top)] = [None]
    for r in range(len(row), k + 1):
        row.append(_qb(M.ring, top, r, rs.d[a]))
    terms = []
    for r in range(k + 1):
        if ladder is not None and m + n - r not in ladder:
            continue
        coeff = row[r]
        if coeff is not None and coeff.is_zero():
            continue
        key = (a, m - r, n - r)
        term = memo.get(key)
        if term is None:
            mid = rs.add_root(src, a, m - r)
            term = memo[key] = _word(M, src, (("E", a, m - r, mid), ("F", a, n - r, tgt)))
        terms.append((coeff, term))
    return terms


def _commutation_rhs(M: XObject, mu: Weight, a: int, b: int, m: int, n: int,
                     src: Weight, tgt: Weight, memo: dict, coeffs: dict) -> Value:
    """The normal-ordered side of E_{a,m} F_{b,n} on src, with target tgt
    (``_lusztig_terms``, whose words on src ``memo`` shares and whose
    coefficients ``coeffs`` shares): the word itself when a != b, else the
    ``_sum`` of Lusztig's terms.  The word is not checked against the
    endpoint ranks, as the Mat-level product is not."""
    terms = _lusztig_terms(M, mu, a, b, m, n, src, tgt, memo, coeffs)
    if a != b:
        return terms[0][1]
    return _sum(M.ring, M.rank(tgt), M.rank(src), terms)


def hat_matrices(M: XObject, mu: Weight) -> tuple[Mat, Mat, DeltaIndex]:
    """The raising/lowering matrices of the formal extension space at mu.

    The formal space is the direct sum of the upper neighbours (same block
    index as the delta space); the lowering matrix is the tautological
    identity and the raising matrix is assembled from the stored operators
    above mu via the commutation formula, one block per pair of upper
    neighbours, row block by row block.  The matrix is built in place: one
    dr x dr buffer of zeros, into which ``_accumulate`` adds every term of
    every block's sum (``_lusztig_terms``) at the block's offsets, and one
    ``Mat`` at the end.  The terms are operator words evaluated by
    ``_word``, a degree-0 factor skipped and an absent operator never
    built.  The F.E words go to the object's word memo (``_words``), which
    extension steps hand on: the product F_{a,n} E_{a,m} on a source src is
    the r-th term of Lusztig's sum at every weight src - (n + r)*alpha_a,
    r >= 0, and is evaluated once per build.  Each coefficient is read once
    per step.  A same-root block's r-th term goes through the weight
    mu + (m + n - r)*alpha_a; the blocks with alpha == a give the supported
    positions of mu's alpha_a-ladder, one set per simple root per step, and
    a term whose middle weight is off it is a zero word and is skipped
    unread (on A1 (14) over ``int:5``, 2380 of the build's 4627 terms).
    """
    ring = M.ring
    index = _delta_index(M, mu)
    dr = sum(b.rank for b in index)
    ups = [M.rs.add_root(mu, blk.alpha, blk.n) for blk in index]
    ladders: list[set[int]] = [set() for _ in range(M.rs.rank)]
    for blk in index:
        ladders[blk.alpha].add(blk.n)
    words = M._words
    memos = [words.setdefault(src, {}) for src in ups]
    coeffs: dict = {}
    z = ring.zero()
    acc = [[z] * dr for _ in range(dr)]
    for rb, tgt in zip(index, ups):
        ladder = ladders[rb.alpha]
        for cb, src, memo in zip(index, ups, memos):
            _accumulate(ring, acc, rb.offset, cb.offset, rb.rank, cb.rank, _lusztig_terms(
                M, mu, rb.alpha, cb.alpha, rb.n, cb.n, src, tgt, memo, coeffs, ladder))
    return Mat(ring, dr, dr, tuple(map(tuple, acc))), Mat.identity(ring, dr), index


# ---------------------------------------------------------------------------
# Extension steps
# ---------------------------------------------------------------------------


def _inherit(M: XObject, child: XObject, mu: Weight) -> XObject:
    """child, which is M extended at mu, with M's caches handed on.

    The support index gains mu when mu is new to the support.  The word
    memo moves from M to child, so two steps from one parent never read
    each other's words.  A memo word on src reads only E keyed at src and
    F keyed at its target, both supported when the word was evaluated,
    which was before the step at mu; a step stores operators keyed at mu
    only, so every memo word keeps its value in child.
    """
    cache = M.__dict__
    words = cache.pop("_words", None)
    if words is not None:
        child.__dict__["_words"] = words
    strings = cache.get("_strings")
    if strings is not None and child.rank(mu) and not M.rank(mu):
        grown = []
        for a, by_base in enumerate(strings):
            p = mu[a] // 2
            base = M.rs.add_root(mu, a, -p)
            pos = by_base.get(base, ())
            i = bisect_right(pos, p)
            grown.append({**by_base, base: pos[:i] + (p,) + pos[i:]})
        strings = tuple(grown)
    if strings is not None:
        child.__dict__["_strings"] = strings
    return child


def _store_blocks(
    M: XObject, mu: Weight, index: DeltaIndex, e_mu: Mat, f_mu: Mat, adjoined: Mat
) -> XObject:
    """Store a nonzero space at mu: generators raising by e_mu and lowering by
    f_mu, then one more per column of adjoined, raising to that column and
    lowering to zero."""
    e_mu = hstack([e_mu, adjoined])
    f_mu = vstack([f_mu, Mat.zero(M.ring, adjoined.cols, adjoined.rows)])
    spaces = dict(M.spaces)
    eops = dict(M.eops)
    fops = dict(M.fops)
    spaces[mu] = e_mu.cols
    for b in index:
        rows = range(b.offset, b.offset + b.rank)
        eops[(mu, b.alpha, b.n)] = e_mu.take_rows(rows)
        fops[(mu, b.alpha, b.n)] = f_mu.take_cols(rows)
    return _inherit(M, replace(
        M, spaces=spaces, eops=eops, fops=fops, region=M.region | {mu}
    ), mu)


def _extend(M: XObject, mu: Weight, saturate: bool) -> XObject:
    """One extension step at mu, read off one SNF U @ ehat @ V = diag(pi**e)
    of the assembled raising matrix.

    The new space is free on the first r = rank(ehat) columns of V: it
    raises by ehat @ V[:, :r] and lowers by Vinv[:r, :].  That raising image
    equals Uinv[:, :r] @ diag(pi**e), which is how it is computed, so the
    columns Uinv[:, :r] are a basis of its saturation, and the k columns with
    e > 0 span the saturation modulo the image.  Saturating adjoins one
    generator per such column, raising to it and lowering to zero.
    """
    M.rs.check_weight(mu)
    if mu in M.region:
        raise XCatError(f"weight {mu} already present")
    ehat, _, index = hat_matrices(M, mu)
    snf = linalg.smith_normal_form(ehat, track=("Uinv", "Vinv"))
    r = snf.rank
    if r == 0:
        return _inherit(M, replace(M, region=M.region | {mu}), mu)
    scale = [M.ring.uniformizer() ** e if e else None for e in snf.exponents]
    raised = Mat.from_rows(M.ring, [
        [x if d is None else x * d for x, d in zip(row, scale)]
        for row in snf.Uinv.entries], cols=r)
    k = sum(d is not None for d in scale) if saturate else 0
    return _store_blocks(M, mu, index, raised,
                         snf.Vinv.take_rows(range(r)), snf.Uinv.take_cols(range(r - k, r)))


def minimal_extend(M: XObject, mu: Weight) -> XObject:
    """Adjoin mu with the smallest possible weight space.

    The new space is the formal upper-neighbour sum modulo the kernel of the
    assembled raising matrix, realized as a free module on the complementary
    columns of the kernel's SNF transformation; the lowering operator is
    surjective by construction and the raising operator is injective.
    """
    return _extend(M, mu, saturate=False)


def maximal_extend(M: XObject, mu: Weight) -> XObject:
    """Adjoin mu with the torsion-free-saturated weight space.

    First extend minimally, then adjoin one free generator per nonzero
    invariant factor of the saturation of the raising image inside the
    upper-neighbour sum; the new generators raise to the saturation basis
    vectors (ordered as in the SNF) and lower to zero.  Both parts are read
    off the same SNF.
    """
    return _extend(M, mu, saturate=True)


# ---------------------------------------------------------------------------
# Full builds
# ---------------------------------------------------------------------------


def _seed(rs: RootSystem, ring: GroundRing, lam: Weight) -> XObject:
    rs.check_weight(lam)
    return XObject(
        ring=ring, rs=rs, spaces={lam: 1}, eops={}, fops={},
        region=frozenset({lam}), top=lam,
    )


def _build(
    rs: RootSystem, ring: GroundRing, lam: Weight, step,
    prune: bool, height_bound: int | None,
) -> XObject:
    """The build driver: the region ``weights_below(lam)``, the rank-1 seed
    at lam, then ``M = step(M, mu)`` at every later weight of the region.
    The object returned carries no word memo, so its checks evaluate their
    own words."""
    M = _seed(rs, ring, lam)  # checks the length of lam before it is printed
    if not rs.is_dominant(lam):
        raise XCatError(f"{lam} is not dominant; full builds are refused")
    order = weights_below(rs, lam, prune_hull=prune, height_bound=height_bound)
    for mu in order[1:]:
        M = step(M, mu)
    M.__dict__.pop("_words", None)
    return M


def verify_frontier(M: XObject) -> None:
    """Recompute one height level beyond the processed region and insist the
    would-be weight spaces are zero, turning the build's region into a
    checked claim for this object.  Raises XCatError otherwise, naming the
    weight but no cause: pruning or a height bound can each leave a nonzero
    space below the region.  The hat matrices are evaluated with a word memo
    of their own, and M's word memo is left as it was."""
    if M.top is None:
        raise XCatError("frontier verification needs an object with a top weight")
    rs = M.rs
    cands = set()
    for mu in M.region:
        for i in range(rs.rank):
            nu = rs.add_root(mu, i, -1)
            if nu not in M.region and dominance_leq(rs, nu, M.top):
                cands.add(nu)
    cache = M.__dict__
    words = cache.pop("_words", None)
    try:
        for nu in sorted(cands):
            # The fraction-field rank of ehat is 0 exactly when every entry is.
            ehat, _, _ = hat_matrices(M, nu)
            if not ehat.is_zero():
                raise XCatError(f"nonzero weight space one level below the region, at {nu}")
    finally:
        cache.pop("_words", None)
        if words is not None:
            cache["_words"] = words


def build_smin(
    rs: RootSystem,
    ring: GroundRing,
    lam: Weight,
    prune: bool = True,
    height_bound: int | None = None,
) -> XObject:
    """The minimal object with rank-1 top lam: the Weyl module W(lam)."""
    return _build(rs, ring, lam, minimal_extend, prune, height_bound)


def build_smax(
    rs: RootSystem,
    ring: GroundRing,
    lam: Weight,
    prune: bool = True,
    height_bound: int | None = None,
) -> XObject:
    """The maximal object with rank-1 top lam: the indecomposable tilting
    module T(lam) over a local generic ring (coincides with build_smin over
    a field)."""
    return _build(rs, ring, lam, maximal_extend, prune, height_bound)


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------


def restrict(M: XObject, keep: list[Weight] | frozenset[Weight]) -> XObject:
    """Restrict to a subset of weights that is closed within the support."""
    keep_set = frozenset(keep)
    for nu in keep_set:
        if nu not in M.region:
            raise XCatError(f"{nu} is not in the object's region")
    for nu in keep_set:
        for omega in M.spaces:
            if omega not in keep_set and omega != nu and dominance_leq(M.rs, nu, omega):
                raise XCatError(
                    f"weight set is not closed: {omega} lies above {nu} but was dropped"
                )
    spaces = {w: r for w, r in M.spaces.items() if w in keep_set}
    eops = {k: v for k, v in M.eops.items()
            if k[0] in keep_set and M.rs.add_root(k[0], k[1], k[2]) in keep_set}
    fops = {k: v for k, v in M.fops.items()
            if k[0] in keep_set and M.rs.add_root(k[0], k[1], k[2]) in keep_set}
    top = M.top if M.top in keep_set else None
    return XObject(M.ring, M.rs, spaces, eops, fops, keep_set, top)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


def _x2_failures(M: XObject, unit: bool = False):
    """Yield (mu, a, b, m, n, source) for every commutation identity that
    fails, over the instances that can be nonzero and belong to the
    object's index set; with unit, only those with m = n = 1.

    The bottom weight mu must lie in the closed set the object is defined
    on (the upward closure of its region: restrictions to smaller closed
    sets drop the identities below them), and the source mu + n*alpha_b and
    target mu + m*alpha_a must both be supported, else every term vanishes:
    m runs over the ladder of mu along alpha_a.

    Each identity compares the word E_{a,m} F_{b,n} exactly against the
    normal-ordered side, both evaluated by ``_word``.  The loop runs over
    sources, and the F.E words of the normal-ordered side are memoized for
    the current source only: a word shared by the identities
    (mu + r*alpha, m - r, n - r) is evaluated once.  The coefficients of
    Lusztig's sums are read once per source, as ``hat_matrices`` reads them
    once per step.
    """
    rs = M.rs
    bound = 2 if unit else 2 * M.max_op_index() + 2
    in_index: dict[Weight, bool] = {}
    region = [rs.lattice_coords(w) for w in M.region]

    def index_member(mu: Weight) -> bool:
        hit = in_index.get(mu)
        if hit is None:
            y = rs.lattice_coords(mu)
            hit = mu in M.region or any(rs.lattice_leq(x, y) for x in region)
            in_index[mu] = hit
        return hit

    for src in M.spaces:
        # Every product on src is keyed by src, so the memo is cleared here.
        memo, coeffs = {}, {}
        for b in range(rs.rank):
            for n in range(1, bound):
                mu = rs.add_root(src, b, -n)
                if not index_member(mu):
                    break  # the index set is closed upward, and mu falls with n
                for a in range(rs.rank):
                    for m in M.ladder(mu, a):
                        if m >= bound:
                            break
                        tgt = rs.add_root(mu, a, m)
                        lhs = _word(M, src, (("F", b, n, mu), ("E", a, m, tgt)))
                        rhs = _commutation_rhs(M, mu, a, b, m, n, src, tgt, memo, coeffs)
                        if not _same(lhs, rhs):
                            yield mu, a, b, m, n, src


def _divided_power_failures(M: XObject, unit: bool = False):
    """Yield (kind, mu, a, m, n) for every divided-power rule that fails:
    E_{a,m} E_{a,n} = [m + n choose n]_{d_a} E_{a,m+n} on mu (kind "E") and
    F_{a,m} F_{a,n} = [m + n choose n]_{d_a} F_{a,m+n} onto mu (kind "F"),
    for every supported mu with m + n on its ladder along alpha_a; with
    unit, only those with n = 1."""
    ring, rs = M.ring, M.rs
    for mu in sorted(M.spaces):
        for a in range(rs.rank):
            lad = M.ladder(mu, a)
            last = lad[-1] if lad else 0
            for n in range(1, min(last, 2) if unit else last):
                for m in (k - n for k in lad if k > n):
                    top = rs.add_root(mu, a, m + n)
                    coeff = _qb(ring, m + n, n, rs.d[a])
                    mid = rs.add_root(mu, a, n)
                    low = rs.add_root(mu, a, m)
                    for kind, src, word, whole in (
                            ("E", mu, (("E", a, n, mid), ("E", a, m, top)), ("E", a, m + n, top)),
                            ("F", top, (("F", a, n, low), ("F", a, m, mu)), ("F", a, m + n, mu))):
                        rows, cols, prod = _word(M, src, (whole,))
                        rhs = rows, cols, None if prod is None else prod.scale(coeff)
                        if not _same(_word(M, src, word), rhs):
                            yield kind, mu, a, m, n


def _well_shaped(M: XObject) -> bool:
    """Whether every stored operator is keyed by a simple root and an index
    n >= 1, is over M's ring and has the shape its endpoint ranks give, as
    the loaders insist."""
    rs, ring, rank = M.rs, M.ring, M.spaces.get
    for kind, ops in (("E", M.eops), ("F", M.fops)):
        for (mu, a, n), op in ops.items():
            if n < 1 or not 0 <= a < rs.rank:
                return False
            low, up = rank(mu, 0), rank(rs.add_root(mu, a, n), 0)
            if (op.rows, op.cols) != ((up, low) if kind == "E" else (low, up)):
                return False
            if op.ring is not ring and op.ring != ring:
                return False
    return True


# The ring kinds of quantum characteristic 0, listed one by one: a kind
# added later takes the full loops until it is shown to belong here.
_QUANTUM_CHAR_0 = frozenset({RingKind.GENERIC_FIELD, RingKind.RATIONAL_FIELD,
                             RingKind.CYCLOTOMIC_LOCAL, RingKind.INTEGER_LOCAL})


def _generator_certificate(M: XObject) -> bool:
    """Whether the relations on the generators E_{a,1}, F_{a,1} hold: the
    commutation identities with m = n = 1 over the index set of
    ``_x2_failures``, and the divided-power rule with n = 1 at every
    supported weight, E_{a,m} E_{a,1} = [m + 1]_{d_a} E_{a,m+1} and
    F_{a,m} F_{a,1} = [m + 1]_{d_a} F_{a,m+1}.  An identity that raises
    ``LinAlgError`` or ``RingError`` fails the certificate, and so does an
    operator that is not a map between its weight spaces (``_well_shaped``),
    which the full loops report or raise on.

    When it holds, every commutation identity and every divided-power rule
    holds, so ``check_axioms`` and ``verify_relations`` need not evaluate
    them.  The argument needs quantum characteristic 0: every quantum
    factorial [k]_d! is nonzero in the fraction field K of the ring.  All
    four ring kinds have it (v is an indeterminate, or v = 1 over a field
    of characteristic 0); the certificate fails on a kind not listed in
    ``_QUANTUM_CHAR_0``, so such a kind always takes the full loops.
    Over K:

    * by induction on m, the n = 1 rule gives E_{a,m} = E_{a,1}^m / [m]_{d_a}!
      and F_{a,m} = F_{a,1}^m / [m]_{d_a}! at every weight (on an
      unsupported weight both sides are maps from or to a zero space), and
      the rule for every (m, n) follows;
    * with the divided powers written so, Lusztig's formula for
      E_{a,m} F_{b,n} (Lusztig, Geom. Dedicata 35, 1990) follows from
      [E_{a,1}, F_{b,1}] = delta_ab [K_a; 0], by moving one E_{a,1} past
      one F_{b,1} at a time.  On the source mu + n*alpha_b of the identity
      with bottom weight mu, each move is an m = n = 1 identity whose
      bottom weight, the weight its F reaches, is mu plus a nonnegative
      combination of alpha_a and alpha_b.  That weight is >= mu, so it
      lies in the index set, which is closed upward, and the identity there
      was checked (or both of its sides are maps from or to a zero space).

    The weight spaces are free modules over a domain and embed in their
    K-spans, so an identity that holds over K holds over the ring.
    """
    if M.ring.kind not in _QUANTUM_CHAR_0:
        return False
    try:
        if next(_x2_failures(M, unit=True), None) is not None:
            return False
        if next(_divided_power_failures(M, unit=True), None) is not None:
            return False
    except (linalg.LinAlgError, RingError):
        return False
    return _well_shaped(M)


def check_axioms(M: XObject) -> Report:
    """Check the three structural axioms from the stored matrices.

    * finiteness of the weight support and of every rank,
    * the commutation identities between raising and lowering operators for
      every degree pair that can act nontrivially, decided once per object
      (``verify_relations`` on the same object reads the same result).  In
      quantum characteristic 0, which all four ring kinds have, the
      identities with m = n = 1 and the divided-power rule with n = 1 imply
      all of them (the generator theorem, proved at
      ``_generator_certificate``; a kind without that hypothesis does not
      take this shortcut).  So these are evaluated first; only when one
      fails are all identities evaluated, which names the failed ones,
    * at every weight: raising is injective on the lowering image (checked
      by rank), the raising image of the whole space is torsion over the
      raising image of the lowering image (fraction-field rank equality),
      and the lowering image is a direct summand (empty saturation
      exponents).  E is ranked on the saturation basis of im F, which
      spans im F over the fraction field.  When F_mu has full rank
      (rank(F_mu) = rows of F_mu = columns of E_mu) that basis is all of
      the unimodular Uinv, so rank(E_mu S) = rank(E_mu) and X3 reads the
      rank of E_mu's SNF with no product and no further rank; otherwise it
      ranks the product.  The SNFs of E_mu and F_mu stay in the object's
      local cache, where the certificates and ``weyl_multiplicities`` read
      them.
    """
    rep = Report()
    rep.add("X1", None, True, f"{len(M.spaces)} weights, all ranks finite")

    for mu, a, b, m, n, src in M._x2:
        rep.add("X2", mu, False, f"alpha={a} beta={b} m={m} n={n} source={src}")
    rep.close("X2")

    for mu in sorted(M.region):
        loc = _local_at(M, mu)
        if loc.e.rows == 0 or loc.e.cols == 0:
            continue
        f_snf = loc.f_snf
        rank_f, rank_e = f_snf.rank, loc.e_snf.rank
        if rank_f == loc.f.rows == loc.e.cols:
            rank_ef = rank_e  # the saturation basis is all of the unimodular Uinv
        else:
            rank_ef = linalg.rank(loc.e @ f_snf.Uinv.take_cols(range(rank_f)))
        exps = _positive(f_snf)
        if rank_ef != rank_f:
            rep.add("X3a", mu, False, f"rank(EF)={rank_ef} < rank(F)={rank_f}")
        if rank_ef != rank_e:
            rep.add("X3b", mu, False, f"rank(EF)={rank_ef} != rank(E)={rank_e}")
        if exps:
            rep.add("X3c", mu, False, f"saturation exponents {exps}")
    for check in ("X3a", "X3b", "X3c"):
        rep.close(check)
    return rep


def verify_relations(M: XObject) -> Report:
    """Exact operator-relation suite on every stored weight space: the
    commutation identities for all degrees up to the support bound, the
    divided-power composition rule, and the quantized Serre relations in
    both directions.  Together these certify that the stored matrices define
    an action of the full divided-power algebra.  Each side of a relation
    is a signed sum of operator words evaluated by ``_word``.  The
    commutation identities are those of X2 in ``check_axioms``, decided
    once per object, whichever of the two runs first.

    In quantum characteristic 0, which all four ring kinds have, the
    commutation identities with m = n = 1 and the divided-power rule with
    n = 1 imply every commutation identity and every divided-power rule
    (the generator theorem, proved at ``_generator_certificate``; a kind
    without that hypothesis does not take this shortcut).  When they hold,
    neither is evaluated again; otherwise both full loops run and name every
    failed instance.  The Serre relations are always evaluated."""
    rep = Report()
    ring, rs = M.ring, M.rs

    for mu, a, b, m, n, _ in M._x2:
        rep.add("commutation", mu, False, f"alpha={a} beta={b} m={m} n={n}")
    rep.close("commutation")

    if not M._generators_hold:
        for kind, mu, a, m, n in _divided_power_failures(M):
            rep.add(f"divided-power-{kind}", mu, False, f"alpha={a} m={m} n={n}")
    rep.close("divided-power", "divided-power-E", "divided-power-F")

    minus_one = ring.from_int(-1)
    for mu in sorted(M.spaces):
        for a in range(rs.rank):
            for b in range(rs.rank):
                if a == b:
                    continue
                nab = 1 - rs.cartan[a][b]
                tgt = rs.add_root(rs.add_root(mu, a, nab), b, 1)
                if M.rank(tgt) == 0 or M.rank(mu) == 0:
                    continue
                e_terms, f_terms = [], []
                for s in range(nab + 1):
                    sign = minus_one if s % 2 else None
                    w1 = rs.add_root(mu, a, nab - s)
                    w2 = rs.add_root(w1, b, 1)
                    e_terms.append((sign, _word(M, mu, (
                        ("E", a, nab - s, w1), ("E", b, 1, w2), ("E", a, s, tgt)))))
                    w1 = rs.add_root(mu, a, s)
                    w2 = rs.add_root(w1, b, 1)
                    f_terms.append((sign, _word(M, tgt, (
                        ("F", a, nab - s, w2), ("F", b, 1, w1), ("F", a, s, mu)))))
                for kind, terms, shape in (("E", e_terms, (M.rank(tgt), M.rank(mu))),
                                           ("F", f_terms, (M.rank(mu), M.rank(tgt)))):
                    if not _same(_sum(ring, *shape, terms), (*shape, None)):
                        rep.add(f"serre-{kind}", mu, False, f"alpha={a} beta={b}")
    rep.close("serre", "serre-E", "serre-F")
    return rep


# ---------------------------------------------------------------------------
# Certificates, multiplicities, characters
# ---------------------------------------------------------------------------


def minimality_certificate(M: XObject) -> Report:
    """At every weight, the raising image of the lowering image must equal
    the raising image of the whole space (equal fraction-field ranks and
    empty relative invariants).

    F_mu's SNF is read first.  When F_mu is onto (rank rank(mu), every
    exponent 0), im(E_mu F_mu) = E_mu(M_mu) = im E_mu and the weight passes
    with no further SNF; a Weyl module is generated by its top vector, so
    this holds at every weight of ``build_smin``.  Otherwise the relative
    invariants of im(E_mu F_mu) in im E_mu are computed."""
    rep = Report()
    for mu in sorted(M.region):
        loc = _local_at(M, mu)
        if loc.e.rows == 0:
            continue
        if loc.f_snf.rank == M.rank(mu) and not any(loc.f_snf.exponents):
            continue
        # E_mu @ F_mu lies in the span of E_mu, so the only LinAlgError is
        # the non-torsion quotient: "fraction-field ranks differ".
        try:
            inv = linalg.relative_invariants(loc.e @ loc.f, loc.e)
        except linalg.LinAlgError as exc:
            rep.add("minimal", mu, False, str(exc))
            continue
        if inv:
            rep.add("minimal", mu, False, f"relative invariants {inv}")
    rep.close("minimal")
    return rep


def maximality_certificate(M: XObject) -> Report:
    """At every weight, the raising image must be saturated in the
    upper-neighbour sum (empty saturation exponents)."""
    rep = Report()
    for mu in sorted(M.region):
        loc = _local_at(M, mu)
        if loc.e.rows == 0:
            continue
        exps = _positive(loc.e_snf)
        if exps:
            rep.add("maximal", mu, False, f"saturation exponents {exps}")
    rep.close("maximal")
    return rep


def weyl_multiplicities(M: XObject) -> dict[Weight, int]:
    """Rank of M_mu / im F_mu per weight; these are the Weyl-filtration
    multiplicities.  Raises when any quotient has torsion."""
    out: dict[Weight, int] = {}
    for mu in sorted(M.spaces):
        snf = _local_at(M, mu).f_snf
        exps = _positive(snf)
        if exps:
            raise XCatError(f"M_mu / im F_mu has torsion at {mu}: {exps}")
        mult = M.rank(mu) - snf.rank
        if mult:
            out[mu] = mult
    return out


def character(M: XObject) -> dict[Weight, int]:
    return {mu: M.spaces[mu] for mu in sorted(M.spaces)}


def direct_sum(M: XObject, N: XObject) -> XObject:
    """Block-diagonal direct sum (same ring and root system)."""
    if M.ring != N.ring or M.rs != N.rs:
        raise XCatError("direct sum needs matching ring and root system")
    spaces: dict[Weight, int] = dict(M.spaces)
    for w, r in N.spaces.items():
        spaces[w] = spaces.get(w, 0) + r
    region = M.region | N.region
    eops: dict[OpKey, Mat] = {}
    fops: dict[OpKey, Mat] = {}
    keys = set(M.eops) | set(N.eops) | set(M.fops) | set(N.fops)
    for (mu, a, n) in keys:
        e = block_diag(M.ring, [M.eop(mu, a, n), N.eop(mu, a, n)])
        if not e.is_zero():
            eops[(mu, a, n)] = e
        f = block_diag(M.ring, [M.fop(mu, a, n), N.fop(mu, a, n)])
        if not f.is_zero():
            fops[(mu, a, n)] = f
    return XObject(M.ring, M.rs, spaces, eops, fops, region, None)


# ---------------------------------------------------------------------------
# Base change
# ---------------------------------------------------------------------------


def base_change_to_field(M: XObject) -> XObject:
    """Flat base change to the fraction field of ``M.ring``; ``M`` itself
    when the ring is already a field.  Over the fraction field a maximal
    object splits into Weyl modules."""
    fk = M.ring.fraction_field()
    if fk == M.ring:
        return M

    def conv(mat: Mat) -> Mat:
        return Mat.from_rows(
            fk, [[to_fraction_field(e) for e in row] for row in mat.entries],
            cols=mat.cols)

    return replace(M, ring=fk, eops={k: conv(v) for k, v in M.eops.items()},
                   fops={k: conv(v) for k, v in M.fops.items()})


# ---------------------------------------------------------------------------
# Morphism extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Obstructed:
    """Extension obstruction: the image of a raising generator does not land
    in the raising image of the target."""

    weight: Weight
    witness: Mat


HomMap = dict[Weight, Mat]


def verify_hom(M: XObject, N: XObject, f: HomMap) -> Report:
    """Check the commuting squares of a graded map on the weights of f."""
    rep = Report()
    dom = set(f)
    for mu in sorted(dom):
        for a in range(M.rs.rank):
            for n in set(M.ladder(mu, a)) | set(N.ladder(mu, a)):
                up = M.rs.add_root(mu, a, n)
                if up not in dom:
                    continue
                f_up = _hom_at(f, N, M, up)
                f_mu = _hom_at(f, N, M, mu)
                if f_up @ M.eop(mu, a, n) != N.eop(mu, a, n) @ f_mu:
                    rep.add("hom-E", mu, False, f"alpha={a} n={n}")
                if f_mu @ M.fop(mu, a, n) != N.fop(mu, a, n) @ f_up:
                    rep.add("hom-F", mu, False, f"alpha={a} n={n}")
    rep.close("hom", "hom-E", "hom-F")
    return rep


def _hom_at(f: HomMap, N: XObject, M: XObject, mu: Weight) -> Mat:
    m = f.get(mu)
    if m is not None:
        return m
    return Mat.zero(M.ring, N.rank(mu), M.rank(mu))


def extend_hom(f: HomMap, M: XObject, N: XObject, mu: Weight) -> HomMap | Obstructed:
    """Extend a verified graded morphism, defined above mu, across mu.

    Follows the unique factorization over the lowering image and lifts
    freely on a complement; the single obstruction is that the transported
    raising image must lie inside the target's raising image, tested by
    exact solvability.  The particular solution with zero free coordinates
    makes the output deterministic."""
    index_m, em, fm = delta_space(M, mu)
    index_n, en, fn = delta_space(N, mu)
    # f on the upper-neighbour sums: both indices are ordered by (alpha, n),
    # and a neighbour one side lacks gives a block with no rows or columns.
    ups = sorted({(b.alpha, b.n) for b in index_m} | {(b.alpha, b.n) for b in index_n})
    fd = block_diag(M.ring, [_hom_at(f, N, M, M.rs.add_root(mu, a, n)) for a, n in ups])

    # Obstruction test on the raising generators; their lifts also give the
    # images of the complement, since solving is linear in the right-hand side.
    moved = fd @ em
    lifted = linalg.solve_in_span(en, moved)
    if lifted is None:
        j = next(j for j in range(moved.cols)
                 if linalg.solve_in_span(en, moved.col(j)) is None)
        return Obstructed(mu, moved.col(j))

    # U @ fm @ V = [I 0]: Uinv is a basis of M_mu whose first k columns span
    # the lowering image, fm @ V[:, :k] == Uinv[:, :k], and Uinv has inverse U.
    snf = linalg.smith_normal_form(fm, track=("U", "Uinv", "V"))
    if any(snf.exponents):
        raise XCatError(f"lowering image is not a direct summand at {mu}")
    k = snf.rank
    images = hstack([fn @ (fd @ snf.V.take_cols(range(k))),
                     lifted @ snf.Uinv.take_cols(range(k, M.rank(mu)))])
    f_mu = images @ snf.U

    if en @ f_mu != fd @ em or f_mu @ fm != fn @ fd:
        raise XCatError(
            f"extension squares fail at {mu}; the input was not a morphism"
        )
    out = dict(f)
    out[mu] = f_mu
    return out


def extend_hom_down(M: XObject, N: XObject, f_top: Mat) -> HomMap | Obstructed:
    """Extend a map given at the common top weight over the whole common
    region, processing weights downward."""
    if M.ring != N.ring or M.rs.cartan != N.rs.cartan:
        raise XCatError("objects must share a ring and Cartan matrix")
    if M.top is None or M.top != N.top:
        raise XCatError("objects must share a top weight")
    if M.region != N.region:
        raise XCatError("objects must share a weight region")
    order = sorted(
        M.region,
        key=lambda w: (M.rs.height(tuple(t - x for t, x in zip(M.top, w))), w),
    )
    f: HomMap = {M.top: f_top}
    for mu in order[1:]:
        res = extend_hom(f, M, N, mu)
        if isinstance(res, Obstructed):
            return res
        f = res
    return f
