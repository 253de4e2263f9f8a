"""Symmetric contravariant bilinear forms on graded objects.

A form is stored as one Gram matrix per weight (cross-weight pairings vanish
by definition of the representation).  Contravariance means every raising
operator is adjoint to the matching lowering operator:

    Gram[mu + n*alpha] @ E[(mu, alpha, n)] == F[(mu, alpha, n)].T @ Gram[mu].

The two constructive operations mirror the extension steps of
:mod:`qtilt.xcat`: a form extends uniquely along a minimal extension, and
over a local ring a non-degenerate form can be pushed through a full
saturated build (``build_smax_with_form``), certifying self-duality of the
result.
"""

from __future__ import annotations

from . import linalg
from .linalg import Mat, block_diag, hstack, vstack
from .ring import GroundRing
from .rootsys import Weight
from .xcat import (
    Report,
    XObject,
    _build,
    _store_blocks,
    delta_space,
    maximality_certificate,
    minimal_extend,
)

GradedForm = dict[Weight, Mat]


class FormError(ValueError):
    pass


def _gram(b: GradedForm, M: XObject, mu: Weight) -> Mat:
    g = b.get(mu)
    if g is None:
        return Mat.zero(M.ring, M.rank(mu), M.rank(mu))
    return g


def _shape_fault(g: Mat, M: XObject, mu: Weight) -> str | None:
    """Why g cannot be the Gram matrix at mu, or None when its shape fits."""
    if g.rows != M.rank(mu) or g.cols != M.rank(mu):
        return f"Gram is {g.rows}x{g.cols}, space has rank {M.rank(mu)}"
    return None


def _gram_delta(b: GradedForm, M: XObject, mu: Weight, index) -> Mat:
    """Block-diagonal Gram matrix on the upper-neighbour sum; a Gram of the
    wrong shape raises FormError naming its weight."""
    ups = [M.rs.add_root(mu, blk.alpha, blk.n) for blk in index]
    for up in ups:
        fault = _shape_fault(_gram(b, M, up), M, up)
        if fault:
            raise FormError(f"form at {up}: {fault}")
    return block_diag(M.ring, [_gram(b, M, up) for up in ups])


def check_form(M: XObject, b: GradedForm) -> Report:
    """Verify symmetry and exact contravariance; report per-weight
    non-degeneracy and the radical rank.  Contravariance is checked for
    every operator stored as E or as F, an absent one being zero.  A weight
    whose Gram fails ``form-shape`` is left out of both later checks."""
    rep = Report()
    misshapen = set()
    for mu in sorted(set(M.spaces) | set(b)):
        g = _gram(b, M, mu)
        fault = _shape_fault(g, M, mu)
        if fault:
            rep.add("form-shape", mu, False, fault)
            misshapen.add(mu)
            continue
        if g != g.T:
            rep.add("form-symmetric", mu, False)
    rep.close("form-symmetric")
    for mu, a, n in sorted(set(M.eops) | set(M.fops)):
        up = M.rs.add_root(mu, a, n)
        if mu in misshapen or up in misshapen:
            continue
        lhs = _gram(b, M, up) @ M.eop(mu, a, n)
        rhs = M.fop(mu, a, n).T @ _gram(b, M, mu)
        if lhs != rhs:
            rep.add("form-contravariant", mu, False, f"alpha={a} n={n}")
    rep.close("form-contravariant")
    for mu in sorted(M.spaces.keys() - misshapen):
        g = _gram(b, M, mu)
        snf = linalg.smith_normal_form(g, track=())
        nondeg = snf.rank == g.rows and not any(snf.exponents)
        rep.add("form-nondegenerate", mu, nondeg,
                f"radical rank {g.cols - snf.rank}" if not nondeg else None)
    return rep


def extend_form_minimal(M: XObject, b: GradedForm, mu: Weight) -> GradedForm:
    """The unique contravariant extension of b across the minimal extension
    at mu.

    M must already be extended across mu (``minimal_extend(M, mu)``).  The
    Gram matrix at mu is forced: pairing two lowered vectors must equal the
    pairing of one against the raise-then-lower image of the other.
    """
    if mu not in M.region:
        raise FormError(f"object is not extended across {mu}")
    index, e_mu, f_mu = delta_space(M, mu)
    g_delta = _gram_delta(b, M, mu, index)
    # Columns x_i with F_mu @ x_i = e_i, the chosen basis of the new space.
    lifts = linalg.solve_in_span(f_mu, Mat.identity(M.ring, M.rank(mu)))
    if lifts is None:
        raise FormError("lowering operator is not surjective at the new weight")
    out = dict(b)
    out[mu] = lifts.T @ g_delta @ e_mu
    return out


def complete_nondegenerate(
    M: XObject, b: GradedForm, mu: Weight
) -> tuple[XObject, GradedForm]:
    """Extend across mu keeping the form non-degenerate.

    When the forced extension of the form is already non-degenerate this is
    just the minimal extension.  Otherwise (over a local ring) the weight
    space is enlarged by a free module dual to the residue radical, paired
    hyperbolically against it; the new generators raise to the unique
    vectors adjoint to lowering, solved through the inverse of the
    non-degenerate Gram matrix on the upper-neighbour sum.
    """
    Mt = minimal_extend(M, mu)
    bt = extend_form_minimal(Mt, b, mu)
    g = bt[mu]
    snf = linalg.smith_normal_form(g, track=("Vinv",))
    if snf.rank == g.rows and not any(snf.exponents):
        return Mt, bt
    if M.ring.is_field:
        raise FormError("degenerate extension over a field: input form degenerate")
    index, e_mu, f_mu = delta_space(Mt, mu)
    r = Mt.rank(mu)
    g_delta = _gram_delta(bt, Mt, mu, index)
    try:
        g_delta_inv = linalg.inverse_unit(g_delta)
    except linalg.LinAlgError:
        raise FormError("form degenerate on the upper-neighbour sum") from None
    if snf.rank != r:
        raise FormError("Gram radical nonzero; input form was degenerate")
    # Residue radical = span of the V-columns with positive exponent; their
    # count is the rank of the hyperbolic partner S.
    rad_idx = [t for t, e in enumerate(snf.exponents) if e > 0]
    k = len(rad_idx)
    # Pair the i-th new generator against the rad_idx[i]-th V-column:
    # b(e_a, s_i) = (Vinv @ e_a)[rad_idx[i]].
    w_rows = snf.Vinv.take_rows(rad_idx)          # k x r
    pairing = w_rows.T                            # r x k
    gram_new = vstack([
        hstack([g, pairing]),
        hstack([pairing.T, Mat.zero(M.ring, k, k)]),
    ])
    # New raising columns: G_delta @ E'(s_i) = (Vinv @ F_mu row picture).
    rhs = w_rows @ f_mu                           # k x dr
    e_prime = g_delta_inv @ rhs.T                 # dr x k
    M_new = _store_blocks(Mt, mu, index, e_mu, f_mu, e_prime)
    out = dict(bt)
    out[mu] = gram_new
    return M_new, out


def build_smax_with_form(
    rs, ring: GroundRing, lam: Weight,
    prune: bool = True, height_bound: int | None = None,
) -> tuple[XObject, GradedForm]:
    """Build the maximal object together with a non-degenerate symmetric
    contravariant form, by completing the form at every extension step.

    The result carries its own maximality certificate: a non-degenerate
    contravariant form forces the raising image to be saturated, so the
    object is isomorphic to the output of ``build_smax``.
    """
    b: GradedForm = {lam: Mat.identity(ring, 1)}

    def step(M: XObject, mu: Weight) -> XObject:
        nonlocal b
        M, b = complete_nondegenerate(M, b, mu)
        return M

    M = _build(rs, ring, lam, step, prune, height_bound)
    cert = maximality_certificate(M)
    if not cert.ok:
        raise FormError(f"form-carrying build failed maximality: {cert.failures()}")
    return M, b
