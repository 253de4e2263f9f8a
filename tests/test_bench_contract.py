"""The benchmark in bench/ measures the library from outside: bench/probe.py
wraps the module attributes named in its FUNCS table, reads the delta index
from ``hat_matrices(...)[2]`` and takes an extension step's weight from the
step's last argument.  These tests pin that contract, so a library change
cannot silently unhook the benchmark's counters.  They only read bench/."""

import importlib
import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qtilt import forms, serialize, xcat  # noqa: F401 (the probe wraps serialize)
from qtilt.rootsys import weights_below
from qtilt.xcat import DeltaBlock, hat_matrices

PROBE = Path(__file__).resolve().parent.parent / "bench" / "probe.py"


@pytest.fixture(scope="module")
def probe():
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_probe", PROBE)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = write
    return mod


def _resolve(dotted):
    layer, name = dotted.split(".")
    return getattr(importlib.import_module(f"qtilt.{layer}"), name, None)


def test_probe_names_resolve(probe):
    for layer, names in probe.FUNCS.items():
        for name in names:
            assert callable(_resolve(f"{layer}.{name}")), f"{layer}.{name}"
    for dotted in probe.STEP_FUNCS | probe.XCAT_EXTEND | probe.RANK_ONLY_CALLERS:
        assert callable(_resolve(dotted)), dotted


def test_hat_matrices_returns_the_delta_index_third(a2, cyc3):
    M = xcat.minimal_extend(xcat._seed(a2, cyc3, (1, 1)), (-1, 2))
    res = hat_matrices(M, (0, 0))
    assert isinstance(res, tuple) and len(res) == 3
    assert res[2] and all(isinstance(b, DeltaBlock) for b in res[2])
    assert sum(b.rank for b in res[2]) == res[0].cols


def test_step_functions_take_the_weight_last(probe):
    for dotted in probe.STEP_FUNCS:
        params = list(inspect.signature(_resolve(dotted)).parameters)
        assert params[-1] == "mu", dotted


def test_probe_sees_every_build_step(probe, a2, cyc3):
    lam = (1, 1)
    steps = len(weights_below(a2, lam, prune_hull=True)) - 1
    p = probe.Probe()
    p.install("count")
    try:
        for mod, name in ((xcat, "build_smin"), (xcat, "build_smax"),
                          (forms, "build_smax_with_form")):
            p.reset()
            getattr(mod, name)(a2, cyc3, lam)
            assert p.counts["xcat.steps"] == steps, name
            assert p.counts["xcat.hat"] == steps, name
        assert p.counts["forms.steps"] == steps
    finally:
        p.uninstall()


def test_probe_counts_every_snf(probe, a2, cyc3):
    # An SNF that bypasses the module attribute linalg.smith_normal_form
    # would lower these counts.  The build takes one SNF per step, and X3
    # two per weight: F_mu and E_mu.  F_mu has full rank at every weight of
    # this Weyl module, so its saturation basis is all of the unimodular
    # Uinv and X3 reads rank(E_mu) for the rank of E_mu against it, with no
    # product and no linalg.rank (ranking that product took a third SNF per
    # weight: (24, 70, 6)).  The minimality certificate then reads the SNF
    # of each F_mu that X3 took and finds it onto, so it takes none of its
    # own.
    p = probe.Probe()
    p.install("count")
    try:
        S = xcat.build_smin(a2, cyc3, (1, 1))
        xcat.check_axioms(S)
        xcat.minimality_certificate(S)
    finally:
        p.uninstall()
    assert (p.counts["linalg.snf"], p.counts["linalg.snf_cells"],
            p.counts["linalg.snf_rank_only"]) == (18, 56, 0)


def _matmuls(probe, M, *checks):
    """The running matmul count after each of checks, run in turn on M."""
    p = probe.Probe()
    p.install("count")
    out = []
    try:
        for check in checks:
            check(M)
            out.append(p.counts["linalg.matmul"])
    finally:
        p.uninstall()
    return tuple(out)


def _checker_matmuls(probe, M):
    """Matmuls in check_axioms, then in check_axioms and verify_relations on
    M, and in verify_relations alone on a fresh copy of M."""
    both = _matmuls(probe, M, xcat.check_axioms, xcat.verify_relations)
    return both + _matmuls(probe, replace(M), xcat.verify_relations)


def test_probe_counts_x2_products(probe, a1, cyc3):
    # The relations of check_axioms and verify_relations go through the
    # wrapped Mat.__matmul__, none with an identity or an absent factor.  On
    # a valid object they are decided by the generator certificate, once
    # per object: the commutation identities with m = n = 1 and the
    # divided-power rule with n = 1.  verify_relations after check_axioms
    # multiplies only for the Serre relations (none on A1), and on a fresh
    # object it pays for the certificate itself.  Evaluating every identity
    # and every divided-power rule took (296, 464, 456).  X3 multiplies
    # nothing here: F_mu has full rank at every weight, so it reads rank(E_mu)
    # (ranking E_mu against the saturation basis of im F_mu took (79, 79, 71)).
    M = xcat.build_smax(a1, cyc3, (8,))
    assert _checker_matmuls(probe, M) == (71, 71, 71)


def test_probe_counts_no_product_with_an_absent_operator(probe, b2, cyc3):
    # Unlike A1, B2 (1,1) has absent operators among the factors of its
    # identities, divided-power rules and Serre relations; a word with an
    # absent or a degree-0 factor multiplies nothing it need not.  The
    # generator certificate is evaluated once per object.  Evaluating every
    # identity and every divided-power rule took (96, 172, 161).  X3
    # multiplies nothing: F_mu has full rank at every weight of this Weyl
    # module, so it reads rank(E_mu) (ranking E_mu against the saturation
    # basis of im F_mu took (69, 125, 114)).
    M = xcat.build_smin(b2, cyc3, (1, 1))
    assert _checker_matmuls(probe, M) == (58, 114, 114)


def test_probe_counts_build_matmuls(probe, a1, b2, cyc3):
    # A build step hands its memo of evaluated words to the next step, so
    # the product F_{a,n} E_{a,m} on a source is multiplied once per build,
    # not once for each step below the source that reads it.  Without the
    # memo these builds take 180 and 22 matmuls.
    counts = ()
    for build, rs, lam in ((xcat.build_smax, a1, (8,)), (xcat.build_smin, b2, (1, 1))):
        counts += _matmuls(probe, lam, lambda lam: build(rs, cyc3, lam))
    assert counts == (84, 20)
