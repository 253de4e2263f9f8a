"""qtilt benchmark: time to a certified object on exact-arithmetic workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload swell-cyc --seed 1 --seconds 20 --trace 0

One run is a closed loop with one client in this process and no threads.  It
selects the workload's cases from ``--seed`` (``workloads.py``) and runs each
case's phases back to back: build, io (dump -> load -> re-dump), check,
verify, certify.  Every case passes basis-independent oracles before any of
its numbers count (``oracles.py``).

* A counting pass comes first: library wrappers record deterministic counters
  per case (``probe.py``) and take no clock readings.
* ``--trace 0``: timed passes with no wrappers until ``--seconds`` are used
  up; prints the end-to-end metrics.  Each phase metric is the sum over the
  cases of the per-case median over passes; ``setup_s`` is the median of
  several fresh interpreters.
* ``--trace 1``: untraced and traced passes alternate; prints the per-layer
  metrics (timings from the traced passes, counts from the counting pass)
  and ``trace.overhead_ratio``, and writes every span to ``bench/out/``.

The library's caches are emptied before each case, so each case starts cold.
Timings are wall-clock seconds calibrated to a reference host speed (see
``kernel_s``): on a shared 2-core host the raw speed drifts by up to 40%
between runs, which a pure-Python kernel timed between phases tracks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-case records
(counters, output digests, phase timings) go to ``bench/out/`` as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracles
import workloads
from probe import Probe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
PHASES = ("build", "io", "check", "verify", "certify")
SETUP_REPEATS = 11
# Reference host speed: the calibration kernel takes this long.
KERNEL_REF_S = 0.004

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import qtilt, qtilt.cli
for d in sys.argv[1].split():
    qtilt.parse_ring(d)
for r in sys.argv[2].split():
    qtilt.root_system(r)
dt = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from run import kernel_s
print(qtilt.__file__, repr(dt), repr(min(kernel_s() for _ in range(3))))
"""


class PhaseFailed(Exception):
    """An oracle rejected the output of a phase."""


def kernel_s() -> float:
    """Seconds taken by a fixed pure-Python exact-arithmetic kernel (Fraction
    and dict work, no qtilt code): the host's current speed.

    The host's speed drifts by tens of percent over seconds.  Every timing is
    therefore calibrated: multiplied by KERNEL_REF_S over the mean of the
    kernel timings taken right before and right after it, which gives the
    seconds it would have taken at the reference speed.
    """
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        table[i % 97] = table.get(i % 97, 0) + acc.numerator % 1000
    return time.perf_counter() - t0


def calibrated(raw_s: float, k_before: float, k_after: float) -> float:
    return raw_s * KERNEL_REF_S * 2 / (k_before + k_after)


class Bench:
    def __init__(self, workload: str, seed: int, lib: dict):
        self.lib = lib
        self.cases = workloads.select(workload, seed)
        self.probe = Probe()
        self.rings = {c.ring: lib["ring"].parse_ring(c.ring) for c in self.cases}
        self.roots = {c.root: lib["rootsys"].root_system(c.root) for c in self.cases}
        self.reference: dict[str, Counter] = {}
        self.records = {c.id: {"case": c.id, "passes": []} for c in self.cases}
        self.slowest_steps: list[dict] = []
        self.kernel_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failed_cases: set[str] = set()

    # -- one case ----------------------------------------------------------

    def prepare(self) -> None:
        """Untimed reference builds the form oracle compares against."""
        xcat = self.lib["xcat"]
        for c in self.cases:
            if c.kind == "form":
                M = xcat.build_smax(self.roots[c.root], self.rings[c.ring], c.weight)
                self.reference[c.id] = oracles.as_counter(xcat.character(M))

    def run_case(self, c: workloads.Case) -> tuple[dict, str, str, int]:
        """Run the five phases of one case; returns the timings (calibrated
        and raw seconds per phase, kernel seconds between phases), the digest
        of the serialized output, the object text and the output size in
        bytes.  Raises PhaseFailed or the library's exception, with
        ``self.probe.phase`` naming the phase."""
        lib, probe = self.lib, self.probe
        xcat, forms, ser, rootsys = lib["xcat"], lib["forms"], lib["serialize"], lib["rootsys"]
        rs, ring, lam = self.roots[c.root], self.rings[c.ring], c.weight
        clear_caches(lib)
        raw: dict[str, float] = {}
        kernel = [kernel_s()]

        def timed(phase, fn, *args):
            probe.phase = phase
            t0 = time.perf_counter()
            out = fn(*args)
            raw[phase] = time.perf_counter() - t0
            kernel.append(kernel_s())
            return out

        b = None
        if c.kind == "smax":
            M = timed("build", xcat.build_smax, rs, ring, lam)
        elif c.kind == "smin":
            M = timed("build", xcat.build_smin, rs, ring, lam)
        else:
            M, b = timed("build", forms.build_smax_with_form, rs, ring, lam)

        def io():
            text = ser.dump_xobject(M)
            M2 = ser.load_xobject(text)
            text2 = ser.dump_xobject(M2)
            if b is None:
                return text, M2, text2, None, "", ""
            ftext = ser.dump_form(M, b)
            b2 = ser.load_form(ftext, M2)
            return text, M2, text2, b2, ftext, ser.dump_form(M2, b2)

        text, M2, text2, b2, ftext, ftext2 = timed("io", io)
        if text != text2 or ftext != ftext2:
            raise PhaseFailed("dump -> load -> dump is not byte-identical")

        def check():
            return xcat.check_axioms(M2).ok and (b is None or forms.check_form(M2, b2).ok)

        if not timed("check", check):
            raise PhaseFailed("check_axioms / check_form failed")
        if not timed("verify", xcat.verify_relations, M2).ok:
            raise PhaseFailed("verify_relations failed")

        def certify():
            cert = (xcat.minimality_certificate(M2) if c.kind == "smin"
                    else xcat.maximality_certificate(M2))
            mults = xcat.weyl_multiplicities(M2)
            return cert, mults, {mu: rootsys.weyl_character(rs, mu) for mu in mults}

        cert, mults, wchars = timed("certify", certify)
        # The oracles' own library calls are neither counted nor traced.
        probe.phase = "oracle"
        mode = probe.mode
        if mode:
            probe.uninstall()
        try:
            self.certify_oracles(c, M2, b2, cert, mults, wchars)
        finally:
            if mode:
                probe.install(mode)

        self.kernel_samples.extend(kernel)
        timing = {"s": {p: calibrated(raw[p], kernel[i], kernel[i + 1])
                        for i, p in enumerate(PHASES)},
                  "raw_s": raw, "kernel_s": kernel}
        digest = hashlib.sha256((text + ftext).encode()).hexdigest()
        return timing, digest, text, len(text.encode()) + len(ftext.encode())

    def certify_oracles(self, c, M, b, cert, mults, wchars) -> None:
        xcat, linalg = self.lib["xcat"], self.lib["linalg"]
        ch = oracles.as_counter(xcat.character(M))
        if not cert.ok:
            raise PhaseFailed("certificate failed")
        if mults.get(c.weight) != 1:
            raise PhaseFailed("top Weyl multiplicity is not 1")
        if ch != oracles.character_sum(mults, wchars):
            raise PhaseFailed("character != sum of multiplicity * Weyl character")
        if c.kind == "smin" and ch != oracles.as_counter(wchars[c.weight]):
            raise PhaseFailed("Weyl module character != Freudenthal character")
        if c.kind == "smax" and c.root == "A1" and c.ring.startswith("cyc:"):
            l = int(c.ring.split(":")[1])
            if ch != oracles.a1_tilting_cyc(c.weight[0], l):
                raise PhaseFailed("A1 tilting character != closed form")
        if c.kind == "form":
            if any(linalg.det_valuation(g) != 0 for g in b.values()):
                raise PhaseFailed("Gram matrix with nonzero determinant valuation")
            if ch != self.reference[c.id]:
                raise PhaseFailed("form-carrying build character != build_smax character")

    # -- passes --------------------------------------------------------------

    def one_pass(self, mode: str | None, pass_no: int) -> dict[str, dict[str, float]]:
        """Run every case once; returns seconds per phase per passing case."""
        probe = self.probe
        probe.pass_no = pass_no
        probe.reset()
        self.kernel_samples = []
        if mode:
            probe.install(mode)
        out = {}
        try:
            for c in self.cases:
                probe.case = c.id
                if mode == "count":
                    probe.reset()
                rec = self.records[c.id]
                self.attempted += len(PHASES)
                try:
                    timing, digest, text, nbytes = self.run_case(c)
                except Exception as exc:  # a failed case must not stop the run
                    self.fail(c, probe.phase, exc)
                    continue
                finally:
                    probe.phase = ""
                rec["passes"].append({"pass": pass_no, "mode": mode or "plain", **timing})
                if mode == "count":
                    rec["counters"] = dict(sorted(probe.counts.items()))
                    rec["counters"].update(oracles.entry_stats(text))
                    rec["sha256"], rec["output_bytes"] = digest, nbytes
                elif rec.get("sha256") != digest:
                    self.fail(c, "io", PhaseFailed("output differs from the counting pass"))
                    continue
                out[c.id] = timing["s"]
        finally:
            if mode:
                probe.uninstall()
        return out

    def fail(self, c, phase: str, exc: Exception) -> None:
        done = PHASES.index(phase) if phase in PHASES else len(PHASES) - 1
        self.failed += len(PHASES) - done
        self.failed_cases.add(c.id)
        print(f"bench: case {c.id} failed in {phase}: {exc!r}", file=sys.stderr)
        if not isinstance(exc, PhaseFailed):
            traceback.print_exception(exc, file=sys.stderr)

    def timed_passes(self, seconds: float) -> list[dict]:
        """Untraced passes until ``seconds`` run out."""
        passes, durations = [], []
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            passes.append(self.one_pass(None, len(passes) + 1))
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(durations) > deadline:
                return passes

    def phase_medians(self, passes: list[dict]) -> dict[str, float]:
        """Sum over passing cases of the per-case median of each phase."""
        sums = dict.fromkeys(PHASES, 0.0)
        for c in self.cases:
            if c.id in self.failed_cases:
                continue
            for p in PHASES:
                sums[p] += statistics.median(ps[c.id][p] for ps in passes)
        return sums


def clear_caches(lib: dict) -> None:
    """Empty the library's functools caches, so every case starts cold and
    its counters do not depend on the cases run before it."""
    for mod in lib.values():
        for val in list(vars(mod).values()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def load_library() -> dict:
    src = ROOT / "src"
    if not (src / "qtilt" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qtilt sources under {src}")
    sys.path.insert(0, str(src))
    import qtilt
    from qtilt import forms, linalg, ring, rootsys, serialize, xcat

    if Path(qtilt.__file__).resolve().parent != src / "qtilt":
        raise SystemExit(f"bench: imported qtilt from {qtilt.__file__}, not {src}")
    return {"ring": ring, "linalg": linalg, "rootsys": rootsys, "xcat": xcat,
            "forms": forms, "serialize": serialize}


def measure_setup(bench: Bench) -> float:
    """Median seconds for a fresh interpreter to import qtilt (with its CLI)
    and construct the workload's rings (genericity certification) and root
    systems, calibrated by the kernel timed in that interpreter afterwards."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rings = " ".join(sorted(bench.rings))
    roots = " ".join(sorted(bench.roots))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, rings, roots,
                              str(ROOT / "bench")],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=60, check=True).stdout.split()
        if Path(out[0]).resolve().parent != ROOT / "src" / "qtilt":
            raise SystemExit(f"bench: set-up imported qtilt from {out[0]}")
        k = float(out[2])
        times.append(calibrated(float(out[1]), k, k))
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup = measure_setup(bench)
    passes = bench.timed_passes(seconds)
    ph = bench.phase_medians(passes)
    print(f"bench: {len(passes)} timed passes", file=sys.stderr)
    out_bytes = sum(r.get("output_bytes", 0) for r in bench.records.values())
    return {
        "total_s": metric(sum(ph.values()), "s"),
        "build_s": metric(ph["build"], "s"),
        "check_s": metric(ph["check"], "s"),
        "verify_s": metric(ph["verify"], "s"),
        "certify_s": metric(ph["certify"], "s"),
        "io_s": metric(ph["io"], "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_bytes": metric(out_bytes, "B"),
    }


def layer_times(probe: Probe, kernel: list[float]) -> dict[str, float]:
    """Per-layer seconds of one traced pass, calibrated by the median kernel
    time of the pass."""
    self_s, incl = probe.self_s, probe.incl_s

    def self_of(names=None, prefix=None, phase=None):
        return sum(v for (n, ph), v in self_s.items()
                   if (names is None or n in names)
                   and (prefix is None or n.startswith(prefix))
                   and (phase is None or ph == phase))

    k = statistics.median(kernel)
    raw = {
        "ring.self_s": probe.ring_s,
        "linalg.matmul_self_s": self_of({"linalg.Mat.__matmul__"}),
        "linalg.snf_self_s": self_of({"linalg.smith_normal_form"}),
        "xcat.step_self_s": self_of(prefix="xcat.", phase="build"),
        "xcat.step_max_s": probe.step_max[0],
        "xcat.hat_s": incl["xcat.hat_matrices"],
        "xcat.check_self_s": self_of(prefix="xcat.", phase="check"),
        "xcat.verify_self_s": self_of(prefix="xcat.", phase="verify"),
        "xcat.cert_self_s": self_of(prefix="xcat.", phase="certify"),
        "forms.self_s": self_of({"forms.complete_nondegenerate", "forms.extend_form_minimal"}),
        "forms.check_s": incl["forms.check_form"],
        "serialize.dump_s": incl["serialize.dump_xobject"] + incl["serialize.dump_form"],
        "serialize.load_s": incl["serialize.load_xobject"] + incl["serialize.load_form"],
        "rootsys.self_s": self_of({"rootsys.weights_below", "rootsys.weyl_character"}),
    }
    return {name: calibrated(v, k, k) for name, v in raw.items()}


LAYER_UNITS = {
    "ring.ops": "count", "ring.mul": "count", "ring.add": "count", "ring.div": "count",
    "ring.self_s": "s", "ring.us_per_op": "us",
    "linalg.matmul": "count", "linalg.matmul_products": "count",
    "linalg.matmul_nonzero_ratio": "ratio", "linalg.matmul_self_s": "s",
    "linalg.snf": "count", "linalg.snf_cells": "count", "linalg.snf_max_cells": "count",
    "linalg.snf_self_s": "s", "linalg.snf_rank_only_ratio": "ratio",
    "xcat.steps": "count", "xcat.step_self_s": "s", "xcat.step_max_s": "s",
    "xcat.hat_s": "s", "xcat.hat_blocks": "count", "xcat.delta_rank_max": "count",
    "xcat.torsion_adjoined": "count",
    "xcat.check_self_s": "s", "xcat.verify_self_s": "s", "xcat.cert_self_s": "s",
    "xcat.entries_nonzero": "count", "xcat.entry_max_degree_span": "count",
    "xcat.entry_max_coeff_bits": "bits", "xcat.entries_with_den": "count",
    "forms.steps": "count", "forms.self_s": "s", "forms.solve_calls": "count",
    "forms.check_s": "s",
    "serialize.dump_s": "s", "serialize.load_s": "s", "serialize.bytes": "B",
    "rootsys.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
MAX_COUNTERS = {"linalg.snf_max_cells", "xcat.delta_rank_max",
                "xcat.entry_max_degree_span", "xcat.entry_max_coeff_bits"}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict | None]:
    """Alternate untraced and traced passes until ``seconds`` run out;
    returns the per-layer metrics and the slowest extension step."""
    probe = bench.probe
    plain, traced, layer = [], [], []
    deadline = time.perf_counter() + seconds
    pass_no = 1
    while True:
        t0 = time.perf_counter()
        plain.append(bench.one_pass(None, pass_no))
        traced.append(bench.one_pass("trace", pass_no + 1))
        layer.append(layer_times(probe, bench.kernel_samples))
        if probe.step_max[1] is not None:
            bench.slowest_steps.append(probe.step_max[1])
        pass_no += 2
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    untraced_total = sum(bench.phase_medians(plain).values())
    traced_total = sum(bench.phase_medians(traced).values())

    counts: Counter = Counter()
    for r in bench.records.values():
        for k, v in r.get("counters", {}).items():
            counts[k] = max(counts[k], v) if k in MAX_COUNTERS else counts[k] + v
    values: dict[str, float] = {k: counts[k] for k in LAYER_UNITS}
    for k in layer[0]:
        values[k] = statistics.median(lt[k] for lt in layer)
    values["ring.us_per_op"] = values["ring.self_s"] / max(counts["ring.ops"], 1) * 1e6
    values["linalg.matmul_nonzero_ratio"] = (
        counts["linalg.matmul_nonzero_products"] / max(counts["linalg.matmul_products"], 1))
    values["linalg.snf_rank_only_ratio"] = counts["linalg.snf_rank_only"] / max(counts["linalg.snf"], 1)
    values["trace.overhead_ratio"] = traced_total / untraced_total if untraced_total else 0.0
    slowest = max(bench.slowest_steps, key=lambda s: s["seconds"], default=None)
    return {k: metric(values[k], u) for k, u in LAYER_UNITS.items()}, slowest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = load_library()
    bench = Bench(args.workload, args.seed, lib)
    print(f"bench: workload {args.workload} seed {args.seed}: "
          + " ".join(c.id for c in bench.cases))
    bench.prepare()
    bench.one_pass("count", 0)
    if args.trace:
        metrics, slowest = per_layer(bench, args.seconds)
    else:
        metrics, slowest = end_to_end(bench, args.seconds), None

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"records-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "cases": list(bench.records.values()), "slowest_step": slowest,
                   "metrics": metrics}, fh, indent=1)
    if args.trace:
        write_spans(bench.probe, OUT / f"spans-{stem}.jsonl")
        if slowest:
            print(f"bench: slowest extension step {slowest['seconds']:.3f} s (raw) at weight "
                  f"{tuple(slowest['weight'])} of {slowest['case']}")
    for name, m in metrics.items():
        print(f"bench: {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def write_spans(probe: Probe, path: Path) -> None:
    keys = ("id", "parent", "name", "start", "end", "case", "pass", "step")
    with open(path, "w", encoding="utf-8") as fh:
        for span in probe.spans:
            rec = dict(zip(keys, span))
            if rec["step"] is None:
                del rec["step"]
            fh.write(json.dumps(rec) + "\n")


if __name__ == "__main__":
    sys.exit(main())
