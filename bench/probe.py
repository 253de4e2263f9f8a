"""Run-time wrappers around the public functions of every qtilt layer.

The library is measured from outside: ``Probe.install`` replaces each
wrapped function or method with a closure, in the defining module and in
every qtilt module that bound it with ``from .x import ...``, and
``Probe.uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Two modes, never mixed in one pass:

* ``count`` records deterministic operation counts (ring ops, matmul and SNF
  sizes, hat blocks, torsion adjoined, ...) and takes no clock readings.
* ``trace`` records one span per wrapped call (name, start, end, parent,
  case) and computes self time as duration minus the time covered by child
  spans.  Ring operations are too many to keep one by one: they are timed
  as children of the enclosing span and summed, not stored.

Both modes follow the extension steps of a build (the outermost
``maximal_extend``, ``minimal_extend`` or ``complete_nondegenerate``) and
note each step's weight, delta rank, new rank and generators adjoined.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# RingElem methods and the counter each one feeds (outermost calls only;
# __sub__ calling __add__ and __neg__ counts once).
RING_OPS = {
    "__add__": "add", "__sub__": "add", "__neg__": "add",
    "__mul__": "mul", "__pow__": "pow",
    "divide": "div", "__truediv__": "div", "inverse": "div",
}
MAT_METHODS = ("__matmul__", "__add__", "scale")
FUNCS = {
    "linalg": ("hstack", "vstack", "smith_normal_form", "rank", "kernel_saturated",
               "saturation_with_invariants", "solve_in_span", "free_complement",
               "relative_invariants", "is_unit_matrix", "inverse_unit",
               "det_valuation"),
    "xcat": ("build_smin", "build_smax", "minimal_extend", "maximal_extend",
             "hat_matrices", "delta_space", "check_axioms", "verify_relations",
             "maximality_certificate", "minimality_certificate",
             "weyl_multiplicities", "character"),
    "forms": ("build_smax_with_form", "complete_nondegenerate",
              "extend_form_minimal", "check_form"),
    "serialize": ("dump_xobject", "load_xobject", "dump_form", "load_form"),
    "rootsys": ("weights_below", "weyl_character"),
}
STEP_FUNCS = {"xcat.maximal_extend", "xcat.minimal_extend", "forms.complete_nondegenerate"}
XCAT_EXTEND = {"xcat.maximal_extend", "xcat.minimal_extend"}
RANK_ONLY_CALLERS = {"linalg.rank", "linalg.det_valuation", "linalg.is_unit_matrix"}


PKG = "qtilt"


class Probe:
    def __init__(self):
        self.mode: str | None = None
        self.case = ""
        self.phase = ""
        self.pass_no = 0
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Clear the per-case counters and the per-pass timings."""
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()      # (name, phase) -> self seconds
        self.incl_s: Counter = Counter()      # name -> inclusive seconds
        self.ring_s = 0.0
        self.step_max = (0.0, None)           # (seconds, step record)
        self._stack: list[list] = []          # [name, child_s, span_id]
        self._ring_depth = 0
        self._forms_depth = 0
        self._extend_depth = 0
        self._step: dict | None = None

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PKG or name.startswith(PKG + "."))]

    def install(self, mode: str) -> None:
        if self.mode is not None:
            raise RuntimeError("probe already installed")
        self.mode = mode
        ring = sys.modules[f"{PKG}.ring"]
        linalg = sys.modules[f"{PKG}.linalg"]
        for meth, kind in RING_OPS.items():
            self._patch_attr(ring.RingElem, meth, self._ring_wrapper(kind, meth))
        for meth in MAT_METHODS:
            name = f"linalg.Mat.{meth}"
            self._patch_attr(linalg.Mat, meth,
                             lambda fn, name=name: self._wrapper(name, fn))
        modules = self._modules()
        for layer, names in FUNCS.items():
            mod = sys.modules[f"{PKG}.{layer}"]
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    print(f"bench: {layer}.{fname} not found; not wrapped",
                          file=sys.stderr)
                    continue
                wrapped = self._wrapper(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def _patch_attr(self, owner, attr: str, make) -> None:
        orig = owner.__dict__.get(attr)
        if orig is None:
            print(f"bench: {owner.__name__}.{attr} not found; not wrapped", file=sys.stderr)
            return
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        self.mode = None

    # -- wrappers ----------------------------------------------------------

    def _ring_wrapper(self, kind: str, meth: str):
        probe = self
        if self.mode == "count":
            def make(fn):
                def ring_op(*args):
                    if probe._ring_depth:
                        return fn(*args)
                    probe.counts["ring.ops"] += 1
                    probe.counts[f"ring.{kind}"] += 1
                    probe._ring_depth = 1
                    try:
                        return fn(*args)
                    finally:
                        probe._ring_depth = 0
                return ring_op
            return make

        def make(fn):
            def ring_op(*args):
                if probe._ring_depth:
                    return fn(*args)
                probe._ring_depth = 1
                t0 = perf_counter()
                try:
                    return fn(*args)
                finally:
                    dt = perf_counter() - t0
                    probe._ring_depth = 0
                    probe.ring_s += dt
                    if probe._stack:
                        probe._stack[-1][1] += dt
            return ring_op
        return make

    def _wrapper(self, name: str, fn):
        probe = self
        is_step = name in STEP_FUNCS
        is_extend = name in XCAT_EXTEND
        is_forms = name.startswith("forms.")
        timed = self.mode == "trace"
        counter = _COUNTERS.get(name) if self.mode == "count" else None

        def call(*args, **kwargs):
            stack = probe._stack
            caller = stack[-1][0] if stack else None
            step_here = is_step and probe._step is None
            if step_here:
                probe._step = {"case": probe.case, "weight": list(args[-1]),
                               "delta_rank": 0, "new_rank": 0, "adjoined": 0}
            outer_extend = is_extend and not probe._extend_depth
            probe._extend_depth += is_extend
            probe._forms_depth += is_forms
            frame = [name, 0.0, probe._next_id]
            probe._next_id += 1
            stack.append(frame)
            t0 = perf_counter() if timed else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter() if timed else 0.0
                stack.pop()
                probe._extend_depth -= is_extend
                probe._forms_depth -= is_forms
                if step_here:
                    step, probe._step = probe._step, None
            if counter is not None:
                counter(probe, args, result, caller)
            if outer_extend and probe.mode == "count":
                probe.counts["xcat.steps"] += 1
            step_rec = _step_exit(probe, name, args, result, step if step_here else None)
            if timed:
                dur = t1 - t0
                probe.self_s[(name, probe.phase)] += dur - frame[1]
                probe.incl_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                probe.spans.append((frame[2], stack[-1][2] if stack else -1, name,
                                    t0, t1, probe.case, probe.pass_no, step_rec))
                if step_rec is not None:
                    step_rec["seconds"] = dur
                    if dur > probe.step_max[0]:
                        probe.step_max = (dur, step_rec)
            return result

        return call


def _step_exit(probe: Probe, name: str, args, result, step: dict | None):
    """Step bookkeeping after a wrapped call returns; the finished step record
    when the call was the step itself."""
    if name == "xcat.hat_matrices" and probe._step is not None:
        if not probe._step["delta_rank"]:
            probe._step["delta_rank"] = sum(b.rank for b in result[2])
    if name == "xcat.minimal_extend" and probe._step is not None:
        probe._step["min_rank"] = result.rank(args[-1])
    if step is None:
        return None
    obj = result[0] if isinstance(result, tuple) else result
    step["new_rank"] = obj.rank(args[-1])
    step["adjoined"] = step["new_rank"] - step.pop("min_rank", step["new_rank"])
    if probe.mode == "count":
        probe.counts["xcat.torsion_adjoined"] += step["adjoined"]
        probe.counts["forms.steps"] += name == "forms.complete_nondegenerate"
    return step


# -- count-mode hooks: (probe, args, result, caller) -------------------------

def _count_matmul(p: Probe, args, result, caller) -> None:
    a, b = args
    c = p.counts
    c["linalg.matmul"] += 1
    c["linalg.matmul_products"] += a.rows * a.cols * b.cols
    col_nz = [0] * a.cols
    for row in a.entries:
        for k, x in enumerate(row):
            if not x.is_zero():
                col_nz[k] += 1
    c["linalg.matmul_nonzero_products"] += sum(
        col_nz[k] * sum(not x.is_zero() for x in b.entries[k]) for k in range(a.cols))


def _count_snf(p: Probe, args, result, caller) -> None:
    m = args[0]
    c = p.counts
    cells = m.rows * m.cols
    c["linalg.snf"] += 1
    c["linalg.snf_cells"] += cells
    c["linalg.snf_max_cells"] = max(c["linalg.snf_max_cells"], cells)
    c["linalg.snf_rank_only"] += caller in RANK_ONLY_CALLERS


def _count_hat(p: Probe, args, result, caller) -> None:
    index = result[2]
    c = p.counts
    c["xcat.hat"] += 1
    c["xcat.hat_blocks"] += len(index) ** 2
    c["xcat.delta_rank_max"] = max(c["xcat.delta_rank_max"], sum(b.rank for b in index))


def _count_solve(p: Probe, args, result, caller) -> None:
    p.counts["linalg.solve_in_span"] += 1
    p.counts["forms.solve_calls"] += p._forms_depth > 0


def _count_dump(p: Probe, args, result, caller) -> None:
    p.counts["serialize.dumps"] += 1
    p.counts["serialize.bytes"] += len(result.encode())


def _count_calls(name: str):
    def hook(p: Probe, args, result, caller) -> None:
        p.counts[name] += 1
    return hook


_COUNTERS = {
    "linalg.Mat.__matmul__": _count_matmul,
    "linalg.smith_normal_form": _count_snf,
    "xcat.hat_matrices": _count_hat,
    "linalg.solve_in_span": _count_solve,
    "serialize.dump_xobject": _count_dump,
    "serialize.dump_form": _count_dump,
}
for _layer, _names in FUNCS.items():
    for _n in _names:
        _COUNTERS.setdefault(f"{_layer}.{_n}", _count_calls(f"{_layer}.{_n}"))
for _m in MAT_METHODS[1:]:
    _COUNTERS[f"linalg.Mat.{_m}"] = _count_calls(f"linalg.Mat.{_m}")
