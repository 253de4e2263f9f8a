"""Determinism test of the benchmark: two runs of the same workload and seed
must give identical counters, output digests and output sizes per case.

Usage, from the root of a checkout:

    python3 bench/selftest.py [--seed N] [workload ...]

Each run is a fresh ``run.py --seconds 1 --trace 0`` process.  Exits 0 when
every workload matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def case_facts(workload: str, seed: int) -> dict[str, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
        raise SystemExit(f"selftest: {workload} run failed:\n{proc.stderr}")
    records = json.loads((BENCH / "out" / f"records-{workload}-seed{seed}-trace0.json").read_text())
    return {r["case"]: {k: r[k] for k in ("counters", "sha256", "output_bytes")}
            for r in records["cases"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workload:
        first, second = case_facts(w, args.seed), case_facts(w, args.seed)
        diff = sorted(c for c in first.keys() | second.keys() if first.get(c) != second.get(c))
        ok &= not diff
        print(f"selftest {w}: {len(first)} cases, "
              + ("identical counters and bytes" if not diff else f"MISMATCH in {diff}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
