"""Workload case pools and seeded case selection.

Each workload is a list of cost bands.  A band holds variants of one case
that do the same work: the same root system and weight over ``cyc:3`` and
``cyc:6``.  v -> -v maps one localization onto the other, so the two objects
differ only in signs: they have the same ranks, the same operation counts and
the same serialized size.  ``--seed`` picks one variant per band and the
order of the chosen cases, so a claim can be re-checked on other inputs while
the work per pass, the counters and ``output_bytes`` stay the same.

Cases are kept small (each phase well under a second) so a run fits many
passes and host-speed calibration brackets every phase closely.  Longer
cases such as A1 (11), A2 (2,2) or B2 (2,1) over ``cyc:3`` made single
phase timings spread 10-20% between runs on a shared 2-core host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Default seed of ``run.py``; recorded with the seed-commit numbers in
# ``bench/BASELINE.json``.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Case:
    kind: str           # "smax", "smin" or "form" (build_smax_with_form)
    root: str
    ring: str
    weight: tuple[int, ...]

    @property
    def id(self) -> str:
        w = ",".join(str(x) for x in self.weight)
        return f"{self.kind}-{self.root}-{self.ring}-({w})"


def _cyc(kind: str, root: str, weight: tuple[int, ...]) -> list[Case]:
    return [Case(kind, root, "cyc:3", weight), Case(kind, root, "cyc:6", weight)]


def _one(kind: str, root: str, ring: str, weight: tuple[int, ...]) -> list[Case]:
    return [Case(kind, root, ring, weight)]


WORKLOADS: dict[str, list[list[Case]]] = {
    # Laurent canonicalization dominates; entries swell to degree span 44.
    "swell-cyc": [
        _cyc("smax", "A1", (4,)),
        _cyc("smax", "A1", (5,)),
        _cyc("smax", "A1", (8,)),
    ],
    # Numeric Fraction kind: no polynomial gcd, long divided-power ladders.
    "numeric-ladder": [
        _one("smax", "A1", "int:3", (14,)),
        _one("smax", "A1", "int:5", (14,)),
    ],
    # Many weights, short ladders: SNF-heavy checks and certificates.
    "rank-many": [
        _cyc("smin", "A2", (2, 1)),
        _cyc("smin", "B2", (1, 1)),
        _cyc("smax", "C3", (0, 1, 0)),
        _cyc("smax", "A3", (1, 0, 1)),
        _cyc("smin", "G2", (1, 0)),
        _one("smax", "A2", "int:2", (2, 1)),
        _one("smin", "A3", "int:3", (1, 0, 1)),
    ],
    # The only workload that runs the forms layer.
    "selfdual-form": [
        _cyc("form", "A1", (3,)),
        _cyc("form", "A1", (4,)),
        _cyc("form", "A1", (5,)),
        _cyc("form", "A2", (1, 1)),
        _cyc("form", "A2", (2, 1)),
        _cyc("form", "B2", (1, 1)),
    ],
}


def select(workload: str, seed: int) -> list[Case]:
    """One variant per band, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    cases = [rng.choice(band) for band in WORKLOADS[workload]]
    rng.shuffle(cases)
    return cases
